"""Iris verification: a unit-circle convolutional matcher trained end to end,
the classical log-Gabor bitcode baseline, and TAR@FAR evaluation, all on
numpy with a self-contained reverse-mode autodiff engine."""

__version__ = "0.1.0"

from .matcher import IrisMatchModel, ModelConfig
from .iriscode import LogGaborSpec
from .training import TrainConfig, train
# perfbench's tracer looks these modules up as attributes of the package
from . import checkpoint, iris_io, synthetic

__all__ = ["IrisMatchModel", "ModelConfig", "LogGaborSpec", "TrainConfig", "train"]
