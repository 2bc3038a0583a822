"""Reference forms of model helpers that only the tests use.

``pair_input`` builds the concatenated matcher input of one pair on the
tape, the form ``pair_batch`` takes in training and ``PairFeatures`` keeps
factorized at inference.  ``parameter_count`` counts learnable scalars.
``blas_core`` and ``blas_threads`` name the BLAS kernel and thread count
whose bits a bitwise test pins.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

from irismatch import tensor as T
from irismatch.tensor import ShapeError


def pair_input(model, xq, xr):
    """Concatenated bank responses of two (B, 1, H, W) images: (B, 4F, H, W)."""
    if xq.shape != xr.shape:
        raise ShapeError(f"pair images disagree in shape: {xq.shape} vs {xr.shape}")
    return T.concat([model.bank.forward(xq), model.bank.forward(xr)], axis=1)


def parameter_count(model):
    """Number of learnable scalars (conv weights/biases, batch-norm affine) of
    a model, or of a list of (name, tensor) pairs.

    Running statistics are buffers, not parameters, and are excluded.
    """
    named = model.named_parameters() if hasattr(model, "named_parameters") else model
    return int(sum(t.data.size for _, t in named))


def _openblas():
    """numpy's bundled OpenBLAS, or None where it is not found."""
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            for name, restype in (("scipy_openblas_get_corename64_", ctypes.c_char_p),
                                  ("scipy_openblas_get_num_threads64_", ctypes.c_int)):
                getattr(lib, name).argtypes = []
                getattr(lib, name).restype = restype
        except (OSError, AttributeError):
            continue
        return lib
    return None


def blas_core():
    """The OpenBLAS kernel numpy's GEMMs run on in this process (SkylakeX on
    an AVX-512 host; OPENBLAS_CORETYPE picks another), or "unknown" where
    numpy's bundled OpenBLAS is not found."""
    lib = _openblas()
    return "unknown" if lib is None else lib.scipy_openblas_get_corename64_().decode("ascii")


def blas_threads():
    """The number of threads numpy's OpenBLAS runs a GEMM on in this process
    (OPENBLAS_NUM_THREADS, capped at the usable CPUs), or 0 where numpy's
    bundled OpenBLAS is not found.  Some kernels' bits depend on it."""
    lib = _openblas()
    return 0 if lib is None else lib.scipy_openblas_get_num_threads64_()
