"""Reference forms of model helpers that only the tests use.

``pair_input`` builds the concatenated matcher input of one pair on the
tape, the form ``pair_batch`` takes in training and ``PairFeatures`` keeps
factorized at inference.  ``parameter_count`` counts learnable scalars.
"""

from __future__ import annotations

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
