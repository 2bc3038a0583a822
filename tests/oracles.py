"""Reference forms of helpers that only the tests use.

``pair_input`` builds the concatenated matcher input of one pair on the
tape, the form ``pair_batch`` takes in training and ``PairFeatures`` keeps
factorized at inference.  ``parameter_count`` counts learnable scalars.
``shift_bitcode`` is the unpacked form of the rotations the packed bitcode
matcher cuts from its words.  ``strided_bitcode`` builds a code's bits and
mask by strided writes into zeroed arrays, the construction ``encode``
replaced with one comparison on the interleaved response.
"""

from __future__ import annotations

import numpy as np

from irismatch import tensor as T
from irismatch.iriscode import (_ABS_FLOOR, MAGNITUDE_FLOOR, Bitcode, LogGaborSpec,
                                log_gabor_transfer)
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


def shift_bitcode(code: Bitcode, k):
    """Circularly shift by k sample columns (bit pairs move together)."""
    h, w2 = code.bits.shape
    bits = np.roll(code.bits.reshape(h, w2 // 2, 2), k, axis=1).reshape(h, w2)
    mask = np.roll(code.mask.reshape(h, w2 // 2, 2), k, axis=1).reshape(h, w2)
    return Bitcode(bits, mask)


def strided_bitcode(img, spec: LogGaborSpec = LogGaborSpec()):
    """``encode``'s Bitcode, its real and imaginary sign bits and its valid
    samples written into the even and odd columns one part at a time."""
    rows = np.asarray(img, dtype=np.float64)[::spec.row_step]
    transfer = log_gabor_transfer(rows.shape[1], spec)
    response = np.fft.ifft(np.fft.fft(rows, axis=1) * transfer[None, :], axis=1)
    magnitude = np.abs(response)
    floor = np.maximum(MAGNITUDE_FLOOR * magnitude.max(axis=1, keepdims=True), _ABS_FLOOR)
    valid = magnitude >= floor
    h, w = rows.shape
    bits = np.zeros((h, 2 * w), dtype=np.uint8)
    mask = np.zeros((h, 2 * w), dtype=np.uint8)
    bits[:, 0::2] = response.real > 0
    bits[:, 1::2] = response.imag > 0
    mask[:, 0::2] = valid
    mask[:, 1::2] = valid
    return Bitcode(bits, mask)
