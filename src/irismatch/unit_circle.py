"""Unit-circle feature layers for polar iris images.

Each layer is a one-input-channel, two-output-channel convolution whose
per-pixel response 2-vector is projected onto the unit circle (divided by its
l2 norm).  Because the input is a polar unwrapping, padding is circular along
the angular (column) axis and zero along the radial (row) axis, which makes
the features exactly equivariant to eye rotation.

A bank holds several such layers at different kernel geometries; their
responses are concatenated channel-wise.  For ablations the l2 normalization
can be swapped for a plain ReLU or ELU nonlinearity.

Each layer runs ``conv2d(padding="wrap")``, which filters in the radial
frequency domain: a real FFT along the rows, direct circular taps along the
angular axis, an inverse FFT.  A 2-D FFT would be faster still, but under
a column transform a shifted iris has a phase-rotated spectrum that rounds
differently, so its features would move by rounding noise (about 1e-15)
instead of shifting bitwise; the radial variant keeps the rotation
equivariance exact.  ``wrap_pad`` followed by an unpadded conv is
the explicit (im2col) form of the same layer, kept as the test oracle.

A layer runs in its input's dtype: training feeds float64 images, scoring
float32 ones, through the same float64 weights.  The float32 bank keeps the
bitwise rotation equivariance (the argument above does not depend on the
dtype).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

NORM_EPS = 1e-12

DEFAULT_KERNELS = ((7, 9), (7, 17), (11, 17), (11, 33), (15, 33))

MODES = ("unit-circle", "relu", "elu")


def wrap_pad(image, kh, kw):
    """Pad a (B, 1, H, W) polar image for a kh x kw kernel.

    Rows get floor(kh/2) zero rows on top and bottom.  Columns continue
    circularly: with h = floor(kw/2), the h rightmost columns are copied to
    the left edge and the h leftmost columns to the right edge.

    The layers do not call it (``uc_forward`` uses ``conv2d(padding="wrap")``);
    it is the reference the tests compare that path against.
    """
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel extents must be odd, got {kh}x{kw}")
    W = image.shape[3]
    if kw > 2 * W + 1:
        raise ShapeError(f"kernel width {kw} exceeds 2*W+1 = {2 * W + 1}")
    return T.pad2d(image, kh // 2, kh // 2, kw // 2, kw // 2, mode="wrap")


def kaiming_uniform(rng, shape, fan_in):
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


def init_conv(rng, shape, bias, dtype):
    """Weight and (if ``bias``) bias tensors of a convolution whose weight
    has shape (Cout, Cin, kh, kw): Kaiming-uniform weights, then biases
    uniform in +-1/sqrt(fan_in), drawn from ``rng`` in that order.
    ``rng=None`` draws nothing and gives zeros, for a checkpoint to fill."""
    fan_in = math.prod(shape[1:])
    if rng is None:
        w = np.zeros(shape, dtype=dtype)
        b = np.zeros(shape[0], dtype=dtype) if bias else None
    else:
        w = kaiming_uniform(rng, shape, fan_in).astype(dtype)
        bb = 1.0 / np.sqrt(fan_in)
        b = rng.uniform(-bb, bb, size=shape[0]).astype(dtype) if bias else None
    return Tensor(w, requires_grad=True), None if b is None else Tensor(b, requires_grad=True)


class UnitCircleFilter:
    """Parameters of one unit-circle layer: weight (2,1,kh,kw) and optional bias (2,).

    ``rng=None`` draws nothing: the parameters are zero until set."""

    def __init__(self, kh, kw, bias=True, rng=None, dtype=np.float64):
        if kh % 2 == 0 or kw % 2 == 0 or kh < 1 or kw < 1:
            raise ShapeError(f"kernel extents must be odd and positive, got {kh}x{kw}")
        self.kh = int(kh)
        self.kw = int(kw)
        self.weight, self.bias = init_conv(rng, (2, 1, kh, kw), bias, dtype)


def uc_forward(x, f, mode="unit-circle"):
    """Response of one layer: wrap conv, then the per-pixel nonlinearity.

    Output spatial size equals the input's.  In "unit-circle" mode every
    output 2-vector lies on the unit circle, except pixels whose raw response
    norm falls under NORM_EPS, which map to (0, 0) with zero gradient.
    """
    raw = T.conv2d(x, f.weight, f.bias, padding="wrap")
    if mode == "unit-circle":
        return T.channel_l2_normalize(raw, eps=NORM_EPS)
    if mode == "relu":
        return T.relu(raw)
    if mode == "elu":
        return T.elu(raw)
    raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


class UnitCircleBank:
    """An ordered set of unit-circle layers sharing stride and padding policy.

    ``rng=None`` draws nothing: the parameters are zero until set."""

    def __init__(self, kernels=DEFAULT_KERNELS, bias=True, mode="unit-circle",
                 rng=None, dtype=np.float64):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        if not kernels:
            raise ShapeError("a bank needs at least one filter")
        self.mode = mode
        self.filters = [UnitCircleFilter(kh, kw, bias=bias, rng=rng, dtype=dtype)
                        for kh, kw in kernels]

    @property
    def num_filters(self):
        return len(self.filters)

    @property
    def out_channels(self):
        return 2 * len(self.filters)

    def named_parameters(self):
        out = []
        for i, f in enumerate(self.filters):
            out.append((f"bank.{i}.weight", f.weight))
            if f.bias is not None:
                out.append((f"bank.{i}.bias", f.bias))
        return out

    def forward(self, x):
        """Concatenate every filter's response along channels: (B,1,H,W) -> (B,2F,H,W)."""
        return T.concat([uc_forward(x, f, self.mode) for f in self.filters], axis=1)
