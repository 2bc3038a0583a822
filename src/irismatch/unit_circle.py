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
"""

from __future__ import annotations

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


class UnitCircleFilter:
    """Parameters of one unit-circle layer: weight (2,1,kh,kw) and optional bias (2,)."""

    def __init__(self, kh, kw, bias=True, rng=None, dtype=np.float64):
        if kh % 2 == 0 or kw % 2 == 0 or kh < 1 or kw < 1:
            raise ShapeError(f"kernel extents must be odd and positive, got {kh}x{kw}")
        self.kh = int(kh)
        self.kw = int(kw)
        rng = rng or np.random.default_rng(0)
        fan_in = kh * kw
        self.weight = Tensor(kaiming_uniform(rng, (2, 1, kh, kw), fan_in).astype(dtype),
                             requires_grad=True)
        if bias:
            bb = 1.0 / np.sqrt(fan_in)
            self.bias = Tensor(rng.uniform(-bb, bb, size=2).astype(dtype), requires_grad=True)
        else:
            self.bias = None

    @property
    def stride(self):
        return 1

    def parameters(self):
        return [self.weight] if self.bias is None else [self.weight, self.bias]


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
    """An ordered set of unit-circle layers sharing stride and padding policy."""

    def __init__(self, kernels=DEFAULT_KERNELS, bias=True, mode="unit-circle",
                 rng=None, dtype=np.float64):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        if not kernels:
            raise ShapeError("a bank needs at least one filter")
        rng = rng or np.random.default_rng(0)
        self.mode = mode
        self.has_bias = bool(bias)
        self.filters = [UnitCircleFilter(kh, kw, bias=bias, rng=rng, dtype=dtype)
                        for kh, kw in kernels]

    @property
    def num_filters(self):
        return len(self.filters)

    @property
    def out_channels(self):
        return 2 * len(self.filters)

    def kernels(self):
        return [(f.kh, f.kw) for f in self.filters]

    def parameters(self):
        return [p for f in self.filters for p in f.parameters()]

    def named_parameters(self):
        out = []
        for i, f in enumerate(self.filters):
            out.append((f"bank.{i}.weight", f.weight))
            if f.bias is not None:
                out.append((f"bank.{i}.bias", f.bias))
        return out

    def forward(self, x):
        return bank_forward(x, self)


def bank_forward(x, bank):
    """Concatenate every filter's response along channels: (B,1,H,W) -> (B,2F,H,W)."""
    if not bank.filters:
        raise ShapeError("empty filter bank")
    return T.concat([uc_forward(x, f, bank.mode) for f in bank.filters], axis=1)
