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
equivariance exact.  ``T.pad2d(mode="wrap")`` followed by an unpadded conv
is the explicit (im2col) form of the same layer, kept as the test oracle.

With a graph to record (stage-2 training) the bank runs its layers as
tensor ops and concatenates their responses.  With none (scoring, ``match``,
validation and the stage-1 feature cache, all through
``IrisMatchModel.bank_features``) it shares the row FFT of its input among
its filters, one per FFT length (two for the default kernels), and each
filter writes its response into its channel pair of one output array and
normalizes it there in place.  Both paths give the same bits.

Like every op, a layer computes in its operands' one dtype, and refuses
operands of two: float64 in training, float32 in a model cast for scoring
(``IrisMatchModel.astype``).
The float32 bank keeps the bitwise rotation equivariance (the argument
above does not depend on the dtype).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

NORM_EPS = 1e-12

DEFAULT_KERNELS = ((7, 9), (7, 17), (11, 17), (11, 33), (15, 33))

MODES = ("unit-circle", "relu", "elu")


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

    def __init__(self, kh, kw, bias, rng=None, dtype=np.float64):
        if kh % 2 == 0 or kw % 2 == 0 or kh < 1 or kw < 1:
            raise ShapeError(f"kernel extents must be odd and positive, got {kh}x{kw}")
        self.kh = int(kh)
        self.kw = int(kw)
        self.weight, self.bias = init_conv(rng, (2, 1, kh, kw), bias, dtype)


def uc_forward(x, f, mode="unit-circle", out=None, spectrum=None):
    """Response of one layer: wrap conv, then the per-pixel nonlinearity.

    Output spatial size equals the input's.  In "unit-circle" mode every
    output 2-vector lies on the unit circle, except pixels whose raw response
    norm falls under NORM_EPS, which map to (0, 0) with zero gradient.

    Given a (B, 2, H, W) array ``out`` ("unit-circle" mode, no graph), the
    response is written there instead and normalized in place, from the row
    spectra ``spectrum(L)`` of ``x`` (see ``T.wrap_conv_into``), and ``out``
    is returned: the same bits as the tensor path.
    """
    if out is not None:
        T.wrap_conv_into(out, spectrum, f.weight.data, None if f.bias is None else f.bias.data)
        return T.unit_normalize_pairs(out, eps=NORM_EPS)
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

    def __init__(self, kernels, bias, mode, rng=None, dtype=np.float64):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        if not kernels:
            raise ShapeError("a bank needs at least one filter")
        self.mode = mode
        self.filters = [UnitCircleFilter(kh, kw, bias=bias, rng=rng, dtype=dtype)
                        for kh, kw in kernels]

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

    def forward(self, x, out=None):
        """Every filter's response, concatenated along channels:
        (B, 1, H, W) -> (B, 2F, H, W).

        With a graph to record (stage-2 training), or in "relu" or "elu"
        mode, each filter runs ``conv2d`` and its nonlinearity and
        ``concat`` joins them.  Otherwise the bank works in one pass: it
        takes ``x``'s row FFT once per distinct FFT length, padded
        circularly once at the widest filter's half width, and each filter
        (``uc_forward``) writes its response into its channel pair of one
        output and normalizes it there.  Both give the same bits.  The
        output is ``out`` if given (``bank_features`` passes its rows of a
        chunk), which holds no graph.
        """
        params = [t for _, t in self.named_parameters()]
        if self.mode != "unit-circle" or T.records_graph(x, *params):
            y = T.concat([uc_forward(x, f, self.mode) for f in self.filters], axis=1)
            if out is None:
                return y
            out[...] = y.data
            return Tensor(out)
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"a bank takes (B, 1, H, W) images, got {x.shape}")
        T._one_dtype("the bank", x.data, out, *(t.data for t in params))
        if out is None:
            out = np.empty((x.shape[0], self.out_channels) + x.shape[2:], dtype=x.dtype)
        pad = max(f.kw for f in self.filters) // 2
        spectrum = functools.cache(lambda L: T.row_spectrum(x.data, L, pad))
        for i, f in enumerate(self.filters):
            uc_forward(x, f, self.mode, out=out[:, 2 * i:2 * i + 2], spectrum=spectrum)
        return Tensor(out)
