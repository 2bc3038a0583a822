"""Dense tensors with reverse-mode automatic differentiation.

A deliberately small engine: it provides exactly the primitives the iris
matcher needs (2-D convolution with zero or horizontal-wrap padding, channel
l2-normalization, batch normalization, ELU/ReLU, dropout, sigmoid, global
average pooling, binary cross-entropy) plus the elementwise arithmetic used
to glue them together.

Data lives in numpy arrays, float64 by default.  Training runs in float64;
scoring runs in float32 from the same float64 checkpoint.  A wrap-padded
(bank) convolution runs in its input's dtype whatever its weights' dtype.
Every other op computes in its operands' dtype, so a float64 weight or
running statistic would promote a float32 activation back to float64; the
matcher is cast before a float32 call (``MatcherModel.astype``).

Each operation records its inputs and a backward closure;
``Tensor.backward`` replays the recorded operations in reverse topological
order and accumulates gradients into every tensor that requires them.

``conv2d`` runs one of two algorithms, forward and backward:

* zero or no padding (the matcher): im2col in channel-major layout,
  ``(n, C*kh*kw, oh*ow)``, so ``weight @ cols`` lands in NCHW with no
  transpose; batches are chunked to bound the column workspace.  The
  zero padding is written into the columns, so no padded copy of the input
  is built, and inside a ``workspace`` block the columns of every batch
  step reuse one buffer instead of a freshly mapped, page-zeroed one.
* wrap padding (the unit-circle bank): one real FFT along the rows (zero
  padded, so the radial correlation is linear), kw direct circular taps
  along the angular axis on the row spectra, one inverse FFT; the weight
  gradient is an FFT correlation (Mathieu, Henaff & LeCun, "Fast Training
  of Convolutional Networks through FFTs", arXiv:1312.5851).  The angular
  axis is deliberately not transformed: a column FFT would be exact in
  arithmetic but not in floating point, and a circular column shift of the
  input would then move the output by rounding noise instead of shifting
  it bitwise.  Direct taps give every column the same arithmetic, so the
  bank stays exactly rotation-equivariant.

Both skip the input gradient when the input does not require grad (the
bank's input is the image; stage-1 matcher inputs are cached features).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


_FLOAT_DTYPES = (np.float64, np.float32)

# elements per im2col block; keeps convolution workspaces < ~128 MB of f64
_COL_BUDGET = 1 << 24

# dtype -> the reused im2col buffer inside a ``workspace`` block, else None
_workspace_buffers = None

# elements per slice of the ELU temporary (512 KB of f64)
_ELU_SLICE = 1 << 16

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (pure inference)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _as_array(data, dtype=None):
    if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES and dtype is None:
        return data
    return np.asarray(data, dtype=dtype or np.float64)


class Tensor:
    """N-dimensional real array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._consumed = False

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"

    # -- backward ---------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every tracked tensor reachable from this scalar.

        The recorded operations are replayed in reverse topological order.
        A graph can be consumed only once; repeated calls raise.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad (detached graph)")
        if self._consumed:
            raise RuntimeError("backward() already called on this graph")

        # iterative DFS: ordered tape of operations, leaves first
        tape = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                tape.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(tape):
            fn = node._backward_fn
            if fn is None:
                continue
            grads = fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
            # drop the context so the graph cannot be replayed and can be GC'd
            node._backward_fn = None
            node._parents = ()
            node._consumed = True
        self._consumed = True

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)


def _wrap(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise / reduction ops -------------------------------------------


def add(a, b):
    a = _wrap(a, getattr(b, "dtype", np.float64)) if not isinstance(a, Tensor) else a
    b = _wrap(b, a.dtype)
    data = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b):
    a = _wrap(a, getattr(b, "dtype", np.float64)) if not isinstance(a, Tensor) else a
    b = _wrap(b, a.dtype)
    data = a.data * b.data
    ad, bd = a.data, b.data

    def backward(g):
        return (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))

    return _make(data, (a, b), backward)


def tsum(a, axis=None, keepdims=False):
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 or g.shape != shape else g,)
        gg = g
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % len(shape) for ax in axes):
                gg = np.expand_dims(gg, ax)
        return (np.broadcast_to(gg, shape).copy(),)

    return _make(data, (a,), backward)


def reshape(a, shape):
    old = a.data.shape
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(old),)

    return _make(data, (a,), backward)


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat() of an empty sequence")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        splits = np.cumsum(sizes[:-1])
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), backward)


def index_select(a, indices, axis=0):
    """Gather rows along ``axis``; backward scatter-adds duplicate indices."""
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=axis)
    shape = a.data.shape

    def backward(g):
        ga = np.zeros(shape, dtype=g.dtype)
        if axis == 0:
            np.add.at(ga, idx, g)
        else:
            ga_m = np.moveaxis(ga, axis, 0)
            np.add.at(ga_m, idx, np.moveaxis(g, axis, 0))
        return (ga,)

    return _make(data, (a,), backward)


# -- activations ------------------------------------------------------------


def sigmoid(a):
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)

    def backward(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), backward)


def elu(a, alpha=1.0):
    """x where x > 0, else alpha * expm1(x); alpha >= 0."""
    x = a.data
    data = np.minimum(x, 0.0)
    np.expm1(data, out=data)
    data *= alpha
    # + max(x, -0.0): adds x where x > 0 (to +0.0) and -0.0 elsewhere, which
    # keeps a -0.0 of alpha * expm1(x); in slices over the fewest leading axes
    # that make a slice at most _ELU_SLICE elements, so the temporary stays
    # small (batch 1 included) instead of being a whole activation
    lead = min(next(k for k in range(x.ndim + 1) if math.prod(x.shape[k:]) <= _ELU_SLICE),
               max(x.ndim - 1, 0))
    for idx in np.ndindex(x.shape[:lead]):
        d = data[idx]
        d += np.maximum(x[idx], -0.0)

    def backward(g):
        # the output is <= 0 exactly where the input is (alpha >= 0)
        return (g * np.where(data <= 0, data + alpha, 1.0),)

    return _make(data, (a,), backward)


def relu(a):
    pos = a.data > 0
    data = np.where(pos, a.data, 0.0)

    def backward(g):
        return (g * pos,)

    return _make(data, (a,), backward)


def dropout(a, rate, training, rng=None):
    """Inverted dropout: kept activations are scaled by 1/(1-rate) at train time."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng (determinism contract)")
    keep = rng.random(a.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    data = a.data * keep * scale

    def backward(g):
        return (g * keep * scale,)

    return _make(data, (a,), backward)


# -- normalization ------------------------------------------------------------


def channel_l2_normalize(a, eps=1e-12):
    """Normalize each pixel's channel vector to unit l2 norm.

    Pixels whose norm falls below ``eps`` map to the zero vector and receive
    zero gradient (the normalization is undefined at the origin).
    """
    x = a.data
    norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
    live = norm >= eps
    safe = np.where(live, norm, 1.0)
    data = np.where(live, x / safe, 0.0)

    def backward(g):
        dot = (g * data).sum(axis=1, keepdims=True)
        return (np.where(live, (g - data * dot) / safe, 0.0),)

    return _make(data, (a,), backward)


def batch_norm(a, gamma, beta, running_mean=None, running_var=None,
               training=True, momentum=0.1, eps=1e-5):
    """Per-channel batch normalization for (B, C, H, W) or (B, C) tensors.

    Train mode normalizes with batch statistics and, when running buffers are
    supplied, updates them in place (unbiased variance, exponential moving
    average).  Eval mode normalizes with the running buffers.
    """
    x = a.data
    if x.ndim not in (2, 4):
        raise ShapeError(f"batch_norm expects (B,C) or (B,C,H,W), got {x.shape}")
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    cshape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    gam = gamma.data.reshape(cshape)

    if training:
        if x.shape[0] < 2:
            raise ValueError("batch_norm in train mode needs a batch of at least 2")
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        if running_mean is not None and running_var is not None:
            n = x.size // x.shape[1]
            unbiased = var.reshape(-1) * (n / max(n - 1, 1))
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean.reshape(-1)
            running_var *= 1.0 - momentum
            running_var += momentum * unbiased
    else:
        if running_mean is None or running_var is None:
            raise ValueError("batch_norm in eval mode needs running statistics")
        mean = running_mean.reshape(cshape)
        var = running_var.reshape(cshape)

    inv = 1.0 / np.sqrt(var + eps)
    # in place where possible: at 110x512 every temporary is a whole activation
    xhat = x - mean
    xhat *= inv
    if (_grad_enabled and any(t.requires_grad for t in (a, gamma, beta))
            or np.result_type(gam, xhat) != xhat.dtype):
        data = gam * xhat
    else:  # no graph reads xhat again, so the output takes its place
        data = np.multiply(xhat, gam, out=xhat)
    data += beta.data.reshape(cshape)
    count = x.size // x.shape[1]

    def backward(g):
        ggamma = (g * xhat).sum(axis=axes)
        gbeta = g.sum(axis=axes)
        if training:
            gx = gam * inv * (
                g
                - gbeta.reshape(cshape) / count
                - xhat * ggamma.reshape(cshape) / count
            )
        else:
            gx = g * gam * inv
        return (gx, ggamma, gbeta)

    return _make(data, (a, gamma, beta), backward)


# -- padding and convolution ---------------------------------------------------


def pad2d(a, pad_top, pad_bottom, pad_left, pad_right, mode="zero"):
    """Pad the two trailing axes of a (B, C, H, W) tensor.

    mode "zero" pads everywhere with zeros.  mode "wrap" pads rows with zeros
    and columns circularly (the angular axis of a polar image): the left pad
    copies the rightmost columns and vice versa.  ``conv2d`` does not call
    it: "zero" is the test oracle of the padding ``_im2col`` writes into its
    columns, and "wrap" serves ``unit_circle.wrap_pad``, the FFT bank's.
    """
    x = a.data
    if x.ndim != 4:
        raise ShapeError(f"pad2d expects (B,C,H,W), got {x.shape}")
    B, C, H, W = x.shape
    if mode not in ("zero", "wrap"):
        raise ValueError(f"unknown pad mode {mode!r}")
    if mode == "wrap" and (pad_left > W or pad_right > W):
        raise ShapeError(f"wrap pad of {max(pad_left, pad_right)} columns exceeds image width {W}")

    data = np.zeros((B, C, H + pad_top + pad_bottom, W + pad_left + pad_right), dtype=x.dtype)
    data[:, :, pad_top:pad_top + H, pad_left:pad_left + W] = x
    if mode == "wrap":
        if pad_left:
            data[:, :, pad_top:pad_top + H, :pad_left] = x[:, :, :, W - pad_left:]
        if pad_right:
            data[:, :, pad_top:pad_top + H, pad_left + W:] = x[:, :, :, :pad_right]

    def backward(g):
        core = g[:, :, pad_top:pad_top + H, pad_left:pad_left + W]
        if mode == "zero":
            return (core.copy(),)
        gx = core.copy()
        if pad_left:
            gx[:, :, :, W - pad_left:] += g[:, :, pad_top:pad_top + H, :pad_left]
        if pad_right:
            gx[:, :, :, :pad_right] += g[:, :, pad_top:pad_top + H, pad_left + W:]
        return (gx,)

    return _make(data, (a,), backward)


class workspace:
    """Context manager: inside it, the im2col convolutions write their
    columns into one reused buffer per dtype, which grows to the largest
    request and is freed when the outermost ``workspace`` exits.  Outside
    any, each batch step allocates its own columns.

    Reuse spares a fresh allocation per batch step: above glibc's mmap
    threshold (at most 32 MB) each one is mapped again and the kernel zeroes
    every page.  Every convolution overwrites the columns it reads, so
    nothing carries over from one to the next.
    """

    def __enter__(self):
        global _workspace_buffers
        self._outer = _workspace_buffers
        if _workspace_buffers is None:
            _workspace_buffers = {}
        return self

    def __exit__(self, *exc):
        global _workspace_buffers
        _workspace_buffers = self._outer
        return False


def _columns(size, dtype):
    """A buffer of ``size`` elements for im2col columns (see ``workspace``)."""
    if _workspace_buffers is None:
        return np.empty(size, dtype=dtype)
    buf = _workspace_buffers.get(dtype)
    if buf is None or buf.size < size:
        buf = _workspace_buffers[dtype] = np.empty(size, dtype=dtype)
    return buf[:size]


def _tap_range(k, pad, size, out, stride):
    """Outputs [lo, hi) whose kernel tap ``k`` reads an input row (or
    column) ``o * stride + k - pad`` inside [0, size), and the input of ``lo``."""
    lo = min(max(0, -((k - pad) // stride)), out)
    hi = max(min(out, (size - 1 + pad - k) // stride + 1), lo)
    return lo, hi, lo * stride + k - pad


def _im2col(x, kh, kw, sh, sw, ph, pw, oh, ow):
    """Channel-major columns (n, C*kh*kw, oh*ow) of ``x`` zero-padded by
    (ph, pw) on each side, so ``wmat @ cols`` is NCHW.

    The zero padding is written into the columns directly, so the padded
    input is never built.
    """
    n, C, H, W = x.shape
    cols = _columns(n * C * kh * kw * oh * ow, x.dtype).reshape(n, C, kh, kw, oh, ow)
    for i in range(kh):
        y0, y1, yi = _tap_range(i, ph, H, oh, sh)
        for j in range(kw):
            x0, x1, xj = _tap_range(j, pw, W, ow, sw)
            tap = cols[:, :, i, j]
            tap[:, :, :y0] = 0.0
            tap[:, :, y1:] = 0.0
            tap[:, :, y0:y1, :x0] = 0.0
            tap[:, :, y0:y1, x1:] = 0.0
            tap[:, :, y0:y1, x0:x1] = x[:, :, yi:yi + sh * (y1 - y0):sh,
                                        xj:xj + sw * (x1 - x0):sw]
    return cols.reshape(n, C * kh * kw, oh * ow)


def _conv_out_size(H, W, kh, kw, sh, sw):
    if kh > H or kw > W:
        raise ShapeError(f"kernel {kh}x{kw} larger than (padded) input {H}x{W}")
    return (H - kh) // sh + 1, (W - kw) // sw + 1


def _conv_batch_step(oh, ow, c, kh, kw):
    per_sample = oh * ow * c * kh * kw
    return max(1, _COL_BUDGET // max(per_sample, 1))


def _conv_forward(x, w, b, sh, sw, ph, pw):
    B, C, H, W = x.shape
    Cout, Cin, kh, kw = w.shape
    oh, ow = _conv_out_size(H + 2 * ph, W + 2 * pw, kh, kw, sh, sw)
    wmat = w.reshape(Cout, -1)
    out = np.empty((B, Cout, oh, ow), dtype=x.dtype)
    step = _conv_batch_step(oh, ow, C, kh, kw)
    for b0 in range(0, B, step):
        xb = x[b0:b0 + step]
        y = out[b0:b0 + step].reshape(xb.shape[0], Cout, oh * ow)
        np.matmul(wmat, _im2col(xb, kh, kw, sh, sw, ph, pw, oh, ow), out=y)
        if b is not None:
            y += b[:, None]
    return out


def _conv_backward(g, x, w, sh, sw, ph, pw, need_gx):
    """Weight gradient, and the input gradient only when ``need_gx``.

    Column contributions that fall into the zero padding are dropped, so
    the input gradient has the unpadded input's shape.
    """
    B, C, H, W = x.shape
    Cout, Cin, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    wmat = w.reshape(Cout, -1)
    gw = np.zeros_like(wmat)
    gx = np.zeros_like(x) if need_gx else None
    step = _conv_batch_step(oh, ow, C, kh, kw)
    for b0 in range(0, B, step):
        xb = x[b0:b0 + step]
        n = xb.shape[0]
        cols = _im2col(xb, kh, kw, sh, sw, ph, pw, oh, ow)
        g2 = g[b0:b0 + n].reshape(n, Cout, oh * ow)
        gw += np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)
        if need_gx:
            # the columns are read; their buffer takes the column gradient
            gcols = np.matmul(wmat.T, g2, out=cols).reshape(n, C, kh, kw, oh, ow)
            gxb = gx[b0:b0 + n]
            for i in range(kh):
                y0, y1, yi = _tap_range(i, ph, H, oh, sh)
                for j in range(kw):
                    x0, x1, xj = _tap_range(j, pw, W, ow, sw)
                    gxb[:, :, yi:yi + sh * (y1 - y0):sh, xj:xj + sw * (x1 - x0):sw] += \
                        gcols[:, :, i, j, y0:y1, x0:x1]
    return gx, gw.reshape(w.shape)


def _fft_len(n):
    """Smallest 2^a 3^b 5^c >= n, a length the FFT handles fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _wrap_conv(x, w):
    """Same-size cross-correlation with zero rows and circular columns.

    Rows go through a real FFT zero-padded to L >= H + kh - 1, so the row
    correlation is linear; columns take kw direct circular taps on the row
    spectra.  Every output column sees the same arithmetic on its own
    (shifted) inputs, so a circular column shift of ``x`` shifts the output
    bitwise.  The output has ``x``'s dtype.
    """
    B, C, H, W = x.shape
    Cout, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    L = _fft_len(H + kh - 1)
    xf = np.fft.rfft(x, n=L, axis=2)                                # (B, C, F, W)
    xf = np.concatenate([xf[..., W - pw:], xf, xf[..., :pw]], axis=3)
    taps = sliding_window_view(xf, W, axis=3)                       # (B, C, F, kw, W)
    # correlation along rows is convolution with the row-flipped kernel
    kf = np.fft.rfft(w[:, :, ::-1].astype(x.dtype), n=L, axis=2)    # (Cout, C, F, kw)
    kf = kf.transpose(1, 2, 0, 3)                                   # (C, F, Cout, kw)
    yf = np.matmul(kf[0], taps[:, 0])
    for c in range(1, C):
        yf += np.matmul(kf[c], taps[:, c])                          # (B, F, Cout, W)
    y = np.fft.irfft(yf, n=L, axis=1)[:, ph:ph + H]                 # (B, H, Cout, W)
    return y.transpose(0, 2, 1, 3)


def _wrap_weight_grad(g, x, kh, kw):
    """d(sum g * wrap_conv(x, w)) / dw by FFT correlation of ``g`` with ``x``.

    A 2-D transform (rows zero-padded, columns circular, both exact): the
    weight gradient sums over every position, so the column-shift argument
    of ``_wrap_conv`` does not apply to it.
    """
    H, W = x.shape[2:]
    L = _fft_len(H + kh - 1)
    gf = np.fft.rfft2(g, s=(L, W))
    xf = np.fft.rfft2(x, s=(L, W))
    # r[o, c, s, t] = sum_{b,i,j} g[b, o, i, j] x[b, c, i + s, (j + t) mod W]
    r = np.fft.irfft2(np.einsum("bofk,bcfk->ocfk", gf.conj(), xf), s=(L, W))
    rows = (np.arange(kh) - kh // 2) % L
    cols = (np.arange(kw) - kw // 2) % W
    return r[:, :, rows][:, :, :, cols]


def _wrap_conv2d(a, weight, bias, stride):
    x, w = a.data, weight.data
    Cout, Cin, kh, kw = w.shape
    if stride != (1, 1):
        raise ValueError(f"wrap padding needs stride 1, got {stride}")
    if kw // 2 > x.shape[3]:
        raise ShapeError(f"wrap pad of {kw // 2} columns exceeds image width {x.shape[3]}")
    data = np.empty((x.shape[0], Cout) + x.shape[2:], dtype=x.dtype)
    y = _wrap_conv(x, w)
    if bias is None:
        data[...] = y
    else:
        np.add(y, bias.data.astype(x.dtype, copy=False)[:, None, None], out=data)
    parents = (a, weight) if bias is None else (a, weight, bias)

    def backward(g):
        # the transposed correlation: channels swapped, kernel flipped both ways
        gx = _wrap_conv(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)) if a.requires_grad else None
        grads = (gx, _wrap_weight_grad(g, x, kh, kw).astype(w.dtype, copy=False))
        return grads if bias is None else grads + (g.sum(axis=(0, 2, 3)),)

    return _make(data, parents, backward)


def conv2d(a, weight, bias=None, stride=1, padding="none"):
    """2-D cross-correlation with optional same-size zero or wrap padding.

    padding: "none" (valid), "zero" (same-size, floor(k/2) zeros each side),
    or "wrap" (same-size; columns continue circularly, rows pad with zeros;
    stride 1 only).
    Kernel extents must be odd so "half the width" is well defined.

    "wrap" runs ``_wrap_conv`` (row FFTs plus circular column taps); every
    other mode runs channel-major im2col.  The input gradient is computed
    only when the input requires grad.
    """
    sh, sw = (stride, stride) if isinstance(stride, int) else tuple(stride)
    if sh < 1 or sw < 1:
        raise ValueError(f"stride must be positive, got ({sh}, {sw})")
    if a.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(
            f"conv2d expects (B,Cin,H,W) input and (Cout,Cin,kh,kw) weight, "
            f"got {a.data.shape} and {weight.data.shape}")
    Cout, Cin, kh, kw = weight.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel extents must be odd, got {kh}x{kw}")
    if a.data.shape[1] != Cin:
        raise ShapeError(f"input has {a.data.shape[1]} channels but weight expects {Cin}")
    if bias is not None and bias.data.shape != (Cout,):
        raise ShapeError(f"bias shape {bias.data.shape} does not match {Cout} output channels")

    if padding == "wrap":
        return _wrap_conv2d(a, weight, bias, (sh, sw))
    if padding == "none":
        ph = pw = 0
    elif padding == "zero":
        ph, pw = kh // 2, kw // 2
    else:
        raise ValueError(f"unknown padding spec {padding!r}")

    x = a.data
    data = _conv_forward(x, weight.data, bias.data if bias is not None else None,
                         sh, sw, ph, pw)
    parents = (a, weight) if bias is None else (a, weight, bias)

    def backward(g):
        gx, gw = _conv_backward(g, x, weight.data, sh, sw, ph, pw, a.requires_grad)
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=(0, 2, 3)))

    return _make(data, parents, backward)


# -- pooling and loss --------------------------------------------------------


def global_avg_pool(a):
    """Mean over the spatial axes: (B, C, H, W) -> (B, C)."""
    x = a.data
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects (B,C,H,W), got {x.shape}")
    B, C, H, W = x.shape
    data = x.mean(axis=(2, 3))

    def backward(g):
        return (np.broadcast_to(g[:, :, None, None] / (H * W), x.shape).copy(),)

    return _make(data, (a,), backward)


BCE_EPS = 1e-7


def bce_loss(p, y):
    """Mean binary cross-entropy of probabilities ``p`` against labels ``y``.

    ``p`` is clamped to [BCE_EPS, 1 - BCE_EPS] before the logs; the clamp
    blocks gradient where it is active.
    """
    yd = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=p.data.dtype)
    if yd.shape != p.data.shape:
        raise ShapeError(f"probability shape {p.data.shape} != label shape {yd.shape}")
    pc = np.clip(p.data, BCE_EPS, 1.0 - BCE_EPS)
    inside = (p.data >= BCE_EPS) & (p.data <= 1.0 - BCE_EPS)
    n = pc.size
    data = np.asarray(-(yd * np.log(pc) + (1.0 - yd) * np.log1p(-pc)).sum() / n, dtype=p.data.dtype)

    def backward(g):
        return (g * inside * (pc - yd) / (pc * (1.0 - pc) * n),)

    return _make(data, (p,), backward)
