"""Dense tensors with reverse-mode automatic differentiation.

A deliberately small engine: it provides exactly the primitives the iris
matcher needs (2-D convolution with zero or horizontal-wrap padding, channel
l2-normalization, batch normalization, ELU/ReLU, dropout, sigmoid, global
average pooling, binary cross-entropy, and the reshape, concatenation and
row selection that join them).

Data lives in numpy arrays, float64 by default.  Every op computes in its
operands' one dtype: a float64 weight or running statistic beside a float32
activation is a ``TypeError``, raised before anything is computed or
written, and ``Tensor.backward`` refuses a gradient of another dtype than
the operand it is for.  Whoever picks a dtype casts the whole model once
(``IrisMatchModel.astype``): training runs in float64, scoring in float32.

Each recorded operation gives its output a node (``_Node``) that holds
its parents' nodes, a leaf operand standing for itself, and a backward
closure; the closure captures the arrays, shapes and flags it reads, never
a tensor.  So the tape holds an interior array only where a backward reads
it, as autograd engines save only what a backward asks for (Paszke et al.,
"Automatic differentiation in PyTorch", 2017): in a stage-2 step each bank
filter's raw wrap-convolution response and the bank's concatenated output
die with their tensors, before the backward starts, and the pair input
``pair_batch`` gathers lives on only for block 0's backward.
``Tensor.backward`` replays the nodes in reverse topological order,
accumulates gradients into every leaf that requires them, and frees each
node's closure once it has run.

``conv2d`` runs one of two algorithms, forward and backward:

* zero or no padding (the matcher): im2col in channel-major layout,
  ``(n, C*kh*kw, rows*ow)``, so ``weight @ cols`` lands in NCHW with no
  transpose.  The forward unrolls at most ``_TILE_BYTES`` of columns per
  GEMM: several whole samples when one fits, else a range of output rows of
  one sample, whose GEMM writes straight into those rows of the output
  (Chellapilla, Puri & Simard, "High Performance Convolutional Neural
  Networks for Document Processing", 2006; Anderson et al., "Low-memory
  GEMM-based convolution algorithms for deep neural networks",
  arXiv:1709.03395).  A tile's buffer stays in cache and under the mmap
  threshold, so it is not mapped and page-faulted afresh on every call.
  A BLAS GEMM's rounding depends on which micro-kernel computes a column:
  full column blocks take one, a short last block another.  Tiles start at
  multiples of 64 output positions, so every column falls in the same kind
  of block as in one whole-sample GEMM, and the output does not depend on
  the tiling (tested bitwise).  With no graph to record, the forward can
  add its output into a caller's array instead (``add_into``): each tile's
  product goes to a tile-sized temporary and is added from there, so the
  matcher's block 0 builds one pair's output in one array.  The backward
  unrolls tiles of whole samples under the same ``_TILE_BYTES`` (one
  sample where a sample is more): the weight gradient sums over every
  output position of a sample inside one GEMM, and row tiles would reorder
  that sum.  The per-sample products are added to the gradient one by one,
  from zero, in sample order, so the tiles leave its bits unchanged.  The
  zero padding is written into the columns, so no padded copy of the input
  is built and every column element is written before it is read.
* wrap padding (the unit-circle bank): one real FFT along the rows (zero
  padded, so the radial correlation is linear), kw direct circular taps
  along the angular axis on the row spectra, one inverse FFT; the weight
  gradient is an FFT correlation (Mathieu, Henaff & LeCun, "Fast Training
  of Convolutional Networks through FFTs", arXiv:1312.5851).  The angular
  axis is deliberately not transformed: a column FFT would be exact in
  arithmetic but not in floating point, and a circular column shift of the
  input would then move the output by rounding noise instead of shifting
  it bitwise.  Direct taps give every column the same arithmetic, so the
  bank stays exactly rotation-equivariant.  ``wrap_conv_into`` takes the
  row spectrum from its caller, so the convolutions of one input can share
  it (``row_spectrum``), and writes into its caller's array: the bank's
  no-graph pass transforms its input once per FFT length for all its
  filters and writes each filter's response into that filter's channel
  pair of the bank's output, where ``unit_normalize_pairs`` puts it on the
  unit circle in place, in cache-sized slices, with the bits of
  ``channel_l2_normalize``.

im2col skips the input gradient when the input does not require grad
(stage-1 matcher inputs are cached features).  The wrap convolution has no
input gradient: its input is the bank's image, and one that requires grad
is refused while a graph is recorded.

``elu_batch_norm`` is every matcher block's ELU then batch norm, with the
bits of ``batch_norm(elu(a))``: one loop over cache-sized slices of
(sample, channel) planes runs their ops in their order (operator fusion, as
in Chen et al., "TVM", arXiv:1802.04799).  In eval scoring it overwrites
the convolution's output in one pass; in training it follows an ELU pass.
Its backward recomputes what it reads from the input, slice by slice.  One
slice ELU (``_elu_into``) writes every ELU.  ``batch_norm`` remains as its
test reference.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


_FLOAT_DTYPES = (np.float64, np.float32)

# bytes of im2col columns per forward GEMM (at least the output rows of 64
# positions) and per backward tile (at least one sample): a cache-sized
# tile, far under glibc's largest mmap threshold (32 MB), so its buffer is a
# reused heap block
_TILE_BYTES = 1 << 22

# elements per slice of the ELU and ELU->batch-norm passes (``_plane_slices``)
# and of ``unit_normalize_pairs`` (512 KB of f64): a slice stays in cache
# between its ops
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


def _as_array(data):
    if isinstance(data, (np.ndarray, np.generic)) and data.dtype in _FLOAT_DTYPES:
        return np.asarray(data)
    return np.asarray(data, dtype=np.float64)


class _Node:
    """The gradient bookkeeping of one recorded op's output: its parents'
    nodes (a leaf tensor stands for itself), its backward function, the
    output's dtype and its gradient during ``backward``.  It refers to no
    tensor an op made, so the graph holds an output array only where a
    backward function captured it."""

    __slots__ = ("_parents", "_backward_fn", "dtype", "grad")
    requires_grad = True

    def __init__(self, parents, backward_fn, dtype):
        self._parents = parents
        self._backward_fn = backward_fn
        self.dtype = dtype
        self.grad = None


class Tensor:
    """N-dimensional real array, optionally tracked for differentiation.

    A recorded op's output (``_make``) has a ``_Node``, which ``_parents``
    and ``_backward_fn`` read; a leaf (parameters, inputs) has none."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def _parents(self):
        """The operands' nodes, each leaf operand as itself; () for a leaf."""
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self):
        """The recorded op's backward, g -> one gradient (or None) per parent;
        None for a leaf.  A replacement set here is what ``backward`` calls."""
        return None if self._node is None else self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node._backward_fn = fn

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
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"

    # -- backward ---------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on this scalar and on every tracked leaf reachable
        from it; the ``grad`` of every other tensor an op made stays None.

        The walk goes over nodes, not tensors: the recorded operations are
        replayed in reverse topological order, each node's gradient summed
        from its children's backward.  Once its own backward has run, a
        node drops its parents, its backward function (with the arrays that
        captured) and its gradient.  A graph can be consumed only once;
        repeated calls raise.  A gradient of another dtype than the tensor or
        op output it is for is refused with a ``TypeError`` before any op's
        backward or any leaf receives it.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad (detached graph)")
        if self._node is not None and self._node._backward_fn is None:
            raise RuntimeError("backward() already called on this graph")
        root = self if self._node is None else self._node

        # iterative DFS: ordered tape of nodes, leaves first
        tape = []
        visited = set()
        stack = [(root, False)]
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

        self.grad = root.grad = np.ones_like(self.data)
        for node in reversed(tape):
            fn = node._backward_fn
            if fn is None:
                continue
            grads = fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if g.dtype != parent.dtype:
                    raise TypeError(f"backward got a {g.dtype} gradient for a {parent.dtype} "
                                    f"operand; a gradient has its operand's dtype")
                parent.grad = g if parent.grad is None else parent.grad + g
            # free what the backward captured, so each activation dies as the
            # pass goes, and the graph cannot be replayed
            node._backward_fn = None
            node._parents = ()
            node.grad = None

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)


def records_graph(*tensors):
    """Whether an op on ``tensors`` records a graph: grad is enabled and one
    of them requires it."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _make(data, parents, backward_fn):
    """A tensor of ``data``; when ``parents`` record a graph, its node holds
    the parents' nodes and ``backward_fn``.  ``backward_fn`` must capture the
    arrays, shapes and flags it reads, never a tensor: a captured tensor
    would keep its array on the tape."""
    out = Tensor(data)
    if records_graph(*parents):
        out.requires_grad = True
        out._node = _Node(tuple(p._node or p for p in parents), backward_fn, out.data.dtype)
    return out


def _one_dtype(op, *arrays):
    """Refuse operands (arrays, None skipped) of two dtypes: every op
    computes in its operands' one dtype."""
    dtypes = {a.dtype for a in arrays if a is not None}
    if len(dtypes) > 1:
        raise TypeError(f"{op} needs operands of one dtype, got "
                        f"{' and '.join(sorted(map(str, dtypes)))}")


# -- shape ops ---------------------------------------------------------------


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
    _one_dtype("concat", *(t.data for t in tensors))
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        splits = np.cumsum(sizes[:-1])
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), backward)


def index_select(a, indices):
    """Gather rows (axis 0): (P,) indices give (P, ...), (P, k) indices
    give (P, k, ...).

    The backward allocates one gradient of ``a``'s shape.  It adds column
    0's rows into it in index order, as ``np.add.at`` would.  Each later
    column's rows that go to one image are summed in index order, from
    zero, in a row-sized temporary, which is then added to that image's
    row.  So the gradient has the bits of k separate 1-D gathers whose
    gradients are summed in column order.
    """
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=0)
    shape = a.data.shape
    cols = idx.T.tolist() if idx.ndim == 2 else [idx.tolist()]

    def backward(g):
        g = g.reshape((len(idx), len(cols)) + shape[1:])
        ga = np.zeros(shape, dtype=g.dtype)
        for k, i in enumerate(cols[0]):
            ga[i] += g[k, 0]
        row = np.empty(shape[1:], dtype=g.dtype)
        for j, col in enumerate(cols[1:], start=1):
            rows = {}
            for k, i in enumerate(col):
                rows.setdefault(i, []).append(k)
            for i, ks in rows.items():
                row.fill(0.0)
                for k in ks:
                    row += g[k, j]
                ga[i] += row
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


def _plane_slices(x):
    """``x`` as rows of whole (sample, channel) planes (a view when ``x`` is
    C-contiguous), the slices of those rows that hold at most ``_ELU_SLICE``
    elements (one row where a plane is more), and an uninitialized buffer
    of one slice's shape and ``x``'s dtype."""
    planes = x.reshape(math.prod(x.shape[:2]), math.prod(x.shape[2:]))
    per = max(1, _ELU_SLICE // max(planes.shape[1], 1))
    buf = np.empty((min(per, len(planes)), planes.shape[1]), dtype=x.dtype)
    return planes, [slice(j, j + per) for j in range(0, len(planes), per)], buf


def _elu_into(x, out, buf):
    """The ELU (alpha 1) of a slice ``x`` of ``_plane_slices`` rows, x where
    x > 0 else expm1(x), written into ``out`` (which may be ``x``), which it
    returns.  ``buf`` holds max(x, -0.0), which adds x where x > 0 (to
    +0.0) and -0.0 elsewhere, so a -0.0 of expm1(x) is kept."""
    pos = np.maximum(x, -0.0, out=buf[:len(x)])
    np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    out += pos
    return out


def _elu_data(x):
    """The ELU of array ``x`` as a new array, slice by slice, so the only
    temporary is one slice."""
    planes, cuts, buf = _plane_slices(x)
    data = np.empty(x.shape, dtype=x.dtype)
    rows = data.reshape(planes.shape)
    for k in cuts:
        _elu_into(planes[k], rows[k], buf)
    return data


def _elu_slope(data):
    """The ELU's slope from its output ``data``, built in ``data``: data + 1.0
    where data <= 0 (exactly where the input is), else 1.0.  ``fmin`` takes
    0.0 over a NaN, whose slope is 1.0 too."""
    np.fmin(data, 0.0, out=data)
    data += 1.0
    return data


def elu(a):
    """x where x > 0, else expm1(x): the ELU with alpha 1."""
    data = _elu_data(a.data)

    def backward(g):
        return (g * _elu_slope(data.copy()),)

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


def unit_normalize_pairs(x, eps=1e-12):
    """``channel_l2_normalize`` of a (B, 2, H, W) array, bit for bit,
    overwriting ``x``, which it returns; it records no graph.

    It runs that op's operations in its order on rows of one sample at a
    time, at most ``_ELU_SLICE`` elements unless one row's pair is more, so
    its temporaries stay in cache.  Pixels whose norm falls under ``eps`` (or is
    NaN) become +0.0.
    """
    W = x.shape[3]
    rows = max(1, _ELU_SLICE // (2 * W))
    norm, sq = np.empty((2, min(rows, x.shape[2]), W), dtype=x.dtype)
    dead = np.empty(norm.shape, dtype=bool)
    for sample in x:
        for r in range(0, x.shape[2], rows):
            s = sample[:, r:r + rows]
            n, t, d = norm[:s.shape[1]], sq[:s.shape[1]], dead[:s.shape[1]]
            np.multiply(s[0], s[0], out=n)
            n += np.multiply(s[1], s[1], out=t)
            np.sqrt(n, out=n)
            np.greater_equal(n, eps, out=d)
            np.logical_not(d, out=d)
            np.copyto(n, 1.0, where=d)
            s /= n
            np.copyto(s, 0.0, where=d)
    return x


def _bn_stats(x, running_mean, running_var, training, eps, momentum=0.1):
    """(axes, cshape, mean, inv) of batch norm over (B, C, H, W) or (B, C)
    array ``x``: the reduced axes, the per-channel broadcast shape, and the
    mean and 1 / sqrt(var + eps) it normalizes with.  Train mode takes them
    from the batch and updates the running buffers in place, when supplied;
    eval mode takes a copy of the running mean."""
    if x.ndim not in (2, 4):
        raise ShapeError(f"batch_norm expects (B,C) or (B,C,H,W), got {x.shape}")
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    cshape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
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
    return axes, cshape, mean, 1.0 / np.sqrt(var + eps)


def _bn_input_grad(g, xhat, gam, inv, ggamma, gbeta, count, training):
    """Batch norm's input gradient from the output gradient ``g``, the
    normalized input ``xhat`` (which it overwrites) and the per-channel
    ``gam``, ``inv`` and gradients of gamma and beta, each shaped to
    broadcast against them; ``count`` values make each channel's statistics."""
    if not training:
        return g * gam * inv
    # gam * inv * (g - gbeta / count - xhat * ggamma / count), op by op
    xhat *= ggamma
    xhat /= count
    gx = g - gbeta / count
    gx -= xhat
    gx *= gam * inv
    return gx


def _standardize(e, mean, inv):
    """Batch norm's x-hat of ``e``, in ``e``'s buffer."""
    e -= mean
    e *= inv
    return e


def _per_plane(n, *channel_values):
    """Each array of per-channel values as a column with one value per
    (sample, channel) plane of ``n`` samples."""
    return [np.concatenate((np.reshape(v, -1),) * n)[:, None] for v in channel_values]


def batch_norm(a, gamma, beta, running_mean=None, running_var=None,
               training=True, momentum=0.1, eps=1e-5):
    """Per-channel batch normalization for (B, C, H, W) or (B, C) tensors.

    Train mode normalizes with batch statistics and, when running buffers are
    supplied, updates them in place (unbiased variance, exponential moving
    average).  Eval mode normalizes with the running buffers.

    The matcher runs it only inside ``elu_batch_norm``; this op is that
    one's test reference.
    """
    x = a.data
    _one_dtype("batch_norm", x, gamma.data, beta.data, running_mean, running_var)
    axes, cshape, mean, inv = _bn_stats(x, running_mean, running_var, training, eps, momentum)
    gam = gamma.data.reshape(cshape)
    xhat = x - mean
    xhat *= inv
    data = gam * xhat
    data += beta.data.reshape(cshape)
    count = x.size // x.shape[1]

    def backward(g):
        ggamma = (g * xhat).sum(axis=axes)
        gbeta = g.sum(axis=axes)
        gx = _bn_input_grad(g, xhat, gam, inv, ggamma.reshape(cshape), gbeta.reshape(cshape),
                            count, training)
        return gx, ggamma, gbeta

    return _make(data, (a, gamma, beta), backward)


def elu_batch_norm(a, gamma, beta, running_mean, running_var, training, eps=1e-5):
    """``batch_norm(elu(a), gamma, beta, running_mean, running_var, training)``,
    bit for bit: its output, its running-statistic updates and, in one
    recorded op, the gradients of ``a``, ``gamma`` and ``beta``.

    Its forward is one loop over ``_plane_slices`` of whole (sample,
    channel) planes, which runs the ops of ``elu`` then ``batch_norm`` in
    their order while a slice is in cache.  In eval mode the ELU and the
    affine map share that one pass; with no graph to record and a
    C-contiguous, writeable ``a``, it writes into ``a``'s own array, so
    nothing bigger than a slice is allocated.  In training an ELU pass into
    a new array comes first, as the batch statistics are that array's, and
    the loop turns it into the output.

    The recorded op keeps only ``a`` and per-channel statistics: its
    backward recomputes the ELU output and x-hat from ``a`` with the same
    operations, then runs batch norm's backward arithmetic, then ELU's, in
    the same slices (gamma's gradient sums a whole array of g * x-hat, whose
    buffer the input gradient then takes over).  A matcher block thus holds
    two whole activations for the backward, the convolution's output and
    its own, where the composition holds four, and its backward allocates
    one more (Rota Bulo, Porzi & Kontschieder, "In-Place Activated
    BatchNorm", arXiv:1712.02616; Chen et al., "Training Deep Nets with
    Sublinear Memory Cost", arXiv:1604.06174).
    """
    x = a.data
    _one_dtype("elu_batch_norm", x, gamma.data, beta.data, running_mean, running_var)
    src = _elu_data(x) if training else x
    axes, _, mean, inv = _bn_stats(src, running_mean, running_var, training, eps)
    if training or (not records_graph(a, gamma, beta)
                    and x.flags.c_contiguous and x.flags.writeable):
        out = src
    else:
        out = np.empty(x.shape, dtype=x.dtype)
    planes, cuts, buf = _plane_slices(src)
    rows = out.reshape(planes.shape)
    n, c = x.shape[:2]
    m, v, gm, bt = _per_plane(n, mean, inv, gamma.data, beta.data)
    for k in cuts:
        o = rows[k]
        if not training:
            _elu_into(planes[k], o, buf)
        o -= m[k]
        o *= v[k]
        o *= gm[k]
        o += bt[k]

    def backward(g):
        # recomputes the ELU output and x-hat from x slice by slice: once
        # for g * x-hat, whose sum is gamma's gradient, and once for the
        # input gradient, which takes over that product's buffer
        xp, cuts, buf = _plane_slices(x)
        gp = g.reshape(xp.shape)
        ebuf = np.empty_like(buf)

        def elu_rows(k):
            return _elu_into(xp[k], ebuf[:len(xp[k])], buf)

        prod = np.empty(gp.shape, x.dtype)
        for k in cuts:
            np.multiply(gp[k], _standardize(elu_rows(k), m[k], v[k]), out=prod[k])
        ggamma = prod.reshape(g.shape).sum(axis=axes)
        gbeta = g.sum(axis=axes)
        gg, gb = _per_plane(n, ggamma, gbeta)
        count = x.size // c
        for k in cuts:
            e = elu_rows(k)
            d = _bn_input_grad(gp[k], _standardize(e.copy(), m[k], v[k]), gm[k], v[k],
                               gg[k], gb[k], count, training)
            np.multiply(d, _elu_slope(e), out=prod[k])
        return prod.reshape(x.shape), ggamma, gbeta

    return _make(out, (a, gamma, beta), backward)


# -- padding and convolution ---------------------------------------------------


def pad2d(a, pad_top, pad_bottom, pad_left, pad_right, mode="zero"):
    """Pad the two trailing axes of a (B, C, H, W) tensor.

    mode "zero" pads everywhere with zeros.  mode "wrap" pads rows with zeros
    and columns circularly (the angular axis of a polar image): the left pad
    copies the rightmost columns and vice versa.  ``conv2d`` does not call
    it: "zero" is the test oracle of the padding ``_im2col`` writes into its
    columns, and "wrap" of the FFT bank's.
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


def _columns(size, dtype):
    """An uninitialized buffer of ``size`` elements for im2col columns (the
    tests fill it with NaN to show that ``_im2col`` writes every element)."""
    return np.empty(size, dtype=dtype)


def _tap_range(k, pad, size, out, stride, start=0):
    """Outputs [lo, hi) within [start, out) whose kernel tap ``k`` reads an
    input row (or column) ``o * stride + k - pad`` inside [0, size), and the
    input of ``lo``."""
    lo = min(max(start, -((k - pad) // stride)), out)
    hi = max(min(out, (size - 1 + pad - k) // stride + 1), lo)
    return lo, hi, lo * stride + k - pad


def _im2col(x, kh, kw, sh, sw, ph, pw, oh, ow, r0=0, r1=None):
    """Channel-major columns (n, C*kh*kw, rows*ow) of output rows [r0, r1)
    (all ``oh`` by default) of ``x`` zero-padded by (ph, pw) on each side,
    so ``wmat @ cols`` is those rows in NCHW.

    The zero padding is written into the columns directly, so the padded
    input is never built.
    """
    r1 = oh if r1 is None else r1
    n, C, H, W = x.shape
    cols = _columns(n * C * kh * kw * (r1 - r0) * ow, x.dtype).reshape(
        n, C, kh, kw, r1 - r0, ow)
    for i in range(kh):
        y0, y1, yi = _tap_range(i, ph, H, r1, sh, r0)
        y0, y1 = y0 - r0, y1 - r0
        for j in range(kw):
            x0, x1, xj = _tap_range(j, pw, W, ow, sw)
            tap = cols[:, :, i, j]
            tap[:, :, :y0] = 0.0
            tap[:, :, y1:] = 0.0
            tap[:, :, y0:y1, :x0] = 0.0
            tap[:, :, y0:y1, x1:] = 0.0
            tap[:, :, y0:y1, x0:x1] = x[:, :, yi:yi + sh * (y1 - y0):sh,
                                        xj:xj + sw * (x1 - x0):sw]
    return cols.reshape(n, C * kh * kw, (r1 - r0) * ow)


def _conv_out_size(H, W, kh, kw, sh, sw):
    if kh > H or kw > W:
        raise ShapeError(f"kernel {kh}x{kw} larger than (padded) input {H}x{W}")
    return (H - kh) // sh + 1, (W - kw) // sw + 1


def _conv_forward(x, w, b, sh, sw, ph, pw, add_into=None):
    """The convolution as a new array, or added into ``add_into``, a
    C-contiguous array of the output's shape: each tile's GEMM output (plus
    the bias) is computed in a tile-sized temporary, then added."""
    B, C, H, W = x.shape
    Cout, Cin, kh, kw = w.shape
    oh, ow = _conv_out_size(H + 2 * ph, W + 2 * pw, kh, kw, sh, sw)
    wmat = w.reshape(Cout, -1)
    if add_into is None:
        out = np.empty((B, Cout, oh, ow), dtype=x.dtype)
    elif add_into.shape == (B, Cout, oh, ow) and add_into.dtype == x.dtype \
            and add_into.flags.c_contiguous:
        out = add_into
    else:
        raise ShapeError(f"conv2d adds into a C-contiguous {(B, Cout, oh, ow)} {x.dtype} array, "
                         f"got {add_into.shape} {add_into.dtype}")
    # output rows per tile: a whole number of 64-position steps, so a tile's
    # GEMM column blocks fall where a whole sample's would
    align = 64 // math.gcd(ow, 64)
    rows = max(align, _TILE_BYTES // (C * kh * kw * ow * x.itemsize) // align * align)
    if rows >= oh:      # tiles (n0, n1, r0, r1): samples n0:n1, output rows r0:r1
        tiles = [(n, min(n + rows // oh, B), 0, oh) for n in range(0, B, rows // oh)]
    else:
        tiles = [(n, n + 1, r, min(r + rows, oh)) for n in range(B) for r in range(0, oh, rows)]
    for n0, n1, r0, r1 in tiles:
        # a view: rows r0:r1 of each channel are contiguous
        y = out[n0:n1, :, r0:r1].reshape(n1 - n0, Cout, (r1 - r0) * ow)
        part = np.matmul(wmat, _im2col(x[n0:n1], kh, kw, sh, sw, ph, pw, oh, ow, r0, r1),
                         out=None if add_into is not None else y)
        if b is not None:
            part += b[:, None]
        if add_into is not None:
            y += part
        del part        # so no two tiles' temporaries are alive at once
    return out


def _conv_backward(g, x, w, sh, sw, ph, pw, need_gx):
    """Weight gradient, and the input gradient only when ``need_gx``.

    Columns are unrolled in tiles of whole samples, at most ``_TILE_BYTES``
    unless one sample is more.  Each sample's weight-gradient product is one
    GEMM over all its positions, and the products are added to the
    gradient one by one, from zero, in sample order, so the tiles do not
    change its bits.  Column contributions that fall into the zero padding
    are dropped, so the input gradient has the unpadded input's shape.
    """
    B, C, H, W = x.shape
    Cout, Cin, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    wmat = w.reshape(Cout, -1)
    gw = np.zeros_like(wmat)
    gx = np.zeros_like(x) if need_gx else None
    tile = max(1, _TILE_BYTES // (C * kh * kw * oh * ow * x.itemsize))
    parts = np.empty((min(tile, B),) + wmat.shape, dtype=x.dtype)
    for t0 in range(0, B, tile):
        t1 = min(t0 + tile, B)
        cols = _im2col(x[t0:t1], kh, kw, sh, sw, ph, pw, oh, ow)
        g2 = g[t0:t1].reshape(t1 - t0, Cout, oh * ow)
        for part in np.matmul(g2, cols.transpose(0, 2, 1), out=parts[:t1 - t0]):
            gw += part
        if need_gx:
            # the columns are read; their buffer takes the column gradient
            gcols = np.matmul(wmat.T, g2, out=cols).reshape(t1 - t0, C, kh, kw, oh, ow)
            gxb = gx[t0:t1]
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


def row_spectrum(x, L, pad):
    """Real FFT of the rows of (B, C, H, W) ``x`` at length ``L`` (zero
    padded), its columns extended circularly by ``pad`` on each side:
    (B, C, L // 2 + 1, W + 2 pad)."""
    W = x.shape[3]
    if pad > W:
        raise ShapeError(f"wrap pad of {pad} columns exceeds image width {W}")
    xf = np.fft.rfft(x, n=L, axis=2)
    return np.concatenate([xf[..., W - pad:], xf, xf[..., :pad]], axis=3)


def wrap_conv_into(out, spectrum, w, b):
    """Same-size cross-correlation with zero rows and circular columns,
    plus the bias ``b`` (or None), written into the (B, Cout, H, W) array
    ``out``, which it returns.

    Rows go through a real FFT zero-padded to L >= H + kh - 1, so the row
    correlation is linear: ``spectrum(L)`` is the input's ``row_spectrum``
    at that length, padded by at least kw // 2 columns, so the convolutions
    of one input with several kernels can share it.  Columns take kw direct
    circular taps on the row spectra.  Every output column sees the same
    arithmetic on its own (shifted) inputs, so a circular column shift of
    the input shifts the output bitwise.
    """
    H, W = out.shape[2:]
    C, kh, kw = w.shape[1:]
    ph, pw = kh // 2, kw // 2
    L = _fft_len(H + kh - 1)
    xf = spectrum(L)
    pad = (xf.shape[3] - W) // 2
    taps = sliding_window_view(xf[..., pad - pw:pad + W + pw], W, axis=3)  # (B, C, F, kw, W)
    # correlation along rows is convolution with the row-flipped kernel
    kf = np.fft.rfft(w[:, :, ::-1], n=L, axis=2)                    # (Cout, C, F, kw)
    kf = kf.transpose(1, 2, 0, 3)                                   # (C, F, Cout, kw)
    yf = np.matmul(kf[0], taps[:, 0])
    for c in range(1, C):
        yf += np.matmul(kf[c], taps[:, c])                          # (B, F, Cout, W)
    y = np.fft.irfft(yf, n=L, axis=1)[:, ph:ph + H]                 # (B, H, Cout, W)
    y = y.transpose(0, 2, 1, 3)
    if b is None:
        out[...] = y
    else:
        np.add(y, b[:, None, None], out=out)
    return out


def _wrap_weight_grad(g, x, kh, kw):
    """d(sum g * wrap_conv(x, w)) / dw by FFT correlation of ``g`` with ``x``.

    A 2-D transform (rows zero-padded, columns circular, both exact): the
    weight gradient sums over every position, so the column-shift argument
    of ``wrap_conv_into`` does not apply to it.
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
    kh, kw = w.shape[2:]
    if stride != (1, 1):
        raise ValueError(f"wrap padding needs stride 1, got {stride}")
    if records_graph(a):
        raise ValueError("wrap padding has no input gradient: its input must not require grad")
    parents = (a, weight) if bias is None else (a, weight, bias)
    data = np.empty((x.shape[0], w.shape[0]) + x.shape[2:], dtype=x.dtype)
    wrap_conv_into(data, lambda L: row_spectrum(x, L, kw // 2), w,
                   None if bias is None else bias.data)
    has_bias = bias is not None

    def backward(g):
        grads = (None, _wrap_weight_grad(g, x, kh, kw))
        return grads + (g.sum(axis=(0, 2, 3)),) if has_bias else grads

    return _make(data, parents, backward)


def conv2d(a, weight, bias=None, stride=1, padding="none", add_into=None):
    """2-D cross-correlation with optional same-size zero or wrap padding.

    padding: "none" (valid), "zero" (same-size, floor(k/2) zeros each side),
    or "wrap" (same-size; columns continue circularly, rows pad with zeros;
    stride 1 only).
    Kernel extents must be odd so "half the width" is well defined.  Input,
    weight and bias share one dtype, the output's (else ``TypeError``).

    "wrap" runs ``wrap_conv_into`` (row FFTs plus circular column taps) and
    has no input gradient: an input that requires grad is refused while a
    graph is recorded.  Every other mode runs channel-major im2col, whose
    input gradient is computed only when the input requires grad.

    ``add_into``, for im2col modes with no graph to record, is a C-contiguous
    array of the output's shape and dtype: the output is added into it tile
    by tile, so no output-sized array is allocated, and the result is that
    array, holding ``add_into + (conv + bias)`` with the bits of ``np.add``.
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
    _one_dtype("conv2d", a.data, weight.data, None if bias is None else bias.data)

    if padding == "wrap":
        if add_into is not None:
            raise ValueError("conv2d adds into an array only with zero or no padding")
        return _wrap_conv2d(a, weight, bias, (sh, sw))
    if padding == "none":
        ph = pw = 0
    elif padding == "zero":
        ph, pw = kh // 2, kw // 2
    else:
        raise ValueError(f"unknown padding spec {padding!r}")

    x, w, need_gx, has_bias = a.data, weight.data, a.requires_grad, bias is not None
    parents = (a, weight) if bias is None else (a, weight, bias)
    if add_into is not None and records_graph(*parents):
        raise ValueError("conv2d adds into an array only with no graph to record")
    data = _conv_forward(x, w, bias.data if bias is not None else None, sh, sw, ph, pw,
                         add_into)

    def backward(g):
        gx, gw = _conv_backward(g, x, w, sh, sw, ph, pw, need_gx)
        return (gx, gw, g.sum(axis=(0, 2, 3))) if has_bias else (gx, gw)

    return _make(data, parents, backward)


# -- pooling and loss --------------------------------------------------------


def global_avg_pool(a):
    """Mean over the spatial axes: (B, C, H, W) -> (B, C)."""
    x = a.data
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects (B,C,H,W), got {x.shape}")
    shape = x.shape
    H, W = shape[2:]
    data = x.mean(axis=(2, 3))

    def backward(g):
        return (np.broadcast_to(g[:, :, None, None] / (H * W), shape).copy(),)

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
