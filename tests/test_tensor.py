"""Tests for the tensor/autodiff engine.

The convolution reference here is a six-nested-loop cross-correlation written
before the engine was used for anything; gradients are checked against
central finite differences (see gradcheck.py).
"""

import numpy as np
import pytest

from irismatch import tensor as T
from gradcheck import check_gradients, max_relative_error, numerical_gradient, weighted_sum


def loop_conv2d(x, w, b=None, stride=(1, 1), pad=(0, 0)):
    """Reference cross-correlation: explicit loops, zero padding."""
    B, Cin, H, W = x.shape
    Cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    xp = np.zeros((B, Cin, H + 2 * ph, W + 2 * pw))
    xp[:, :, ph:ph + H, pw:pw + W] = x
    oh = (H + 2 * ph - kh) // sh + 1
    ow = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, Cout, oh, ow))
    for n in range(B):
        for co in range(Cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(Cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, ci, i * sh + u, j * sw + v] * w[co, ci, u, v]
                    out[n, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


# ---------------------------------------------------------------- conv2d


def test_conv2d_all_ones_counting():
    x = T.Tensor(np.ones((1, 1, 3, 3)))
    w = T.Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, w, stride=1, padding="zero").data[0, 0]
    assert out[1, 1] == 9.0
    assert out[0, 0] == 4.0
    assert out[0, 2] == 4.0
    assert out[2, 0] == 4.0
    assert out[2, 2] == 4.0


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(2, 1, 6, 9)))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = T.conv2d(x, T.Tensor(w), padding="zero")
    assert np.array_equal(out.data, x.data)


def test_conv2d_matches_loop_reference():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 1, 8, 8))
    w = rng.normal(size=(1, 1, 3, 3))
    got = T.conv2d(T.Tensor(x), T.Tensor(w)).data
    want = loop_conv2d(x, w)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("shape,kshape,stride,pad", [
    ((2, 3, 16, 16), (4, 3, 3, 3), (1, 1), (1, 1)),
    ((2, 3, 16, 16), (2, 3, 5, 3), (2, 1), (0, 0)),
    ((1, 2, 10, 14), (3, 2, 3, 5), (1, 2), (1, 2)),
    ((2, 1, 7, 7), (1, 1, 7, 7), (1, 1), (0, 0)),
])
def test_conv2d_loop_reference_shapes(shape, kshape, stride, pad):
    # every nonzero pad here is half the kernel, which is what "zero" pads
    padding = "none" if pad == (0, 0) else "zero"
    assert padding == "none" or pad == (kshape[2] // 2, kshape[3] // 2)
    rng = np.random.default_rng(hash((shape, kshape)) % 2**32)
    x = rng.normal(size=shape)
    w = rng.normal(size=kshape)
    b = rng.normal(size=kshape[0])
    got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, padding=padding).data
    want = loop_conv2d(x, w, b, stride=stride, pad=pad)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_conv2d_shape_errors():
    x = T.Tensor(np.zeros((1, 2, 5, 5)))
    w = T.Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(T.ShapeError, match="channels"):
        T.conv2d(x, w)
    big = T.Tensor(np.zeros((1, 2, 7, 7)))
    with pytest.raises(T.ShapeError, match="larger"):
        T.conv2d(x, big)
    even = T.Tensor(np.zeros((1, 2, 2, 2)))
    with pytest.raises(T.ShapeError, match="odd"):
        T.conv2d(x, even)


def test_conv2d_chunked_batches_match_loop(monkeypatch):
    # force the backward's sample tiles and the forward's row tiles with a
    # tiny budget (one sample; two of a sample's four output rows of 64)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 2, 6, 66))
    w = rng.normal(size=(3, 2, 3, 3))
    monkeypatch.setattr(T, "_TILE_BYTES", 2 * 2 * 9 * 64 * 8)
    xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
    got = T.conv2d(xt, wt)
    assert np.max(np.abs(got.data - loop_conv2d(x, w))) <= 1e-12
    c = rng.normal(size=got.shape)
    weighted_sum(got, c).backward()
    xe, we = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
    monkeypatch.setattr(T, "_TILE_BYTES", 1 << 22)
    weighted_sum(T.conv2d(xe, we), c).backward()
    assert np.max(np.abs(wt.grad - we.grad)) <= 1e-12
    assert np.max(np.abs(xt.grad - xe.grad)) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_backward_sample_tiles_bitwise_equal_untiled(dtype, monkeypatch):
    """Tiles of one or two samples give the bits of one tile of all five,
    for the weight and the input gradient.  The weight gradient is a running
    sum of the per-sample products, from zero, in sample order."""
    rng = np.random.default_rng(28)
    x = rng.normal(size=(5, 3, 8, 12)).astype(dtype)
    w = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
    g = rng.normal(size=(5, 4, 8, 12)).astype(dtype)
    per_sample = 3 * 9 * 8 * 12
    seen = []
    im2col = T._im2col

    def recording(xb, *args):
        seen.append(len(xb))
        return im2col(xb, *args)

    monkeypatch.setattr(T, "_im2col", recording)
    grads, tiles = {}, {}
    for budget in (1, 2 * per_sample * x.itemsize, 1 << 40):
        monkeypatch.setattr(T, "_TILE_BYTES", budget)
        seen.clear()
        grads[budget] = T._conv_backward(g, x, w, 1, 1, 1, 1, True)
        tiles[budget] = list(seen)
    assert list(tiles.values()) == [[1] * 5, [2, 2, 1], [5]]
    for budget in (1, 2 * per_sample * x.itemsize):
        for got, want in zip(grads[budget], grads[1 << 40]):
            assert same_bits(got, want)
    gw = np.zeros((4, 27), dtype=dtype)
    for k in range(5):
        gw += g[k].reshape(4, -1) @ im2col(x[k:k + 1], 3, 3, 1, 1, 1, 1, 8, 12)[0].T
    assert same_bits(grads[1][1], gw.reshape(w.shape))


def im2col_oracle_conv(x, w, b, g, stride, padding):
    """Forward, weight gradient and input gradient of the im2col convolution
    built the plain way: each sample's columns from an ``as_strided`` view of a ``pad2d``-padded copy, the same GEMMs, and the
    per-sample weight gradients summed in sample order."""
    from numpy.lib.stride_tricks import as_strided

    Cout, C, kh, kw = w.shape
    ph, pw = (kh // 2, kw // 2) if padding == "zero" else (0, 0)
    xp = T.pad2d(T.Tensor(x), ph, ph, pw, pw).data
    sh = sw = stride
    oh, ow = (xp.shape[2] - kh) // sh + 1, (xp.shape[3] - kw) // sw + 1
    wmat = w.reshape(Cout, -1)
    y, gws, gxp = [], [], np.zeros_like(xp)
    for n in range(len(x)):
        s1, s2, s3 = xp[n].strides
        cols = as_strided(xp[n], (C, kh, kw, oh, ow), (s1, s2, s3, s2 * sh, s3 * sw))
        cols = cols.reshape(C * kh * kw, oh * ow)
        y.append((wmat @ cols + b[:, None]).reshape(Cout, oh, ow))
        gn = g[n].reshape(Cout, oh * ow)
        gws.append(gn @ cols.T)
        gcols = (wmat.T @ gn).reshape(C, kh, kw, oh, ow)
        for i in range(kh):
            for j in range(kw):
                gxp[n, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += gcols[:, i, j]
    gw = np.zeros_like(wmat)
    gw += np.stack(gws).sum(axis=0)
    gx = gxp[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]]
    return np.stack(y), gw.reshape(w.shape), gx


@pytest.mark.parametrize("padding", ["zero", "none"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_conv2d_columns_bitwise_equal_padded_im2col(padding, stride, batch, monkeypatch):
    rng = np.random.default_rng(100 + 4 * batch + stride)
    x = rng.normal(size=(batch, 3, 7, 10))
    w = rng.normal(size=(4, 3, 3, 5))
    b = rng.normal(size=4)
    xt = T.Tensor(x, requires_grad=True)
    wt = T.Tensor(w, requires_grad=True)
    # columns full of NaN: any column element read before it is written shows
    monkeypatch.setattr(T, "_columns", lambda size, dtype: np.full(size, np.nan, dtype=dtype))
    out = T.conv2d(xt, wt, T.Tensor(b), stride=stride, padding=padding)
    g = rng.normal(size=out.shape)
    weighted_sum(out, g).backward()
    want_y, want_gw, want_gx = im2col_oracle_conv(x, w, b, g, stride, padding)
    assert out.data.tobytes() == want_y.tobytes()
    assert wt.grad.tobytes() == want_gw.tobytes()
    assert xt.grad.tobytes() == np.ascontiguousarray(want_gx).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("tile_rows", [1, 2])
@pytest.mark.parametrize("padding", ["zero", "none"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_conv2d_row_tiles_bitwise_equal_padded_im2col(batch, stride, padding, tile_rows,
                                                      dtype, monkeypatch):
    """A forward of ``tile_rows`` output rows per GEMM (the last tile ragged
    where they do not divide the rows) writes every column it reads and
    gives the oracle's bits.  Output rows are 128 or 64 positions wide, so
    a tile can be one row."""
    rng = np.random.default_rng(200 + 4 * batch + stride)
    width = 128 if padding == "zero" else 132
    x = rng.normal(size=(batch, 3, 7, width)).astype(dtype)
    w = rng.normal(size=(4, 3, 3, 5)).astype(dtype)
    b = rng.normal(size=4).astype(dtype)
    ph, pw = (1, 2) if padding == "zero" else (0, 0)
    oh, ow = (7 + 2 * ph - 3) // stride + 1, (width + 2 * pw - 5) // stride + 1
    assert ow % 64 == 0
    want = im2col_oracle_conv(x, w, b, np.zeros((batch, 4, oh, ow)), stride, padding)[0]
    monkeypatch.setattr(T, "_TILE_BYTES", tile_rows * 3 * 3 * 5 * ow * x.itemsize)
    monkeypatch.setattr(T, "_columns", lambda size, dtype: np.full(size, np.nan, dtype=dtype))
    got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, padding=padding).data
    assert want.dtype == got.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_row_tiles_of_an_unaligned_width_bitwise_equal_untiled(dtype, monkeypatch):
    """Rows of 20 positions: a tile budget of one row gives tiles of 16 rows
    (320 positions, a multiple of 64), 16 + 16 + 8 of the 40."""
    rng = np.random.default_rng(24)
    x = T.Tensor(rng.normal(size=(2, 5, 40, 20)).astype(dtype))
    w = T.Tensor(rng.normal(size=(4, 5, 3, 3)).astype(dtype))
    b = T.Tensor(rng.normal(size=4).astype(dtype))
    whole = T.conv2d(x, w, b, padding="zero").data
    monkeypatch.setattr(T, "_TILE_BYTES", 5 * 9 * 20 * x.data.itemsize)
    seen = []
    im2col = T._im2col

    def recording(*args):
        seen.append(args[-2:])
        return im2col(*args)

    monkeypatch.setattr(T, "_im2col", recording)
    tiled = T.conv2d(x, w, b, padding="zero").data
    assert seen == [(0, 16), (16, 32), (32, 40)] * 2
    assert tiled.tobytes() == whole.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin,cout,stride", [(20, 32, 1), (32, 64, 2)],
                         ids=["block0-half", "block1"])
def test_conv2d_row_tiles_bitwise_equal_untiled_full_geometry(cin, cout, stride, dtype,
                                                              monkeypatch):
    rng = np.random.default_rng(cin + stride)
    x = T.Tensor(rng.normal(size=(2, cin, 110, 512)).astype(dtype))
    w = T.Tensor(rng.normal(scale=0.1, size=(cout, cin, 3, 3)).astype(dtype))
    b = T.Tensor(rng.normal(size=cout).astype(dtype))
    # more than one tile per sample at the default budget
    assert cin * 9 * (512 // stride) * (110 // stride) * x.data.itemsize > T._TILE_BYTES
    tiled = T.conv2d(x, w, b, stride=stride, padding="zero").data
    monkeypatch.setattr(T, "_TILE_BYTES", 1 << 40)
    whole = T.conv2d(x, w, b, stride=stride, padding="zero").data
    assert tiled.tobytes() == whole.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("tile_bytes", [1 << 40, 5 * 9 * 20 * 8],
                         ids=["whole-samples", "row-tiles"])
def test_conv2d_add_into_bitwise_equals_np_add(dtype, bias, tile_bytes, monkeypatch):
    """``add_into`` holds ``np.add(base, conv)`` afterwards, in whole-sample
    tiles and in row tiles, and is the array the call returns."""
    monkeypatch.setattr(T, "_TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(25)
    x = T.Tensor(rng.normal(size=(3, 5, 40, 20)).astype(dtype))
    w = T.Tensor(rng.normal(size=(4, 5, 3, 3)).astype(dtype))
    b = T.Tensor(rng.normal(size=4).astype(dtype)) if bias else None
    for stride in (1, 2):
        conv = T.conv2d(x, w, b, stride=stride, padding="zero").data
        base = rng.normal(size=conv.shape).astype(dtype)
        into = base.copy()
        with T.no_grad():
            got = T.conv2d(x, w, b, stride=stride, padding="zero", add_into=into)
        assert got.data is into
        assert into.tobytes() == np.add(base, conv).tobytes(), stride


def test_conv2d_add_into_refuses_a_graph_wrap_padding_and_another_shape():
    rng = np.random.default_rng(26)
    x = T.Tensor(rng.normal(size=(2, 3, 6, 8)))
    w = T.Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    into = np.zeros((2, 4, 6, 8))
    with pytest.raises(ValueError, match="no graph"):
        T.conv2d(x, w, padding="zero", add_into=into)
    with T.no_grad():
        with pytest.raises(ValueError, match="zero or no padding"):
            T.conv2d(x, w, padding="wrap", add_into=into)
        for bad in (np.zeros((2, 4, 4, 6)), np.zeros((2, 4, 6, 8), np.float32),
                    np.zeros((2, 4, 8, 6)).transpose(0, 1, 3, 2)):
            with pytest.raises(T.ShapeError, match="adds into"):
                T.conv2d(x, w, padding="zero", add_into=bad)
    assert not into.any()


# ---------------------------------------------------------------- backward


def test_backward_quadratic():
    """A 1x3 convolution of ``w`` with itself is w . w: one op whose two
    operands are the same leaf, whose gradients add up to 2w."""
    w = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    row = T.reshape(w, (1, 1, 1, 3))
    loss = T.conv2d(row, row)
    assert loss.item() == 14.0
    loss.backward()
    assert np.allclose(w.grad, 2 * w.data)


@pytest.mark.parametrize("axis", [None, 0])
def test_scalar_sum_keeps_float32_forward_and_backward(axis):
    """The tests' scalar loss keeps a float32 operand's dtype, forward and
    backward, like any other op's output, and seeds its operand with the
    weights' bits.  Its value is numpy's float32 sum of the product, whether
    numpy reduces the whole array or its one axis."""
    w = T.Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    c = np.array([0.1, -0.0, 2.5], dtype=np.float32)
    loss = weighted_sum(w, c)
    reference = (w.data * c).sum(axis=axis)
    assert reference.dtype == np.float32
    assert loss.shape == () and loss.dtype == np.float32
    assert np.asarray(loss.data).tobytes() == reference.tobytes()
    loss.backward()
    assert w.grad.dtype == np.float32
    assert w.grad.tobytes() == c.tobytes()


def test_backward_requires_scalar():
    w = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.elu(w).backward()


def test_backward_twice_raises():
    w = T.Tensor(np.ones(3), requires_grad=True)
    loss = weighted_sum(w, np.ones(3))
    loss.backward()
    with pytest.raises(RuntimeError, match="already"):
        loss.backward()


def test_backward_detached_graph_raises():
    x = T.Tensor(np.ones(3))
    loss = weighted_sum(T.elu(x), np.ones(3))
    with pytest.raises(RuntimeError, match="grad"):
        loss.backward()


def test_constant_subgraph_contributes_zero():
    w = T.Tensor(np.array([2.0]), requires_grad=True)
    c = T.Tensor(np.array([5.0]))  # untracked
    loss = weighted_sum(T.concat([w, T.elu(c)]), np.array([5.0, 3.0]))
    loss.backward()
    assert np.allclose(w.grad, [5.0])
    assert c.grad is None


def test_grad_accumulates_across_graphs():
    w = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    weighted_sum(w, 2 * w.data).backward()
    weighted_sum(w, np.full(2, 3.0)).backward()
    assert np.allclose(w.grad, 2 * w.data + 3.0)
    w.zero_grad()
    assert w.grad is None


def test_backward_frees_each_interior_activation_once_its_backward_has_run():
    """An interior activation the caller does not hold is dead by the time
    the ops before it run their backward; an interior grad is dropped, a
    leaf's and the root's are kept."""
    import weakref

    w = T.Tensor(np.ones(4), requires_grad=True)
    seen = []

    def probe(g):       # the first op's backward runs last
        seen.append(act() is None)
        return (g,)

    a = T._make(w.data * 2.0, (w,), probe)
    h = T.elu(a)
    act = weakref.ref(h.data)
    loss = weighted_sum(h, np.arange(4.0))
    del h
    loss.backward()
    assert seen == [True]
    assert a.grad is None
    assert np.array_equal(w.grad, np.arange(4.0))
    assert loss.grad == 1.0


def test_graph_contract_hook_parents_and_grads():
    """What callers rely on: a recorded op's ``_backward_fn`` can be read and
    replaced, and ``backward`` calls the replacement; ``_parents`` names leaf
    operands themselves; a leaf's ``grad`` can be set, and backward adds to
    it; an interior ``grad`` reads None after backward, the root's 1."""
    w = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = T.Tensor(np.array([3.0, 4.0]))
    y = T.concat([w, c])
    assert len(y._parents) == 2 and y._parents[0] is w and y._parents[1] is c
    assert w._parents == () and w._backward_fn is None
    h = T.elu(y)
    assert not isinstance(h._parents[0], T.Tensor)     # an interior operand: its node
    original, calls = y._backward_fn, []

    def hooked(g):
        calls.append(g.copy())
        return original(g)

    y._backward_fn = hooked
    assert y._backward_fn is hooked
    w.grad = np.array([10.0, 20.0])
    loss = weighted_sum(h, np.array([3.0, 4.0, 5.0, 6.0]))
    loss.backward()
    assert len(calls) == 1 and np.array_equal(calls[0], [3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(w.grad, [13.0, 24.0])
    assert c.grad is None
    assert y.grad is None and h.grad is None
    assert loss.grad == 1.0
    assert y._backward_fn is None and y._parents == ()


def test_graph_keeps_no_array_that_no_backward_reads():
    """An interior array lives only while its caller holds the tensor or a
    backward captured it.  As in a stage-2 step, each wrap convolution's raw
    response (its normalization keeps its own output), the concatenated
    bank output (``index_select`` keeps indices), the gathered halves and
    their concatenation (``concat`` keeps sizes, the loss its weights) die
    with their tensors, before backward; what a backward reads stays until
    that backward has run."""
    import weakref

    rng = np.random.default_rng(28)
    x = T.Tensor(rng.uniform(size=(3, 1, 6, 8)))
    ws = [T.Tensor(rng.normal(size=(2, 1, k, k)), requires_grad=True) for k in (3, 5)]
    raws = [T.conv2d(x, w, padding="wrap") for w in ws]
    units = [T.channel_l2_normalize(r) for r in raws]
    bank = T.concat(units, axis=1)
    left, right = T.index_select(bank, [0, 2]), T.index_select(bank, [1, 1])
    cat = T.concat([left, right], axis=1)
    loss = weighted_sum(cat, rng.normal(size=cat.shape))
    dead = [weakref.finalize(t.data, lambda: None) for t in raws + [bank, left, right, cat]]
    read = [weakref.finalize(t.data, lambda: None) for t in units]
    del raws, units, bank, left, right, cat
    assert not any(f.alive for f in dead)
    assert all(f.alive for f in read)
    loss.backward()
    assert not any(f.alive for f in read)
    assert all(w.grad is not None and w.grad.shape == w.shape for w in ws)


def test_no_grad_blocks_recording():
    w = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = T.elu(w)
    assert not out.requires_grad


# ------------------------------------------------------- elementwise ops


def test_elu_values():
    x = T.Tensor(np.array([0.0, 1.0, -50.0, -1.0]))
    y = T.elu(x).data
    assert y[0] == 0.0
    assert y[1] == 1.0
    assert abs(y[2] + 1.0) < 1e-12      # -inf asymptote is -1
    assert abs(y[3] - (np.expm1(-1.0))) < 1e-15


def elu_reference(x, alpha):
    """ELU with a whole-array mask, as first written: (output, gradient
    factor)."""
    neg = x <= 0
    data = np.minimum(x, 0.0)
    np.expm1(data, out=data)
    data *= alpha
    np.copyto(data, x, where=~neg)
    return data, np.where(neg, data + alpha, 1.0)


def same_bits(a, b):
    """Bitwise equality, so +0.0 and -0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# elu's alpha is fixed at 1; the reference keeps the general formula
@pytest.mark.parametrize("alpha", [1.0])
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4, 5), (3, 70000), (2, 3, 130, 200)])
def test_elu_bitwise_equals_reference(alpha, shape):
    rng = np.random.default_rng(12)
    x = rng.normal(scale=3.0, size=shape).reshape(-1)
    special = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e-310, np.inf, -np.inf, -800.0]
    x[:len(special)] = special[:x.size]
    x = x.reshape(shape)
    w = rng.normal(size=shape)
    want, factor = elu_reference(x, alpha)
    xt = T.Tensor(x.copy(), requires_grad=True)
    y = T.elu(xt)
    assert same_bits(y.data, want)
    weighted_sum(y, w).backward()
    assert same_bits(xt.grad, w * factor)
    with T.no_grad():
        assert same_bits(T.elu(T.Tensor(x)).data, want)


def batch_norm_eval_reference(x, gamma, beta, rm, rv, eps=1e-5):
    cshape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    xhat = x - rm.reshape(cshape)
    xhat *= 1.0 / np.sqrt(rv.reshape(cshape) + eps)
    data = gamma.reshape(cshape) * xhat
    data += beta.reshape(cshape)
    return data


@pytest.mark.parametrize("shape,dtype", [((4, 3, 5, 6), np.float64), ((5, 3), np.float64),
                                         ((4, 3, 5, 6), np.float32)])
def test_batch_norm_eval_bitwise_with_and_without_graph(shape, dtype):
    rng = np.random.default_rng(13)
    x = rng.normal(size=shape).astype(dtype)
    x.reshape(-1)[:2] = [0.0, -0.0]
    gamma, beta = rng.normal(size=3).astype(dtype), rng.normal(size=3).astype(dtype)
    rm, rv = rng.normal(size=3).astype(dtype), (rng.random(3) + 0.5).astype(dtype)
    want = batch_norm_eval_reference(x, gamma, beta, rm, rv)
    with T.no_grad():
        y = T.batch_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), rm, rv, training=False)
    assert same_bits(y.data, want)
    # eval records no graph: one that would is refused
    for grads in ((True, False, False), (False, True, False), (False, False, True)):
        xt, g, b = (T.Tensor(v, requires_grad=r) for v, r in zip((x, gamma, beta), grads))
        with pytest.raises(ValueError, match="batch_norm in eval mode records no graph"):
            T.batch_norm(xt, g, b, rm, rv, training=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 3), (4, 20, 30, 40), (1, 2, 130, 600)],
                         ids=["2d", "planes-under-slice", "plane-over-slice"])
def test_elu_batch_norm_bitwise_equals_composition(shape, dtype):
    """In eval mode the op overwrites its input in slices, with the bits of
    ``elu`` then ``batch_norm``.  A graph to record, or an input that is not
    a C-contiguous, writeable array (whose slices would be a copy), is
    refused before anything is written."""
    rng = np.random.default_rng(14)
    x = rng.normal(scale=3.0, size=shape).astype(dtype)
    fi = np.finfo(dtype)
    special = [0.0, -0.0, fi.smallest_subnormal, -fi.smallest_subnormal, -fi.tiny / 4,
               np.inf, -np.inf, -800.0]
    x.reshape(-1)[:len(special)] = special
    c = shape[1]
    gamma, beta, rm = (rng.normal(size=c).astype(dtype) for _ in range(3))
    rv = (rng.random(c) + 0.5).astype(dtype)
    want = T.batch_norm(T.elu(T.Tensor(x)), T.Tensor(gamma), T.Tensor(beta), rm, rv,
                        training=False).data
    xt = T.Tensor(x.copy())
    with T.no_grad():
        y = T.elu_batch_norm(xt, T.Tensor(gamma), T.Tensor(beta), rm, rv, False)
    assert same_bits(y.data, want)
    assert y.data is xt.data
    readonly = x.copy()
    readonly.flags.writeable = False
    for data, graph in ((x.copy(), True), (np.asfortranarray(x), False), (readonly, False)):
        with pytest.raises(ValueError, match="elu_batch_norm in eval mode overwrites its input"):
            T.elu_batch_norm(T.Tensor(data), T.Tensor(gamma, requires_grad=graph),
                             T.Tensor(beta), rm, rv, False)
        assert same_bits(data, x)


def test_elu_batch_norm_in_place_peak_is_one_slice():
    """At block 0's float32 sub-batch shape (two pairs at 110x512) the eval
    path allocates at most one slice; ``elu`` then ``batch_norm`` allocate
    two whole 14.4-MB activations."""
    import tracemalloc

    x = T.Tensor(np.random.default_rng(15).normal(size=(2, 32, 110, 512)).astype(np.float32))
    gamma, beta = T.Tensor(np.ones(32, np.float32)), T.Tensor(np.zeros(32, np.float32))
    rm, rv = np.zeros(32, np.float32), np.ones(32, np.float32)
    tracemalloc.start()
    try:
        with T.no_grad():
            T.elu_batch_norm(x, gamma, beta, rm, rv, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= T._ELU_SLICE * x.data.itemsize


def elu_bn_step(op, x, gamma, beta, rm, rv, training, w):
    """Run ``op`` on fresh copies of the operands, then the backward of
    sum(output * w).  Returns the output's parents, the (input, gamma, beta)
    tensors, and {name: array} of the output, the running statistics and the
    gradients of the input, gamma and beta."""
    xt = T.Tensor(x.copy(), requires_grad=True)
    g, b = T.Tensor(gamma.copy(), requires_grad=True), T.Tensor(beta.copy(), requires_grad=True)
    rm, rv = rm.copy(), rv.copy()
    y = op(xt, g, b, rm, rv, training)
    got = {"out": y.data.copy(), "running_mean": rm, "running_var": rv}
    parents = y._parents
    weighted_sum(y, w).backward()
    got.update(gx=xt.grad, ggamma=g.grad, gbeta=b.grad)
    return parents, (xt, g, b), got


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape,dtype", [
    ((5, 3), np.float64),
    ((4, 3, 5, 6), np.float64),
    ((4, 3, 5, 6), np.float32),
    ((2, 2, 130, 600), np.float32),
    ((2, 32, 110, 512), np.float64),
], ids=["2d-f64", "4d-f64", "4d-f32", "plane-over-slice-f32", "block0-110x512-f64"])
def test_elu_batch_norm_op_bitwise_equals_composition(shape, dtype, training):
    """With a graph, in train mode, the op is one recorded node whose
    output, running-statistic updates and input, gamma and beta gradients
    have the bits of ``batch_norm(elu(a))``.  In eval mode it records no
    graph, as ``batch_norm`` records none: both refuse."""
    rng = np.random.default_rng(26)
    x = rng.normal(scale=3.0, size=shape).astype(dtype)
    fi = np.finfo(dtype)
    special = [0.0, -0.0, fi.smallest_subnormal, -fi.smallest_subnormal, -fi.tiny / 4, -800.0]
    x.reshape(-1)[:len(special)] = special
    c = shape[1]
    gamma, beta, rm = (rng.normal(size=c).astype(dtype) for _ in range(3))
    rv = (rng.random(c) + 0.5).astype(dtype)
    w = rng.normal(size=shape).astype(dtype)
    if not training:
        for op in (T.elu_batch_norm, lambda a, *rest: T.batch_norm(T.elu(a), *rest)):
            with pytest.raises(ValueError, match="in eval mode"):
                elu_bn_step(op, x, gamma, beta, rm, rv, training, w)
        return
    parents, operands, got = elu_bn_step(T.elu_batch_norm, x, gamma, beta, rm, rv, training, w)
    assert len(parents) == 3 and all(p is o for p, o in zip(parents, operands))
    _, _, want = elu_bn_step(lambda a, *rest: T.batch_norm(T.elu(a), *rest),
                             x, gamma, beta, rm, rv, training, w)
    assert got.keys() == want.keys()
    for key in want:
        assert same_bits(got[key], want[key]), key


def test_elu_batch_norm_training_memory():
    """In training the op's graph holds one new activation, its output; the
    composition also holds the ELU output and x-hat.  The op's backward
    allocates one more, the input gradient, and cache-sized slices."""
    import tracemalloc

    rng = np.random.default_rng(27)
    x = T.Tensor(rng.normal(size=(16, 32, 64, 64)), requires_grad=True)
    g = rng.normal(size=x.shape)
    gamma, beta = T.Tensor(np.ones(32), requires_grad=True), T.Tensor(np.zeros(32))
    held = {}
    for name, op in (("fused", T.elu_batch_norm),
                     ("composed", lambda a, *rest: T.batch_norm(T.elu(a), *rest))):
        tracemalloc.start()
        try:
            y = op(x, gamma, beta, np.zeros(32), np.ones(32), True)
            held[name] = tracemalloc.get_traced_memory()[0]
            if name == "fused":
                tracemalloc.reset_peak()
                y._backward_fn(g)
                backward = tracemalloc.get_traced_memory()[1] - held[name]
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        del y
    assert held["fused"] < 1.25 * x.data.nbytes
    assert held["composed"] > 3 * x.data.nbytes
    assert backward < 1.5 * x.data.nbytes


def test_dropout_zero_rate_is_identity():
    x = T.Tensor(np.arange(6.0).reshape(2, 3))
    y = T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
    assert y is x


def test_dropout_eval_is_identity():
    x = T.Tensor(np.arange(6.0))
    assert T.dropout(x, 0.7, training=False) is x


def test_dropout_rate_validation():
    x = T.Tensor(np.ones(3))
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, training=True, rng=np.random.default_rng(0))


def test_dropout_deterministic_and_scaled():
    x = T.Tensor(np.ones((4, 8)))
    a = T.dropout(x, 0.5, training=True, rng=np.random.default_rng(3)).data
    b = T.dropout(x, 0.5, training=True, rng=np.random.default_rng(3)).data
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {0.0, 2.0}


def test_batch_norm_standardizes():
    rng = np.random.default_rng(5)
    x = rng.normal(loc=3.0, scale=2.5, size=(8, 4, 5, 6))
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    gamma = T.Tensor(np.ones(4))
    beta = T.Tensor(np.zeros(4))
    y = T.batch_norm(T.Tensor(x), gamma, beta, training=True, eps=0.0).data
    assert np.max(np.abs(y.mean(axis=(0, 2, 3)))) < 1e-6
    assert np.max(np.abs(y.var(axis=(0, 2, 3)) - 1.0)) < 1e-6
    # and the direct formula agrees
    want = (x - mu[None, :, None, None]) / np.sqrt(var[None, :, None, None])
    assert np.allclose(y, want)


def test_batch_norm_batch_of_one_rejected():
    x = T.Tensor(np.ones((1, 2, 3, 3)))
    g = T.Tensor(np.ones(2))
    b = T.Tensor(np.zeros(2))
    with pytest.raises(ValueError, match="at least 2"):
        T.batch_norm(x, g, b, training=True)


def test_batch_norm_eval_uses_running_stats():
    x = np.array([[1.0, 10.0], [3.0, 30.0]])
    rm = np.array([2.0, 20.0])
    rv = np.array([4.0, 100.0])
    y = T.batch_norm(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)),
                     running_mean=rm, running_var=rv, training=False, eps=0.0).data
    assert np.allclose(y, [[-0.5, -1.0], [0.5, 1.0]])


def test_batch_norm_running_update():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 3, 4, 4))
    rm = np.zeros(3)
    rv = np.ones(3)
    T.batch_norm(T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)),
                 running_mean=rm, running_var=rv, training=True, momentum=0.1)
    n = 6 * 4 * 4
    want_m = 0.1 * x.mean(axis=(0, 2, 3))
    want_v = 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * n / (n - 1)
    assert np.allclose(rm, want_m)
    assert np.allclose(rv, want_v)


def test_sigmoid_range_and_symmetry():
    x = T.Tensor(np.array([-30.0, -1.0, 0.0, 1.0, 30.0]))
    y = T.sigmoid(x).data
    assert np.all(y > 0) and np.all(y < 1)
    assert y[2] == 0.5
    assert abs(y[1] + y[3] - 1.0) < 1e-15
    # extreme logits must not overflow
    extreme = T.sigmoid(T.Tensor(np.array([-700.0, 700.0]))).data
    assert np.all(np.isfinite(extreme))


# ------------------------------------------------------- one dtype per op


def _operands(odd, **shapes):
    """Float32 arrays of the given shapes, uniform in [0.5, 1.5), the one
    named ``odd`` in float64."""
    rng = np.random.default_rng(31)
    return {name: (rng.random(shape) + 0.5).astype(np.float64 if name == odd else np.float32)
            for name, shape in shapes.items()}


@pytest.mark.parametrize("op", ["elu_batch_norm", "batch_norm"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("odd", ["input", "gamma", "beta", "running_mean", "running_var"])
def test_batch_norms_refuse_operands_of_two_dtypes(op, training, odd):
    """Before anything is written: in eval ``elu_batch_norm`` would
    overwrite its input, in training either op the running statistics."""
    a = _operands(odd, input=(4, 3, 5, 6), gamma=3, beta=3, running_mean=3, running_var=3)
    before = {name: arr.tobytes() for name, arr in a.items()}
    with T.no_grad():
        with pytest.raises(TypeError, match=f"^{op} needs operands of one dtype, "
                                            "got float32 and float64$"):
            getattr(T, op)(T.Tensor(a["input"]), T.Tensor(a["gamma"]), T.Tensor(a["beta"]),
                           a["running_mean"], a["running_var"], training=training)
    assert {name: arr.tobytes() for name, arr in a.items()} == before


@pytest.mark.parametrize("padding", ["zero", "wrap"])
@pytest.mark.parametrize("odd", ["input", "weight", "bias"])
def test_conv2d_refuses_operands_of_two_dtypes(padding, odd):
    a = _operands(odd, input=(2, 1, 6, 8), weight=(2, 1, 3, 3), bias=2)
    with pytest.raises(TypeError, match="conv2d needs operands of one dtype"):
        T.conv2d(T.Tensor(a["input"]), T.Tensor(a["weight"]), T.Tensor(a["bias"]),
                 padding=padding)


def test_concat_and_the_bank_refuse_operands_of_two_dtypes():
    from irismatch.unit_circle import UnitCircleBank

    a = _operands("b", a=(2, 1, 6, 8), b=(2, 1, 6, 8))
    with pytest.raises(TypeError, match="concat needs operands of one dtype"):
        T.concat([T.Tensor(a["a"]), T.Tensor(a["b"])], axis=1)
    # a float64 bank's no-graph pass, on float32 images or into a float32 array
    bank = UnitCircleBank(((3, 3), (3, 5)), bias=True, mode="unit-circle",
                          rng=np.random.default_rng(32))
    out = np.zeros((2, 4, 6, 8), np.float32)
    with T.no_grad():
        with pytest.raises(TypeError, match="the bank needs operands of one dtype"):
            bank.forward(T.Tensor(a["a"]))
        with pytest.raises(TypeError, match="the bank needs operands of one dtype"):
            bank.forward(T.Tensor(a["a"].astype(np.float64)), out=out)
    assert not out.any()


@pytest.mark.parametrize("op", ["conv2d", "elu_batch_norm", "leaf"])
def test_backward_refuses_a_gradient_of_another_dtype(op):
    """A float64 gradient for a float32 op output or leaf stops the backward
    before that op's backward runs or the leaf's grad is set."""
    rng = np.random.default_rng(33)
    x = T.Tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    gamma, beta = (T.Tensor(np.full(3, v, np.float32), requires_grad=True) for v in (1.5, 0.5))
    stats = np.zeros(3, np.float32), np.ones(3, np.float32)
    build, params = {
        "conv2d": (lambda: T.conv2d(x, w, None), [x, w]),
        "elu_batch_norm": (lambda: T.elu_batch_norm(x, gamma, beta, *stats, training=True),
                           [x, gamma, beta]),
        "leaf": (lambda: x, [x]),
    }[op]
    y, ran = build(), []
    if op != "leaf":
        fn = y._backward_fn
        y._backward_fn = lambda g: ran.append(g.dtype) or fn(g)
    with pytest.raises(TypeError, match="backward got a float64 gradient for a float32 operand"):
        weighted_sum(y, rng.normal(size=y.shape)).backward()
    assert ran == [] and all(p.grad is None for p in params)
    # the same loss in the operands' dtype runs every backward
    y = build()
    weighted_sum(y, rng.normal(size=y.shape).astype(np.float32)).backward()
    assert all(p.grad.dtype == np.float32 for p in params)


# ---------------------------------------------------------------- bce


def test_bce_half():
    p = T.Tensor(np.array([0.5]))
    y = np.array([1.0])
    assert abs(T.bce_loss(p, y).item() - np.log(2.0)) < 1e-9


def test_bce_perfect_prediction():
    p = T.Tensor(np.array([1.0, 0.0]))
    y = np.array([1.0, 0.0])
    assert T.bce_loss(p, y).item() <= -np.log1p(-T.BCE_EPS) + 1e-12


def test_bce_matches_elementwise_reference():
    rng = np.random.default_rng(8)
    p = rng.uniform(0.01, 0.99, size=32)
    y = rng.integers(0, 2, size=32).astype(float)
    got = T.bce_loss(T.Tensor(p), y).item()
    want = -sum(yi * np.log(pi) + (1 - yi) * np.log(1 - pi) for pi, yi in zip(p, y)) / 32
    assert abs(got - want) < 1e-12


def test_bce_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.bce_loss(T.Tensor(np.ones(3) * 0.5), np.ones(4))


# -------------------------------------------------- finite-difference suite


def test_gradcheck_conv2d_zero_padding():
    rng = np.random.default_rng(12)
    x = T.Tensor(rng.normal(size=(2, 2, 5, 6)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=3), requires_grad=True)
    c = rng.normal(size=(2, 3, 3, 6))
    err = check_gradients(
        lambda: weighted_sum(T.conv2d(x, w, b, stride=(2, 1), padding="zero"), c), [x, w, b])
    assert err < 1e-4


def test_gradcheck_conv2d_wrap_padding():
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.normal(size=(1, 1, 5, 7)))
    w = T.Tensor(rng.normal(size=(2, 1, 3, 5)), requires_grad=True)
    b = T.Tensor(rng.normal(size=2), requires_grad=True)
    c = rng.normal(size=(1, 2, 5, 7))
    err = check_gradients(
        lambda: weighted_sum(T.conv2d(x, w, b, padding="wrap"), c), [w, b])
    assert err < 1e-4


def test_conv2d_wrap_refuses_an_input_that_requires_grad():
    """A wrap convolution (the bank's, whose input is an image) has no
    input gradient: recording one whose input requires grad is refused."""
    x = T.Tensor(np.ones((1, 1, 6, 8)), requires_grad=True)
    w = T.Tensor(np.ones((2, 1, 3, 3)), requires_grad=True)
    with pytest.raises(ValueError, match="no input gradient"):
        T.conv2d(x, w, padding="wrap")
    with T.no_grad():
        assert T.conv2d(x, w, padding="wrap").shape == (1, 2, 6, 8)


@pytest.mark.parametrize("padding,stride", [("zero", (2, 1)), ("none", 1)],
                         ids=["zero-stride1", "none-1"])
def test_conv2d_skips_unread_input_gradient(padding, stride):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 2, 6, 9))
    c = rng.normal(size=T.conv2d(T.Tensor(x), T.Tensor(np.zeros((4, 2, 3, 5))),
                                 stride=stride, padding=padding).shape)
    grads = []
    for x_requires_grad in (True, False):
        xt = T.Tensor(x, requires_grad=x_requires_grad)
        w = T.Tensor(np.cos(np.arange(120.0)).reshape(4, 2, 3, 5), requires_grad=True)
        b = T.Tensor(np.arange(4.0), requires_grad=True)
        weighted_sum(T.conv2d(xt, w, b, stride=stride, padding=padding), c).backward()
        assert (xt.grad is not None) == x_requires_grad
        grads.append((w.grad, b.grad))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_gradcheck_channel_normalize():
    rng = np.random.default_rng(14)
    x = T.Tensor(rng.normal(size=(2, 2, 4, 5)) + 0.5, requires_grad=True)
    c = np.cos(np.arange(2 * 2 * 4 * 5)).reshape(2, 2, 4, 5)
    err = check_gradients(
        lambda: weighted_sum(T.channel_l2_normalize(x), c), [x])
    assert err < 1e-4


def test_gradcheck_elu_relu_sigmoid():
    rng = np.random.default_rng(15)
    x = T.Tensor(rng.normal(size=(3, 7)) + 0.1, requires_grad=True)
    c = rng.normal(size=(3, 7))
    for op in (T.elu, T.relu, T.sigmoid):
        err = check_gradients(lambda: weighted_sum(op(x), c), [x])
        assert err < 1e-4, op.__name__


def test_gradcheck_batch_norm_train_and_eval():
    rng = np.random.default_rng(16)
    x = T.Tensor(rng.normal(size=(4, 3, 2, 2)), requires_grad=True)
    gamma = T.Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    beta = T.Tensor(rng.normal(size=3), requires_grad=True)
    w = np.sin(np.arange(48)).reshape(4, 3, 2, 2)
    err = check_gradients(
        lambda: weighted_sum(T.batch_norm(x, gamma, beta, training=True), w),
        [x, gamma, beta])
    assert err < 1e-4
    # eval mode records no graph, so it has no gradient to check
    with pytest.raises(ValueError, match="records no graph"):
        T.batch_norm(x, gamma, beta, rng.normal(size=3), rng.uniform(0.5, 2.0, size=3),
                     training=False)


def test_gradcheck_dropout_fixed_mask():
    rng = np.random.default_rng(17)
    x = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    c = rng.normal(size=(4, 6))
    err = check_gradients(
        lambda: weighted_sum(T.dropout(x, 0.4, training=True, rng=np.random.default_rng(99)), c),
        [x])
    assert err < 1e-4


def test_gradcheck_global_avg_pool():
    rng = np.random.default_rng(18)
    x = T.Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    c = rng.normal(size=(2, 3))
    err = check_gradients(lambda: weighted_sum(T.global_avg_pool(x), c), [x])
    assert err < 1e-4


def test_gradcheck_bce():
    rng = np.random.default_rng(19)
    p = T.Tensor(rng.uniform(0.05, 0.95, size=16), requires_grad=True)
    y = rng.integers(0, 2, size=16).astype(float)
    err = check_gradients(lambda: T.bce_loss(p, y), [p])
    assert err < 1e-4


def test_gradcheck_concat_index_select():
    rng = np.random.default_rng(20)
    a = T.Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(3, 1, 2, 2)), requires_grad=True)
    idx = [0, 2, 2, 1]
    c = rng.normal(size=(4, 3, 2, 2))

    def build():
        cat = T.concat([a, b], axis=1)
        sel = T.index_select(cat, idx)
        return weighted_sum(sel, c)

    err = check_gradients(build, [a, b])
    assert err < 1e-4


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_index_select_backward_bitwise_equals_add_at(dtype):
    rng = np.random.default_rng(22)
    a = T.Tensor(rng.normal(size=(6, 2, 3, 4)).astype(dtype), requires_grad=True)
    idx = np.array([4, 1, 4, 0, 4, 1, 5])
    out = T.index_select(a, idx)
    g = rng.normal(size=out.shape).astype(dtype)
    (got,) = out._backward_fn(g)
    want = np.zeros(a.shape, dtype=dtype)
    np.add.at(want, idx, g)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_paired_index_select_bitwise_equals_two_gathers_concatenated(dtype):
    """``index_select`` with (P, 2) indices, viewed as (P, 2C, H, W), is the
    pair input ``pair_batch`` builds: forward and gradient bitwise equal to
    the concatenation of the two 1-D gathers.  Image 3 repeats on the left
    only, 2 on the right only, 1 on both sides; 5 and 6 appear once, on one
    side each; 4 is never gathered."""
    rng = np.random.default_rng(23)
    pairs = np.array([[3, 2], [1, 1], [3, 6], [5, 2], [1, 1], [3, 2], [0, 0]])
    data = (rng.normal(size=(7, 2, 3, 4)) * 10.0 ** rng.integers(-3, 4, size=(7, 1, 1, 1)))
    weight = rng.normal(size=(len(pairs), 4, 3, 4)).astype(dtype)
    grads, outs = [], []
    for paired in (True, False):
        a = T.Tensor(data.astype(dtype), requires_grad=True)
        if paired:
            x = T.reshape(T.index_select(a, pairs), (len(pairs), 4, 3, 4))
        else:
            x = T.concat([T.index_select(a, pairs[:, 0]), T.index_select(a, pairs[:, 1])],
                         axis=1)
        outs.append(x.data.tobytes())
        weighted_sum(x, weight).backward()
        assert a.grad.dtype == dtype
        grads.append(a.grad.tobytes())
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


def test_gradcheck_composite_pipeline():
    # conv -> elu -> bn -> 1x1 head -> pool -> sigmoid -> bce, all in one graph
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.normal(size=(3, 1, 6, 8)))
    w = T.Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.5, requires_grad=True)
    b = T.Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    gamma = T.Tensor(np.ones(2), requires_grad=True)
    beta = T.Tensor(np.zeros(2), requires_grad=True)
    head_w = T.Tensor(np.ones((1, 2, 1, 1)), requires_grad=True)
    head_b = T.Tensor(np.zeros(1), requires_grad=True)
    y = np.array([1.0, 0.0, 1.0])

    def build():
        h = T.conv2d(x, w, b, padding="wrap")
        h = T.elu(h)
        h = T.batch_norm(h, gamma, beta, training=True)
        h = T.conv2d(h, head_w, head_b)
        h = T.global_avg_pool(h)
        p = T.sigmoid(h.reshape((3,)))
        return T.bce_loss(p, y)

    err = check_gradients(build, [w, b, gamma, beta, head_w, head_b])
    assert err < 1e-4


def test_determinism_same_seed_same_result():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = T.Tensor(rng.normal(size=(2, 3, 4, 4)))
        w = T.Tensor(rng.normal(size=(2, 3, 3, 3)))
        h = T.conv2d(x, w, padding="zero")
        h = T.dropout(h, 0.3, training=True, rng=np.random.default_rng(seed + 1))
        return h.data

    assert np.array_equal(run(42), run(42))


def test_numerical_gradient_helper_self_check():
    # d/dx sum(x^3) = 3x^2 exactly
    x = np.array([1.0, -2.0, 0.5])
    g = numerical_gradient(lambda: float((x ** 3).sum()), x)
    assert max_relative_error(3 * x ** 2, g) < 1e-8
