"""Tests for the tensor/autodiff engine.

The convolution reference here is a six-nested-loop cross-correlation written
before the engine was used for anything; gradients are checked against
central finite differences (see irismatch.gradcheck).
"""

import numpy as np
import pytest

from irismatch import tensor as T
from irismatch.gradcheck import check_gradients, max_relative_error, numerical_gradient


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
    out = T.conv2d(x, w, stride=1, padding=1).data[0, 0]
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
    rng = np.random.default_rng(hash((shape, kshape)) % 2**32)
    x = rng.normal(size=shape)
    w = rng.normal(size=kshape)
    b = rng.normal(size=kshape[0])
    got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, padding=pad).data
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


def test_conv2d_chunked_batches_match_loop():
    # force the im2col chunking path with a tiny budget
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    old = T._COL_BUDGET
    T._COL_BUDGET = 64
    try:
        got = T.conv2d(T.Tensor(x), T.Tensor(w)).data
    finally:
        T._COL_BUDGET = old
    assert np.max(np.abs(got - loop_conv2d(x, w))) <= 1e-12


# ---------------------------------------------------------------- backward


def test_backward_quadratic():
    w = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    assert np.allclose(w.grad, 2 * w.data)


def test_backward_requires_scalar():
    w = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(T.ShapeError):
        (w * w).backward()


def test_backward_twice_raises():
    w = T.Tensor(np.ones(3), requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="already"):
        loss.backward()


def test_backward_detached_graph_raises():
    x = T.Tensor(np.ones(3))
    loss = (x * x).sum()
    with pytest.raises(RuntimeError, match="grad"):
        loss.backward()


def test_constant_subgraph_contributes_zero():
    w = T.Tensor(np.array([2.0]), requires_grad=True)
    c = T.Tensor(np.array([5.0]))  # untracked
    loss = (w * c + c * c).sum()
    loss.backward()
    assert np.allclose(w.grad, [5.0])
    assert c.grad is None


def test_grad_accumulates_across_graphs():
    w = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (w * w).sum().backward()
    (w * 3.0).sum().backward()
    assert np.allclose(w.grad, 2 * w.data + 3.0)
    w.zero_grad()
    assert w.grad is None


def test_no_grad_blocks_recording():
    w = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = (w * w).sum()
    assert not out.requires_grad


# ------------------------------------------------------- elementwise ops


def test_elu_values():
    x = T.Tensor(np.array([0.0, 1.0, -50.0, -1.0]))
    y = T.elu(x).data
    assert y[0] == 0.0
    assert y[1] == 1.0
    assert abs(y[2] + 1.0) < 1e-12      # -inf asymptote is -1
    assert abs(y[3] - (np.expm1(-1.0))) < 1e-15


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


def test_gradcheck_add_mul_sum():
    rng = np.random.default_rng(10)
    a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    err = check_gradients(lambda: ((a * b + a) ** 2.0).sum(), [a, b])
    assert err < 1e-4


def test_gradcheck_broadcast_bias():
    rng = np.random.default_rng(11)
    a = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
    err = check_gradients(lambda: ((a + b) * (a + b)).mean(), [a, b])
    assert err < 1e-4


def test_gradcheck_conv2d_zero_padding():
    rng = np.random.default_rng(12)
    x = T.Tensor(rng.normal(size=(2, 2, 5, 6)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=3), requires_grad=True)
    err = check_gradients(
        lambda: (T.conv2d(x, w, b, stride=(2, 1), padding="zero") ** 2.0).sum(), [x, w, b])
    assert err < 1e-4


def test_gradcheck_conv2d_wrap_padding():
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.normal(size=(1, 1, 5, 7)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(2, 1, 3, 5)), requires_grad=True)
    err = check_gradients(
        lambda: (T.conv2d(x, w, padding="wrap") ** 2.0).sum(), [x, w])
    assert err < 1e-4


@pytest.mark.parametrize("padding,stride", [("wrap", 1), ("zero", (2, 1)), ("none", 1)])
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
        (T.conv2d(xt, w, b, stride=stride, padding=padding) * c).sum().backward()
        assert (xt.grad is not None) == x_requires_grad
        grads.append((w.grad, b.grad))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_gradcheck_channel_normalize():
    rng = np.random.default_rng(14)
    x = T.Tensor(rng.normal(size=(2, 2, 4, 5)) + 0.5, requires_grad=True)
    c = np.cos(np.arange(2 * 2 * 4 * 5)).reshape(2, 2, 4, 5)
    err = check_gradients(
        lambda: (T.channel_l2_normalize(x) * c).sum(), [x])
    assert err < 1e-4


def test_gradcheck_elu_relu_sigmoid():
    rng = np.random.default_rng(15)
    x = T.Tensor(rng.normal(size=(3, 7)) + 0.1, requires_grad=True)
    for op in (T.elu, T.relu, T.sigmoid):
        err = check_gradients(lambda: (op(x) ** 2.0).sum(), [x])
        assert err < 1e-4, op.__name__


def test_gradcheck_batch_norm_train_and_eval():
    rng = np.random.default_rng(16)
    x = T.Tensor(rng.normal(size=(4, 3, 2, 2)), requires_grad=True)
    gamma = T.Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    beta = T.Tensor(rng.normal(size=3), requires_grad=True)
    w = np.sin(np.arange(48)).reshape(4, 3, 2, 2)
    err = check_gradients(
        lambda: (T.batch_norm(x, gamma, beta, training=True) * w).sum(),
        [x, gamma, beta])
    assert err < 1e-4
    rm = rng.normal(size=3)
    rv = rng.uniform(0.5, 2.0, size=3)
    err = check_gradients(
        lambda: (T.batch_norm(x, gamma, beta, rm, rv, training=False) * w).sum(),
        [x, gamma, beta])
    assert err < 1e-4


def test_gradcheck_dropout_fixed_mask():
    rng = np.random.default_rng(17)
    x = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    err = check_gradients(
        lambda: (T.dropout(x, 0.4, training=True, rng=np.random.default_rng(99)) ** 2.0).sum(),
        [x])
    assert err < 1e-4


def test_gradcheck_global_avg_pool():
    rng = np.random.default_rng(18)
    x = T.Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    err = check_gradients(lambda: (T.global_avg_pool(x) ** 2.0).sum(), [x])
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

    def build():
        cat = T.concat([a, b], axis=1)
        sel = T.index_select(cat, idx, axis=0)
        return (sel ** 2.0).sum()

    err = check_gradients(build, [a, b])
    assert err < 1e-4


def test_gradcheck_composite_pipeline():
    # conv -> elu -> bn -> pool -> sigmoid -> bce, all in one graph
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.normal(size=(3, 1, 6, 8)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.5, requires_grad=True)
    b = T.Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    gamma = T.Tensor(np.ones(2), requires_grad=True)
    beta = T.Tensor(np.zeros(2), requires_grad=True)
    y = np.array([1.0, 0.0, 1.0])

    def build():
        h = T.conv2d(x, w, b, padding="wrap")
        h = T.elu(h)
        h = T.batch_norm(h, gamma, beta, training=True)
        h = T.global_avg_pool(h)
        p = T.sigmoid(h.sum(axis=1))
        return T.bce_loss(p, y)

    err = check_gradients(build, [x, w, b, gamma, beta])
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
