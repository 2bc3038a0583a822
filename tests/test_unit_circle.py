"""Tests for wrap padding, unit-circle responses, and filter banks."""

import numpy as np
import pytest

from irismatch import tensor as T
from irismatch import unit_circle as uc
from gradcheck import check_gradients, numerical_gradient, max_relative_error, weighted_sum
from oracles import bank_forward
from irismatch.blas import blas_core
from irismatch.matcher import IrisMatchModel, ModelConfig
from irismatch.tensor import ShapeError, Tensor


def modular_conv2d(x, w, b=None):
    """Reference: convolution sum with column index taken modulo W and
    zero rows outside the vertical extent.  x: (H, W), w: (Cout, 1, kh, kw)."""
    H, W = x.shape
    Cout, _, kh, kw = w.shape
    hh, hw = kh // 2, kw // 2
    out = np.zeros((Cout, H, W))
    for c in range(Cout):
        for i in range(H):
            for j in range(W):
                acc = 0.0
                for u in range(kh):
                    for v in range(kw):
                        ii = i + u - hh
                        if 0 <= ii < H:
                            jj = (j + v - hw) % W
                            acc += x[ii, jj] * w[c, 0, u, v]
                out[c, i, j] = acc + (b[c] if b is not None else 0.0)
    return out


# ---------------------------------------------------------------- wrap padding


def test_wrap_pad_kw5_column_order():
    W = 512
    img = Tensor(np.arange(W, dtype=float).reshape(1, 1, 1, W))
    padded = T.pad2d(img, 0, 0, 2, 2, mode="wrap").data[0, 0, 0]
    # h = 2: [c510, c511, c0, ..., c511, c0, c1]
    assert padded[0] == 510 and padded[1] == 511
    assert np.array_equal(padded[2:2 + W], np.arange(W))
    assert padded[-2] == 0 and padded[-1] == 1


@pytest.mark.parametrize("kw,h", [(7, 3), (1, 0), (3, 1)])
def test_wrap_pad_half_widths(kw, h):
    img = Tensor(np.arange(10, dtype=float).reshape(1, 1, 1, 10))
    padded = T.pad2d(img, 0, 0, kw // 2, kw // 2, mode="wrap").data
    assert padded.shape[3] == 10 + 2 * h


def test_wrap_pad_vertical_zeros():
    img = Tensor(np.ones((1, 1, 4, 6)))
    padded = T.pad2d(img, 2, 2, 1, 1, mode="wrap").data[0, 0]
    assert padded.shape == (8, 8)
    assert np.all(padded[:2] == 0) and np.all(padded[-2:] == 0)
    assert np.all(padded[2:6] == 1)


def test_wrap_pad_too_wide():
    img = Tensor(np.ones((1, 1, 2, 4)))
    with pytest.raises(ShapeError):
        T.pad2d(img, 0, 0, 5, 5, mode="wrap")  # a 1x11 kernel's pad: 5 > 4 columns


def test_wrap_conv_equals_modular_reference():
    rng = np.random.default_rng(30)
    for _ in range(10):
        x = rng.normal(size=(6, 10))
        w = rng.normal(size=(2, 1, 3, 5))
        b = rng.normal(size=2)
        xt = Tensor(x.reshape(1, 1, 6, 10))
        padded = T.pad2d(xt, 1, 1, 2, 2, mode="wrap")
        got = T.conv2d(padded, Tensor(w), Tensor(b)).data[0]
        want = modular_conv2d(x, w, b)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("kh,kw", uc.DEFAULT_KERNELS)
def test_wrap_conv_matches_wrap_pad_oracle_full_geometry(kh, kw):
    rng = np.random.default_rng(41)
    f = uc.UnitCircleFilter(kh, kw, bias=True, rng=rng)
    x = rng.uniform(size=(2, 1, 110, 512))
    padded = T.pad2d(Tensor(x), kh // 2, kh // 2, kw // 2, kw // 2, mode="wrap")
    want = T.conv2d(padded, f.weight, f.bias, padding="none").data
    got = T.conv2d(Tensor(x), f.weight, f.bias, padding="wrap").data
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-12
    got32 = T.conv2d(Tensor(x.astype(np.float32)), Tensor(f.weight.data.astype(np.float32)),
                     Tensor(f.bias.data.astype(np.float32)), padding="wrap").data
    assert got32.dtype == np.float32
    assert np.max(np.abs(got32 - want)) <= 1e-4 * np.max(np.abs(want))


def test_wrap_conv_refuses_two_input_channels():
    """The bank's input is one image: a wrap convolution of two input
    channels is refused before the output is written."""
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 2, 5, 7))
    w = rng.normal(size=(3, 2, 3, 5))
    with pytest.raises(ShapeError, match="one input channel"):
        T.conv2d(Tensor(x), Tensor(w, requires_grad=True), padding="wrap")
    out = np.zeros((2, 3, 5, 7))
    with pytest.raises(ShapeError, match="one input channel"):
        T.wrap_conv_into(out, lambda L: T.row_spectrum(x, L, 2), w, None)
    assert not out.any()


def test_wrap_conv_rejects_stride():
    x = Tensor(np.ones((1, 1, 6, 8)))
    w = Tensor(np.ones((2, 1, 3, 3)))
    with pytest.raises(ValueError, match="stride"):
        T.conv2d(x, w, stride=2, padding="wrap")


# ---------------------------------------------------------------- uc_forward


def _filter_with(weight, bias=None):
    f = uc.UnitCircleFilter(weight.shape[2], weight.shape[3], bias=bias is not None)
    f.weight = Tensor(weight, requires_grad=True)
    if bias is not None:
        f.bias = Tensor(bias, requires_grad=True)
    return f


def test_uc_forward_three_four_five():
    # 1x1 kernels with fixed bias produce a constant raw response (3, 4)
    w = np.zeros((2, 1, 1, 1))
    f = _filter_with(w, bias=np.array([3.0, 4.0]))
    out = uc.uc_forward(Tensor(np.zeros((1, 1, 2, 3))), f).data
    assert np.allclose(out[0, 0], 0.6)
    assert np.allclose(out[0, 1], 0.8)


def test_uc_forward_degenerate_pixel_maps_to_zero():
    w = np.zeros((2, 1, 3, 3))
    f = _filter_with(w, bias=np.zeros(2))
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 4, 5)))
    out = uc.uc_forward(x, f)
    assert np.all(out.data == 0.0)
    weighted_sum(out, np.ones(out.shape)).backward()
    assert np.all(f.weight.grad == 0.0) and np.all(f.bias.grad == 0.0)


def test_uc_forward_unit_norm_property():
    rng = np.random.default_rng(31)
    f = uc.UnitCircleFilter(5, 7, bias=True, rng=rng)
    x = Tensor(rng.uniform(size=(2, 1, 12, 20)))
    out = uc.uc_forward(x, f).data
    norms = np.sqrt((out ** 2).sum(axis=1))
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_uc_forward_shape_preserved():
    rng = np.random.default_rng(32)
    for kh, kw in [(3, 3), (7, 9), (11, 33)]:
        f = uc.UnitCircleFilter(kh, kw, bias=True, rng=rng)
        x = Tensor(rng.uniform(size=(1, 1, 18, 40)))
        assert uc.uc_forward(x, f).shape == (1, 2, 18, 40)


def _normalize_jacobian(v):
    """Rows of d(v/||v||)/dv obtained through the autodiff path."""
    rows = []
    for k in range(2):
        t = Tensor(np.array(v, dtype=float).reshape(1, 2, 1, 1), requires_grad=True)
        out = T.channel_l2_normalize(t, eps=uc.NORM_EPS)
        onehot = np.zeros((1, 2, 1, 1))
        onehot[0, k] = 1.0
        weighted_sum(out, onehot).backward()
        rows.append(t.grad.reshape(2))
    return np.array(rows)


def test_normalize_jacobian_unit_x():
    jac = _normalize_jacobian([1.0, 0.0])
    assert np.allclose(jac, [[0.0, 0.0], [0.0, 1.0]])


def test_normalize_jacobian_three_four():
    # closed form (I - uu^T)/||v||, u = (0.6, 0.8)
    jac = _normalize_jacobian([3.0, 4.0])
    u = np.array([0.6, 0.8])
    want = (np.eye(2) - np.outer(u, u)) / 5.0
    assert np.allclose(jac, want, atol=1e-12)
    assert np.allclose(want, [[0.128, -0.096], [-0.096, 0.072]])
    # cross-check the closed form itself by finite differences
    for k in range(2):
        v = np.array([3.0, 4.0])
        num = numerical_gradient(lambda: v[k] / np.sqrt((v ** 2).sum()), v)
        assert max_relative_error(want[k], num) < 1e-6


def test_uc_forward_gradcheck():
    rng = np.random.default_rng(33)
    f = uc.UnitCircleFilter(3, 5, bias=True, rng=rng)
    x = Tensor(rng.uniform(0.2, 1.0, size=(1, 1, 5, 8)))
    c = np.cos(np.arange(80)).reshape(1, 2, 5, 8)
    err = check_gradients(lambda: weighted_sum(uc.uc_forward(x, f), c),
                          [f.weight, f.bias])
    assert err < 1e-4


def test_uc_forward_scale_invariance_without_bias():
    rng = np.random.default_rng(34)
    f = uc.UnitCircleFilter(3, 5, bias=False, rng=rng)
    x = rng.uniform(0.1, 1.0, size=(1, 1, 6, 12))
    base = uc.uc_forward(Tensor(x), f).data
    # power-of-two scales commute exactly with float rounding
    for lam in (2.0, 0.5, 4.0):
        scaled = uc.uc_forward(Tensor(lam * x), f).data
        assert np.array_equal(scaled, base)
    assert np.allclose(uc.uc_forward(Tensor(3.0 * x), f).data, base, atol=1e-12)


def test_uc_forward_not_scale_invariant_with_bias():
    rng = np.random.default_rng(35)
    f = uc.UnitCircleFilter(3, 5, bias=True, rng=rng)
    x = rng.uniform(0.1, 1.0, size=(1, 1, 6, 12))
    a = uc.uc_forward(Tensor(x), f).data
    b = uc.uc_forward(Tensor(2.0 * x), f).data
    assert not np.allclose(a, b)


def test_relu_and_elu_modes():
    rng = np.random.default_rng(36)
    f = uc.UnitCircleFilter(3, 3, bias=True, rng=rng)
    x = Tensor(rng.uniform(size=(1, 1, 6, 6)))
    raw = T.conv2d(x, f.weight, f.bias, padding="wrap").data
    assert np.array_equal(uc.uc_forward(x, f, mode="relu").data, np.maximum(raw, 0.0))
    elu_out = uc.uc_forward(x, f, mode="elu").data
    assert np.allclose(elu_out, np.where(raw > 0, raw, np.expm1(raw)))
    with pytest.raises(ValueError):
        uc.uc_forward(x, f, mode="tanh")


# ---------------------------------------------------------------- bank


def test_bank_output_channels_full_geometry():
    rng = np.random.default_rng(37)
    # the default five filters
    bank = uc.UnitCircleBank(uc.DEFAULT_KERNELS, bias=True, mode="unit-circle", rng=rng)
    assert len(bank.filters) == 5
    x = Tensor(np.random.default_rng(1).uniform(size=(1, 1, 110, 512)))
    out = bank.forward(x)
    assert out.shape == (1, 10, 110, 512)


def test_bank_single_filter_equals_uc_forward():
    rng = np.random.default_rng(38)
    bank = uc.UnitCircleBank([(3, 5)], bias=True, mode="unit-circle", rng=rng)
    x = Tensor(np.random.default_rng(2).uniform(size=(1, 1, 8, 10)))
    a = bank.forward(x).data
    b = uc.uc_forward(x, bank.filters[0]).data
    assert np.array_equal(a, b)


def test_bank_filter_permutation_permutes_channel_pairs():
    rng = np.random.default_rng(39)
    bank = uc.UnitCircleBank([(3, 3), (3, 5), (5, 7)], bias=True, mode="unit-circle", rng=rng)
    x = Tensor(np.random.default_rng(3).uniform(size=(1, 1, 9, 11)))
    before = bank.forward(x).data.copy()
    bank.filters[0], bank.filters[2] = bank.filters[2], bank.filters[0]
    after = bank.forward(x).data
    assert np.array_equal(after[:, 0:2], before[:, 4:6])
    assert np.array_equal(after[:, 4:6], before[:, 0:2])
    assert np.array_equal(after[:, 2:4], before[:, 2:4])


def test_bank_empty_rejected():
    with pytest.raises(ShapeError):
        uc.UnitCircleBank([], bias=True, mode="unit-circle")


def test_bank_shift_equivariance():
    rng = np.random.default_rng(40)
    bank = uc.UnitCircleBank(uc.DEFAULT_KERNELS, bias=True, mode="unit-circle", rng=rng)
    x = np.random.default_rng(4).uniform(size=(1, 1, 12, 512))
    base = bank.forward(Tensor(x)).data
    for s in (1, 7, 256):
        shifted = bank.forward(Tensor(np.roll(x, s, axis=3))).data
        assert np.array_equal(shifted, np.roll(base, s, axis=3)), f"shift {s}"


def test_bank_shift_equivariance_full_geometry():
    rng = np.random.default_rng(43)
    bank = uc.UnitCircleBank(uc.DEFAULT_KERNELS, bias=True, mode="unit-circle", rng=rng)
    x = np.random.default_rng(5).uniform(size=(1, 1, 110, 512))
    base = bank.forward(Tensor(x)).data
    for s in (1, 33, 256, 511):
        shifted = bank.forward(Tensor(np.roll(x, s, axis=3))).data
        assert np.array_equal(shifted, np.roll(base, s, axis=3)), f"shift {s}"


# ---------------------------------------------------------------- no-graph bank


def graph_bank(bank, images):
    """The bank as stage-2 training runs it: ``conv2d``, the nonlinearity
    and ``concat`` per filter, recording a graph."""
    assert all(t.requires_grad for _, t in bank.named_parameters())
    y = T.concat([uc.uc_forward(Tensor(images[:, None]), f, bank.mode) for f in bank.filters],
                 axis=1)
    assert y.requires_grad
    return y.data


def assert_same_bits(got, want, case):
    assert got.dtype == want.dtype, case
    assert got.tobytes() == want.tobytes(), f"{case}, BLAS core {blas_core()}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("count", [1, 2, 17])      # 17 is more than _BANK_CHUNK
@pytest.mark.parametrize("config", [ModelConfig()] + [ModelConfig.small(bank_mode=m)
                                                      for m in uc.MODES],
                         ids=["default-110x512"] + [f"small-32x128-{m}" for m in uc.MODES])
def test_bank_features_bitwise_equal_the_graph_bank(config, count, dtype):
    """``bank_features`` runs the bank with no graph: one row spectrum per
    FFT length and in-place normalization in "unit-circle" mode, the
    per-filter ops (the graph bank's) in the other modes."""
    model = IrisMatchModel(config, rng=np.random.default_rng(90)).astype(dtype)
    images = np.random.default_rng(91).uniform(size=(count, config.height, config.width))
    want = graph_bank(model.bank, images.astype(dtype))
    assert_same_bits(model.bank_features(images).data, want, (config.bank_mode, count, dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bank_features_bitwise_without_bias_and_under_norm_eps(dtype):
    """Without biases, and with one zero-bias filter over bands of zero and
    of tiny (+-1e-15) columns wider than the widest kernel, whose pixels
    fall under NORM_EPS and must map to +0.0 (a -0.0 or a leftover tiny
    response fails the byte comparison)."""
    rng = np.random.default_rng(93)
    for bias in (False, True):
        model = IrisMatchModel(ModelConfig(bank_bias=bias), rng=np.random.default_rng(92))
        model = model.astype(dtype)
        if bias:
            model.bank.filters[4].bias.data[...] = 0.0
        images = rng.uniform(size=(2, 110, 512))
        images[:, :, 200:260] = 0.0
        images[:, :, 300:360] = rng.uniform(-1e-15, 1e-15, size=(2, 110, 60))
        got = model.bank_features(images).data
        assert_same_bits(got, graph_bank(model.bank, images.astype(dtype)), (bias, dtype))
        for band in (got[:, 8:10, :, 220:240], got[:, 8:10, :, 320:340]):
            assert np.all(band == 0.0) and not np.signbit(band).any()


@pytest.mark.parametrize("mode", uc.MODES)
def test_only_the_unit_circle_bank_skips_concat_without_a_graph(monkeypatch, mode):
    concats = []
    concat = T.concat
    monkeypatch.setattr(T, "concat", lambda *a, **k: concats.append(1) or concat(*a, **k))
    model = IrisMatchModel(ModelConfig.small(bank_mode=mode), rng=np.random.default_rng(94))
    model.bank_features(np.random.default_rng(95).uniform(size=(3, 32, 128)))
    assert len(concats) == (mode != "unit-circle")


def test_no_graph_bank_rejects_an_image_narrower_than_its_wrap_pad():
    bank = uc.UnitCircleBank([(3, 3), (3, 11)], bias=True, mode="unit-circle",
                             rng=np.random.default_rng(96))
    with T.no_grad(), pytest.raises(ShapeError, match="wrap pad of 5 columns"):
        bank_forward(bank, Tensor(np.ones((1, 1, 6, 4))))


# ---------------------------------------------------------------- float32 bank


def test_bank_shift_equivariance_float32_full_geometry():
    """The float32 bank, as scoring runs it (float32 images, the float64
    weights cast to float32), keeps the bitwise rotation equivariance."""
    bank = uc.UnitCircleBank(uc.DEFAULT_KERNELS, bias=True, mode="unit-circle",
                             rng=np.random.default_rng(44), dtype=np.float32)
    x = np.random.default_rng(6).uniform(size=(1, 1, 110, 512)).astype(np.float32)
    with T.no_grad():
        base = bank_forward(bank, Tensor(x)).data
        assert base.dtype == np.float32
        for s in (1, 37, 256, 511):
            shifted = bank_forward(bank, Tensor(np.roll(x, s, axis=3))).data
            assert np.array_equal(shifted, np.roll(base, s, axis=3)), f"shift {s}"


def test_float32_bank_zeroes_the_pixels_float64_does(record_property):
    """Pixels whose response norm falls under NORM_EPS map to (0, 0); on
    synthetic irises at 110x512 the float32 bank finds the same ones as the
    float64 bank.  Their fraction is recorded as a test property."""
    from irismatch.synthetic import SynthSpec, generate

    store = generate(SynthSpec(identities=3, images_per_identity=2, height=110, width=512,
                               seed=1906))
    dead = {}
    with T.no_grad():
        for dtype in (np.float64, np.float32):
            bank = uc.UnitCircleBank(uc.DEFAULT_KERNELS, bias=True, mode="unit-circle",
                                     rng=np.random.default_rng(45), dtype=dtype)
            out = bank_forward(bank, Tensor(store.images[:, None].astype(dtype))).data
            pairs = out.reshape(len(out), len(bank.filters), 2, 110, 512)
            dead[dtype] = np.all(pairs == 0, axis=2)
    fraction = float(dead[np.float32].mean())
    record_property("float32_norm_eps_fraction", fraction)
    print(f"float32 pixels under NORM_EPS: {fraction:.3g}")
    assert np.array_equal(dead[np.float32], dead[np.float64])
