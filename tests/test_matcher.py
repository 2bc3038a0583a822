"""Tests for the matcher network, model assembly, and checkpointing."""

import numpy as np
import pytest

from irismatch import checkpoint as ckpt
from irismatch import tensor as T
from irismatch.gradcheck import check_gradients
from irismatch.matcher import (ConvBlockSpec, IrisMatchModel, ModelConfig,
                               default_matcher_blocks, parameter_count)
from irismatch.tensor import ShapeError, Tensor


def tiny_config(height=12, width=24, mode="unit-circle"):
    return ModelConfig(
        height=height, width=width,
        bank_kernels=((3, 3), (3, 5)),
        bank_bias=True, bank_mode=mode,
        matcher_blocks=(
            ConvBlockSpec(4, (3, 3), (2, 2), True, 0.0),
            ConvBlockSpec(6, (3, 3), (2, 2), False, 0.0),
        ))


def rand_image(rng, h, w):
    return Tensor(rng.uniform(size=(1, 1, h, w)))


# ---------------------------------------------------------------- pair_input


def test_pair_input_channel_count_full_geometry():
    model = IrisMatchModel(rng=np.random.default_rng(50))
    rng = np.random.default_rng(0)
    xq = rand_image(rng, 110, 512)
    xr = rand_image(rng, 110, 512)
    pair = model.pair_input(xq, xr)
    assert pair.shape == (1, 20, 110, 512)


def test_pair_input_same_image_halves_equal():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(51))
    x = rand_image(np.random.default_rng(1), 12, 24)
    pair = model.pair_input(x, x).data
    half = pair.shape[1] // 2
    assert np.array_equal(pair[:, :half], pair[:, half:])


def test_pair_input_swap_swaps_halves():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(52))
    rng = np.random.default_rng(2)
    xq = rand_image(rng, 12, 24)
    xr = rand_image(rng, 12, 24)
    ab = model.pair_input(xq, xr).data
    ba = model.pair_input(xr, xq).data
    half = ab.shape[1] // 2
    assert np.array_equal(ab[:, :half], ba[:, half:])
    assert np.array_equal(ab[:, half:], ba[:, :half])


def test_pair_input_shape_mismatch():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(53))
    xq = rand_image(np.random.default_rng(3), 12, 24)
    xr = rand_image(np.random.default_rng(4), 12, 20)
    with pytest.raises(ShapeError):
        model.pair_input(xq, xr)


def test_pair_input_shares_the_bank():
    # perturbing one bank weight must change BOTH channel halves
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(54))
    rng = np.random.default_rng(5)
    xq = rand_image(rng, 12, 24)
    xr = rand_image(rng, 12, 24)
    before = model.pair_input(xq, xr).data.copy()
    model.bank.filters[0].weight.data[0, 0, 1, 1] += 0.37
    after = model.pair_input(xq, xr).data
    half = before.shape[1] // 2
    assert not np.array_equal(before[:, :half], after[:, :half])
    assert not np.array_equal(before[:, half:], after[:, half:])


# ------------------------------------------------------- match_probability


def test_zero_head_gives_half():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(55))
    model.matcher.head_weight.data[:] = 0.0
    model.matcher.head_bias.data[:] = 0.0
    rng = np.random.default_rng(6)
    p = model.match_probability(rng.uniform(size=(12, 24)), rng.uniform(size=(12, 24)))
    assert p == 0.5


def test_match_probability_in_open_interval_and_deterministic():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(56))
    rng = np.random.default_rng(7)
    a = rng.uniform(size=(12, 24))
    b = rng.uniform(size=(12, 24))
    p1 = model.match_probability(a, b)
    p2 = model.match_probability(a, b)
    assert 0.0 < p1 < 1.0
    assert p1 == p2  # bitwise identical in eval mode


def test_match_probability_rejects_wrong_geometry():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(57))
    with pytest.raises(ShapeError):
        model.match_probability(np.zeros((10, 24)), np.zeros((10, 24)))


def test_fully_convolutional_accepts_taller_inputs():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(58))
    rng = np.random.default_rng(8)
    for h in (12, 16, 20):
        xq = rand_image(rng, h, 24)
        xr = rand_image(rng, h, 24)
        with T.no_grad():
            p = model.forward_pairs(model.pair_input(xq, xr), training=False)
        assert p.shape == (1,)
        assert 0.0 < float(p.data[0]) < 1.0


# ---------------------------------------------------------------- parameters


def test_parameter_count_single_conv():
    from irismatch.unit_circle import UnitCircleFilter
    f = UnitCircleFilter(3, 3)
    named = [("w", f.weight), ("b", f.bias)]
    assert parameter_count(named) == 20  # 2*1*3*3 + 2


def test_parameter_count_default_architecture_near_reference():
    model = IrisMatchModel(rng=np.random.default_rng(59))
    n = parameter_count(model)
    assert 0.8 * 416_930 <= n <= 1.2 * 416_930, n


def test_parameter_count_block_increment():
    cfg = tiny_config()
    base = parameter_count(IrisMatchModel(cfg, rng=np.random.default_rng(60)))
    grown = ModelConfig(
        height=cfg.height, width=cfg.width, bank_kernels=cfg.bank_kernels,
        bank_bias=cfg.bank_bias, bank_mode=cfg.bank_mode,
        matcher_blocks=cfg.matcher_blocks + (ConvBlockSpec(5, (3, 3), (1, 1), True, 0.0),))
    bigger = parameter_count(IrisMatchModel(grown, rng=np.random.default_rng(60)))
    c_in, c_out = 6, 5
    # 3x3 conv + bias + bn affine, minus the head re-sized from 6 to 5 inputs
    want_delta = (9 * c_in * c_out + c_out + 2 * c_out) - 1
    assert bigger - base == want_delta


def test_buffers_not_counted_as_parameters():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(61))
    names = [n for n, _ in model.named_parameters()]
    assert all("running" not in n for n in names)
    buf_names = [n for n, _ in model.named_buffers()]
    assert any("running_mean" in n for n in buf_names)


# ---------------------------------------------------------------- gradients


def test_full_model_gradcheck_toy_geometry():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(62))
    rng = np.random.default_rng(9)
    # non-trivial running stats so the eval batch-norm path is exercised
    for blk in model.matcher.blocks:
        if blk.running_mean is not None:
            blk.running_mean[:] = rng.normal(scale=0.1, size=blk.running_mean.shape)
            blk.running_var[:] = rng.uniform(0.5, 1.5, size=blk.running_var.shape)
    xq = Tensor(rng.uniform(size=(1, 1, 12, 24)))
    xr = Tensor(rng.uniform(size=(1, 1, 12, 24)))

    def build():
        return model.forward_pairs(model.pair_input(xq, xr), training=False).sum()

    params = [t for _, t in model.named_parameters()]
    err = check_gradients(build, params)
    assert err < 1e-4


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_bytes_and_outputs(tmp_path):
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(63))
    rng = np.random.default_rng(10)
    # make running stats non-default so they must survive the round trip
    for blk in model.matcher.blocks:
        if blk.running_mean is not None:
            blk.running_mean[:] = rng.normal(size=blk.running_mean.shape)
            blk.running_var[:] = rng.uniform(0.5, 2.0, size=blk.running_var.shape)

    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    ckpt.save_model(model, p1)
    loaded = ckpt.load_model(p1)
    ckpt.save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    a = rng.uniform(size=(12, 24))
    b = rng.uniform(size=(12, 24))
    assert model.match_probability(a, b) == loaded.match_probability(a, b)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_model(path)


def test_checkpoint_missing_record_detected(tmp_path):
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(64))
    items = model.state_items()[:-1]  # drop one record
    path = tmp_path / "short.ckpt"
    ckpt.write_records(path, ckpt.MODEL_MAGIC, model.config.to_dict(), items)
    with pytest.raises(ckpt.CheckpointError, match="missing"):
        ckpt.load_model(path)


def test_checkpoint_every_truncation_raises_checkpoint_error(tmp_path):
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(65))
    full = tmp_path / "full.ckpt"
    ckpt.save_model(model, full)
    raw = full.read_bytes()
    meta_len = int.from_bytes(raw[6:10], "little")
    header_end = 10 + meta_len + 4 + 64          # the meta, the count and the first record's header
    lengths = list(range(header_end)) + list(range(header_end, len(raw), 37)) + [len(raw) - 1]
    path = tmp_path / "cut.ckpt"
    for n in lengths:
        path.write_bytes(raw[:n])
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_model(path)
        assert str(path) in str(err.value), n
        if n >= 4:
            assert "offset" in str(err.value), n


def test_default_blocks_shape():
    blocks = default_matcher_blocks()
    assert [b.out_channels for b in blocks] == [32, 64, 96, 128, 160]
    assert blocks[0].stride == (1, 1)
    assert all(b.stride == (2, 2) for b in blocks[1:])
    assert [b.dropout for b in blocks] == [0.0, 0.0, 0.3, 0.3, 0.0]
