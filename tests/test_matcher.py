"""Tests for the matcher network, model assembly, and checkpointing."""

import numpy as np
import pytest

from irismatch import checkpoint as ckpt
from irismatch import tensor as T
from gradcheck import check_gradients
from irismatch.matcher import (ConvBlockSpec, IrisMatchModel, ModelConfig,
                               default_matcher_blocks, pair_batch)
from oracles import pair_input, parameter_count
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
    pair = pair_input(model, xq, xr)
    assert pair.shape == (1, 20, 110, 512)


def test_pair_input_same_image_halves_equal():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(51))
    x = rand_image(np.random.default_rng(1), 12, 24)
    pair = pair_input(model, x, x).data
    half = pair.shape[1] // 2
    assert np.array_equal(pair[:, :half], pair[:, half:])


def test_pair_input_swap_swaps_halves():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(52))
    rng = np.random.default_rng(2)
    xq = rand_image(rng, 12, 24)
    xr = rand_image(rng, 12, 24)
    ab = pair_input(model, xq, xr).data
    ba = pair_input(model, xr, xq).data
    half = ab.shape[1] // 2
    assert np.array_equal(ab[:, :half], ba[:, half:])
    assert np.array_equal(ab[:, half:], ba[:, :half])


def test_pair_input_shape_mismatch():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(53))
    xq = rand_image(np.random.default_rng(3), 12, 24)
    xr = rand_image(np.random.default_rng(4), 12, 20)
    with pytest.raises(ShapeError):
        pair_input(model, xq, xr)


def test_pair_input_shares_the_bank():
    # perturbing one bank weight must change BOTH channel halves
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(54))
    rng = np.random.default_rng(5)
    xq = rand_image(rng, 12, 24)
    xr = rand_image(rng, 12, 24)
    before = pair_input(model, xq, xr).data.copy()
    model.bank.filters[0].weight.data[0, 0, 1, 1] += 0.37
    after = pair_input(model, xq, xr).data
    half = before.shape[1] // 2
    assert not np.array_equal(before[:, :half], after[:, :half])
    assert not np.array_equal(before[:, half:], after[:, half:])


# ------------------------------------------------------- match_probability


@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_bank_features_bitwise_equal_to_one_image_at_a_time(chunk, monkeypatch):
    from irismatch import matcher

    model = IrisMatchModel(ModelConfig.small(32, 128), rng=np.random.default_rng(51))
    images = np.random.default_rng(52).uniform(size=(7, 32, 128))
    monkeypatch.setattr(matcher, "_BANK_CHUNK", chunk)
    feats = model.bank_features(images, np.float64)
    assert not feats.requires_grad
    for i, img in enumerate(images):
        with T.no_grad():
            want = model.bank.forward(Tensor(img[None, None])).data[0]
        assert feats.data[i].tobytes() == want.tobytes(), i


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
            p = model.forward_pairs(pair_input(model, xq, xr), training=False)
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
        return model.forward_pairs(pair_input(model, xq, xr), training=False).sum()

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


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(66))
    path = tmp_path / "model.ckpt"
    ckpt.save_model(model, path)
    before = path.read_bytes()
    items = model.state_items() + [("bad", np.zeros(3, dtype=np.int64))]
    with pytest.raises(ckpt.CheckpointError, match="unsupported dtype"):
        ckpt.write_records(path, ckpt.MODEL_MAGIC, model.config.to_dict(), items)
    assert path.read_bytes() == before
    assert ckpt.load_model(path).match_probability(np.zeros((12, 24)), np.ones((12, 24))) == \
        model.match_probability(np.zeros((12, 24)), np.ones((12, 24)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_default_blocks_shape():
    blocks = default_matcher_blocks()
    assert [b.out_channels for b in blocks] == [32, 64, 96, 128, 160]
    assert blocks[0].stride == (1, 1)
    assert all(b.stride == (2, 2) for b in blocks[1:])
    assert [b.dropout for b in blocks] == [0.0, 0.0, 0.3, 0.3, 0.0]


# ------------------------------------------------- factorized inference


def _store(images):
    from irismatch.data import IdentityStore

    n = len(images)
    return IdentityStore(images=images, identity_of=np.arange(n) // 2,
                         identity_ids=[f"id{i}" for i in range((n + 1) // 2)])


def concat_scores(model, feats, pairs):
    """The training path as the oracle: ``pair_batch`` and the concatenated
    block 0, one pair at a time."""
    with T.no_grad():
        return np.concatenate([model.forward_pairs(pair_batch(feats, pairs[k:k + 1])).data
                               for k in range(len(pairs))])


@pytest.mark.parametrize("config,n", [(tiny_config(), 5), (ModelConfig.small(32, 128), 6),
                                      (ModelConfig(), 4)], ids=["tiny", "small", "default"])
def test_factorized_scores_match_concatenated_block0(config, n):
    model = IrisMatchModel(config, rng=np.random.default_rng(70))
    images = np.random.default_rng(71).uniform(size=(n, config.height, config.width))
    feats = model.bank_features(images, np.float64)
    pairs = np.array([(a, b) for a in range(n) for b in range(n) if a != b])
    got = model.pair_probabilities(feats.data, pairs)
    assert np.max(np.abs(got - concat_scores(model, feats, pairs))) <= 1e-12


@pytest.mark.parametrize("half_budget,activation_budget",
                         [(1, 1), (1 << 14, 1 << 12), (1 << 40, 1 << 40)])
def test_factorized_scores_bitwise_independent_of_chunk_and_sub_batch(
        half_budget, activation_budget, monkeypatch):
    from irismatch import matcher

    model = IrisMatchModel(ModelConfig.small(16, 32), rng=np.random.default_rng(72))
    images = np.random.default_rng(73).uniform(size=(7, 16, 32))
    pairs = np.random.default_rng(74).integers(0, 7, size=(40, 2))
    for dtype in (np.float64, np.float32):
        feats = model.bank_features(images, dtype).data
        with monkeypatch.context() as patch:
            want = model.pair_probabilities(feats, pairs)
            patch.setattr(matcher, "_HALF_BUDGET", half_budget)
            patch.setattr(matcher, "_ACTIVATION_BUDGET", activation_budget)
            assert model.pair_probabilities(feats, pairs).tobytes() == want.tobytes(), dtype
            # and of the other pairs scored alongside
            for k in (0, 17, 39):
                got = model.pair_probabilities(feats, pairs[k:k + 1])
                assert got.tobytes() == want[k].tobytes(), (dtype, k)


def test_match_probability_bitwise_equals_model_scorer():
    from irismatch.evaluation import ModelScorer

    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(75))
    images = np.random.default_rng(76).uniform(size=(5, 12, 24))
    pairs = np.array([(a, b) for a in range(5) for b in range(5)])
    scores = ModelScorer(model).score_pairs(_store(images), pairs)
    for (a, b), score in zip(pairs, scores):
        assert model.match_probability(images[a], images[b]) == score


def test_float32_scores_match_float64_default_model_full_geometry():
    """Float32 scoring from the float64 weights, against float64 scoring,
    within 1e-6 (the benchmark's probability tolerance), with non-trivial
    batch-norm running statistics."""
    from irismatch.evaluation import ModelScorer
    from irismatch.synthetic import SynthSpec, generate

    model = IrisMatchModel(rng=np.random.default_rng(83))
    rng = np.random.default_rng(84)
    for blk in model.matcher.blocks:
        blk.running_mean[:] = rng.normal(scale=0.1, size=blk.running_mean.shape)
        blk.running_var[:] = rng.uniform(0.5, 1.5, size=blk.running_var.shape)
    store = generate(SynthSpec(identities=2, images_per_identity=2, height=110, width=512,
                               seed=85))
    pairs = np.stack(np.triu_indices(4, k=1), axis=1)
    want = ModelScorer(model, np.float64).score_pairs(store, pairs)
    got = ModelScorer(model).score_pairs(store, pairs)
    assert np.max(np.abs(got - want)) <= 1e-6
    assert model.match_probability(store.images[0], store.images[3]) == got[2]


def test_float32_scoring_keeps_every_activation_float32(monkeypatch):
    """A float64 operand anywhere on the float32 path (an uncast weight or
    running statistic) would promote what follows back to float64: slower,
    with every score still right."""
    from irismatch.evaluation import ModelScorer

    ops = ("conv2d", "elu", "batch_norm", "channel_l2_normalize", "concat",
           "global_avg_pool", "sigmoid")
    seen = {}
    for op in ops:
        def recording(*args, _op=op, _fn=getattr(T, op), **kwargs):
            out = _fn(*args, **kwargs)
            seen.setdefault(_op, set()).add(out.dtype)
            return out

        monkeypatch.setattr(T, op, recording)
    model = IrisMatchModel(ModelConfig.small(16, 32), rng=np.random.default_rng(86))
    images = np.random.default_rng(87).uniform(size=(4, 16, 32))
    ModelScorer(model).score_pairs(_store(images), np.stack(np.triu_indices(4, k=1), axis=1))
    assert seen == {op: {np.dtype(np.float32)} for op in ops}
    seen.clear()
    model.match_probability(images[0], images[1])
    assert seen == {op: {np.dtype(np.float32)} for op in ops}


def test_float32_bank_features_bitwise_independent_of_chunk_full_geometry(monkeypatch):
    from irismatch import matcher

    model = IrisMatchModel(rng=np.random.default_rng(88))
    images = np.random.default_rng(89).uniform(size=(5, 110, 512))
    want = model.bank_features(images, np.float32).data
    assert want.dtype == np.float32
    for chunk in (1, 2):
        monkeypatch.setattr(matcher, "_BANK_CHUNK", chunk)
        assert model.bank_features(images, np.float32).data.tobytes() == want.tobytes(), chunk


def test_block0_runs_once_per_distinct_image_and_side(monkeypatch):
    """Block 0's half convolutions see each query image and each reference
    image of a chunk once, whatever the sub-batches; every other
    convolution sees one sub-batch of pairs."""
    from irismatch import matcher
    from irismatch.evaluation import ModelScorer

    model = IrisMatchModel(ModelConfig.small(16, 32), rng=np.random.default_rng(77))
    images = np.random.default_rng(78).uniform(size=(6, 16, 32))
    pairs = np.stack(np.triu_indices(6, k=1), axis=1)       # queries 0-4, references 1-5
    calls = []
    conv2d = T.conv2d

    def recording_conv2d(x, weight, *args, **kwargs):
        calls.append((x.shape[0], weight.shape[1]))
        return conv2d(x, weight, *args, **kwargs)

    monkeypatch.setattr(T, "conv2d", recording_conv2d)
    monkeypatch.setattr(matcher, "_ACTIVATION_BUDGET", 1)  # one pair per sub-batch
    with T.no_grad():
        ModelScorer(model).score_pairs(_store(images), pairs)
    matcher_calls = [c for c in calls if c[1] != 1]   # bank filters have one input channel
    half = model.bank.out_channels
    assert [c for c in matcher_calls if c[1] == half] == [(5, half)] * 2
    rest = [n for n, cin in matcher_calls if cin != half]
    assert rest == [1] * (len(pairs) * len(model.matcher.blocks))


@pytest.mark.parametrize("max_halves", [2, 3, 5, 8])
def test_pair_chunks_cover_the_pairs_within_the_half_budget(max_halves):
    from irismatch.matcher import _pair_chunks

    pairs = np.random.default_rng(79).integers(0, 6, size=(50, 2))
    chunks = list(_pair_chunks(pairs, max_halves))
    assert [c[0] for c in chunks] == [0] + [c[1] for c in chunks[:-1]]
    assert chunks[-1][1] == len(pairs)
    for start, stop in chunks:
        part = pairs[start:stop]
        assert len(set(part[:, 0])) + len(set(part[:, 1])) <= max_halves
        if stop < len(pairs):   # maximal: the next pair would not fit
            grown = pairs[start:stop + 1]
            assert len(set(grown[:, 0])) + len(set(grown[:, 1])) > max_halves
    assert list(_pair_chunks(pairs[:0], max_halves)) == []


def test_factorized_input_refuses_training():
    from irismatch.matcher import PairFeatures

    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(80))
    feats = model.bank_features(np.zeros((2, 12, 24)), np.float64).data
    with pytest.raises(ValueError, match="eval-mode"):
        model.matcher.forward(PairFeatures(feats, [[0, 1]]), training=True)


def test_load_model_draws_no_random_weights(tmp_path, monkeypatch):
    from irismatch import unit_circle as uc

    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(81))
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_model drew random weights")

    monkeypatch.setattr(uc, "kaiming_uniform", no_draws)
    loaded = ckpt.load_model(path)
    assert all(a.tobytes() == b.tobytes() and a.shape == b.shape
               for (_, a), (_, b) in zip(model.state_items(), loaded.state_items()))
    a, b = np.random.default_rng(82).uniform(size=(2, 12, 24))
    assert loaded.match_probability(a, b) == model.match_probability(a, b)
