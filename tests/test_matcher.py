"""Tests for the matcher network, model assembly, and checkpointing."""

import tracemalloc
import weakref

import numpy as np
import pytest

from irismatch import checkpoint as ckpt
from irismatch import tensor as T
from gradcheck import check_gradients, weighted_sum
from irismatch.matcher import (ConvBlockSpec, IrisMatchModel, MatcherModel, ModelConfig,
                               PairFeatures, default_matcher_blocks, pair_batch)
from oracles import bank_forward, pair_input, parameter_count
from irismatch.tensor import ShapeError, Tensor


def tiny_config(height=12, width=24, mode="unit-circle"):
    return ModelConfig(
        height=height, width=width,
        bank_kernels=((3, 3), (3, 5)),
        bank_bias=True, bank_mode=mode,
        matcher_blocks=(
            ConvBlockSpec(4, (2, 2)),
            ConvBlockSpec(6, (2, 2)),
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
    feats = model.bank_features(images)
    assert not feats.requires_grad
    for i, img in enumerate(images):
        with T.no_grad():
            want = bank_forward(model.bank, Tensor(img[None, None])).data[0]
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
            p = model.matcher.forward(pair_input(model, xq, xr), training=False)
        assert p.shape == (1,)
        assert 0.0 < float(p.data[0]) < 1.0


# ---------------------------------------------------------------- parameters


def test_parameter_count_single_conv():
    from irismatch.unit_circle import UnitCircleFilter
    f = UnitCircleFilter(3, 3, bias=True)
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
        matcher_blocks=cfg.matcher_blocks + (ConvBlockSpec(5, (1, 1)),))
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
    """The bank and the matcher as stage-2 training runs them, two pairs in
    train mode (a graph is recorded in training only)."""
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(62))
    rng = np.random.default_rng(9)
    xq = Tensor(rng.uniform(size=(2, 1, 12, 24)))
    xr = Tensor(rng.uniform(size=(2, 1, 12, 24)))

    def build():
        probs = model.matcher.forward(pair_input(model, xq, xr), training=True,
                                      rng=np.random.default_rng(0))
        return weighted_sum(probs, np.array([0.7, -1.3]))

    params = [t for _, t in model.named_parameters()]
    err = check_gradients(build, params)
    assert err < 1e-4


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_bytes_and_outputs(tmp_path):
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(63))
    rng = np.random.default_rng(10)
    # make running stats non-default so they must survive the round trip
    for blk in model.matcher.blocks:
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


def _old_format_meta(model, block1):
    """The model's meta as checkpoints wrote it when a block stored its
    kernel and batch-norm flag, block 1's keys updated from ``block1``."""
    meta = model.config.to_dict()
    for block in meta["matcher"]:
        block.update(kernel=[3, 3], bn=True)
    meta["matcher"][1].update(block1)
    return meta


def test_checkpoint_with_block_kernel_and_bn_keys_loads(tmp_path):
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(67))
    path = tmp_path / "old.ckpt"
    ckpt.write_records(path, ckpt.MODEL_MAGIC, _old_format_meta(model, {}), model.state_items())
    loaded = ckpt.load_model(path)
    assert loaded.config.to_dict() == model.config.to_dict()
    a, b = np.random.default_rng(68).uniform(size=(2, 12, 24))
    assert loaded.match_probability(a, b) == model.match_probability(a, b)


@pytest.mark.parametrize("block1,error", [({"bn": False}, "record mismatch"),
                                          ({"kernel": [5, 5]}, "shape mismatch")],
                         ids=["no-bn", "5x5"])
def test_checkpoint_of_a_block_without_bn_or_3x3_rejected(tmp_path, block1, error):
    """Blocks are 3x3 with batch norm; a checkpoint of another block fails
    its record checks with a one-line error."""
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(69))
    items = dict(model.state_items())
    if "bn" in block1:
        items = {n: a for n, a in items.items() if not n.startswith("matcher.block1.bn.")}
    else:
        items["matcher.block1.weight"] = np.zeros((6, 4, 5, 5))
    path = tmp_path / "other.ckpt"
    ckpt.write_records(path, ckpt.MODEL_MAGIC, _old_format_meta(model, block1), items.items())
    with pytest.raises(ckpt.CheckpointError, match=error) as err:
        ckpt.load_model(path)
    assert str(path) in str(err.value) and "\n" not in str(err.value)


@pytest.mark.parametrize("kwargs,message", [
    (dict(out_channels=0), "block width"),
    (dict(out_channels=-2), "block width"),
    (dict(stride=(0, 1)), "block stride"),
    (dict(stride=(2, 0)), "block stride"),
    (dict(stride=(2,)), "block stride"),
    (dict(dropout=-0.5), "dropout rate"),
    (dict(dropout=1.0), "dropout rate"),
    (dict(dropout=float("nan")), "dropout rate"),
])
def test_block_spec_refuses_a_bad_block(kwargs, message):
    spec = dict(out_channels=4, stride=(2, 2), dropout=0.3) | kwargs
    with pytest.raises(ValueError, match=message):
        ConvBlockSpec(**spec)
    meta = tiny_config().to_dict()
    meta["matcher"][0] = {"out": spec["out_channels"], "stride": list(spec["stride"]),
                          "dropout": spec["dropout"]}
    with pytest.raises(ValueError, match=message):
        ModelConfig.from_dict(meta)


def test_matcher_without_blocks_rejected():
    with pytest.raises(ValueError, match="at least one conv block"):
        MatcherModel(8, blocks=())


def zero_block_checkpoint(model, path):
    """``model``'s checkpoint with its matcher blocks dropped from the meta
    and the records, and a head that reads the pair input directly."""
    meta = model.config.to_dict()
    meta["matcher"] = []
    items = {n: a for n, a in model.state_items() if not n.startswith("matcher.block")}
    items["matcher.head.weight"] = np.ones((1, model.matcher.in_channels, 1, 1))
    ckpt.write_records(path, ckpt.MODEL_MAGIC, meta, items.items())


def test_checkpoint_without_matcher_blocks_rejected(tmp_path):
    path = tmp_path / "no_blocks.ckpt"
    zero_block_checkpoint(IrisMatchModel(tiny_config(), rng=np.random.default_rng(71)), path)
    with pytest.raises(ckpt.CheckpointError, match="at least one conv block") as err:
        ckpt.load_model(path)
    assert str(path) in str(err.value) and "\n" not in str(err.value)


def test_astype_casts_every_array_into_a_copy():
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(70))
    assert model.astype(np.float64) is model
    cast = model.astype(np.float32)
    assert cast.dtype == np.float32
    for (name, a), (cast_name, b) in zip(model.state_items(), cast.state_items()):
        assert name == cast_name and b.dtype == np.float32
        assert b.tobytes() == a.astype(np.float32).tobytes(), name
    assert model.dtype == np.float64


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
        return np.concatenate([model.matcher.forward(pair_batch(feats, pairs[k:k + 1])).data
                               for k in range(len(pairs))])


@pytest.mark.parametrize("config,n", [(tiny_config(), 5), (ModelConfig.small(32, 128), 6),
                                      (ModelConfig(), 4)], ids=["tiny", "small", "default"])
def test_factorized_scores_match_concatenated_block0(config, n):
    model = IrisMatchModel(config, rng=np.random.default_rng(70))
    images = np.random.default_rng(71).uniform(size=(n, config.height, config.width))
    feats = model.bank_features(images)
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
        cast = model.astype(dtype)
        feats = cast.bank_features(images).data
        with monkeypatch.context() as patch:
            want = cast.pair_probabilities(feats, pairs)
            patch.setattr(matcher, "_HALF_BUDGET", half_budget)
            patch.setattr(matcher, "_ACTIVATION_BUDGET", activation_budget)
            assert cast.pair_probabilities(feats, pairs).tobytes() == want.tobytes(), dtype
            # and of the other pairs scored alongside
            for k in (0, 17, 39):
                got = cast.pair_probabilities(feats, pairs[k:k + 1])
                assert got.tobytes() == want[k].tobytes(), (dtype, k)


def test_match_probability_bitwise_equals_model_scorer():
    from irismatch.evaluation import ModelScorer

    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(75))
    images = np.random.default_rng(76).uniform(size=(5, 12, 24))
    pairs = np.array([(a, b) for a in range(5) for b in range(5)])
    scores = ModelScorer(model).score_pairs(_store(images), pairs)
    for (a, b), score in zip(pairs, scores):
        assert model.match_probability(images[a], images[b]) == score


def test_match_probability_bitwise_equals_model_scorer_full_geometry():
    """The scorer's chunk of (0, 1), (0, 2), (1, 2) stores the halves two
    rows read (query 0, reference 2) and convolves the others into their
    rows' outputs; ``match_probability`` convolves both halves of its one
    pair into its output.  The scores agree bit for bit."""
    from irismatch.evaluation import ModelScorer

    model = IrisMatchModel(rng=np.random.default_rng(102))
    images = np.random.default_rng(103).uniform(size=(3, 110, 512))
    pairs = np.array([[0, 1], [0, 2], [1, 2]])
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
    """Every op on the float32 path returns float32.  A float64 operand
    left in a float32 model (an uncast weight or running statistic) is
    refused: ``conv2d`` returns its input's dtype, so the recorded dtypes
    alone would not show an uncast weight."""
    from irismatch.evaluation import ModelScorer
    from irismatch.unit_circle import UnitCircleBank

    # the bank's no-graph pass: its filters' responses and their in-place
    # normalization, and the bank's output
    ops = ("conv2d", "elu_batch_norm", "wrap_conv_into", "unit_normalize_pairs",
           "global_avg_pool", "sigmoid")
    seen = {}
    for op in ops:
        def recording(*args, _op=op, _fn=getattr(T, op), **kwargs):
            out = _fn(*args, **kwargs)
            seen.setdefault(_op, set()).add(out.dtype)
            return out

        monkeypatch.setattr(T, op, recording)
    forward = UnitCircleBank.forward

    def recording_forward(bank, x, **kwargs):
        out = forward(bank, x, **kwargs)
        seen.setdefault("bank", set()).add(out.dtype)
        return out

    monkeypatch.setattr(UnitCircleBank, "forward", recording_forward)
    model = IrisMatchModel(ModelConfig.small(16, 32), rng=np.random.default_rng(86))
    images = np.random.default_rng(87).uniform(size=(4, 16, 32))
    pairs = np.stack(np.triu_indices(4, k=1), axis=1)
    want = {op: {np.dtype(np.float32)} for op in ops + ("bank",)}
    ModelScorer(model).score_pairs(_store(images), pairs)
    assert seen == want
    seen.clear()
    model.match_probability(images[0], images[1])
    assert seen == want
    cast = model.astype(np.float32)
    block = cast.matcher.blocks[1]
    block.weight.data = block.weight.data.astype(np.float64)
    with pytest.raises(TypeError, match="conv2d needs operands of one dtype"):
        ModelScorer(cast).score_pairs(_store(images), pairs[:3])


def test_float32_bank_features_bitwise_independent_of_chunk_full_geometry(monkeypatch):
    from irismatch import matcher

    model = IrisMatchModel(rng=np.random.default_rng(88)).astype(np.float32)
    images = np.random.default_rng(89).uniform(size=(5, 110, 512))
    want = model.bank_features(images).data
    assert want.dtype == np.float32
    for chunk in (1, 2):
        monkeypatch.setattr(matcher, "_BANK_CHUNK", chunk)
        assert model.bank_features(images).data.tobytes() == want.tobytes(), chunk


def record_block0_halves(monkeypatch, channels, alive=None):
    """Wrap ``T.conv2d`` to follow block 0's half convolutions, those with
    ``channels`` input channels.  Returns (seen, live): seen lists each
    image convolved, as (side, its features' bytes), the query side being
    the one with the bias; live holds the number of images whose half
    convolution made an array that is alive now, and the most alive at once.
    Such an array holds stored halves, or the output of rows whose half one
    row reads; a convolution added into an array (``add_into``) makes none.
    A set passed as ``alive`` holds the (side, bytes) of those images."""
    seen, live = [], [0, 0]
    alive = set() if alive is None else alive
    conv2d = T.conv2d

    def release(images):
        live[0] -= len(images)
        alive.difference_update(images)

    def recording(x, weight, bias=None, *args, **kwargs):
        out = conv2d(x, weight, bias, *args, **kwargs)
        if weight.shape[1] == channels:
            side = "query" if bias is not None else "reference"
            images = [(side, img.tobytes()) for img in x.data]
            seen.extend(images)
            if kwargs.get("add_into") is not None:
                return out
            live[0] += len(images)
            live[1] = max(live)
            alive.update(images)
            owner = out.data
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            weakref.finalize(owner, release, images)
        return out

    monkeypatch.setattr(T, "conv2d", recording)
    return seen, live


def test_block0_runs_once_per_distinct_image_and_side(monkeypatch):
    """Block 0's half convolutions see each query image and each reference
    image of a chunk once, whatever the sub-batches; every other
    convolution sees one sub-batch of pairs."""
    from irismatch import matcher
    from irismatch.evaluation import ModelScorer

    model = IrisMatchModel(ModelConfig.small(16, 32), rng=np.random.default_rng(77))
    images = np.random.default_rng(78).uniform(size=(6, 16, 32))
    pairs = np.stack(np.triu_indices(6, k=1), axis=1)       # queries 0-4, references 1-5
    half = model.bank.out_channels
    seen, _ = record_block0_halves(monkeypatch, half)
    calls = []
    conv2d = T.conv2d

    def recording_conv2d(x, weight, *args, **kwargs):
        calls.append((x.shape[0], weight.shape[1]))
        return conv2d(x, weight, *args, **kwargs)

    monkeypatch.setattr(T, "conv2d", recording_conv2d)
    monkeypatch.setattr(matcher, "_ACTIVATION_BUDGET", 1)  # one pair per sub-batch
    with T.no_grad():
        ModelScorer(model).score_pairs(_store(images), pairs)
    assert len(seen) == len(set(seen)) == 10
    assert sorted(side for side, _ in seen) == ["query"] * 5 + ["reference"] * 5
    matcher_calls = [c for c in calls if c[1] not in (1, half)]   # not bank filters, not halves
    assert [n for n, _ in matcher_calls] == [1] * (len(pairs) * len(model.matcher.blocks))


def test_block0_halves_live_from_first_to_last_use_full_geometry(monkeypatch):
    """eval-full's shape, 15 pairs of 6 images at 110x512 in float32: each
    image and side is convolved once, and at most 5 of the 10 half outputs
    (7.2 MB each) are alive at once: one pair per sub-batch, so one query
    half beside the tile's reference halves that later rows read."""
    from irismatch.evaluation import ModelScorer

    model = IrisMatchModel(rng=np.random.default_rng(95))
    images = np.random.default_rng(96).uniform(size=(6, 110, 512))
    pairs = np.stack(np.triu_indices(6, k=1), axis=1)
    seen, live = record_block0_halves(monkeypatch, model.bank.out_channels)
    ModelScorer(model).score_pairs(_store(images), pairs)
    assert len(seen) == len(set(seen)) == 10
    assert live == [0, 5]


@pytest.mark.parametrize("halves,step", [(1, 1), (3, 1), (4, 2), (6, 3), (7, 2)])
def test_live_block0_halves_stay_within_the_half_budget(halves, step, monkeypatch):
    """Random pairs, with budgets of ``halves`` half outputs and ``step``
    pairs per sub-batch: a tile's reference halves plus one sub-batch's
    query halves are at most ``halves`` (one reference where the budget
    holds no more), and none outlives the call."""
    from irismatch import matcher

    model = IrisMatchModel(ModelConfig.small(16, 32), rng=np.random.default_rng(97))
    feats = model.bank_features(np.random.default_rng(98).uniform(size=(9, 16, 32))).data
    pairs = np.random.default_rng(99).integers(0, 9, size=(60, 2))
    want = model.pair_probabilities(feats, pairs)
    sizes = model.matcher.block_bytes((16, 32), feats.itemsize)
    monkeypatch.setattr(matcher, "_HALF_BUDGET", halves * sizes[0])
    monkeypatch.setattr(matcher, "_ACTIVATION_BUDGET", step * max(sizes))
    _, live = record_block0_halves(monkeypatch, model.bank.out_channels)
    assert model.pair_probabilities(feats, pairs).tobytes() == want.tobytes()
    assert live[0] == 0
    assert 2 <= live[1] <= max(halves, 1 + step)


def halves_added(model, feats, q, r):
    """Block 0's output for the pair (q, r), from its two halves convolved on
    their own, the query's with the bias, and added by ``np.add``."""
    block = model.matcher.blocks[0]
    c = feats.shape[1]

    def half(image, weight, bias):
        return T.conv2d(Tensor(feats[[image]]), Tensor(weight), bias,
                        stride=block.spec.stride, padding="zero").data

    return np.add(half(q, block.weight.data[:, :c], block.bias),
                  half(r, block.weight.data[:, c:], None))


# one chunk whose rows, in order, have a stored query half and a one-reader
# reference half, both halves stored, a one-reader query half and a stored
# reference half, and both halves with one reader
FOUR_KINDS = np.array([[0, 1], [0, 2], [3, 2], [4, 5]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config,steps", [(ModelConfig(), (1,)),
                                          (ModelConfig.small(16, 32), (2, 3, 4))],
                         ids=["default", "small-16x32"])
def test_first_conv_bitwise_equals_its_halves_added(config, steps, dtype, monkeypatch):
    """Stored or one-reader query half, times stored or one-reader reference
    half: each row of block 0's output is ``np.add`` of its halves, one pair
    per sub-batch at 110x512 and sub-batches of several rows at 16x32.  The
    halves that outlive their row, one pair per sub-batch, are those of
    query 0 and reference 2, the images two rows read."""
    model = IrisMatchModel(config, rng=np.random.default_rng(104)).astype(dtype)
    images = np.random.default_rng(105).uniform(size=(6, config.height, config.width))
    feats = model.bank_features(images).data
    want = [halves_added(model, feats, q, r) for q, r in FOUR_KINDS]
    block = model.matcher.blocks[0]
    alive, stored = set(), set()
    record_block0_halves(monkeypatch, model.bank.out_channels, alive)
    with T.no_grad():
        x = PairFeatures(feats, FOUR_KINDS)
        for lo in range(len(FOUR_KINDS)):
            x.rows(lo, lo + 1).first_conv(block)
            stored |= alive
        assert stored == {("query", feats[0].tobytes()), ("reference", feats[2].tobytes())}
        for step in steps:
            x = PairFeatures(feats, FOUR_KINDS)
            got = np.concatenate([x.rows(lo, lo + step).first_conv(block).data
                                  for lo in range(0, len(FOUR_KINDS), step)])
            assert got.dtype == dtype
            for k, row in enumerate(want):
                assert got[k:k + 1].tobytes() == row.tobytes(), (step, k)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_readers_in_other_sub_batches_share_one_half(step, monkeypatch):
    """Each image of this chunk is read by two rows with another row between
    them, in different sub-batches when ``step`` is 1 or 2: each image and
    side is convolved once, every row is its halves added, no half outlives
    the call, and at most 2 + ``step`` halves are alive at once, the bound
    ``test_live_block0_halves_stay_within_the_half_budget`` sets for two
    reference images and ``step`` pairs per sub-batch."""
    chunk = np.array([[0, 1], [2, 1], [0, 3], [2, 3]])
    model = IrisMatchModel(ModelConfig.small(16, 32), rng=np.random.default_rng(109))
    feats = model.bank_features(np.random.default_rng(110).uniform(size=(4, 16, 32))).data
    want = [halves_added(model, feats, q, r) for q, r in chunk]
    block = model.matcher.blocks[0]
    seen, live = record_block0_halves(monkeypatch, model.bank.out_channels)
    with T.no_grad():
        x = PairFeatures(feats, chunk)
        got = np.concatenate([x.rows(lo, lo + step).first_conv(block).data
                              for lo in range(0, len(chunk), step)])
    assert sorted(seen) == sorted({(side, feats[i].tobytes())
                                   for side, i in [("query", 0), ("query", 2),
                                                   ("reference", 1), ("reference", 3)]})
    for k, row in enumerate(want):
        assert got[k:k + 1].tobytes() == row.tobytes(), k
    del x
    assert live[0] == 0
    assert 2 <= live[1] <= 2 + step


def test_one_pair_holds_one_block0_output_full_geometry():
    """A float32 pair at 110x512 never holds two block-0-sized arrays: its
    traced peak stays under block 0's output, block 1's output, one tile of
    columns and 1 MiB.  Holding the two halves and their sum took 20.6 MiB.
    A first call runs before the traced one, so what it imports is not
    counted."""
    model = IrisMatchModel(rng=np.random.default_rng(106)).astype(np.float32)
    feats = model.bank_features(np.random.default_rng(107).uniform(size=(2, 110, 512))).data
    model.pair_probabilities(feats, [[0, 1]])
    tracemalloc.start()
    try:
        model.pair_probabilities(feats, [[0, 1]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = model.matcher.block_bytes((110, 512), feats.itemsize)
    assert peak < sizes[0] + sizes[1] + T._TILE_BYTES + (1 << 20)


def test_empty_pair_list_scores_nothing():
    from irismatch.evaluation import ModelScorer

    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(100))
    images = np.random.default_rng(101).uniform(size=(3, 12, 24))
    feats = model.bank_features(images).data
    none = np.empty((0, 2), int)
    for got in (model.pair_probabilities(feats, none),
                ModelScorer(model).score_pairs(_store(images), none)):
        assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_tiled_chunks_cut_block0_halves_on_the_default_set(monkeypatch):
    """The default synthetic set's 51,040 pairs, in the order
    ``collect_scores`` passes them, at 110x512: block-0 half convolutions,
    one per image and side of each chunk ``pair_probabilities`` makes,
    number 0.04 per pair in float32 and 0.07 in float64, with one pair per
    sub-batch under either dtype."""
    from irismatch import matcher
    from irismatch.data import IdentityStore, enumerate_pairs
    from irismatch.synthetic import SynthSpec

    spec = SynthSpec()
    n = spec.identities * spec.images_per_identity
    store = IdentityStore(images=np.zeros((n, 1, 1)),
                          identity_of=np.arange(n) // spec.images_per_identity,
                          identity_ids=[f"id{j}" for j in range(spec.identities)])
    pairs = enumerate_pairs(store)
    both = np.concatenate([pairs.authentic, pairs.imposter])
    assert len(both) == 51040
    chunks = []

    class RecordingPairFeatures(matcher.PairFeatures):
        def __init__(self, feats, pairs):
            super().__init__(feats, pairs)
            chunks.append(self.pairs)

    monkeypatch.setattr(matcher, "PairFeatures", RecordingPairFeatures)
    for dtype, halves in ((np.float32, 1934), (np.float64, 3545)):
        model = IrisMatchModel(dtype=dtype)
        monkeypatch.setattr(model.matcher, "forward", lambda x: Tensor(np.zeros(len(x.pairs))))
        # the shape and dtype of the default set's bank features, in no memory
        feats = np.broadcast_to(np.zeros((), dtype), (n, 20, spec.height, spec.width))
        chunks.clear()
        model.pair_probabilities(feats, both)
        assert sum(map(len, chunks)) == len(both), dtype
        assert sum(len(set(c[:, 0])) + len(set(c[:, 1])) for c in chunks) == halves, dtype


def test_forward_columns_stay_within_a_tile_full_geometry(monkeypatch):
    """No forward im2col buffer at 110x512, float32 scoring or float64
    matcher, is larger than a tile (or one output row's columns, were a row
    larger).  A buffer above glibc's mmap threshold (32 MB) is mapped and
    page-faulted afresh on every call."""
    from irismatch.evaluation import ModelScorer

    model = IrisMatchModel(rng=np.random.default_rng(90))
    images = np.random.default_rng(91).uniform(size=(3, 110, 512))
    seen = []
    columns = T._columns

    def recording(size, dtype):
        seen.append((size * np.dtype(dtype).itemsize, np.dtype(dtype)))
        return columns(size, dtype)

    monkeypatch.setattr(T, "_columns", recording)
    ModelScorer(model).score_pairs(_store(images), np.array([[0, 1], [0, 2], [1, 2]]))
    with T.no_grad():
        model.matcher.forward(pair_batch(model.bank_features(images[:2]), np.array([[0, 1]])))
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32), np.dtype(np.float64)}
    # the widest output row of any matcher convolution: block 0 over a pair, in float64
    row = 2 * model.bank.out_channels * 9 * 512 * 8
    assert max(nbytes for nbytes, _ in seen) <= max(T._TILE_BYTES, row)


def test_factorized_input_refuses_training():
    from irismatch.matcher import PairFeatures

    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(80))
    feats = model.bank_features(np.zeros((2, 12, 24))).data
    with pytest.raises(ValueError, match="eval-mode"):
        model.matcher.forward(PairFeatures(feats, [[0, 1]]), training=True)


def test_loaded_model_owns_writable_arrays_equal_to_the_saved_ones(tmp_path):
    """``read_records`` returns read-only views of the file's bytes;
    ``load_model`` copies them into the model's own arrays."""
    model = IrisMatchModel(tiny_config(), rng=np.random.default_rng(108))
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    _, records = ckpt.read_records(path, ckpt.MODEL_MAGIC)
    assert not any(arr.flags.writeable for arr in records.values())
    loaded = ckpt.load_model(path)
    for (name, want), (_, got) in zip(model.state_items(), loaded.state_items()):
        assert got.flags.writeable and got.flags.owndata, name
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


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
