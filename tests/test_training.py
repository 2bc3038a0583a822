"""Tests for the Adam optimizer and the two-stage training loop."""

import hashlib
import json
import os

import numpy as np
import pytest

from irismatch.data import IdentityStore
from irismatch.matcher import ConvBlockSpec, IrisMatchModel, ModelConfig
from irismatch.tensor import ShapeError, Tensor
from irismatch.training import Adam, TrainConfig, TrainLog, train


def adam_reference(grads, lr=0.01, b1=0.9, b2=0.999, eps=1e-8, w0=0.0):
    """Independent scalar Adam recurrence, straight from the update formulas."""
    w, m, v = w0, 0.0, 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w = w - lr * mhat / (np.sqrt(vhat) + eps)
        trajectory.append(w)
    return trajectory


def toy_store(n_identities=4, images_each=4, h=8, w=16, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(size=(n_identities, h, w))
    images, ids = [], []
    for j in range(n_identities):
        for k in range(images_each):
            images.append(np.clip(np.roll(base[j], k - 1, axis=1)
                                  + rng.normal(0, 0.02, size=(h, w)), 0, 1))
            ids.append(j)
    return IdentityStore(images=np.stack(images), identity_of=np.array(ids),
                         identity_ids=[f"id{j}" for j in range(n_identities)])


def toy_model_config(h=8, w=16):
    return ModelConfig(
        height=h, width=w, bank_kernels=((3, 3),), bank_bias=True,
        bank_mode="unit-circle",
        matcher_blocks=(ConvBlockSpec(4, (3, 3), (2, 2), True, 0.0),))


def toy_train_config(**over):
    base = dict(lr=0.01, batch_size=8, stage1_epochs=2, epochs=3, seed=1,
                selection_far=0.25)
    base.update(over)
    return TrainConfig(**base)


# ---------------------------------------------------------------- adam


def adam_on(values):
    """A one-parameter Adam with default TrainConfig; returns (parameter, optimizer)."""
    w = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
    return w, Adam([("w", w)], TrainConfig())


def test_adam_first_step_bias_corrected():
    w, opt = adam_on([0.0])
    w.grad = np.array([1.0])
    opt.step()
    assert abs(w.data[0] - (-0.01 / (1.0 + 1e-8))) < 1e-12


def test_adam_zero_gradient_never_moves():
    w, opt = adam_on([0.7, -0.3])
    for _ in range(50):
        w.grad = np.zeros(2)
        opt.step()
    assert np.array_equal(w.data, [0.7, -0.3])


def test_adam_matches_reference_recurrence():
    rng = np.random.default_rng(120)
    grads = rng.normal(size=100)
    w, opt = adam_on([0.0])
    mine = []
    for g in grads:
        w.grad = np.array([g])
        opt.step()
        mine.append(float(w.data[0]))
    ref = adam_reference(grads)
    assert np.allclose(mine, ref, atol=1e-14)


def test_adam_quadratic_convergence():
    # minimize (w - 0.5)^2 / 2; 200 steps land within 1e-3 of the optimum
    w, opt = adam_on([0.0])
    for _ in range(200):
        w.grad = w.data - 0.5
        opt.step()
    assert abs(w.data[0] - 0.5) < 1e-3


def test_adam_shape_mismatch():
    w, opt = adam_on([0.0, 0.0])
    w.grad = np.zeros(3)
    with pytest.raises(ShapeError):
        opt.step()
    assert opt.steps == {"w": 0}


def test_adam_class_updates_only_params_with_grads():
    config = TrainConfig()
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([("a", a), ("b", b)], config)
    a.grad = np.full(2, 0.5)
    opt.step()
    assert not np.array_equal(a.data, np.ones(2))
    assert np.array_equal(b.data, np.ones(2))
    assert opt.steps == {"a": 1, "b": 0}


# ---------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(stage1_epochs=10, epochs=5).validate()
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(selection_far=0.0).validate()
    TrainConfig().validate()


# ---------------------------------------------------------------- train


def test_stage1_freezes_bank_bitwise():
    store = toy_store()
    config = toy_train_config(stage1_epochs=2, epochs=2)
    from irismatch.data import rng_stream
    initial = IrisMatchModel(toy_model_config(), rng=rng_stream(config.seed, 0))
    bank_before = [f.weight.data.copy() for f in initial.bank.filters]
    matcher_before = initial.matcher.blocks[0].weight.data.copy()

    model, log = train(store, config, toy_model_config())
    assert len(log.records) == 2
    assert all(r.stage == 1 for r in log.records)
    for f, before in zip(model.bank.filters, bank_before):
        assert np.array_equal(f.weight.data, before)
    assert not np.array_equal(model.matcher.blocks[0].weight.data, matcher_before)


def test_stage2_updates_bank():
    store = toy_store()
    config = toy_train_config(stage1_epochs=1, epochs=3)
    model, log = train(store, config, toy_model_config())
    stages = [r.stage for r in log.records]
    assert stages == [1, 2, 2]
    from irismatch.data import rng_stream
    initial = IrisMatchModel(toy_model_config(), rng=rng_stream(config.seed, 0))
    # the best checkpoint may come from a stage-1 epoch; rerun keeping the
    # last state by making epoch 2 the only candidate
    assert model is not None
    # bank must differ from initialization after stage-2 epochs unless the
    # best checkpoint predates stage 2
    if log.best_epoch >= config.stage1_epochs:
        assert not np.array_equal(model.bank.filters[0].weight.data,
                                  initial.bank.filters[0].weight.data)


def test_training_log_deterministic():
    store = toy_store()
    config = toy_train_config()
    _, log_a = train(store, config, toy_model_config())
    _, log_b = train(store, config, toy_model_config())
    assert log_a.canonical_lines() == log_b.canonical_lines()
    model_a, _ = train(store, config, toy_model_config())
    model_b, _ = train(store, config, toy_model_config())
    for (na, ta), (nb, tb) in zip(model_a.named_parameters(), model_b.named_parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data), na


def test_different_seed_changes_log():
    store = toy_store()
    _, log_a = train(store, toy_train_config(seed=1), toy_model_config())
    _, log_b = train(store, toy_train_config(seed=2), toy_model_config())
    assert log_a.canonical_lines() != log_b.canonical_lines()


def test_best_checkpoint_contract():
    from irismatch.training import _validation_tar
    from irismatch.data import enumerate_pairs, split_train_val

    store = toy_store()
    config = toy_train_config(epochs=3, stage1_epochs=3)
    model, log = train(store, config, toy_model_config())
    assert log.best_epoch == int(np.argmax([r.val_tar for r in log.records]))
    pairs = enumerate_pairs(store)
    _, val_pairs = split_train_val(pairs, config.seed)
    got = _validation_tar(model, store, val_pairs, config.selection_far)
    assert got == log.best_val_tar()


def test_nan_parameters_abort_with_flag():
    from irismatch.data import rng_stream

    store = toy_store()
    config = toy_train_config()
    poisoned = IrisMatchModel(toy_model_config(), rng=rng_stream(config.seed, 0))
    poisoned.matcher.head_bias.data[:] = np.nan
    model, log = train(store, config, toy_model_config(),
                       resume={"model": poisoned, "start_epoch": 0})
    assert log.aborted
    assert log.records == []
    assert model is not None


def test_epoch_class_balance():
    # every epoch stream holds N_p positives and N_p sampled negatives
    from irismatch.data import enumerate_pairs, split_train_val, rebalance_epoch, rng_stream

    store = toy_store()
    pairs = enumerate_pairs(store)
    train_pairs, _ = split_train_val(pairs, 1)
    for epoch in range(3):
        sample, labels = rebalance_epoch(train_pairs, rng_stream(1, 3, epoch))
        assert labels.sum() == train_pairs.n_positive
        assert (1 - labels).sum() == train_pairs.n_positive


def test_geometry_mismatch_rejected():
    store = toy_store(h=8, w=16)
    with pytest.raises(ValueError, match="geometry"):
        train(store, toy_train_config(), toy_model_config(h=10, w=16))


# ---------------------------------------------------------------- golden logs

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_train_logs.json")


def golden_case(name):
    """Train one fixed-seed tiny config; returns (store, every pair of it,
    trained model, log)."""
    from irismatch.data import enumerate_pairs
    from irismatch.synthetic import SynthSpec, generate

    if name == "toy-8x16":
        store, model_config = toy_store(), toy_model_config()
        config = toy_train_config(stage1_epochs=2, epochs=4)
    else:
        store = generate(SynthSpec(identities=4, images_per_identity=4, height=16, width=32,
                                   occlusion_prob=0.5, seed=7))
        model_config = ModelConfig.small(16, 32)
        config = TrainConfig(lr=0.01, batch_size=8, stage1_epochs=1, epochs=3, seed=5,
                             selection_far=0.25)
    model, log = train(store, config, model_config)
    pairs = enumerate_pairs(store)
    return store, np.concatenate([pairs.authentic, pairs.imposter]), model, log


def golden_run(name):
    """(canonical log lines, sha256 of the trained model's ModelScorer scores
    over every pair, as bytes) of one golden config."""
    from irismatch.evaluation import ModelScorer

    store, pairs, model, log = golden_case(name)
    scores = ModelScorer(model, np.float64).score_pairs(store, pairs)
    return log.canonical_lines(), hashlib.sha256(np.asarray(scores).tobytes()).hexdigest()


@pytest.mark.parametrize("name", ["toy-8x16", "small-16x32"])
def test_golden_scores_match_the_concatenated_block0(name):
    """The scorer's factorized block 0 against the training path's
    ``pair_batch`` and concatenated block 0, on the trained golden models."""
    from irismatch import tensor as T
    from irismatch.evaluation import ModelScorer
    from irismatch.matcher import pair_batch

    store, pairs, model, _ = golden_case(name)
    feats = model.bank_features(store.images, np.float64)
    with T.no_grad():
        want = model.forward_pairs(pair_batch(feats, pairs)).data
    got = ModelScorer(model, np.float64).score_pairs(store, pairs)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name", ["toy-8x16", "small-16x32"])
def test_float32_scores_match_float64_on_golden_models(name):
    """Float32 scoring of a trained golden model moves no score by more than
    1e-6 and changes no TAR at any FAR an imposter count resolves, nor the
    AUC."""
    from irismatch.data import enumerate_pairs
    from irismatch.evaluation import ModelScorer, auc, collect_scores, tar_at_far

    store, _, model, _ = golden_case(name)
    pairs = enumerate_pairs(store)
    want = collect_scores(ModelScorer(model, np.float64), store, pairs)
    got = collect_scores(ModelScorer(model), store, pairs)
    for side in ("authentic", "imposter"):
        assert np.max(np.abs(getattr(got, side) - getattr(want, side))) <= 1e-6, side
    n_imp = len(want.imposter)
    for far in np.arange(1, n_imp + 1) / n_imp:
        assert tar_at_far(got, far)[0] == tar_at_far(want, far)[0], far
    assert auc(got) == auc(want)


@pytest.mark.parametrize("name", ["toy-8x16", "small-16x32"])
def test_training_log_and_scores_match_golden(name):
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        golden = json.load(fh)[name]
    lines, scores_sha = golden_run(name)
    assert lines == golden["log"]
    assert scores_sha == golden["scores_sha256"]


@pytest.mark.parametrize("name", ["toy-8x16", "small-16x32"])
def test_stage1_without_feature_cache_gives_the_same_log(name, monkeypatch):
    import irismatch.training as training

    with open(GOLDEN_PATH, encoding="ascii") as fh:
        golden = json.load(fh)[name]
    monkeypatch.setattr(training, "_CACHE_BUDGET", 0)
    lines, scores_sha = golden_run(name)
    assert lines == golden["log"]
    assert scores_sha == golden["scores_sha256"]


def test_log_csv_format(tmp_path):
    log = TrainLog(selection_far=0.01)
    from irismatch.training import EpochRecord
    log.records.append(EpochRecord(0, 1, 0.7, 0.5, 1.25))
    log.records.append(EpochRecord(1, 2, 0.5, 0.75, 1.5))
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,stage,train_loss,val_tar_at_far,wall_seconds"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,")
    more = TrainLog(selection_far=0.01)
    more.records.append(EpochRecord(2, 2, 0.4, 0.8, 1.0))
    more.write_csv(path, append=True)
    assert len(path.read_text().splitlines()) == 4
