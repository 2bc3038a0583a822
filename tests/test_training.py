"""Tests for the Adam optimizer and the two-stage training loop."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from irismatch.blas import blas_core, blas_threads
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
        matcher_blocks=(ConvBlockSpec(4, (2, 2)),))


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
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            TrainConfig(lr=bad).validate()
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            TrainConfig(adam_eps=bad).validate()
    with pytest.raises(ValueError):
        TrainConfig(selection_far=0.0).validate()
    for bad in (1, 0):
        with pytest.raises(ValueError, match="batch norm needs two pairs"):
            TrainConfig(batch_size=bad).validate()
    TrainConfig(batch_size=2).validate()
    with pytest.raises(ValueError, match="seed must be non-negative"):
        TrainConfig(seed=-1).validate()
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


def test_stage2_step_frees_dead_arrays_before_backward(monkeypatch):
    """In stage-2 steps at 32x128, as ``train`` builds them, each filter's raw
    wrap-convolution response and the bank's output are dead when
    ``loss.backward()`` starts.  The one array ``pair_batch`` gathers is
    the pair input's base, which block 0's backward reads, so it alone is
    alive.  The gradients, the running statistics and the log are bitwise
    those of a run that keeps references to these arrays."""
    import weakref

    from irismatch import tensor as T
    from irismatch import training
    from irismatch import unit_circle as uc

    store = toy_store(h=32, w=128)
    model_config = ModelConfig.small(32, 128)
    config = toy_train_config(stage1_epochs=0, epochs=1)
    n_filters = len(model_config.bank_kernels)
    conv2d, index_select = T.conv2d, T.index_select
    bank_forward, backward, adam_step = uc.UnitCircleBank.forward, T.Tensor.backward, Adam.step

    def run(keep):
        watched, kept, steps = [], [], []

        def watch(name, out):
            if out.requires_grad:
                watched.append((name, weakref.finalize(out.data, lambda: None)))
                if keep:
                    kept.append(out.data)
            return out

        def watched_backward(loss):
            steps.append({"names": sorted(name for name, _ in watched),
                          "alive": sorted(name for name, f in watched if f.alive)})
            watched.clear()
            backward(loss)
            kept.clear()

        def recorded_step(optimizer):
            steps[-1]["grads"] = [t.grad.copy() for _, t in optimizer.named]
            adam_step(optimizer)

        monkeypatch.setattr(T, "conv2d", lambda *a, padding="none", **k: (
            watch("raw", conv2d(*a, padding=padding, **k)) if padding == "wrap"
            else conv2d(*a, padding=padding, **k)))
        monkeypatch.setattr(T, "index_select", lambda *a: watch("pair", index_select(*a)))
        monkeypatch.setattr(uc.UnitCircleBank, "forward",
                            lambda self, x, out=None: watch("bank", bank_forward(self, x, out)))
        monkeypatch.setattr(T.Tensor, "backward", watched_backward)
        monkeypatch.setattr(training.Adam, "step", recorded_step)
        model, log = train(store, config, model_config)
        monkeypatch.undo()
        return steps, model, log

    free, model, log = run(keep=False)
    held, model_held, log_held = run(keep=True)
    names = sorted(["bank", "pair"] + ["raw"] * n_filters)
    assert len(free) == len(held) >= 2
    for step, step_held in zip(free, held):
        assert step["names"] == step_held["names"] == names
        assert step["alive"] == ["pair"]
        assert step_held["alive"] == names
        assert len(step["grads"]) == len(step_held["grads"]) == len(model.parameters())
        for g, g_held in zip(step["grads"], step_held["grads"]):
            assert g.tobytes() == g_held.tobytes()
    assert log.canonical_lines() == log_held.canonical_lines()
    for (name, a), (_, b) in zip(model.state_items(), model_held.state_items()):
        assert a.tobytes() == b.tobytes(), name


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


def test_nan_parameters_abort_with_flag(tmp_path):
    """A resumed run whose last model has a NaN head bias stops at its first
    batch: exit 3, no new epoch record, the best checkpoint kept."""
    from irismatch import checkpoint
    from irismatch.cli import main
    from irismatch.synthetic import write_store

    write_store(toy_store(), tmp_path / "data")
    run = tmp_path / "run"
    args = ["train", "--data_dir", str(tmp_path / "data"), "--out_dir", str(run),
            "--bank_kernels", "3x3", "--matcher_channels", "4", "--matcher_strides", "2",
            "--matcher_dropout", "0", "--stage1_epochs", "2", "--batch_size", "8",
            "--selection_far", "0.25", "--seed", "1"]
    assert main(args + ["--epochs", "2"]) == 0
    prior = json.loads((run / "train_state.json").read_text())
    best = (run / "best.ckpt").read_bytes()
    poisoned = checkpoint.load_model(run / "last.ckpt")
    poisoned.matcher.head_bias.data[:] = np.nan
    checkpoint.save_model(poisoned, run / "last.ckpt")
    assert main(args + ["--epochs", "3", "--resume", "true"]) == 3
    state = json.loads((run / "train_state.json").read_text())
    assert state["records"] == prior["records"]
    assert state["best_epoch"] == prior["best_epoch"] >= 0
    assert (run / "best.ckpt").read_bytes() == best


def test_non_finite_validation_scores_abort_with_flag(tmp_path):
    """At lr 1e100 the epoch's one Adam step overflows two blocks: the loss
    read before the step is finite, the validation scores after it are not.
    Training stops with no record for that epoch, and the run's files are
    written."""
    config = ModelConfig(height=8, width=16, bank_kernels=((3, 3),),
                         matcher_blocks=(ConvBlockSpec(4, (2, 2)),) * 2)
    with pytest.warns(RuntimeWarning):
        _, log = train(toy_store(), toy_train_config(lr=1e100, batch_size=512), config,
                       tmp_path / "run")
    assert log.aborted and log.records == []
    state = json.loads((tmp_path / "run" / "train_state.json").read_text())
    assert (state["next_epoch"], state["records"]) == (0, [])
    assert max(state["steps"].values()) == 1        # the one step was taken
    assert sorted(os.listdir(tmp_path / "run")) == ["best.ckpt", "last.ckpt", "last.optim",
                                                    "log.csv", "train_state.json"]


def test_cli_exits_3_when_validation_diverges(tmp_path, capsys):
    from irismatch.cli import main
    from irismatch.synthetic import write_store

    write_store(toy_store(), tmp_path / "data")
    run = tmp_path / "run"
    with pytest.warns(RuntimeWarning):
        code = main(["train", "--data_dir", str(tmp_path / "data"), "--out_dir", str(run),
                     "--bank_kernels", "3x3", "--matcher_channels", "4,4",
                     "--matcher_strides", "2,2", "--matcher_dropout", "0,0",
                     "--batch_size", "512", "--lr", "1e100", "--epochs", "2", "--stage1_epochs", "1",
                     "--selection_far", "0.25", "--seed", "1"])
    assert code == 3
    assert "training aborted: non-finite loss or validation scores" in capsys.readouterr().err
    assert json.loads((run / "train_state.json").read_text())["records"] == []
    assert (run / "best.ckpt").exists() and (run / "train_snapshot.cfg").exists()


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


# ---------------------------------------------------------------- resume


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """A two-epoch run directory written by ``train`` alone."""
    run = tmp_path_factory.mktemp("train") / "run"
    train(toy_store(), toy_train_config(stage1_epochs=1, epochs=2), toy_model_config(), str(run))
    return run


def _changed(value):
    """Another valid value of a TrainConfig field."""
    return value + 1 if isinstance(value, int) else value / 2


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(TrainConfig)
                                 if f.name != "epochs"])
def test_resume_refuses_a_changed_training_key_before_any_write(toy_run, tmp_path, key):
    run = tmp_path / "run"
    shutil.copytree(toy_run, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    kept = toy_train_config(stage1_epochs=1, epochs=3)
    config = dataclasses.replace(kept, **{key: _changed(getattr(kept, key))})
    config.validate()
    with pytest.raises(ValueError) as info:
        train(toy_store(), config, toy_model_config(), str(run), resume=True)
    assert str(info.value) == (
        f"resume: {key} = {getattr(config, key)!r}, not {getattr(kept, key)!r} as in "
        f"{run / 'train_state.json'}; a run keeps its training config")
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_resume_without_out_dir_is_refused_before_any_work(monkeypatch):
    import irismatch.training as training

    def no_work(*args):
        raise AssertionError("train() did work before refusing the resume")

    monkeypatch.setattr(training, "enumerate_pairs", no_work)
    with pytest.raises(ValueError, match="^resume needs the out_dir of the run to continue$"):
        train(toy_store(), toy_train_config(), toy_model_config(), resume=True)


def test_resume_with_more_epochs_continues_the_run(toy_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(toy_run, run)
    config = toy_train_config(stage1_epochs=1, epochs=3)
    _, log = train(toy_store(), config, toy_model_config(), str(run), resume=True)
    assert [r.epoch for r in log.records] == [0, 1, 2]
    state = json.loads((run / "train_state.json").read_text())
    assert state["next_epoch"] == 3
    assert state["config"] == {f.name: getattr(config, f.name)
                               for f in dataclasses.fields(config) if f.name != "epochs"}


def test_train_state_records_the_blas_pair(toy_run):
    state = json.loads((toy_run / "train_state.json").read_text())
    assert state["blas"] == {"kernel": blas_core(), "threads": blas_threads()}


def test_train_without_out_dir_reads_no_blas_pair(monkeypatch):
    import irismatch.training as training

    def no_read():
        raise AssertionError("train() read the BLAS pair with no run directory to write")

    monkeypatch.setattr(training, "blas_core", no_read)
    monkeypatch.setattr(training, "blas_threads", no_read)
    train(toy_store(), toy_train_config(epochs=1, stage1_epochs=1), toy_model_config())


@pytest.mark.parametrize("change", ["kernel", "threads"])
def test_resume_refuses_another_blas_pair_before_any_write(toy_run, tmp_path, monkeypatch,
                                                           change):
    """Some kernels round GEMMs by their thread count, so a run split
    across two (kernel, threads) pairs would differ from an uninterrupted
    one."""
    import irismatch.training as training

    run = tmp_path / "run"
    shutil.copytree(toy_run, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    kernel, threads = blas_core(), blas_threads()
    other = ((("Haswell" if kernel == "Katmai" else "Katmai"), threads) if change == "kernel"
             else (kernel, threads + 1))
    monkeypatch.setattr(training, "blas_core", lambda: other[0])
    monkeypatch.setattr(training, "blas_threads", lambda: other[1])
    with pytest.raises(ValueError) as info:
        train(toy_store(), toy_train_config(stage1_epochs=1, epochs=3), toy_model_config(),
              str(run), resume=True)
    assert str(info.value) == (
        f"resume: {run / 'train_state.json'} was trained on BLAS kernel {kernel} with "
        f"{threads} thread(s), this process runs {other[0]} with {other[1]}; a run keeps its "
        f"BLAS pair (OPENBLAS_CORETYPE, OPENBLAS_NUM_THREADS)")
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_train_state_records_numpy_scalars_as_plain_numbers(tmp_path):
    run = tmp_path / "run"
    config = toy_train_config(seed=np.int64(1), batch_size=np.int32(8),
                              selection_far=np.float32(0.25), epochs=1, stage1_epochs=1)
    train(toy_store(), config, toy_model_config(), str(run))
    saved = json.loads((run / "train_state.json").read_text())["config"]
    assert (saved["seed"], saved["batch_size"], saved["selection_far"]) == (1, 8, 0.25)
    _, log = train(toy_store(), toy_train_config(epochs=2, stage1_epochs=1),
                   toy_model_config(), str(run), resume=True)
    assert [r.epoch for r in log.records] == [0, 1]


# ---------------------------------------------------------------- golden logs

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_train_logs.json")


def _recorded_pairs(entries):
    """The (kernel, thread count) pairs one config's golden entries hold for,
    in file order."""
    return [(core, t) for core, listed in entries.items() for e in listed for t in e["threads"]]


def assert_matches_golden(name, lines, hashes):
    """The golden values pin the bits of the BLAS kernel and thread count
    that made them: on Haswell and Katmai one and two threads give other
    bits.  So each config keeps, per kernel, entries that list the thread
    counts they hold for (made on one host with OPENBLAS_CORETYPE and
    OPENBLAS_NUM_THREADS), and is checked against the running pair's entry.
    A pair with no entry fails by name, not by a hash mismatch."""
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        entries = json.load(fh)[name]
    core, threads = blas_core(), blas_threads()
    kernel = f"golden {name} on BLAS core {core} with {threads} thread(s)"
    found = [e for e in entries.get(core, []) if threads in e["threads"]]
    recorded = ", ".join(f"{c}/{t}" for c, t in _recorded_pairs(entries))
    assert found, f"{kernel} has no entry (entries: {recorded})"
    golden = found[0]
    assert lines == golden["log"], kernel
    assert hashes["scores_sha256"] == golden["scores_sha256"], kernel
    assert hashes["scores32_sha256"] == golden["scores32_sha256"], kernel


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
    """(canonical log lines, {golden key: sha256 of the trained model's
    ModelScorer scores over every pair, as bytes}) of one golden config:
    ``scores_sha256`` scored in float64, ``scores32_sha256`` in float32."""
    from irismatch.evaluation import ModelScorer

    store, pairs, model, log = golden_case(name)
    hashes = {}
    for key, dtype in (("scores_sha256", np.float64), ("scores32_sha256", np.float32)):
        scores = ModelScorer(model, dtype).score_pairs(store, pairs)
        hashes[key] = hashlib.sha256(np.asarray(scores).tobytes()).hexdigest()
    return log.canonical_lines(), hashes


@pytest.mark.parametrize("name", ["toy-8x16", "small-16x32"])
def test_golden_scores_match_the_concatenated_block0(name):
    """The scorer's factorized block 0 against the training path's
    ``pair_batch`` and concatenated block 0, on the trained golden models."""
    from irismatch import tensor as T
    from irismatch.evaluation import ModelScorer
    from irismatch.matcher import pair_batch

    store, pairs, model, _ = golden_case(name)
    feats = model.bank_features(store.images)
    with T.no_grad():
        want = model.matcher.forward(pair_batch(feats, pairs)).data
    got = ModelScorer(model, np.float64).score_pairs(store, pairs)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name", ["toy-8x16", "small-16x32"])
def test_float32_scores_match_float64_on_golden_models(name):
    """Float32 scoring of a trained golden model moves no score by more than
    1e-6, changes no TAR at any FAR an imposter count resolves, and gives
    every authentic-imposter comparison the sign float64 gives it (so the
    AUC, the share of such comparisons ranked right with ties counted half,
    is the same)."""
    from irismatch.data import enumerate_pairs
    from irismatch.evaluation import ModelScorer, collect_scores, tar_at_far

    store, _, model, _ = golden_case(name)
    pairs = enumerate_pairs(store)
    want = collect_scores(ModelScorer(model, np.float64), store, pairs)
    got = collect_scores(ModelScorer(model), store, pairs)
    for side in ("authentic", "imposter"):
        assert np.max(np.abs(getattr(got, side) - getattr(want, side))) <= 1e-6, side
    n_imp = len(want.imposter)
    for far in np.arange(1, n_imp + 1) / n_imp:
        assert tar_at_far(got, far)[0] == tar_at_far(want, far)[0], far
    signs = [np.sign(s.authentic[:, None] - s.imposter[None, :]) for s in (got, want)]
    assert np.array_equal(*signs)


@pytest.mark.parametrize("name", ["toy-8x16", "small-16x32"])
def test_training_log_and_scores_match_golden(name):
    assert_matches_golden(name, *golden_run(name))


@pytest.mark.parametrize("name", ["toy-8x16", "small-16x32"])
def test_stage1_without_feature_cache_gives_the_same_log(name, monkeypatch):
    import irismatch.training as training

    monkeypatch.setattr(training, "_CACHE_BUDGET", 0)
    assert_matches_golden(name, *golden_run(name))


def _other_recorded_pairs():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        recorded = {pair: None for entries in json.load(fh).values()
                    for pair in _recorded_pairs(entries)}
    running = (blas_core(), blas_threads())
    return [pytest.param(core, threads, id=f"{core}-{threads}")
            for core, threads in recorded if (core, threads) != running]


@pytest.mark.parametrize("core,threads", _other_recorded_pairs())
def test_pinned_bits_hold_on_each_other_recorded_blas_core(core, threads):
    """The golden tests, rerun in a child process on each other BLAS kernel
    and thread count that has golden entries (OPENBLAS_CORETYPE,
    OPENBLAS_NUM_THREADS), one pair at a time; skipped where this host
    cannot run that pair (OpenBLAS caps the thread count at the CPUs)."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run([sys.executable, "-c",
                            "from irismatch.blas import blas_core, blas_threads; "
                            "print(blas_core(), blas_threads())"], env=env, capture_output=True,
                           text=True, check=True)
    if probe.stdout.split() != [core, str(threads)]:
        pytest.skip(f"OPENBLAS_CORETYPE={core} OPENBLAS_NUM_THREADS={threads} runs "
                    f"{probe.stdout.strip()} on this host")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          os.path.join(tests, "test_training.py"),
                          "-k", "golden or without_feature_cache"],
                         env=env, cwd=os.path.dirname(tests), capture_output=True, text=True)
    assert run.returncode == 0, (f"golden tests on BLAS core {core} with {threads} "
                                 f"thread(s):\n{run.stdout[-3000:]}")


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
