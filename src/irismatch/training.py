"""End-to-end training: pair balancing, the two-stage schedule, and Adam.

Stage 1 trains the matcher only; the filter bank keeps its random
initialization, bitwise untouched (its forward runs outside the gradient
tape, so it also costs nothing to differentiate).  From ``stage1_epochs`` on,
the whole model trains end to end.  Every epoch re-draws a fresh balanced
sample of imposter pairs, then scores the identity-disjoint validation split;
the returned model is the checkpoint with the best validation TAR at the
configured FAR level.

All randomness (initialization, splitting, epoch sampling, dropout) derives
from the seed through fixed sub-stream indices, so the training log is a
deterministic function of (seed, store, config).  Training, validation
included, runs in float64, the determinism reference; only scoring outside
training (``ModelScorer``'s default) runs in float32, on a cast copy of the
model.

With an ``out_dir``, ``train`` writes the run there once training ends (a
run that raises before then leaves nothing): ``last.ckpt``, ``last.optim``,
``best.ckpt`` (the returned model), ``train_state.json`` (the epoch records,
next epoch, Adam step counts, the store's SHA-256, the training config,
every ``TrainConfig`` field but ``epochs``, and the BLAS kernel and thread
count the run trained on) and ``log.csv``.  ``train`` owns the resume
contract: a resumed run continues from these files to the same files as an
uninterrupted run, and a missing or malformed file, another architecture,
another store, another training config or another BLAS pair (whose GEMMs
may round differently, ``blas``) is refused before any write.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .blas import blas_core, blas_threads
from .checkpoint import atomic_open, load_model, load_optimizer_state, save_model, save_optimizer
from .data import enumerate_pairs, rebalance_epoch, rng_stream, split_train_val
from .evaluation import ModelScorer, NonFiniteScores, collect_scores, tar_at_far
from .matcher import IrisMatchModel, ModelConfig, pair_batch
from .tensor import ShapeError, Tensor

# feature-cache ceiling for stage 1 (bytes of float64 bank responses)
_CACHE_BUDGET = 1 << 29


@dataclass
class TrainConfig:
    lr: float = 0.01
    batch_size: int = 32
    stage1_epochs: int = 100
    epochs: int = 1000
    seed: int = 0
    selection_far: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.lr < math.inf:                 # NaN fails too
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.batch_size < 2:
            raise ValueError(f"batch size must be at least 2 (batch norm needs two pairs), "
                             f"got {self.batch_size}")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if not 0 <= self.stage1_epochs <= self.epochs:
            raise ValueError(f"stage-1 epochs {self.stage1_epochs} must lie in [0, {self.epochs}]")
        if not 0.0 < self.selection_far <= 1.0:
            raise ValueError("selection FAR must be in (0, 1]")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam moment coefficients must be in [0, 1)")
        if not 0.0 < self.adam_eps < math.inf:
            raise ValueError(f"Adam epsilon must be finite and positive, got {self.adam_eps}")


class Adam:
    """Adam over named parameters; a parameter only advances when it has a
    gradient, with its own bias-correction step count (the filter bank sits
    idle through stage 1 and starts from step 0 in stage 2)."""

    def __init__(self, named_params, config: TrainConfig):
        self.named = [(n, t) for n, t in named_params]
        self.lr = config.lr
        self.beta1, self.beta2, self.eps = config.beta1, config.beta2, config.adam_eps
        self.m = {n: np.zeros_like(t.data) for n, t in self.named}
        self.v = {n: np.zeros_like(t.data) for n, t in self.named}
        self.steps = {n: 0 for n, _ in self.named}

    @property
    def step_count(self):
        return max(self.steps.values()) if self.steps else 0

    def step(self):
        """One bias-corrected Adam update, in place, of every parameter with a gradient."""
        for name, tens in self.named:
            p, g, m, v = tens.data, tens.grad, self.m[name], self.v[name]
            if g is None:
                continue
            if p.shape != g.shape or p.shape != m.shape or p.shape != v.shape:
                raise ShapeError(
                    f"Adam state shape mismatch: {p.shape} vs {g.shape}/{m.shape}/{v.shape}")
            step = self.steps[name] = self.steps[name] + 1
            c1 = 1.0 - self.beta1 ** step
            c2 = 1.0 - self.beta2 ** step
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def load_moments(self, moments, steps):
        """Copy in the moments and step counts of every parameter."""
        for name, (m, v) in moments.items():
            self.m[name][...] = m
            self.v[name][...] = v
        self.steps.update(steps)


@dataclass
class EpochRecord:
    epoch: int
    stage: int
    train_loss: float
    val_tar: float
    wall_seconds: float


@dataclass
class TrainLog:
    selection_far: float
    records: list = field(default_factory=list)
    aborted: bool = False

    @property
    def best_epoch(self):
        """The first epoch with the highest validation TAR; -1 before any."""
        tars = [r.val_tar for r in self.records]
        return self.records[tars.index(max(tars))].epoch if tars else -1

    def best_val_tar(self):
        return max((r.val_tar for r in self.records), default=float("-inf"))

    def canonical_lines(self):
        """Deterministic serialization: everything except wall-clock timings."""
        lines = [f"selection_far={self.selection_far:.17g}"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.stage},{r.train_loss:.17g},{r.val_tar:.17g}")
        return lines

    def write_csv(self, path):
        """Write the header and every record, whole, through ``atomic_open``."""
        with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("epoch,stage,train_loss,val_tar_at_far,wall_seconds\n")
            for r in self.records:
                fh.write(f"{r.epoch},{r.stage},{r.train_loss:.17g},"
                         f"{r.val_tar:.17g},{r.wall_seconds:.3f}\n")


def _validation_tar(model, store, val_pairs, far):
    """TAR at ``far`` of the validation pairs' float64 scores, or None when a
    score is not finite: the weights have diverged."""
    try:
        scores = collect_scores(ModelScorer(model, np.float64), store, val_pairs)
    except NonFiniteScores:
        return None
    return tar_at_far(scores, far)[0]


def _store_sha256(store):
    """SHA-256 of the store's images as ``<f8`` followed by its identity
    labels as ``<i8``."""
    digest = hashlib.sha256(np.ascontiguousarray(store.images, dtype="<f8"))
    digest.update(np.ascontiguousarray(store.identity_of, dtype="<i8"))
    return digest.hexdigest()


def _load_run(out_dir, model, optimizer, log, store_sha256, config, blas):
    """Fill ``model``, ``optimizer`` and ``log`` from the run saved in
    ``out_dir``; returns (first epoch to train, best state).  The resume
    contract lives here: a run whose ``train_state.json`` holds another
    training ``config``, store SHA-256 or ``blas`` pair, whose ``last.ckpt``
    or ``best.ckpt`` has another architecture, or whose Adam steps or
    moments do not fit the model's parameters, is refused before anything
    is filled."""
    state_path = os.path.join(out_dir, "train_state.json")
    if not os.path.isfile(state_path):
        raise ValueError(f"resume requested but {state_path} does not exist")
    try:
        with open(state_path, encoding="utf-8") as fh:
            state = json.load(fh)
        steps = {str(n): int(s) for n, s in state["steps"].items()}
        start_epoch = int(state["next_epoch"])
        records = [EpochRecord(int(epoch), int(stage), float(loss), float(tar), float(wall))
                   for epoch, stage, loss, tar, wall in state["records"]]
        saved_sha256 = str(state["store_sha256"])
        saved_config = {key: state["config"][key] for key in config}
        saved_blas = {"kernel": str(state["blas"]["kernel"]),
                      "threads": int(state["blas"]["threads"])}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{state_path}: malformed train state ({exc!r})") from exc
    for key, value in config.items():
        if saved_config[key] != value:
            raise ValueError(f"resume: {key} = {value!r}, not {saved_config[key]!r} as in "
                             f"{state_path}; a run keeps its training config")
    if saved_sha256 != store_sha256:
        raise ValueError(f"resume: {state_path} was trained on another store (SHA-256 "
                         f"{saved_sha256}, this store's is {store_sha256}); a run keeps its data")
    if saved_blas != blas:
        raise ValueError(f"resume: {state_path} was trained on BLAS kernel {saved_blas['kernel']} "
                         f"with {saved_blas['threads']} thread(s), this process runs "
                         f"{blas['kernel']} with {blas['threads']}; a run keeps its BLAS pair "
                         f"(OPENBLAS_CORETYPE, OPENBLAS_NUM_THREADS)")
    last, best = (load_model(os.path.join(out_dir, name)) for name in ("last.ckpt", "best.ckpt"))
    for name, saved in (("last.ckpt", last), ("best.ckpt", best)):
        if saved.config.to_dict() != model.config.to_dict():
            raise ValueError(f"resume: {os.path.join(out_dir, name)} holds another architecture "
                             f"than the configured one; train into a new out_dir instead")
    optim_path = os.path.join(out_dir, "last.optim")
    _, moments = load_optimizer_state(optim_path)
    shapes = {name: t.shape for name, t in model.named_parameters()}
    for path, what, names in ((state_path, "Adam steps", steps), (optim_path, "moments", moments)):
        if set(names) != set(shapes):
            raise ValueError(f"resume: the {what} in {path} do not name the model's parameters "
                             f"(missing {sorted(set(shapes) - set(names))}, "
                             f"extra {sorted(set(names) - set(shapes))})")
    for name, (m, _) in moments.items():
        if m.shape != shapes[name]:
            raise ValueError(f"resume: {optim_path} holds moments of shape {m.shape} for "
                             f"{name}, whose shape is {shapes[name]}")
    model.restore(last.snapshot())
    optimizer.load_moments(moments, steps)
    log.records.extend(records)
    return start_epoch, best.snapshot()


def train(store, config: TrainConfig, model_config: ModelConfig = None, out_dir=None,
          resume=False):
    """Train on an identity store; returns (best model, TrainLog).

    With ``out_dir`` the run's files are written there (see the module
    docstring); with ``resume`` the run saved there continues up to
    ``config.epochs``.  On divergence (a non-finite loss, or non-finite
    validation scores after an epoch's last step) training stops, the epoch
    gets no record, the files are still written, and the best model so far
    is returned with ``log.aborted`` set.
    """
    config.validate()
    if resume and out_dir is None:
        raise ValueError("resume needs the out_dir of the run to continue")
    model_config = model_config or ModelConfig()
    if (store.height, store.width) != (model_config.height, model_config.width):
        raise ValueError(
            f"store geometry {store.height}x{store.width} does not match the model's "
            f"{model_config.height}x{model_config.width}; resize the images first")

    pairs = enumerate_pairs(store)
    train_pairs, val_pairs = split_train_val(pairs, config.seed)

    model = IrisMatchModel(model_config, rng=rng_stream(config.seed, 0))
    optimizer = Adam(model.named_parameters(), config)
    log = TrainLog(selection_far=config.selection_far)
    store_sha256 = blas = None
    if out_dir is not None:
        store_sha256 = _store_sha256(store)
        blas = {"kernel": blas_core(), "threads": blas_threads()}
    # what a resumed run must keep: every field but epochs, as plain JSON numbers
    kept = {f.name: type(f.default)(getattr(config, f.name)) for f in fields(config)
            if f.name != "epochs"}
    start_epoch, best_state = (_load_run(out_dir, model, optimizer, log, store_sha256, kept,
                                         blas) if resume else (0, None))

    pair_images = np.unique(np.concatenate([train_pairs.authentic, train_pairs.imposter]))
    cache_fits = (len(pair_images) * model.bank.out_channels * store.height * store.width * 8
                  <= _CACHE_BUDGET)
    cache = None

    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        stage = 1 if epoch < config.stage1_epochs else 2
        if stage == 1 and cache is None and cache_fits:
            cache = model.bank_features(store.images[pair_images])
        if stage == 2:
            cache = None

        sample, labels = rebalance_epoch(train_pairs, rng_stream(config.seed, 3, epoch))
        loss_sum, n_seen = 0.0, 0
        # a last batch of one pair is left out: batch norm needs two
        for step, start in enumerate(range(0, len(sample) - 1, config.batch_size)):
            batch_pairs = sample[start:start + config.batch_size]
            batch_labels = labels[start:start + config.batch_size]
            if cache is not None:
                feats, local = cache, np.searchsorted(pair_images, batch_pairs)
            else:
                uniq, local = np.unique(batch_pairs, return_inverse=True)
                local = local.reshape(-1, 2)
                # stage 2 runs the bank on the tape in one call per batch: chunks
                # would reorder the sums of its weight gradients
                feats = (model.bank_features(store.images[uniq]) if stage == 1 else
                         model.bank.forward(Tensor(store.images[uniq][:, None])))
            batch_input = pair_batch(feats, local)

            probs = model.matcher.forward(batch_input, training=True,
                                          rng=rng_stream(config.seed, 4, epoch, step))
            loss = T.bce_loss(probs, batch_labels)
            value = loss.item()
            if not np.isfinite(value):
                log.aborted = True
                break
            model.zero_grad()
            # the graph holds only what a backward reads and frees it as it
            # goes: with these names gone the bank's output dies here, and
            # the pair input pair_batch gathered lives on only in block 0's
            # convolution backward
            del feats, batch_input, probs
            loss.backward()
            optimizer.step()
            loss_sum += value * len(batch_pairs)
            n_seen += len(batch_pairs)

        val_tar = None if log.aborted else _validation_tar(model, store, val_pairs,
                                                           config.selection_far)
        if val_tar is None:
            log.aborted = True
            break
        log.records.append(EpochRecord(epoch, stage, loss_sum / max(n_seen, 1), val_tar,
                                       time.perf_counter() - t0))
        if log.best_epoch == epoch:
            best_state = model.snapshot()

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_model(model, os.path.join(out_dir, "last.ckpt"))
        save_optimizer(optimizer, os.path.join(out_dir, "last.optim"))
    if best_state is not None:
        model.restore(best_state)
    if out_dir is not None:
        save_model(model, os.path.join(out_dir, "best.ckpt"))
        with atomic_open(os.path.join(out_dir, "train_state.json"), "w",
                         encoding="utf-8") as fh:
            json.dump({
                "next_epoch": log.records[-1].epoch + 1 if log.records else start_epoch,
                "best_epoch": log.best_epoch,
                "best_tar": log.best_val_tar(),
                "records": [[r.epoch, r.stage, r.train_loss, r.val_tar, r.wall_seconds]
                            for r in log.records],
                "steps": optimizer.steps,
                "store_sha256": store_sha256,
                "config": kept,
                "blas": blas,
            }, fh, indent=1)
        log.write_csv(os.path.join(out_dir, "log.csv"))
    return model, log
