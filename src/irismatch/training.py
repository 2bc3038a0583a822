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
training (``ModelScorer``'s default) runs in float32.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import enumerate_pairs, rebalance_epoch, rng_stream, split_train_val
from .evaluation import ModelScorer, collect_scores, tar_at_far
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
        if self.lr <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("lr, batch size, and epochs must be positive")
        if not 0 <= self.stage1_epochs <= self.epochs:
            raise ValueError(f"stage-1 epochs {self.stage1_epochs} must lie in [0, {self.epochs}]")
        if not 0.0 < self.selection_far <= 1.0:
            raise ValueError("selection FAR must be in (0, 1]")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam moment coefficients must be in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("Adam epsilon must be positive")


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
        for name, (m, v) in moments.items():
            if name in self.m:
                self.m[name][...] = m
                self.v[name][...] = v
        self.steps.update({n: int(s) for n, s in steps.items() if n in self.steps})


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
    best_epoch: int = -1
    aborted: bool = False

    def best_val_tar(self):
        return max((r.val_tar for r in self.records), default=float("-inf"))

    def canonical_lines(self):
        """Deterministic serialization: everything except wall-clock timings."""
        lines = [f"selection_far={self.selection_far:.17g}"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.stage},{r.train_loss:.17g},{r.val_tar:.17g}")
        return lines

    def write_csv(self, path, append=False):
        mode = "a" if append else "w"
        with open(path, mode, encoding="ascii", newline="\n") as fh:
            if not append:
                fh.write("epoch,stage,train_loss,val_tar_at_far,wall_seconds\n")
            for r in self.records:
                fh.write(f"{r.epoch},{r.stage},{r.train_loss:.17g},"
                         f"{r.val_tar:.17g},{r.wall_seconds:.3f}\n")


def _validation_tar(model, store, val_pairs, far):
    scores = collect_scores(ModelScorer(model, np.float64), store, val_pairs)
    tar, _ = tar_at_far(scores, far)
    return tar


def train(store, config: TrainConfig, model_config: ModelConfig = None, resume=None,
          state_out=None):
    """Train on an identity store; returns (best model, TrainLog).

    ``resume``, if given, is a dict with keys model, moments, steps,
    start_epoch, records, best_state, best_tar, best_epoch (see the CLI).
    ``state_out``, if given, is a dict that receives the final (not best)
    state for checkpoint/resume purposes: last_state, optimizer, next_epoch.
    On divergence (non-finite loss) training stops and the best checkpoint
    so far is returned with ``log.aborted`` set.
    """
    config.validate()
    model_config = model_config or ModelConfig()
    if (store.height, store.width) != (model_config.height, model_config.width):
        raise ValueError(
            f"store geometry {store.height}x{store.width} does not match the model's "
            f"{model_config.height}x{model_config.width}; resize the images first")

    pairs = enumerate_pairs(store)
    train_pairs, val_pairs = split_train_val(pairs, config.seed)

    if resume is None:
        model = IrisMatchModel(model_config, rng=rng_stream(config.seed, 0))
        optimizer = Adam(model.named_parameters(), config)
        start_epoch = 0
        log = TrainLog(selection_far=config.selection_far)
        best_state, best_tar, best_epoch = None, float("-inf"), -1
    else:
        model = resume["model"]
        optimizer = Adam(model.named_parameters(), config)
        optimizer.load_moments(resume.get("moments", {}), resume.get("steps", {}))
        start_epoch = resume["start_epoch"]
        log = TrainLog(selection_far=config.selection_far,
                       records=list(resume.get("records", [])))
        best_state = resume.get("best_state")
        best_tar = resume.get("best_tar", float("-inf"))
        best_epoch = resume.get("best_epoch", -1)

    pair_images = np.unique(np.concatenate([train_pairs.authentic, train_pairs.imposter]))
    cache_fits = (len(pair_images) * model.bank.out_channels * store.height * store.width * 8
                  <= _CACHE_BUDGET)
    cache = None
    diverged = False
    next_epoch = start_epoch

    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        stage = 1 if epoch < config.stage1_epochs else 2
        if stage == 1 and cache is None and cache_fits:
            cache = model.bank_features(store.images[pair_images], np.float64)
        if stage == 2:
            cache = None

        sample, labels = rebalance_epoch(train_pairs, rng_stream(config.seed, 3, epoch))
        loss_sum = 0.0
        n_seen = 0
        for step, start in enumerate(range(0, len(sample), config.batch_size)):
            batch_pairs = sample[start:start + config.batch_size]
            batch_labels = labels[start:start + config.batch_size]
            if len(batch_pairs) < 2:
                continue  # batch-norm needs at least two pairs

            if cache is not None:
                feats, local = cache, np.searchsorted(pair_images, batch_pairs)
            else:
                uniq, local = np.unique(batch_pairs, return_inverse=True)
                local = local.reshape(-1, 2)
                # stage 2 runs the bank on the tape in one call per batch: chunks
                # would reorder the sums of its weight gradients
                feats = (model.bank_features(store.images[uniq], np.float64) if stage == 1 else
                         model.bank.forward(Tensor(store.images[uniq][:, None])))
            batch_input = pair_batch(feats, local)

            probs = model.forward_pairs(batch_input, training=True,
                                        rng=rng_stream(config.seed, 4, epoch, step))
            loss = T.bce_loss(probs, batch_labels)
            value = loss.item()
            if not np.isfinite(value):
                diverged = True
                break
            model.zero_grad()
            loss.backward()
            optimizer.step()
            loss_sum += value * len(batch_pairs)
            n_seen += len(batch_pairs)

        if diverged:
            log.aborted = True
            break

        val_tar = _validation_tar(model, store, val_pairs, config.selection_far)
        log.records.append(EpochRecord(
            epoch=epoch, stage=stage,
            train_loss=loss_sum / max(n_seen, 1), val_tar=val_tar,
            wall_seconds=time.perf_counter() - t0))
        if val_tar > best_tar:
            best_tar, best_epoch = val_tar, epoch
            best_state = model.snapshot()
        log.best_epoch = best_epoch
        next_epoch = epoch + 1

    if state_out is not None:
        state_out["last_state"] = model.snapshot()
        state_out["optimizer"] = optimizer
        state_out["next_epoch"] = next_epoch
    if best_state is not None:
        model.restore(best_state)
    return model, log
