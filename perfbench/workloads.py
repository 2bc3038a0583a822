"""The benchmark's workloads: set-up, timed calls and the correctness gate.

Every workload drives ``irismatch`` through its public API only.  Its data
(synthetic identity stores and, for the CNN workloads, a seeded random-init
model) is fixed by ``UNIVERSE_SEED`` so that reference outputs can be stored
once (``reference/*.json``, written by ``make_reference.py``).  The workload
seed picks which part of that data each timed call uses: the training case,
the block of images scored, or the order of match requests.

On train-small, eval-full and verify-full the calls of a run read disjoint
inputs until a fixed pool is used up (8 training cases, 16 blocks of 6
images, 96 requests over 192 images); only then do inputs repeat.  The
calls of baseline-full overlap: each scores 12 of the same 26 identities.
Every call records the inputs it reads (``Call.sources``), and a run prints
how many of its calls read an input an earlier call had read.

A workload exposes:

* ``setup(work_dir)`` -> state: data generation, model init, checkpoint and
  image files.  Timed as set-up.
* ``calls(state, seed)`` -> endless iterator of ``Call``: the inputs of each
  timed call, prepared outside the timed region.
* ``run(state, call)`` -> output: the timed region.
* ``check(state, call, output)`` -> (failed ops, failure messages).
* ``reference(state)`` -> dict: the outputs stored as reference.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import irismatch
from irismatch import checkpoint, evaluation, iris_io, synthetic
from irismatch.data import enumerate_pairs, rng_stream, split_train_val

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

UNIVERSE_SEED = 1906
FAR_TARGETS = (1e-1, 1e-2, 1e-3, 1e-4)

# Absolute tolerance on CNN match probabilities.  Evaluating the eval-full
# model in float32 instead of float64 moved probabilities by at most 6.9e-8
# over 120 pairs of synthetic irises (x86-64, OpenBLAS); an FFT bank moves
# bank features by about 6e-13.  1e-6 leaves float32 a 14x margin.  TAR@FAR
# rows are checked on their own, so scores that move within tolerance but
# reorder across a threshold (within one eval-full block the closest
# reference scores are 3.3e-5 apart) still fail the gate.
PROB_TOL = 1e-6
# relative tolerance on training losses in the canonical log; validation TARs must match exactly
LOSS_RTOL = 1e-6


@dataclass
class Call:
    key: object          # what the reference is looked up by
    ops: int             # training steps, scored pairs or match requests
    inputs: dict = field(default_factory=dict)
    sources: frozenset = frozenset()   # the stored inputs the call reads


def _pair_index(n):
    """(n, n) matrix: position of pair (a, b), a < b, in triu order; -1 elsewhere."""
    index = np.full((n, n), -1, dtype=np.intp)
    a, b = np.triu_indices(n, k=1)
    index[a, b] = np.arange(len(a))
    return index


def _accept_rates(scores, thresholds):
    """Brute-force (TAR, FAR) at each threshold: the share of authentic and of
    imposter scores strictly beyond it on the match side."""
    sign = 1.0 if scores.higher_is_match else -1.0
    t = sign * np.asarray(thresholds, dtype=np.float64)
    rates = []
    for side in (scores.authentic, scores.imposter):
        s = sign * side
        counts = np.concatenate([np.count_nonzero(s[:, None] > t[None, k:k + 256], axis=0)
                                 for k in range(0, len(t), 256)] or [np.zeros(0)])
        rates.append(counts / s.size)
    return rates


def tar_at_far_oracle(scores, far):
    """TAR@FAR by the definition irismatch documents, computed by brute force.

    Candidate thresholds are the distinct scores; among those with FAR <=
    ``far`` the highest TAR wins, ties going to the strictest threshold.
    """
    sign = 1.0 if scores.higher_is_match else -1.0
    cands = sign * np.unique(sign * np.concatenate([scores.authentic, scores.imposter]))
    tar, far_at = _accept_rates(scores, cands)       # cands run loosest to strictest
    feasible = np.flatnonzero(far_at <= far)
    best = feasible[tar[feasible] == tar[feasible].max()].max()
    return float(tar[best]), float(cands[best])


def _check_scores(got, want, tol, labels):
    """One message per score outside tolerance (exact when ``tol`` is 0)."""
    got = np.asarray(got, dtype=np.float64)
    bad = ~(np.abs(got - want) <= tol)
    return [f"{labels[i]}: score {got[i]!r}, reference {want[i]!r}" for i in np.flatnonzero(bad)]


def _check_rows(rows, ref_scores, tol):
    """TAR@FAR rows of the program against the oracle on the reference scores."""
    errors = []
    for far, (tar, thr) in zip(FAR_TARGETS, rows):
        want_tar, want_thr = tar_at_far_oracle(ref_scores, far)
        if tar != want_tar or not abs(thr - want_thr) <= tol:
            errors.append(f"TAR@FAR {far:g}: ({tar!r}, {thr!r}), "
                          f"reference ({want_tar!r}, {want_thr!r})")
    return errors


def _check_roc(curve, scores):
    """Ends at (1, 1), never decreases, and agrees with its own scores."""
    tar, far = _accept_rates(scores, curve.thresholds[:-1])
    ok = (curve.far[-1] == 1.0 and curve.tar[-1] == 1.0
          and np.all(np.diff(curve.far) >= 0) and np.all(np.diff(curve.tar) >= 0)
          and np.array_equal(tar, curve.tar[:-1]) and np.array_equal(far, curve.far[:-1]))
    return [] if ok else ["ROC curve disagrees with its own scores"]


def load_reference(name, params, reference_dir=None):
    path = os.path.join(reference_dir or REFERENCE_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["params"] != params:
        raise ValueError(f"{path} was made for {ref['params']}, the workload uses {params}")
    return ref


class _Workload:
    name = ""            # also the name of its reference file
    why = ""
    sizes = {}
    aliases = {}         # common end-to-end metric -> the workload's own name for it

    def __init__(self, size="full", reference_dir=None):
        self.params = dict(self.sizes[size])
        self.reference_dir = reference_dir
        self._ref = None

    @property
    def ref(self):
        if self._ref is None:
            self._ref = load_reference(self.name, self.params, self.reference_dir)
        return self._ref

    def figures(self, output):
        """What ``run_figures`` needs of one call's output; outputs are not kept."""
        return {}

    def run_figures(self, done):
        """The workload's own figures over a run's checked calls, as
        {name: (value, unit)}; printed but not bounded."""
        return {}

    def geometry(self):
        return f"{self.params['height']}x{self.params['width']}"

    def _universe(self, offset=0):
        p = self.params
        return synthetic.generate(synthetic.SynthSpec(
            identities=p["identities"], images_per_identity=p["per_identity"],
            height=p["height"], width=p["width"], seed=UNIVERSE_SEED + offset))

    def _model_config(self):
        p = self.params
        if p["model"] == "small":
            return irismatch.ModelConfig.small(p["height"], p["width"])
        return irismatch.ModelConfig(height=p["height"], width=p["width"])

    def _write_checkpoint(self, work_dir):
        """The seeded random-init model, saved as a checkpoint; returns its path."""
        model = irismatch.IrisMatchModel(self._model_config(), rng=rng_stream(UNIVERSE_SEED, 0))
        path = os.path.join(work_dir, "model.ckpt")
        checkpoint.save_model(model, path)
        return path


# ---------------------------------------------------------------- training


class TrainSmall(_Workload):
    """Two-stage training at 32x128 with ModelConfig.small().

    One call is a stage-1 ``train()`` call (matcher only, on cached bank
    features) followed by a stage-2 ``train()`` call (end to end), each timed
    on its own, so the stage-1 cache build and the stage-2 bank backward stay
    apart.
    """

    name = "train-small"
    why = ("32x128 small model; per call one stage-1 and one stage-2 train() call, each "
           "timed; the only workload with backward passes (bank backward in stage 2 only)")
    sizes = {
        "full": dict(height=32, width=128, identities=12, per_identity=4, batch=16,
                     epochs={"1": 2, "2": 1}, cases=8, model="small"),
        "tiny": dict(height=16, width=32, identities=6, per_identity=3, batch=8,
                     epochs={"1": 1, "2": 1}, cases=2, model="small"),
    }
    stages = ("1", "2")

    def config(self, case, stage):
        p = self.params
        epochs = p["epochs"][stage]
        return irismatch.TrainConfig(batch_size=p["batch"], seed=case, epochs=epochs,
                                     stage1_epochs=epochs if stage == "1" else 0)

    def setup(self, work_dir):
        p = self.params
        stores, steps = [], []
        for case in range(p["cases"]):
            store = synthetic.generate(synthetic.SynthSpec(
                identities=p["identities"], images_per_identity=p["per_identity"],
                height=p["height"], width=p["width"], seed=case))
            # one step per batch of at least two pairs; an epoch draws every
            # authentic training pair plus as many imposters
            train_pairs, _ = split_train_val(enumerate_pairs(store), case)
            sample = 2 * train_pairs.n_positive
            per_epoch = sum(1 for s in range(0, sample, p["batch"]) if sample - s >= 2)
            stores.append(store)
            steps.append(per_epoch * sum(p["epochs"].values()))
        return {"stores": stores, "steps": steps, "model_config": self._model_config()}

    def calls(self, state, seed):
        for i in itertools.count():
            case = (seed + i) % self.params["cases"]
            yield Call(key=case, ops=state["steps"][case], sources=frozenset([case]))

    def _train(self, state, case, stage):
        _, log = irismatch.train(state["stores"][case], self.config(case, stage),
                                 state["model_config"])
        return log

    def run(self, state, call):
        """Returns {stage: (log, wall seconds)}."""
        out = {}
        for stage in self.stages:
            t0 = time.perf_counter()
            log = self._train(state, call.key, stage)
            out[stage] = (log, time.perf_counter() - t0)
        return out

    def figures(self, out):
        return {f"stage{stage}_epoch_s": wall / self.params["epochs"][stage]
                for stage, (_, wall) in out.items()}

    def run_figures(self, done):
        figures = [d.figures for d in done if d.figures]
        if not figures:
            return {}
        return {name: (statistics.median(f[name] for f in figures), "s") for name in figures[0]}

    def check(self, state, call, out):
        errors = []
        for stage, (log, _) in out.items():
            want = self.ref["cases"][str(call.key)][stage]
            got = log.canonical_lines()
            ok = not log.aborted and len(got) == len(want) and got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                ge, gs, gl, gt = g.split(",")
                we, ws, wl, wt = w.split(",")
                ok = ok and (ge, gs, gt) == (we, ws, wt) and math.isclose(
                    float(gl), float(wl), rel_tol=LOSS_RTOL)
            if not ok:
                errors.append(f"case {call.key} stage {stage}: log {got} "
                              f"(aborted={log.aborted}), reference {want}")
        return (call.ops if errors else 0), errors

    def reference(self, state):
        return {"cases": {str(case): {stage: self._train(state, case, stage).canonical_lines()
                                      for stage in self.stages}
                          for case in range(self.params["cases"])}}


# ---------------------------------------------------------------- pair scoring


class _PairScoring(_Workload):
    """Shared by eval-full and baseline-full: score all pairs of a seeded
    subset of the identities of one block (a synthetic store), then ROC and
    TAR@FAR.  The first ``blocks`` calls of a run take the blocks in a
    seeded order, each once."""

    score_key = ""
    tolerance = 0.0

    def scorer(self, state):
        raise NotImplementedError

    def setup(self, work_dir):
        return {"blocks": [self._universe(b) for b in range(self.params["blocks"])]}

    def calls(self, state, seed):
        p = self.params
        rng = np.random.default_rng(seed)
        order = rng.permutation(p["blocks"])
        for i in itertools.count():
            block = int(order[i % p["blocks"]])
            universe = state["blocks"][block]
            ids = np.sort(rng.choice(universe.num_identities, p["subset"], replace=False))
            store = universe.subset(ids)
            pairs = enumerate_pairs(store)
            # subset keeps image order, so sub-store pair (i, j), i < j, is
            # block pair (origin[i], origin[j]) with origin[i] < origin[j]
            origin = np.flatnonzero(np.isin(universe.identity_of, ids))
            yield Call(key=(block, tuple(int(i) for i in ids)),
                       ops=pairs.n_positive + pairs.n_negative,
                       inputs={"store": store, "pairs": pairs, "origin": origin},
                       sources=frozenset((block, int(k)) for k in origin))

    def run(self, state, call):
        scores = evaluation.collect_scores(self.scorer(state), call.inputs["store"],
                                           call.inputs["pairs"])
        curve = evaluation.roc(scores)
        rows = [evaluation.tar_at_far(scores, far) for far in FAR_TARGETS]
        return scores, curve, rows

    def check(self, state, call, output):
        scores, curve, rows = output
        block = call.key[0]
        table = np.asarray(self.ref[self.score_key][block])
        index = _pair_index(state["blocks"][block].num_images)
        origin, pairs = call.inputs["origin"], call.inputs["pairs"]
        errors = []
        want = {}
        for side in ("authentic", "imposter"):
            arr = origin[getattr(pairs, side)]
            want[side] = table[index[arr[:, 0], arr[:, 1]]]
            labels = [f"block {block} {side} pair {a}-{b}" for a, b in arr]
            errors += _check_scores(getattr(scores, side), want[side], self.tolerance, labels)
        ref_scores = evaluation.ScoreSet(want["authentic"], want["imposter"],
                                         scores.higher_is_match)
        table_errors = _check_rows(rows, ref_scores, self.tolerance) + _check_roc(curve, scores)
        # a wrong ROC or TAR@FAR table fails every pair of the call
        return (call.ops if table_errors else len(errors)), errors + table_errors

    def reference(self, state):
        scorer = self.scorer(state)
        return {self.score_key: [
            scorer.score_pairs(u, np.stack(np.triu_indices(u.num_images, k=1), axis=1)).tolist()
            for u in state["blocks"]]}


class EvalFull(_PairScoring):
    name = "eval-full"
    why = ("CNN eval at 110x512, 15 pairs of 6 images per call: bank per image, matcher "
           "per pair (block 0 dominates); shows pair sharing and float32")
    aliases = {"ops_per_s": "eval_pairs_per_s"}
    score_key = "probability"
    tolerance = PROB_TOL
    sizes = {
        "full": dict(height=110, width=512, blocks=16, identities=3, per_identity=2,
                     subset=3, model="default"),
        "tiny": dict(height=16, width=32, blocks=3, identities=3, per_identity=2,
                     subset=3, model="small"),
    }

    def setup(self, work_dir):
        state = super().setup(work_dir)
        state["model"] = checkpoint.load_model(self._write_checkpoint(work_dir))
        return state

    def scorer(self, state):
        return evaluation.ModelScorer(state["model"])


class BaselineFull(_PairScoring):
    name = "baseline-full"
    why = ("log-Gabor bitcodes with shift search, 1128 pairs of 48 images per call from a "
           "104-image store at 110x512; only iriscode runs, so CNN changes must not move it")
    aliases = {"ops_per_s": "baseline_pairs_per_s"}
    score_key = "hamming"
    tolerance = 0.0
    sizes = {
        "full": dict(height=110, width=512, blocks=1, identities=26, per_identity=4,
                     subset=12, max_shift=8),
        "tiny": dict(height=16, width=64, blocks=1, identities=5, per_identity=3,
                     subset=4, max_shift=4),
    }

    def scorer(self, state):
        return evaluation.BitcodeScorer(irismatch.LogGaborSpec(),
                                        max_shift=self.params["max_shift"])


# ---------------------------------------------------------------- verification


class VerifyFull(_Workload):
    """Closed loop, one caller: each request is what ``irismatch match`` does.

    The universe's images are matched up into fixed disjoint request pairs
    (mostly imposters, some authentic); a run takes the requests in a seeded
    order, each once before any repeats."""

    name = "verify-full"
    why = ("closed loop of single match requests at 110x512 (load model, read 2 PGMs, "
           "score); bank-bound, no pair sharing; checkpoint and iris_io")
    aliases = {"op_p50_ms": "match_p50_ms"}
    sizes = {
        "full": dict(height=110, width=512, identities=12, per_identity=16, model="default"),
        "tiny": dict(height=16, width=32, identities=2, per_identity=4, model="small"),
    }

    def setup(self, work_dir):
        universe = self._universe()
        ckpt = self._write_checkpoint(work_dir)
        images = []
        for k, img in enumerate(universe.images):
            images.append(os.path.join(work_dir, f"iris_{k:03d}.pgm"))
            iris_io.write_pgm(images[-1], img)
        requests = rng_stream(UNIVERSE_SEED, 1).permutation(universe.num_images).reshape(-1, 2)
        return {"checkpoint": ckpt, "images": images, "requests": requests}

    def calls(self, state, seed):
        n = len(state["requests"])
        order = np.random.default_rng(seed).permutation(n)
        for i in itertools.count():
            r = int(order[i % n])
            yield Call(key=r, ops=1, sources=frozenset(int(k) for k in state["requests"][r]))

    def run(self, state, call):
        model = checkpoint.load_model(state["checkpoint"])
        a, b = state["requests"][call.key]
        xa = iris_io.read_image(state["images"][a])
        xb = iris_io.read_image(state["images"][b])
        return model.match_probability(xa, xb)

    def check(self, state, call, probability):
        a, b = state["requests"][call.key]
        want = self.ref["probability"][call.key]
        errors = _check_scores([probability], [want], PROB_TOL, [f"request {a}-{b}"])
        return len(errors), errors

    def run_figures(self, done):
        walls = [d.wall_s for d in done]
        out = {"match_samples": (len(walls), "count")}
        if len(walls) >= 40:  # a tail percentile needs at least 10 samples beyond it
            out["match_p75_ms"] = (1000 * statistics.quantiles(walls, n=4)[2], "ms")
        return out

    def reference(self, state):
        return {"probability": [self.run(state, Call(key=r, ops=1))
                                for r in range(len(state["requests"]))]}


def all_workloads(size="full", reference_dir=None):
    return [cls(size, reference_dir) for cls in (TrainSmall, EvalFull, VerifyFull, BaselineFull)]
