"""Verification metrics: score collection, TAR@FAR, ROC curves, AUC.

Scores carry an explicit polarity: the network emits match probabilities
(higher means match), the bitcode baseline emits Hamming distances (lower
means match).  A pair is accepted when its score is strictly beyond the
threshold on the match side; equality is a non-match.  For a FAR target the
threshold is the strictest value whose empirical FAR does not exceed the
target, among those maximizing TAR.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class ScoreSet:
    authentic: np.ndarray
    imposter: np.ndarray
    higher_is_match: bool

    def __post_init__(self):
        self.authentic = np.asarray(self.authentic, dtype=np.float64).reshape(-1)
        self.imposter = np.asarray(self.imposter, dtype=np.float64).reshape(-1)
        for side in ("authentic", "imposter"):
            bad = np.count_nonzero(~np.isfinite(getattr(self, side)))
            if bad:
                raise ValueError(f"{bad} of {getattr(self, side).size} {side} scores "
                                 f"are not finite")

    def require_nonempty(self):
        if self.authentic.size == 0 or self.imposter.size == 0:
            raise ValueError("both authentic and imposter score lists must be nonempty")


@dataclass
class RocCurve:
    thresholds: np.ndarray
    far: np.ndarray
    tar: np.ndarray

    def __len__(self):
        return len(self.thresholds)


def _oriented(scores: ScoreSet):
    """Map to higher-is-match orientation (negate lower-is-match scores)."""
    if scores.higher_is_match:
        return scores.authentic, scores.imposter, 1.0
    return -scores.authentic, -scores.imposter, -1.0


def tar_at_far(scores: ScoreSet, far):
    """(TAR, threshold) at a FAR budget.

    Candidate thresholds are the distinct observed scores; matches are
    strictly beyond the threshold.  Among candidates with empirical FAR <=
    ``far`` the one maximizing TAR is chosen, ties resolved toward the
    strictest threshold.
    """
    scores.require_nonempty()
    if not 0.0 < far <= 1.0:
        raise ValueError(f"FAR target must be in (0, 1], got {far}")
    if scores.imposter.size < 1.0 / far:
        warnings.warn(
            f"{scores.imposter.size} imposter scores cannot resolve FAR {far:g}; "
            f"need at least {int(np.ceil(1.0 / far))}")
    auth, imp, sign = _oriented(scores)
    cand = np.unique(np.concatenate([auth, imp]))          # ascending
    imp_sorted = np.sort(imp)
    auth_sorted = np.sort(auth)
    far_at = (imp.size - np.searchsorted(imp_sorted, cand, side="right")) / imp.size
    tar_at = (auth.size - np.searchsorted(auth_sorted, cand, side="right")) / auth.size
    feasible = np.flatnonzero(far_at <= far)
    # far_at is non-increasing in the candidate order, so feasible is a suffix
    best_tar = tar_at[feasible].max()
    ties = feasible[tar_at[feasible] == best_tar]
    threshold = cand[ties.max()]                            # strictest qualifying
    return float(best_tar), float(sign * threshold)


def roc(scores: ScoreSet) -> RocCurve:
    """Full sweep over distinct thresholds, ordered by non-decreasing FAR.

    The final point uses an accept-everything sentinel threshold, so the
    curve always ends at (1, 1).
    """
    scores.require_nonempty()
    auth, imp, sign = _oriented(scores)
    cand = np.unique(np.concatenate([auth, imp]))[::-1]     # strictest first
    imp_sorted = np.sort(imp)
    auth_sorted = np.sort(auth)
    far = (imp.size - np.searchsorted(imp_sorted, cand, side="right")) / imp.size
    tar = (auth.size - np.searchsorted(auth_sorted, cand, side="right")) / auth.size
    thresholds = np.concatenate([cand, [-np.inf]])
    far = np.concatenate([far, [1.0]])
    tar = np.concatenate([tar, [1.0]])
    return RocCurve(sign * thresholds, far, tar)


def auc(scores: ScoreSet):
    """Area under the ROC curve via the rank statistic (ties count half)."""
    scores.require_nonempty()
    auth, imp, _ = _oriented(scores)
    _, inverse, counts = np.unique(np.concatenate([auth, imp]), return_inverse=True,
                                   return_counts=True)
    # a value whose copies sit at sorted positions first..last (0-based) gets
    # the average rank 0.5 * (first + last) + 1
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    ranks = (0.5 * (first + last) + 1.0)[inverse]
    n, m = auth.size, imp.size
    return float((ranks[:n].sum() - n * (n + 1) / 2.0) / (n * m))


def collect_scores(scorer, store, pairs) -> ScoreSet:
    """Score every authentic and imposter pair of a PairSet.

    ``scorer`` exposes ``higher_is_match`` and ``score_pairs(store, pairs_array)``.
    Both sides go through one ``score_pairs`` call, so per-image work (bank
    features, bitcodes) runs once per distinct image.
    """
    n_img = store.num_images
    both = np.concatenate([pairs.authentic, pairs.imposter])
    if both.size and (both.min() < 0 or both.max() >= n_img):
        raise IndexError(f"pair references image outside the store (0..{n_img - 1})")
    scores = np.asarray(scorer.score_pairs(store, both))
    n_auth = len(pairs.authentic)
    return ScoreSet(authentic=scores[:n_auth], imposter=scores[n_auth:],
                    higher_is_match=scorer.higher_is_match)


class ModelScorer:
    """Eval-mode CNN probability per pair, scored in ``dtype``.

    Scoring runs in float32 by default, from the model's float64 weights
    (training, which keeps float64 as its determinism reference, validates
    with ``dtype=np.float64``).  The bank runs once per distinct image
    (``bank_features``); the matcher scores the pairs through
    ``IrisMatchModel.pair_probabilities``, which runs block 0 once per
    distinct image and side of a chunk of pairs and streams block 0 through
    the head in sub-batches whose largest activation fits a byte budget.
    ``match_probability`` takes the same path, so a pair scores bitwise the
    same through either at the same dtype."""

    higher_is_match = True

    def __init__(self, model, dtype=np.float32):
        self.model = model
        self.dtype = dtype

    def score_pairs(self, store, pair_array):
        if store.height != self.model.height or store.width != self.model.width:
            raise ValueError(
                f"store geometry {store.height}x{store.width} does not match the model's "
                f"{self.model.height}x{self.model.width}; resize first")
        used, local = np.unique(np.asarray(pair_array, dtype=np.intp), return_inverse=True)
        feats = self.model.bank_features(store.images[used], self.dtype)
        return self.model.pair_probabilities(feats.data, local.reshape(-1, 2))


class BitcodeScorer:
    """Masked Hamming distance with shift search (lower is match); each
    distinct image is encoded once per call and every pair goes through
    ``iriscode.match_pairs``."""

    higher_is_match = False

    def __init__(self, gabor_spec=None, max_shift=8, masks=None):
        from .iriscode import LogGaborSpec

        self.gabor_spec = gabor_spec or LogGaborSpec()
        self.max_shift = max_shift
        self.masks = masks

    def score_pairs(self, store, pair_array):
        from .iriscode import encode, match_pairs

        pair_array = np.asarray(pair_array, dtype=np.intp).reshape(-1, 2)
        used, local = np.unique(pair_array, return_inverse=True)
        codes = (encode(store.images[i], mask=None if self.masks is None else self.masks[i],
                        spec=self.gabor_spec) for i in used)
        return match_pairs(codes, local.reshape(-1, 2), self.max_shift)[0]


# ---------------------------------------------------------------- CSV


def emit_roc_csv(curve: RocCurve, path):
    """Write "threshold,far,tar" rows with 17 significant digits."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("threshold,far,tar\n")
        for t, f, a in zip(curve.thresholds, curve.far, curve.tar):
            fh.write(f"{t:.17g},{f:.17g},{a:.17g}\n")


def read_roc_csv(path) -> RocCurve:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "threshold,far,tar":
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty ROC curve")
    data = np.array([[float(v) for v in row] for row in rows])
    return RocCurve(data[:, 0], data[:, 1], data[:, 2])
