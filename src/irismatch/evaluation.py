"""Verification metrics: score collection, TAR@FAR and ROC curves.

Scores carry an explicit polarity: the network emits match probabilities
(higher means match), the bitcode baseline emits Hamming distances (lower
means match).  A pair is accepted when its score is strictly beyond the
threshold on the match side; equality is a non-match.  For a FAR target the
threshold is the strictest observed score whose empirical FAR does not
exceed the target, among those maximizing TAR (``RocCurve.tar_at_far``,
which ``tar_at_far`` and the ``roc`` command share).

The CNN scores come from ``ModelScorer``, which casts the whole model to its
scoring dtype once per call; every op then computes in that dtype (an op
refuses operands of two dtypes).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open


class NonFiniteScores(ValueError):
    """A score that is not finite, refused by ``ScoreSet``."""


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
                raise NonFiniteScores(f"{bad} of {getattr(self, side).size} {side} scores "
                                      f"are not finite")

    def require_nonempty(self):
        if self.authentic.size == 0 or self.imposter.size == 0:
            raise ValueError("both authentic and imposter score lists must be nonempty")


@dataclass
class RocCurve:
    """Operating points ordered strictest threshold first (non-decreasing FAR)."""

    thresholds: np.ndarray
    far: np.ndarray
    tar: np.ndarray

    def tar_at_far(self, far):
        """(TAR, threshold) of the highest TAR among points with FAR <= ``far``,
        ties to the strictest threshold, or None when no point qualifies.
        Only observed scores are candidates: the accept-everything sentinel
        (an infinite threshold) is not one."""
        ok = np.flatnonzero((self.far <= far) & np.isfinite(self.thresholds))
        if ok.size == 0:
            return None
        best = ok[np.argmax(self.tar[ok])]       # argmax takes the first (strictest) of ties
        return float(self.tar[best]), float(self.thresholds[best])


def _oriented(scores: ScoreSet):
    """Map to higher-is-match orientation (negate lower-is-match scores)."""
    if scores.higher_is_match:
        return scores.authentic, scores.imposter, 1.0
    return -scores.authentic, -scores.imposter, -1.0


def _sweep(scores: ScoreSet) -> RocCurve:
    """The operating point of every distinct observed score, strictest first."""
    scores.require_nonempty()
    auth, imp, sign = _oriented(scores)
    cand = np.unique(np.concatenate([auth, imp]))[::-1]     # strictest first
    far = (imp.size - np.searchsorted(np.sort(imp), cand, side="right")) / imp.size
    tar = (auth.size - np.searchsorted(np.sort(auth), cand, side="right")) / auth.size
    return RocCurve(sign * cand, far, tar)


def tar_at_far(scores: ScoreSet, far):
    """(TAR, threshold) at a FAR budget (``RocCurve.tar_at_far`` over the
    observed scores); matches are strictly beyond the threshold."""
    scores.require_nonempty()
    if not 0.0 < far <= 1.0:
        raise ValueError(f"FAR target must be in (0, 1], got {far}")
    if scores.imposter.size < 1.0 / far:
        warnings.warn(
            f"{scores.imposter.size} imposter scores cannot resolve FAR {far:g}; "
            f"need at least {int(np.ceil(1.0 / far))}")
    # the strictest observed score has FAR 0, so some point qualifies
    return _sweep(scores).tar_at_far(far)


def roc(scores: ScoreSet) -> RocCurve:
    """Full sweep over distinct thresholds, ordered by non-decreasing FAR.

    The final point uses an accept-everything sentinel threshold, so the
    curve always ends at (1, 1).
    """
    curve = _sweep(scores)
    sentinel = -np.inf if scores.higher_is_match else np.inf
    return RocCurve(np.append(curve.thresholds, sentinel), np.append(curve.far, 1.0),
                    np.append(curve.tar, 1.0))


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

    Each call casts the whole model to ``dtype`` once
    (``IrisMatchModel.astype``; every op then computes in that dtype, and
    refuses operands of two).
    Scoring runs in float32 by default, from the model's float64 weights
    (training, which keeps float64 as its determinism reference, validates
    with ``dtype=np.float64``).  The bank runs once per distinct image
    (``bank_features``), and ``IrisMatchModel.pair_probabilities`` batches
    the pairs through the matcher.  ``match_probability`` takes the same
    path, so a pair scores bitwise the same through either at the same
    dtype."""

    higher_is_match = True

    def __init__(self, model, dtype=np.float32):
        self.model = model
        self.dtype = dtype

    def score_pairs(self, store, pair_array):
        if store.height != self.model.height or store.width != self.model.width:
            raise ValueError(
                f"store geometry {store.height}x{store.width} does not match the model's "
                f"{self.model.height}x{self.model.width}; resize first")
        model = self.model.astype(self.dtype)
        used, local = np.unique(np.asarray(pair_array, dtype=np.intp), return_inverse=True)
        feats = model.bank_features(store.images[used])
        return model.pair_probabilities(feats.data, local.reshape(-1, 2))


class BitcodeScorer:
    """Masked Hamming distance with shift search (lower is match); each
    distinct image is encoded once per call and every pair goes through
    ``iriscode.match_pairs``."""

    higher_is_match = False

    def __init__(self, gabor_spec, max_shift):
        self.gabor_spec = gabor_spec
        self.max_shift = max_shift

    def score_pairs(self, store, pair_array):
        from .iriscode import encode, match_pairs

        pair_array = np.asarray(pair_array, dtype=np.intp).reshape(-1, 2)
        used, local = np.unique(pair_array, return_inverse=True)
        codes = (encode(store.images[i], spec=self.gabor_spec) for i in used)
        return match_pairs(codes, local.reshape(-1, 2), self.max_shift)[0]


# ---------------------------------------------------------------- CSV


def emit_roc_csv(curve: RocCurve, path):
    """Write "threshold,far,tar" rows with 17 significant digits, atomically."""
    with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("threshold,far,tar\n")
        for t, f, a in zip(curve.thresholds, curve.far, curve.tar):
            fh.write(f"{t:.17g},{f:.17g},{a:.17g}\n")


def read_roc_csv(path) -> RocCurve:
    """Read what ``emit_roc_csv`` writes.  Every row is three numbers: a
    threshold that is not NaN (the accept-everything row's is infinite),
    then FAR and TAR in [0, 1]; any other row (a byte that is not ASCII
    included) is refused naming its line."""
    rows = []
    with open(path, encoding="ascii", errors="replace") as fh:
        header = fh.readline().strip()
        if header != "threshold,far,tar":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                row = []
            if len(row) != 3 or np.isnan(row[0]) or not all(0.0 <= v <= 1.0 for v in row[1:]):
                raise ValueError(f"{path}:{lineno}: expected threshold,far,tar with FAR and TAR "
                                 f"in [0, 1] and a threshold that is not NaN, got "
                                 f"{line.strip()!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty ROC curve")
    data = np.array(rows)
    return RocCurve(data[:, 0], data[:, 1], data[:, 2])
