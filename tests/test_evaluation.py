"""Tests for TAR@FAR, ROC, and AUC against exhaustive sweep oracles."""

import numpy as np
import pytest

from irismatch.evaluation import (RocCurve, ScoreSet, auc, collect_scores, emit_roc_csv,
                                  read_roc_csv, roc, tar_at_far)


def sweep_oracle(scores: ScoreSet, far_target):
    """Brute force: every distinct score as threshold, strict comparisons,
    feasible FAR <= target, maximize TAR, tie -> strictest threshold."""
    if scores.higher_is_match:
        accepts = lambda vals, t: vals > t
        stricter = lambda t1, t2: t1 > t2
    else:
        accepts = lambda vals, t: vals < t
        stricter = lambda t1, t2: t1 < t2
    best = None
    for t in np.unique(np.concatenate([scores.authentic, scores.imposter])):
        far = float(np.mean(accepts(scores.imposter, t)))
        tar = float(np.mean(accepts(scores.authentic, t)))
        if far > far_target:
            continue
        if best is None or tar > best[0] or (tar == best[0] and stricter(t, best[1])):
            best = (tar, float(t))
    return best


def random_scores(rng, n=40, m=120, higher=True):
    return ScoreSet(authentic=rng.normal(loc=1.0, size=n),
                    imposter=rng.normal(loc=0.0, size=m),
                    higher_is_match=higher)


# ---------------------------------------------------------------- tar_at_far


def test_perfectly_separated():
    s = ScoreSet([0.9, 0.8], [0.1, 0.2], higher_is_match=True)
    tar, thr = tar_at_far(s, 0.5)
    assert tar == 1.0
    assert thr == 0.2  # strictest threshold still admitting TAR 1


def test_chance_scores_tar_tracks_far():
    vals = np.linspace(0, 1, 200)
    s = ScoreSet(vals, vals.copy(), higher_is_match=True)
    for far in (0.1, 0.25, 0.5):
        tar, _ = tar_at_far(s, far)
        assert abs(tar - far) <= 1.0 / len(vals) + 1e-12


def test_matches_sweep_oracle_random_sets():
    rng = np.random.default_rng(110)
    for trial in range(40):
        higher = bool(trial % 2)
        s = random_scores(rng, n=30, m=100, higher=higher)
        for far in (0.01, 0.05, 0.1, 0.3, 1.0):
            want = sweep_oracle(s, far)
            got = tar_at_far(s, far)
            assert got == (want[0], want[1]), (trial, far)


def test_tar_monotone_in_far():
    rng = np.random.default_rng(111)
    s = random_scores(rng, n=50, m=400)
    tars = [tar_at_far(s, f)[0] for f in (0.005, 0.01, 0.05, 0.1, 0.5, 1.0)]
    assert all(a <= b + 1e-15 for a, b in zip(tars, tars[1:]))


def test_unresolvable_far_warns():
    s = ScoreSet([1.0, 2.0], [0.0, 0.1, 0.2], higher_is_match=True)
    with pytest.warns(UserWarning, match="cannot resolve"):
        tar_at_far(s, 0.01)


def test_empty_scores_rejected():
    s = ScoreSet([], [1.0], higher_is_match=True)
    with pytest.raises(ValueError):
        tar_at_far(s, 0.1)
    with pytest.raises(ValueError):
        tar_at_far(ScoreSet([1.0], [0.0], True), 0.0)


@pytest.mark.parametrize("side", ["authentic", "imposter"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_rejected(side, bad):
    scores = {"authentic": [0.9, 0.7, 0.8], "imposter": [0.1, 0.3, 0.2]}
    scores[side][1] = bad
    scores[side][2] = bad
    with pytest.raises(ValueError) as err:
        ScoreSet(scores["authentic"], scores["imposter"], higher_is_match=True)
    message = str(err.value)
    assert message == f"2 of 3 {side} scores are not finite"
    assert "\n" not in message


def test_lower_is_match_threshold_orientation():
    s = ScoreSet([0.05, 0.1], [0.4, 0.5], higher_is_match=False)
    tar, thr = tar_at_far(s, 0.5)
    assert tar == 1.0
    assert thr == 0.4  # strictest = smallest for lower-is-match


# ---------------------------------------------------------------- roc


def test_roc_monotone_and_endpoints():
    rng = np.random.default_rng(112)
    for higher in (True, False):
        s = random_scores(rng, higher=higher)
        curve = roc(s)
        assert np.all(np.diff(curve.far) >= 0)
        assert np.all(np.diff(curve.tar) >= 0)
        assert curve.far[0] == 0.0
        assert curve.far[-1] == 1.0 and curve.tar[-1] == 1.0


def test_roc_perfect_separation_passes_through_0_1():
    s = ScoreSet([0.9, 0.95], [0.1, 0.2], higher_is_match=True)
    curve = roc(s)
    hits = (curve.far == 0.0) & (curve.tar == 1.0)
    assert hits.any()


def test_roc_polarity_mirror():
    rng = np.random.default_rng(113)
    a = rng.normal(size=30)
    b = rng.normal(size=50)
    hi = roc(ScoreSet(a, b, higher_is_match=True))
    lo = roc(ScoreSet(-a, -b, higher_is_match=False))
    # negating scores and flipping polarity is the same classifier
    assert np.allclose(hi.far, lo.far)
    assert np.allclose(hi.tar, lo.tar)
    assert np.allclose(hi.thresholds[:-1], -lo.thresholds[:-1])


def test_roc_invariant_under_monotone_transform():
    rng = np.random.default_rng(114)
    a = rng.uniform(0.1, 0.9, size=25)
    b = rng.uniform(0.1, 0.9, size=60)
    c1 = roc(ScoreSet(a, b, True))
    c2 = roc(ScoreSet(np.exp(3 * a), np.exp(3 * b), True))
    assert np.allclose(c1.far, c2.far)
    assert np.allclose(c1.tar, c2.tar)


# ---------------------------------------------------------------- auc


def auc_loop(scores: ScoreSet):
    auth, imp = scores.authentic, scores.imposter
    if not scores.higher_is_match:
        auth, imp = -auth, -imp
    wins = ties = 0
    for x in auth:
        for y in imp:
            wins += x > y
            ties += x == y
    return (wins + 0.5 * ties) / (len(auth) * len(imp))


def test_auc_matches_pairwise_loop():
    rng = np.random.default_rng(115)
    for higher in (True, False):
        s = ScoreSet(rng.integers(0, 8, size=25) / 8.0,
                     rng.integers(0, 8, size=40) / 8.0, higher)
        assert abs(auc(s) - auc_loop(s)) < 1e-12


def test_auc_chance_level():
    rng = np.random.default_rng(116)
    s = ScoreSet(rng.uniform(size=5000), rng.uniform(size=5000), True)
    assert abs(auc(s) - 0.5) < 0.02


def test_auc_perfect():
    s = ScoreSet([0.9, 0.8], [0.1, 0.2], True)
    assert auc(s) == 1.0
    s = ScoreSet([0.1, 0.2], [0.8, 0.9], False)
    assert auc(s) == 1.0


# ---------------------------------------------------------------- collect


class ConstantScorer:
    higher_is_match = True

    def score_pairs(self, store, pair_array):
        pair_array = np.asarray(pair_array).reshape(-1, 2)
        return pair_array[:, 0] * 0.01 + 0.1


def test_collect_scores_lengths_and_order_independence():
    from irismatch.data import IdentityStore, enumerate_pairs

    store = IdentityStore(images=np.random.default_rng(117).uniform(size=(8, 2, 2)),
                          identity_of=[0, 0, 0, 1, 1, 2, 2, 2],
                          identity_ids=["a", "b", "c"])
    pairs = enumerate_pairs(store)
    s = collect_scores(ConstantScorer(), store, pairs)
    assert len(s.authentic) == pairs.n_positive
    assert len(s.imposter) == pairs.n_negative

    shuffled = type(pairs)(pairs.authentic[::-1].copy(), pairs.imposter[::-1].copy(),
                           pairs.identity_of)
    s2 = collect_scores(ConstantScorer(), store, shuffled)
    assert sorted(s.authentic) == sorted(s2.authentic)
    assert sorted(s.imposter) == sorted(s2.imposter)


def test_collect_scores_runs_bank_once_per_image(monkeypatch):
    from irismatch import matcher
    from irismatch.data import enumerate_pairs
    from irismatch.evaluation import ModelScorer
    from irismatch.matcher import IrisMatchModel, ModelConfig
    from irismatch.synthetic import SynthSpec, generate

    store = generate(SynthSpec(identities=3, images_per_identity=3, height=16, width=32,
                               seed=4))
    model = IrisMatchModel(ModelConfig.small(16, 32), rng=np.random.default_rng(5))
    seen = []
    forward = model.bank.forward

    def counting_forward(x):
        seen.extend(img.tobytes() for img in x.data[:, 0])
        return forward(x)

    model.bank.forward = counting_forward
    pairs = enumerate_pairs(store)
    monkeypatch.setattr(matcher, "_BANK_CHUNK", 4)
    monkeypatch.setattr(matcher, "_HALF_BUDGET", 1)        # one pair per chunk
    monkeypatch.setattr(matcher, "_ACTIVATION_BUDGET", 1)  # one pair per sub-batch
    scores = collect_scores(ModelScorer(model), store, pairs)
    # the float32 scorer runs the bank on float32 images
    assert sorted(seen) == sorted(img.astype(np.float32).tobytes() for img in store.images)
    assert len(scores.authentic) == pairs.n_positive
    assert len(scores.imposter) == pairs.n_negative


def test_collect_scores_missing_image():
    from irismatch.data import IdentityStore, PairSet

    store = IdentityStore(images=np.zeros((4, 2, 2)), identity_of=[0, 0, 1, 1],
                          identity_ids=["a", "b"])
    pairs = PairSet(np.array([[0, 9]]), np.array([[0, 2]]), np.array([0, 0, 1, 1]))
    with pytest.raises(IndexError):
        collect_scores(ConstantScorer(), store, pairs)


# ---------------------------------------------------------------- csv


def test_roc_csv_round_trip(tmp_path):
    curve = RocCurve(np.array([0.9, 0.5, -np.inf]),
                     np.array([0.0, 0.25, 1.0]),
                     np.array([0.5, 1.0, 1.0]))
    path = tmp_path / "roc.csv"
    emit_roc_csv(curve, path)
    text = path.read_text()
    assert text.startswith("threshold,far,tar\n")
    assert text.endswith("\n")
    assert len(text.splitlines()) == 4
    back = read_roc_csv(path)
    assert np.array_equal(back.thresholds, curve.thresholds)
    assert np.array_equal(back.far, curve.far)
    assert np.array_equal(back.tar, curve.tar)


def test_roc_csv_17_digit_round_trip(tmp_path):
    rng = np.random.default_rng(118)
    s = random_scores(rng)
    curve = roc(s)
    path = tmp_path / "roc.csv"
    emit_roc_csv(curve, path)
    back = read_roc_csv(path)
    assert np.array_equal(back.thresholds, curve.thresholds)  # %.17g is exact for f64
    assert np.array_equal(back.tar, curve.tar)


def test_roc_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_roc_csv(path)
