"""Tests for the log-Gabor bitcode baseline.

Oracles: an explicit discrete-Fourier-sum filter reference (independent of
np.fft), a bit-by-bit Hamming counting loop, and an exhaustive shift sweep.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from irismatch import iriscode
from irismatch.data import IdentityStore, enumerate_pairs
from irismatch.evaluation import BitcodeScorer, collect_scores
from irismatch.iriscode import (Bitcode, EmptyMaskError, LogGaborSpec, encode,
                                log_gabor_transfer, masked_hamming, match_pairs,
                                match_with_shifts)
from irismatch.synthetic import SynthSpec, generate
from oracles import shift_bitcode, strided_bitcode, with_a_masked_null


def dft_filter_reference(row, transfer):
    """Filter one row by explicit forward/inverse Fourier sums."""
    n = len(row)
    grid = np.arange(n)
    fwd = np.exp(-2j * np.pi * np.outer(grid, grid) / n)
    spectrum = fwd @ row
    back = np.exp(2j * np.pi * np.outer(grid, grid) / n)
    return (back @ (spectrum * transfer)) / n


def hamming_loop(a: Bitcode, b: Bitcode):
    differ = total = 0
    h, w = a.bits.shape
    for i in range(h):
        for j in range(w):
            if a.mask[i, j] and b.mask[i, j]:
                total += 1
                if a.bits[i, j] != b.bits[i, j]:
                    differ += 1
    if total == 0:
        raise EmptyMaskError("empty")
    return differ / total


def shift_sweep_loop(a, b, max_shift, hamming=hamming_loop):
    best = None
    for s in range(-max_shift, max_shift + 1):
        try:
            score = hamming(a, shift_bitcode(b, s))
        except EmptyMaskError:
            continue
        if best is None or score < best[0] or (
                score == best[0] and (abs(s) < abs(best[1]) or
                                      (abs(s) == abs(best[1]) and s < best[1]))):
            best = (score, s)
    if best is None:
        raise EmptyMaskError("empty at all shifts")
    return best


def random_bitcode(rng, h=4, w=16, mask_p=0.8):
    bits = rng.integers(0, 2, size=(h, 2 * w)).astype(np.uint8)
    mask = (rng.random((h, 2 * w)) < mask_p).astype(np.uint8)
    return Bitcode(bits, mask)


def row_uniform_bitcode(rng, valid_rows, w):
    """Random bits under a mask whose rows are all valid or all empty, as
    ``encode``'s are (an occluded row is constant, so all of it is masked)."""
    bits = rng.integers(0, 2, size=(len(valid_rows), 2 * w)).astype(np.uint8)
    mask = np.repeat(np.asarray(valid_rows, dtype=np.uint8)[:, None], 2 * w, axis=1)
    return Bitcode(bits, mask)


# ---------------------------------------------------------------- encode


def test_sinusoid_at_center_wavelength():
    W, wavelength = 512, 16.0
    spec = LogGaborSpec(wavelength=wavelength, sigma_ratio=0.5, row_step=1)
    row = np.sin(2 * np.pi * np.arange(W) / wavelength)
    img = np.tile(row, (2, 1))
    code = encode(img, spec=spec)

    # response must match the explicit Fourier-sum reference
    transfer = log_gabor_transfer(W, spec)
    ref = dft_filter_reference(row, transfer)
    fft_resp = np.fft.ifft(np.fft.fft(row) * transfer)
    assert np.max(np.abs(fft_resp - ref)) < 1e-8
    # compare signs away from exact zero crossings, where sign is undefined
    re_solid = np.abs(ref.real) > 1e-9
    im_solid = np.abs(ref.imag) > 1e-9
    assert np.array_equal(code.bits[0, 0::2][re_solid], (ref.real > 0)[re_solid].astype(np.uint8))
    assert np.array_equal(code.bits[0, 1::2][im_solid], (ref.imag > 0)[im_solid].astype(np.uint8))

    # real-part bits alternate in blocks of half a wavelength:
    # exactly 2 sign changes per cycle around the circle
    real_bits = code.bits[0, 0::2].astype(int)
    transitions = int((real_bits != np.roll(real_bits, 1)).sum())
    assert transitions == 2 * int(W / wavelength)


def test_encode_random_rows_match_reference():
    rng = np.random.default_rng(80)
    W = 64
    spec = LogGaborSpec(wavelength=12.0, sigma_ratio=0.5, row_step=1)
    transfer = log_gabor_transfer(W, spec)
    img = rng.normal(size=(3, W))
    code = encode(img, spec=spec)
    for i in range(3):
        ref = dft_filter_reference(img[i], transfer)
        assert np.array_equal(code.bits[i, 0::2], (ref.real > 0).astype(np.uint8))
        assert np.array_equal(code.bits[i, 1::2], (ref.imag > 0).astype(np.uint8))


def test_constant_image_fully_masked():
    code = encode(np.full((6, 32), 0.7), spec=LogGaborSpec(8.0, 0.5, 1))
    assert np.all(code.mask == 0)


def test_dc_invariance():
    rng = np.random.default_rng(81)
    img = rng.uniform(size=(8, 64))
    spec = LogGaborSpec(12.0, 0.5, 2)
    a = encode(img, spec=spec)
    b = encode(img + 0.37, spec=spec)
    assert np.array_equal(a.mask, b.mask)
    joint = a.mask.astype(bool)
    assert np.array_equal(a.bits[joint], b.bits[joint])


def test_encode_row_step_keeps_every_kth_row():
    rng = np.random.default_rng(82)
    img = rng.uniform(size=(8, 32))
    code = encode(img, spec=LogGaborSpec(8.0, 0.5, 2))
    assert code.bits.shape == (4, 64)
    every_row = encode(img[::2], spec=LogGaborSpec(8.0, 0.5, 1))
    assert np.array_equal(code.bits, every_row.bits)
    assert np.array_equal(code.mask, every_row.mask)


def test_encode_is_deterministic():
    rng = np.random.default_rng(83)
    img = rng.uniform(size=(6, 48))
    a = encode(img)
    b = encode(img)
    assert np.array_equal(a.bits, b.bits) and np.array_equal(a.mask, b.mask)


def test_spec_validation():
    with pytest.raises(ValueError):
        LogGaborSpec(wavelength=2.0).validate()
    with pytest.raises(ValueError):
        LogGaborSpec(sigma_ratio=1.0).validate()


# ---------------------------------------------------------------- hamming


def test_hamming_identical_and_complement():
    rng = np.random.default_rng(84)
    code = random_bitcode(rng, mask_p=1.0)
    assert masked_hamming(code, code) == 0.0
    flipped = Bitcode(1 - code.bits, code.mask.copy())
    assert masked_hamming(code, flipped) == 1.0


def test_hamming_random_pairs_match_loop():
    rng = np.random.default_rng(85)
    for _ in range(50):
        a = random_bitcode(rng, h=2, w=16)
        b = random_bitcode(rng, h=2, w=16)
        try:
            want = hamming_loop(a, b)
        except EmptyMaskError:
            with pytest.raises(EmptyMaskError):
                masked_hamming(a, b)
            continue
        assert masked_hamming(a, b) == want


def test_hamming_symmetry():
    rng = np.random.default_rng(86)
    a = random_bitcode(rng)
    b = random_bitcode(rng)
    assert masked_hamming(a, b) == masked_hamming(b, a)


def test_hamming_empty_joint_mask():
    bits = np.zeros((2, 8), dtype=np.uint8)
    a = Bitcode(bits, np.zeros_like(bits))
    b = Bitcode(bits, np.ones_like(bits))
    with pytest.raises(EmptyMaskError, match="no comparable bits"):
        masked_hamming(a, b)


def test_hamming_shape_mismatch():
    a = random_bitcode(np.random.default_rng(0), w=8)
    b = random_bitcode(np.random.default_rng(0), w=9)
    with pytest.raises(ValueError, match="shapes"):
        masked_hamming(a, b)


# ---------------------------------------------------------------- shifts


def test_exact_rotation_recovered():
    rng = np.random.default_rng(87)
    a = random_bitcode(rng, h=3, w=24, mask_p=1.0)
    b = shift_bitcode(a, 3)  # b = a rotated by +3 columns
    score, shift = match_with_shifts(a, b, 5)
    assert score == 0.0
    assert shift == -3


def test_zero_max_shift_equals_plain_hamming():
    rng = np.random.default_rng(88)
    a = random_bitcode(rng)
    b = random_bitcode(rng)
    score, shift = match_with_shifts(a, b, 0)
    assert shift == 0
    assert score == masked_hamming(a, b)


def test_shift_search_matches_exhaustive_loop():
    rng = np.random.default_rng(89)
    for _ in range(30):
        a = random_bitcode(rng, h=2, w=12)
        b = random_bitcode(rng, h=2, w=12)
        want = shift_sweep_loop(a, b, 4)
        got = match_with_shifts(a, b, 4)
        assert got == want


def test_tie_breaking_smallest_then_negative():
    # identical codes: every shift scores 0, the smallest |shift| (0) wins
    rng = np.random.default_rng(90)
    a = random_bitcode(rng, mask_p=1.0)
    assert match_with_shifts(a, a, 4)[1] == 0

    # a hot at sample columns {1, 4}, b hot at {2, 3}: shifts -1 and +1 each
    # recover one column (score 4/16) while shift 0 recovers none (8/16)
    bits_a = np.zeros((1, 16), dtype=np.uint8)
    bits_a[0, [2, 3, 8, 9]] = 1
    bits_b = np.zeros_like(bits_a)
    bits_b[0, [4, 5, 6, 7]] = 1
    a = Bitcode(bits_a, np.ones_like(bits_a))
    b = Bitcode(bits_b, np.ones_like(bits_b))
    assert masked_hamming(a, shift_bitcode(b, -1)) == masked_hamming(a, shift_bitcode(b, 1))
    assert masked_hamming(a, shift_bitcode(b, -1)) < masked_hamming(a, b)
    score, shift = match_with_shifts(a, b, 1)
    assert score == masked_hamming(a, shift_bitcode(b, -1))
    assert shift == -1


def test_min_over_shifts_never_worse_than_zero_shift():
    rng = np.random.default_rng(91)
    for _ in range(20):
        a = random_bitcode(rng, h=2, w=10)
        b = random_bitcode(rng, h=2, w=10)
        assert match_with_shifts(a, b, 3)[0] <= masked_hamming(a, b)


def test_shift_consistency():
    rng = np.random.default_rng(92)
    a = random_bitcode(rng, h=3, w=16, mask_p=1.0)
    b = random_bitcode(rng, h=3, w=16, mask_p=1.0)
    base_score, base_shift = match_with_shifts(a, b, 6)
    for k in (-2, 1, 2):
        if abs(base_shift - k) <= 6:
            score, shift = match_with_shifts(a, shift_bitcode(b, k), 6)
            assert score == base_score
            assert shift == base_shift - k


def test_max_shift_validation():
    a = random_bitcode(np.random.default_rng(93), w=8)
    with pytest.raises(ValueError):
        match_with_shifts(a, a, 8)
    with pytest.raises(ValueError):
        match_with_shifts(a, a, -1)


# ---------------------------------------------------------------- packed kernel


@st.composite
def code_sets(draw):
    """A few same-shape codes, sample widths around the 64-bit word edges,
    and pairs.  Each mask is random (sparse, some or all shifts empty, to
    full) or row-uniform like ``encode``'s (full, or with empty rows), so a
    set may mix codes of the row-level path with codes of the per-shift
    path; some sets hold a row-uniform pair with no valid row in common."""
    h = draw(st.integers(1, 3))
    w = draw(st.sampled_from([2, 3, 16, 31, 32, 33, 40, 64, 70]))
    max_shift = draw(st.integers(0, min(w - 1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["random", "full", "empty-rows"]))
        if kind == "random":
            mask_p = draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))
            codes.append(random_bitcode(rng, h=h, w=w, mask_p=mask_p))
        else:
            valid = np.ones(h, bool) if kind == "full" else rng.random(h) < 0.5
            codes.append(row_uniform_bitcode(rng, valid, w))
    pairs = rng.integers(0, len(codes), size=(draw(st.integers(1, 6)), 2))
    if draw(st.integers(0, 3)) == 0:
        valid = rng.random(h) < 0.5
        codes += [row_uniform_bitcode(rng, valid, w), row_uniform_bitcode(rng, ~valid, w)]
        at = draw(st.integers(0, len(pairs)))
        pairs = np.insert(pairs, at, [len(codes) - 2, len(codes) - 1], axis=0)
    return codes, pairs, max_shift


def loop_or_empty(a, b, max_shift):
    try:
        return shift_sweep_loop(a, b, max_shift)
    except EmptyMaskError:
        return None


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(code_sets())
def test_packed_kernel_matches_shift_sweep_loop(case):
    codes, pairs, max_shift = case
    want = [loop_or_empty(codes[i], codes[j], max_shift) for i, j in pairs]
    for (i, j), w in zip(pairs, want):
        if w is None:
            with pytest.raises(EmptyMaskError):
                match_with_shifts(codes[i], codes[j], max_shift)
        else:
            assert match_with_shifts(codes[i], codes[j], max_shift) == w
    if any(w is None for w in want):
        first = next(k for k, w in enumerate(want) if w is None)
        with pytest.raises(EmptyMaskError, match=f"^pair {first}: no comparable bits at any "
                                                 f"of the {2 * max_shift + 1} shifts$"):
            match_pairs(codes, pairs, max_shift)
        return
    scores, shifts = match_pairs(iter(codes), pairs, max_shift)
    assert scores.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert shifts.tolist() == [w[1] for w in want]
    if max_shift == 0:
        assert scores.tolist() == [hamming_loop(codes[i], codes[j]) for i, j in pairs]


def test_row_level_and_per_shift_chunks_of_one_second_code(monkeypatch):
    """Chunks of two pairs against one second code: the chunks with a
    partly valid first code take the per-shift path, the others the
    row-level path, and only the per-shift chunks rotate the second mask."""
    rng = np.random.default_rng(97)
    h, w, max_shift = 3, 40, 4
    codes = [row_uniform_bitcode(rng, [True, False, True], w),       # the second code
             row_uniform_bitcode(rng, [True, True, True], w),
             row_uniform_bitcode(rng, [False, True, True], w),
             random_bitcode(rng, h=h, w=w, mask_p=0.7)]
    pairs = [(1, 0), (2, 0), (3, 0), (1, 0), (0, 0), (2, 0)]
    rotated = []
    rotations = iriscode._rotations
    monkeypatch.setattr(iriscode, "_rotations",
                        lambda words, n_bits, shifts: rotated.append(len(shifts))
                        or rotations(words, n_bits, shifts))
    # row-uniform codes only: each second code's bits are rotated, no mask
    match_pairs(codes[:3], [(i, j) for i in range(3) for j in range(3)], max_shift)
    assert rotated.count(2 * max_shift + 1) == 3
    rotated.clear()
    words = 2                                   # per row of 80 bits
    monkeypatch.setattr(iriscode, "_PAIR_BUDGET", 2 * (2 * max_shift + 1) * h * words)
    scores, shifts = match_pairs(codes, pairs, max_shift)
    want = [shift_sweep_loop(codes[i], codes[j], max_shift) for i, j in pairs]
    assert scores.tobytes() == np.array([s for s, _ in want]).tobytes()
    assert shifts.tolist() == [s for _, s in want]
    # the second code's bits once, its mask for the one chunk, (3, 0) and
    # (1, 0), that holds the partly valid code
    assert rotated.count(2 * max_shift + 1) == 2


def test_bad_max_shift_refused_before_codes_are_read():
    a = random_bitcode(np.random.default_rng(98), w=8)

    def codes(n_readable):
        for _ in range(n_readable):
            yield a
        raise AssertionError("a code was read past the refusal")

    with pytest.raises(ValueError, match="max shift must be non-negative, got -1"):
        match_pairs(codes(0), [(0, 1)], -1)
    with pytest.raises(ValueError, match="max shift 8 must be smaller than width 8"):
        match_pairs(codes(1), [(0, 1)], 8)
    assert match_with_shifts(a, a, 7) == (0.0, 0)


def test_packed_kernel_skips_empty_shifts():
    # one valid sample in each code: only the shift that lines them up
    # shares any bits, so every other shift is skipped, not scored
    bits = np.zeros((2, 2 * 40), dtype=np.uint8)
    mask_a, mask_b = np.zeros_like(bits), np.zeros_like(bits)
    mask_a[1, 2 * 30:2 * 30 + 2] = 1
    mask_b[1, 2 * 33:2 * 33 + 2] = 1
    b_bits = bits.copy()
    b_bits[1, 2 * 33] = 1
    a, b = Bitcode(bits, mask_a), Bitcode(b_bits, mask_b)
    assert match_with_shifts(a, b, 3) == (0.5, -3) == shift_sweep_loop(a, b, 3)
    with pytest.raises(EmptyMaskError, match="pair 1: no comparable bits at any of the 5 shifts"):
        match_pairs([a, b], [(1, 1), (0, 1)], 2)


def test_packed_kernel_rejects_bad_input():
    a = random_bitcode(np.random.default_rng(95), w=8)
    b = random_bitcode(np.random.default_rng(96), w=9)
    with pytest.raises(ValueError, match="shapes"):
        match_pairs([a, b], [(0, 1)], 2)
    with pytest.raises(IndexError):
        match_pairs([a, a], [(0, 2)], 2)
    with pytest.raises(ValueError, match="no pairs to score"):
        match_pairs([a], np.empty((0, 2), dtype=int), 2)


def scorer_oracle(store, pairs, spec, max_shift):
    codes = [encode(img, spec=spec) for img in store.images]
    return np.array([shift_sweep_loop(codes[q], codes[r], max_shift)[0] for q, r in pairs])


def test_bitcode_scorer_bitwise_equals_loop_on_synthetic_store():
    store = generate(SynthSpec(identities=3, images_per_identity=2, height=8, width=40,
                               noise_sigma=0.05, occlusion_prob=0.5, seed=11))
    spec = LogGaborSpec(wavelength=8.0, sigma_ratio=0.5, row_step=2)
    pairs = enumerate_pairs(store)
    scorer = BitcodeScorer(spec, max_shift=3)
    scores = collect_scores(scorer, store, pairs)
    want_auth = scorer_oracle(store, pairs.authentic, spec, 3)
    want_imp = scorer_oracle(store, pairs.imposter, spec, 3)
    assert scores.authentic.tobytes() == want_auth.tobytes()
    assert scores.imposter.tobytes() == want_imp.tobytes()


def test_bitcode_scorer_bitwise_equals_loop_with_an_encoded_partly_valid_row():
    """``encode`` makes a partly valid mask row where two tones of equal
    filtered amplitude null the envelope: row 4 of a random 16x64 image
    masks one sample, 2 of row 2's 128 bits.  The pairs of that code take
    the per-shift path, the others the row-level one, and every score is the
    masked Hamming shift sweep's, bit for bit."""
    rng = np.random.default_rng(12)
    images = rng.uniform(size=(6, 16, 64))
    images[0] = with_a_masked_null(images[0], row=4)
    codes = [encode(img) for img in images]
    assert codes[0].mask.sum(axis=1).tolist() == [128, 128, 126] + [128] * 5
    assert all(c.mask.all() for c in codes[1:])
    store = IdentityStore(images, np.repeat([0, 1, 2], 2), ["a", "b", "c"])
    pairs = enumerate_pairs(store)
    scores = collect_scores(BitcodeScorer(LogGaborSpec(), max_shift=4), store, pairs)
    for got, want in ((scores.authentic, pairs.authentic), (scores.imposter, pairs.imposter)):
        oracle = [shift_sweep_loop(codes[q], codes[r], 4, hamming=masked_hamming)[0]
                  for q, r in want]
        assert got.tobytes() == np.array(oracle).tobytes()


@pytest.fixture(scope="module")
def occluded_full_store():
    """Six images at the paper's 110x512, three with eyelid bands (constant
    rows)."""
    return generate(SynthSpec(identities=3, images_per_identity=2, occlusion_prob=0.5,
                              seed=13))


def test_encode_equals_strided_interleave_at_full_geometry(occluded_full_store):
    """One comparison on the interleaved response gives the bits and mask
    of the strided writes, rows of an exactly zero response included."""
    images = list(occluded_full_store.images)
    flat = images[0].copy()
    flat[[0, 1, 50, 109]] = 0.25                  # rows whose response is exactly 0
    for img in images + [flat]:
        got, want = encode(img), strided_bitcode(img)
        assert got.bits.dtype == got.mask.dtype == np.uint8
        assert got.bits.shape == want.bits.shape == (55, 1024)
        assert np.array_equal(got.bits, want.bits) and np.array_equal(got.mask, want.mask)
    response_rows = np.fft.ifft(np.fft.fft(flat[[0, 50]], axis=1)
                                * log_gabor_transfer(512, LogGaborSpec()), axis=1)
    assert not response_rows.any()
    assert not encode(flat).mask[[0, 25]].any()


def test_bitcode_scorer_bitwise_equals_loop_at_full_geometry(occluded_full_store):
    """Every code is row-uniform, full or with empty rows, so every pair
    takes the row-level path; the scores are the per-shift masked Hamming
    sweep's, bit for bit."""
    store, spec = occluded_full_store, LogGaborSpec()
    codes = [encode(img, spec=spec) for img in store.images]
    rows = [c.mask.all(axis=1) for c in codes]
    assert all(np.array_equal(c.mask.any(axis=1), r) for c, r in zip(codes, rows))
    assert sum(r.all() for r in rows) == sum(not r.all() for r in rows) == 3
    pairs = enumerate_pairs(store)
    scores = collect_scores(BitcodeScorer(spec, max_shift=8), store, pairs)
    for got, want in ((scores.authentic, pairs.authentic), (scores.imposter, pairs.imposter)):
        oracle = [shift_sweep_loop(codes[q], codes[r], 8, hamming=masked_hamming)[0]
                  for q, r in want]
        assert got.tobytes() == np.array(oracle).tobytes()
