"""Classical bitcode pipeline: 1-D log-Gabor encoding and masked Hamming matching.

Selected rows of the normalized iris are filtered circularly along the
angular axis by a one-sided log-Gabor transfer function; the signs of the
real and imaginary response parts give two phase bits per sample.  Matching
is the fraction of differing bits among jointly valid positions, minimized
over circular column shifts to compensate eye rotation.

Shift convention: shifting a bitcode by +k moves its content toward larger
column indices (numpy.roll semantics), so if b equals a rotated by +k
columns, the best alignment of b against a is found at shift -k.  Shifts
are tried in the order 0, -1, +1, -2, +2, ..., and a later shift replaces
the best one only with a strictly lower score, so ties prefer the smallest
|shift|, then the negative one.

Packed layout (``match_pairs``): each row of H' x 2W' bits or mask bits is
packed little-endian-first into ceil(2W'/64) uint64 words, the bits past
2W' in the last word set to 0, and the rows are laid end to end, so a code
is L = H' * ceil(2W'/64) words.  A circular shift of k samples rotates every
row by 2k bits; it is cut from the packed doubled row (the row written
twice), so shifting never unpacks.  The second code's bits are packed at
every shift, (2 * max_shift + 1, L) words.

Row-level joint mask: ``encode`` masks a sample whose magnitude falls far
under its row's peak.  An occluded row is constant, so its response is 0
and all of it is masked, while a textured row's magnitude does not fall
that far, so the row is valid throughout.  Each row of an encoded mask is
then all valid or all empty (row-uniform), and a shift, which moves samples
within rows, leaves such a mask unchanged.  The joint mask of two
row-uniform codes is the same at every shift: the pair's total is 2W' times
the rows valid in both, and its differing bits at a shift are the popcounts
of ``bits_a ^ bits_b`` summed over those rows (the popcounts of the other
rows zeroed by one AND, skipped when both masks are full).  A chunk of
pairs that holds a code with a partly valid row takes the per-shift path:
the second mask is packed at every shift too, and the counts are popcounts
of ``(bits_a ^ bits_b) & mask_a & mask_b`` and of ``mask_a & mask_b``.  No
synthetic image measured so far encodes to such a code, but a ``Bitcode``
built another way may hold one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAGNITUDE_FLOOR = 1e-4
# absolute guard for rows whose response is numerically zero everywhere
_ABS_FLOOR = 1e-12

# uint64 words per scratch array of the packed matcher (512 KB); pairs are
# scored a few at a time so the scratch arrays stay in cache
_PAIR_BUDGET = 1 << 16


class EmptyMaskError(ValueError):
    """Raised when two bitcodes share no comparable bits."""


@dataclass(frozen=True)
class LogGaborSpec:
    """1-D log-Gabor parameters: center wavelength (px), bandwidth ratio
    sigma/f0, and the row subsampling factor."""

    wavelength: float = 18.0
    sigma_ratio: float = 0.5
    row_step: int = 2

    def validate(self):
        if self.wavelength < 3:
            raise ValueError(f"wavelength must be >= 3 px, got {self.wavelength}")
        if not 0.0 < self.sigma_ratio < 1.0:
            raise ValueError(f"sigma ratio must be in (0, 1), got {self.sigma_ratio}")
        if self.row_step < 1:
            raise ValueError(f"row step must be positive, got {self.row_step}")


@dataclass
class Bitcode:
    """bits and mask are (H', 2*W') uint8 matrices; column 2j holds the real
    phase bit of sample j and column 2j+1 the imaginary one."""

    bits: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.bits.shape != self.mask.shape:
            raise ValueError(f"bits {self.bits.shape} and mask {self.mask.shape} disagree")


def log_gabor_transfer(width, spec: LogGaborSpec):
    """One-sided frequency response on an FFT grid of ``width`` samples.

    G(f) = exp(-(ln(f/f0))^2 / (2 ln(sigma/f0)^2)) for f = k/width,
    k = 1..width//2; G(0) = 0 (zero DC gain) and the negative-frequency
    half is zero, which makes the filtered signal complex-analytic.
    """
    spec.validate()
    transfer = np.zeros(width)
    f0 = 1.0 / spec.wavelength
    k = np.arange(1, width // 2 + 1)
    f = k / width
    transfer[1:width // 2 + 1] = np.exp(-np.log(f / f0) ** 2 / (2.0 * np.log(spec.sigma_ratio) ** 2))
    return transfer


def encode(img, spec: LogGaborSpec = LogGaborSpec()):
    """Encode a normalized iris (H, W) into a Bitcode.

    Mask bits are cleared where the response magnitude falls under
    MAGNITUDE_FLOOR times the row's peak magnitude (sign bits of near-zero
    responses are noise).  The bits are one comparison on the complex
    response viewed as interleaved real and imaginary parts, and the mask
    is each sample's flag written twice.
    """
    spec.validate()
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")

    rows = img[::spec.row_step]
    transfer = log_gabor_transfer(img.shape[1], spec)
    response = np.fft.ifft(np.fft.fft(rows, axis=1) * transfer[None, :], axis=1)

    magnitude = np.abs(response)
    floor = np.maximum(MAGNITUDE_FLOOR * magnitude.max(axis=1, keepdims=True), _ABS_FLOOR)
    valid = magnitude >= floor

    # a complex row viewed as float64 is its real and imaginary parts
    # interleaved, which is the bit layout
    bits = (response.view(np.float64) > 0).view(np.uint8)
    return Bitcode(bits, np.repeat(valid, 2, axis=1).view(np.uint8))


def masked_hamming(a: Bitcode, b: Bitcode):
    """Fraction of differing bits among positions valid in both codes."""
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"bitcode shapes disagree: {a.bits.shape} vs {b.bits.shape}")
    joint = (a.mask & b.mask).astype(bool)
    total = int(joint.sum())
    if total == 0:
        raise EmptyMaskError("no comparable bits: joint mask is empty")
    differ = int(((a.bits != b.bits) & joint).sum())
    return differ / total


def _pack_doubled(rows):
    """Pack (H', B) 0/1 rows, each written twice, into uint64 words:
    (H', 2 * ceil(B/64) + 1), zero past the 2B bits."""
    h, n_bits = rows.shape
    words = -(-n_bits // 64)
    doubled = np.zeros((h, 64 * (2 * words + 1)), dtype=np.uint8)
    doubled[:, :n_bits] = rows
    doubled[:, n_bits:2 * n_bits] = rows
    return np.packbits(doubled, axis=-1, bitorder="little").view("<u8")


def _rotations(doubled, n_bits, shifts):
    """Every row rotated by 2*s bits for s in ``shifts`` (numpy.roll
    semantics on sample columns): (..., len(shifts), L) uint64 words with
    the bits past ``n_bits`` in each row's last word cleared."""
    words = -(-n_bits // 64)
    # rotated bit j is doubled bit (j - 2s) mod n_bits: a window at 64q + r
    q, r = np.divmod(-2 * np.asarray(shifts) % n_bits, 64)
    cols = q[:, None] + np.arange(words)
    r = r[:, None].astype(np.uint64)
    # (x << 1) << (63 - r) is x << (64 - r), and 0 at r == 0, with no shift by 64
    win = (doubled[..., cols] >> r) | ((doubled[..., cols + 1] << np.uint64(1)) << (63 - r))
    win[..., -1] &= np.uint64((1 << (n_bits - 64 * (words - 1))) - 1)
    win = np.moveaxis(win, -2, -3)                  # (..., shifts, rows, words)
    return win.reshape(win.shape[:-2] + (-1,))


def match_pairs(codes, pairs, max_shift):
    """Minimum masked Hamming score over circular shifts of the second code
    in [-max_shift, +max_shift], for every pair (i, j) of indices into the
    iterable ``codes`` (read once, so it may encode lazily); same scores and
    shifts as ``match_with_shifts`` on each pair.

    A bad ``max_shift`` is refused before ``codes`` is read past its first
    code.  Each code is packed once per call and its mask rows classified
    (see the module docstring); pairs are grouped by their second code,
    whose shifted bits are packed once, and scored a few at a time at all
    shifts at once: with one joint mask for every shift when each code of
    the chunk is row-uniform, else with the second mask rotated per shift.
    Returns (scores, shifts) arrays; raises EmptyMaskError naming the first
    pair that has no comparable bits at any shift.
    """
    if max_shift < 0:
        raise ValueError(f"max shift must be non-negative, got {max_shift}")
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    scores = np.empty(len(pairs))
    best_shifts = np.empty(len(pairs), dtype=np.intp)
    if not len(pairs):
        return scores, best_shifts
    bits, mask, shape = [], [], None
    for code in codes:
        if shape is None:
            shape = code.bits.shape
            if max_shift >= shape[1] // 2:
                raise ValueError(f"max shift {max_shift} must be smaller than width "
                                 f"{shape[1] // 2}")
        if code.bits.shape != shape:
            raise ValueError(f"bitcode shapes disagree: {shape} vs {code.bits.shape}")
        bits.append(_pack_doubled(code.bits))
        mask.append(_pack_doubled(code.mask))
    if pairs.min() < 0 or pairs.max() >= len(bits):
        raise IndexError(f"pair references a code outside 0..{len(bits) - 1}")
    n_bits = shape[1]

    shifts = np.array([0] + [sign * s for s in range(1, max_shift + 1) for sign in (-1, 1)])
    bits, mask = np.stack(bits), np.stack(mask)
    bits_a = _rotations(bits, n_bits, [0])[:, 0]
    mask_a = _rotations(mask, n_bits, [0])[:, 0]
    # a row is valid when all its mask bits are set, empty when none is;
    # a code is row-uniform when every row is one or the other
    words = -(-n_bits // 64)
    row_set = np.bitwise_count(mask_a.reshape(len(mask_a), -1, words)).sum(axis=-1)
    row_valid = row_set == n_bits
    uniform = (row_valid | (row_set == 0)).all(axis=-1)
    row_bytes = np.where(row_valid, np.uint8(0xFF), np.uint8(0))

    per_pair = len(shifts) * bits_a.shape[1]
    chunk = max(1, _PAIR_BUDGET // per_pair)
    joint = np.empty((chunk, len(shifts), bits_a.shape[1]), dtype=np.uint64)
    differ = np.empty_like(joint)
    counts = np.empty(joint.shape, dtype=np.uint8)

    order = np.argsort(pairs[:, 1], kind="stable")
    second = pairs[order, 1]
    starts = np.flatnonzero(np.r_[True, second[1:] != second[:-1]])
    for start, stop in zip(starts, np.r_[starts[1:], len(order)]):
        j = second[start]
        bits_b = _rotations(bits[j], n_bits, shifts)
        mask_b = None
        for lo in range(start, stop, chunk):
            sel = order[lo:min(lo + chunk, stop)]
            first = pairs[sel, 0]
            k = len(sel)
            df = np.bitwise_xor(bits_a[first][:, None], bits_b, out=differ[:k])
            # a count is at most 64 * L, far inside uint32
            if uniform[j] and uniform[first].all():
                joint_rows = row_bytes[first] & row_bytes[j]
                cnt = np.bitwise_count(df, out=counts[:k])
                if not joint_rows.all():
                    cnt &= np.repeat(joint_rows, words, axis=1)[:, None]
                n_differ = np.add.reduce(cnt, axis=-1, dtype=np.uint32)
                n_total = n_bits * np.count_nonzero(joint_rows, axis=1)[:, None]
            else:
                if mask_b is None:
                    mask_b = _rotations(mask[j], n_bits, shifts)
                jt = np.bitwise_and(mask_a[first][:, None], mask_b, out=joint[:k])
                df &= jt
                n_differ = np.add.reduce(np.bitwise_count(df, out=counts[:k]), axis=-1,
                                         dtype=np.uint32)
                n_total = np.add.reduce(np.bitwise_count(jt, out=counts[:k]), axis=-1,
                                        dtype=np.uint32)
            # exact: both counts convert to float64 exactly, as in differ / total
            score = np.divide(n_differ, n_total, out=np.full(n_differ.shape, np.inf),
                              where=n_total > 0)
            pick = score.argmin(axis=1)             # first minimum in shift order
            scores[sel] = score[np.arange(k), pick]
            best_shifts[sel] = shifts[pick]
    empty = np.flatnonzero(np.isinf(scores))
    if empty.size:
        raise EmptyMaskError(f"pair {empty[0]}: no comparable bits at any of the "
                             f"{len(shifts)} shifts")
    return scores, best_shifts


def match_with_shifts(a: Bitcode, b: Bitcode, max_shift):
    """Minimum masked Hamming score over circular shifts of b in
    [-max_shift, +max_shift].  Ties prefer the smallest |shift|, then the
    negative one.  Returns (score, shift)."""
    scores, shifts = match_pairs([a, b], [(0, 1)], max_shift)
    return float(scores[0]), int(shifts[0])
