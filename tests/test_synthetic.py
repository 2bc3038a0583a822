"""Tests for the synthetic iris generator and dataset store I/O."""

import os

import numpy as np
import pytest

from irismatch.iriscode import match_with_shifts, encode, LogGaborSpec
from irismatch.synthetic import SynthSpec, generate, read_store, write_store


def small_spec(**over):
    base = dict(identities=3, images_per_identity=3, height=16, width=64,
                texture_bands=4, rotation_range=3, noise_sigma=0.02,
                occlusion_prob=0.2, seed=5)
    base.update(over)
    return SynthSpec(**base)


def recover_shift(a, b):
    """argmax of circular cross-correlation along columns."""
    best, best_k = -np.inf, None
    for k in range(a.shape[1]):
        score = float((a * np.roll(b, -k, axis=1)).sum())
        if score > best:
            best, best_k = score, k
    w = a.shape[1]
    return best_k if best_k <= w // 2 else best_k - w


def test_noiseless_degenerate_spec():
    spec = small_spec(identities=2, images_per_identity=2, rotation_range=0,
                      noise_sigma=0.0, occlusion_prob=0.0)
    store = generate(spec)
    g = store.groups()
    assert np.array_equal(store.images[g[0][0]], store.images[g[0][1]])
    assert np.array_equal(store.images[g[1][0]], store.images[g[1][1]])
    assert not np.array_equal(store.images[g[0][0]], store.images[g[1][0]])


def test_images_are_exact_circular_shifts_without_noise():
    spec = small_spec(rotation_range=5, noise_sigma=0.0, occlusion_prob=0.0)
    store = generate(spec)
    for group in store.groups():
        ref = store.images[group[0]]
        for idx in group[1:]:
            s = recover_shift(ref, store.images[idx])
            assert abs(s) <= 10  # two shifts in [-5, 5] compose
            assert np.array_equal(store.images[idx], np.roll(ref, s, axis=1))


def test_same_seed_bitwise_identical():
    a = generate(small_spec())
    b = generate(small_spec())
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.identity_of, b.identity_of)
    c = generate(small_spec(seed=6))
    assert not np.array_equal(a.images, c.images)


def test_pixel_range():
    store = generate(small_spec(noise_sigma=0.2, occlusion_prob=0.5))
    assert store.images.min() >= 0.0
    assert store.images.max() <= 1.0


def test_identities_are_distinct_textures():
    spec = small_spec(identities=6, images_per_identity=1, rotation_range=0,
                      noise_sigma=0.0, occlusion_prob=0.0)
    store = generate(spec)
    imgs = store.images
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            frac = np.mean(np.abs(imgs[i] - imgs[j]) > 0.1)
            assert frac >= 0.10, (i, j, frac)


def test_default_spec_shape():
    spec = SynthSpec()
    assert spec.identities == 40 and spec.images_per_identity == 8
    assert (spec.height, spec.width) == (110, 512)
    spec.validate()


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(rotation_range=40).validate()   # >= width/2
    with pytest.raises(ValueError):
        small_spec(noise_sigma=-0.1).validate()
    with pytest.raises(ValueError):
        small_spec(identities=0).validate()
    with pytest.raises(ValueError, match="occlusion max rows"):
        small_spec(occlusion_max_rows=-1).validate()
    with pytest.raises(ValueError, match="seed must be non-negative"):
        small_spec(seed=-1).validate()


def test_baseline_anchor_same_identity_scores_zero():
    # noiseless, occlusion-free: authentic bitcode distance is 0 once the
    # shift search covers the rotation range
    spec = small_spec(identities=3, images_per_identity=3, rotation_range=3,
                      noise_sigma=0.0, occlusion_prob=0.0, height=16, width=64)
    store = generate(spec)
    gabor = LogGaborSpec(wavelength=18.0, sigma_ratio=0.5, row_step=2)
    codes = [encode(img, spec=gabor) for img in store.images]
    for group in store.groups():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                score, _ = match_with_shifts(codes[group[a]], codes[group[b]], 6)
                assert score == 0.0


def test_store_write_read_round_trip(tmp_path):
    store = generate(small_spec())
    root = tmp_path / "ds"
    manifest = write_store(store, root)
    assert os.path.basename(manifest) == "manifest.json"
    back = read_store(root)
    assert back.identity_ids == store.identity_ids
    assert np.array_equal(back.identity_of, store.identity_of)
    # float32 quantization on disk, exact once loaded back
    assert np.array_equal(back.images, store.images.astype(np.float32).astype(np.float64))
    assert (tmp_path / "ds" / "identity_000" / "img_000").exists()


def test_store_rewrite_is_byte_identical(tmp_path):
    store = generate(small_spec())
    r1 = tmp_path / "a"
    r2 = tmp_path / "b"
    write_store(store, r1)
    write_store(generate(small_spec()), r2)
    for sub in sorted(os.listdir(r1)):
        p1, p2 = r1 / sub, r2 / sub
        if p1.is_file():
            assert p1.read_bytes() == p2.read_bytes()
        else:
            for f in sorted(os.listdir(p1)):
                assert (p1 / f).read_bytes() == (p2 / f).read_bytes()


def test_read_store_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_store(tmp_path / "nope")
