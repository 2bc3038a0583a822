"""Tests for vertical resizing and image file I/O."""

import numpy as np
import pytest

from irismatch.iris_io import (FileFormatError, read_image, read_iris_raw, read_pgm,
                               write_iris_raw, write_pgm)
from irismatch.normalize import resize_vertical


# ---------------------------------------------------------------- resize


def test_resize_two_rows_to_three():
    img = np.array([[0.0], [1.0]])
    out = resize_vertical(img, 3)
    assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_resize_identity():
    rng = np.random.default_rng(70)
    img = rng.uniform(size=(11, 7))
    assert np.array_equal(resize_vertical(img, 11), img)


def test_resize_64_to_110_preserves_monotonicity():
    rng = np.random.default_rng(71)
    cols = np.sort(rng.uniform(size=(64, 9)), axis=0)
    out = resize_vertical(cols, 110)
    assert out.shape == (110, 9)
    assert np.all(np.diff(out, axis=0) >= -1e-15)


def test_resize_preserves_column_bounds():
    rng = np.random.default_rng(72)
    img = rng.uniform(size=(9, 5))
    out = resize_vertical(img, 23)
    assert np.all(out.max(axis=0) <= img.max(axis=0) + 1e-15)
    assert np.all(out.min(axis=0) >= img.min(axis=0) - 1e-15)
    assert np.allclose(out[0], img[0]) and np.allclose(out[-1], img[-1])


def test_resize_target_too_small():
    with pytest.raises(ValueError):
        resize_vertical(np.zeros((4, 4)), 1)


# ---------------------------------------------------------------- file I/O


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(73)
    img = rng.uniform(size=(6, 9))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + body)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert np.allclose(img, np.arange(6).reshape(2, 3) / 255)


def test_pgm_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(FileFormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(FileFormatError, match="truncated"):
        read_pgm(path)


def test_iris_raw_round_trip(tmp_path):
    rng = np.random.default_rng(74)
    img = rng.uniform(size=(5, 8)).astype(np.float32).astype(np.float64)
    path = tmp_path / "a.iris"
    write_iris_raw(path, img)
    back = read_iris_raw(path)
    assert np.array_equal(back, img)  # float32 values survive exactly
    with open(path, "rb") as fh:
        assert fh.readline() == b"IRIS 5 8\n"


def test_read_image_sniffs_formats(tmp_path):
    img = np.random.default_rng(75).uniform(size=(4, 6))
    p1 = tmp_path / "x.pgm"
    p2 = tmp_path / "x.iris"
    write_pgm(p1, img)
    write_iris_raw(p2, img)
    assert read_image(p1).shape == (4, 6)
    assert read_image(p2).shape == (4, 6)
    p3 = tmp_path / "x.bin"
    p3.write_bytes(b"JUNKDATA")
    with pytest.raises(FileFormatError):
        read_image(p3)
