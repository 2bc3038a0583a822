"""File formats: 8-bit binary PGM (P5) rasters and raw float32 iris images.

The raw format is a one-line ASCII header ``IRIS <H> <W>\\n`` followed by
H*W little-endian IEEE-754 float32 values in row-major order.
"""

from __future__ import annotations

import numpy as np


class FileFormatError(ValueError):
    """Raised on malformed image files."""


IRIS_MAGIC = b"IRIS"


def write_pgm(path, image):
    """Write an array to 8-bit P5.  Floats in [0, 1] are scaled to 0..255."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise FileFormatError(f"PGM needs a 2-D array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path):
    """Read an 8-bit P5 file to a float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise FileFormatError(f"{path}: not a binary PGM (P5) file")
    # header tokens: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FileFormatError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad PGM header") from exc
    if w < 1 or h < 1:
        raise FileFormatError(f"{path}: PGM extents {w}x{h} are not positive")
    if maxval > 255 or maxval < 1:
        raise FileFormatError(f"{path}: unsupported maxval {maxval} (8-bit only)")
    if len(data) - pos < w * h:
        raise FileFormatError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    if pixels.max() > maxval:
        raise FileFormatError(f"{path}: pixel value {pixels.max()} exceeds maxval {maxval}")
    return pixels.reshape(h, w).astype(np.float64) / maxval


def write_iris_raw(path, image):
    """Write a normalized iris as 'IRIS H W' + float32 little-endian payload."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise FileFormatError(f"iris raw needs a 2-D array, got shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"IRIS {h} {w}\n".encode("ascii"))
        fh.write(arr.astype("<f4").tobytes())


def read_iris_raw(path):
    with open(path, "rb") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 3 or parts[0] != IRIS_MAGIC:
            raise FileFormatError(f"{path}: bad iris raw header {header!r}")
        try:
            h, w = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad iris raw extents") from exc
        if h < 1 or w < 1:
            raise FileFormatError(f"{path}: iris raw extents {h}x{w} are not positive")
        payload = fh.read()
    expected = h * w * 4
    if len(payload) != expected:
        raise FileFormatError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    image = np.frombuffer(payload, dtype="<f4").reshape(h, w).astype(np.float64)
    bad = np.count_nonzero(~np.isfinite(image))
    if bad:
        raise FileFormatError(f"{path}: {bad} pixel values are not finite")
    return image


def read_image(path):
    """Read either format by sniffing the magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] == b"P5":
        return read_pgm(path)
    if magic == IRIS_MAGIC:
        return read_iris_raw(path)
    raise FileFormatError(f"{path}: unknown image format (expected PGM P5 or IRIS raw)")
