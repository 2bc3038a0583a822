"""Binary checkpoint format for models and optimizer state.

Layout (all integers little-endian):

    magic "IMCN" | version u16 | meta_len u32 | meta UTF-8 JSON |
    n_records u32 | records...

Each record: name_len u16, name UTF-8, dtype tag u8 (0 = float64,
1 = float32), rank u8, extents rank x u32, then the IEEE-754 payload in
little-endian row-major order.  Save -> load -> save round-trips to
byte-identical files.

Optimizer state uses the same container with magic "IMOS".
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MODEL_MAGIC = b"IMCN"
OPTIM_MAGIC = b"IMOS"
FORMAT_VERSION = 1

_DTYPE_TAGS = {np.dtype("float64"): 0, np.dtype("float32"): 1}
_TAG_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


class CheckpointError(ValueError):
    """Raised on malformed or mismatched checkpoint files."""


@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open ``<path>.tmp`` for writing and rename it over ``path`` when the
    block completes; if the block raises, the temp file is removed and
    ``path`` keeps its previous content."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_records(path, magic, meta, records):
    """records: iterable of (name, ndarray).  The write is atomic (``atomic_open``)."""
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    records = list(records)
    with atomic_open(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(records)))
        for name, arr in records:
            if arr.dtype not in _DTYPE_TAGS:
                raise CheckpointError(f"unsupported dtype {arr.dtype} for record {name!r}")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", _DTYPE_TAGS[arr.dtype]))
            fh.write(struct.pack("<B", arr.ndim))
            for ext in arr.shape:
                fh.write(struct.pack("<I", ext))
            fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


class _Reader:
    """Bounds-checked cursor over a checkpoint's bytes."""

    def __init__(self, raw, path):
        self.raw, self.path, self.off = raw, path, 0

    def take(self, size, what):
        if size > len(self.raw) - self.off:
            raise CheckpointError(
                f"{self.path}: truncated at offset {self.off}: {what} needs {size} bytes, "
                f"{len(self.raw) - self.off} left")
        start = self.off
        self.off += size
        return self.raw[start:self.off]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, size, what):
        at = self.off
        try:
            return str(self.take(size, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: {what} at offset {at} is not UTF-8") from exc


def read_records(path, magic):
    """(meta, name -> array) of a checkpoint file.  On a little-endian host
    the arrays are read-only views of the file's bytes, not copies: callers
    copy them into arrays they own (``IrisMatchModel.restore``,
    ``Adam.load_moments``)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise CheckpointError(f"bad magic in {path}: {raw[:4]!r}, expected {magic!r}")
    rd = _Reader(memoryview(raw), path)
    rd.take(4, "magic")
    (version,) = rd.unpack("<H", "version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = rd.unpack("<I", "meta length")
    meta_at = rd.off
    try:
        meta = json.loads(rd.text(meta_len, "meta"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: meta at offset {meta_at} is not JSON ({exc})") from exc
    (n_records,) = rd.unpack("<I", "record count")
    records = {}
    for _ in range(n_records):
        (name_len,) = rd.unpack("<H", "record name length")
        name = rd.text(name_len, "record name")
        tag, rank = rd.unpack("<BB", f"dtype and rank of {name!r}")
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"{path}: unknown dtype tag {tag} for record {name!r}")
        extents = rd.unpack(f"<{rank}I", f"extents of {name!r}")
        dtype = _TAG_DTYPES[tag]
        payload = rd.take(math.prod(extents) * dtype.itemsize, f"payload of {name!r}")
        arr = np.frombuffer(payload, dtype=dtype).reshape(extents)
        records[name] = arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))
    if rd.off != len(raw):
        raise CheckpointError(f"{len(raw) - rd.off} trailing bytes in {path}")
    return meta, records


def save_model(model, path):
    """Write the model's architecture descriptor and every parameter/buffer."""
    write_records(path, MODEL_MAGIC, model.config.to_dict(), model.state_items())


def load_model(path):
    """Rebuild a model from a checkpoint; outputs match the saved model bitwise.

    The model is built from the stored architecture with no RNG draws, then
    ``restore`` fills every parameter and buffer from its record."""
    from .matcher import IrisMatchModel, ModelConfig

    meta, records = read_records(path, MODEL_MAGIC)
    try:
        model = IrisMatchModel(ModelConfig.from_dict(meta))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad architecture in meta: {exc!r}") from exc
    expected = dict(model.state_items())
    if set(expected) != set(records):
        missing = set(expected) - set(records)
        extra = set(records) - set(expected)
        raise CheckpointError(
            f"{path}: record mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, arr in expected.items():
        if records[name].shape != arr.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}")
    model.restore(records)
    return model


def save_optimizer(optimizer, path):
    meta = {"type": "adam", "step": optimizer.step_count, "lr": optimizer.lr,
            "beta1": optimizer.beta1, "beta2": optimizer.beta2, "eps": optimizer.eps}
    records = []
    for name in sorted(optimizer.m):
        records.append((f"{name}.m", optimizer.m[name]))
        records.append((f"{name}.v", optimizer.v[name]))
    write_records(path, OPTIM_MAGIC, meta, records)


def load_optimizer_state(path):
    """Returns (meta, moments) where moments maps parameter name -> (m, v)."""
    meta, records = read_records(path, OPTIM_MAGIC)
    moments = {}
    for key, arr in records.items():
        name, dot, kind = key.rpartition(".")
        if not (dot and name and kind in ("m", "v")):
            raise CheckpointError(f"{path}: record {key!r} is not <parameter>.m or <parameter>.v")
        moments.setdefault(name, [None, None])["mv".index(kind)] = arr
    for name, (m, v) in moments.items():
        if m is None or v is None or m.shape != v.shape:
            raise CheckpointError(f"{path}: {name!r} needs a .m and a .v record of one shape")
    return meta, {k: tuple(v) for k, v in moments.items()}
