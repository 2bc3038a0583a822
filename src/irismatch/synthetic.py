"""Seeded generator of synthetic identity-grouped normalized irises.

Each identity gets a base texture (random-frequency angular and radial
sinusoids plus a smooth random field, min-max scaled to [0, 1]).  Every
image of that identity is the base texture circularly shifted by a random
column offset (eye rotation), with optional additive Gaussian noise and
optional horizontal occlusion bands (eyelids).  Everything derives from the
seed, so regeneration is bitwise reproducible.

Angular wavelengths are drawn so the default log-Gabor center wavelength
(18 px) falls inside the generated band, which keeps the classical bitcode
baseline a meaningful comparator on this data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .data import IdentityStore, rng_stream
from .iris_io import read_iris_raw, write_iris_raw

# distinct identities must differ in >= 10% of pixels by > 0.1
_COLLISION_FRACTION = 0.10
_COLLISION_DELTA = 0.10

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class SynthSpec:
    identities: int = 40
    images_per_identity: int = 8
    height: int = 110
    width: int = 512
    texture_bands: int = 6
    rotation_range: int = 4
    noise_sigma: float = 0.05
    occlusion_prob: float = 0.3
    occlusion_max_rows: int = 0     # 0 means height // 8
    seed: int = 0

    def validate(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.identities < 1 or self.images_per_identity < 1:
            raise ValueError("identities and images per identity must be positive")
        if self.height < 2 or self.width < 4:
            raise ValueError(f"degenerate geometry {self.height}x{self.width}")
        if self.texture_bands < 1:
            raise ValueError("need at least one texture band")
        if not 0 <= self.rotation_range < self.width // 2:
            raise ValueError(f"rotation range {self.rotation_range} must be < width/2")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        if not 0.0 <= self.occlusion_prob <= 1.0:
            raise ValueError("occlusion probability must be in [0, 1]")
        if self.occlusion_max_rows < 0:
            raise ValueError(f"occlusion max rows must be non-negative (0: height/8), "
                             f"got {self.occlusion_max_rows}")

    @property
    def max_occlusion_rows(self):
        return self.occlusion_max_rows or max(1, self.height // 8)


def _base_texture(spec: SynthSpec, rng):
    """Sum of angular/radial sinusoid bands plus a smooth random field."""
    h, w = spec.height, spec.width
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    tex = np.zeros((h, w))

    # angular bands: integer cycle counts so the texture is seamless at the wrap;
    # wavelengths land in roughly [10, 36] px around the 18 px baseline default
    k_lo = max(1, int(round(w / 36.0)))
    k_hi = max(k_lo + 1, int(round(w / 10.0)))
    for _ in range(spec.texture_bands):
        k = int(rng.integers(k_lo, k_hi + 1))
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.5, 1.0)
        radial_wavelength = rng.uniform(h / 4.0, h)
        envelope = 0.6 + 0.4 * np.cos(2 * np.pi * rows / radial_wavelength + rng.uniform(0, 2 * np.pi))
        tex += amp * np.cos(2 * np.pi * k * cols / w + phase) * envelope

    # smooth field: a few low-frequency 2-D cosines
    for _ in range(4):
        kj = int(rng.integers(0, 4))
        ki = rng.uniform(0.0, 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        tex += rng.uniform(0.3, 0.8) * np.cos(
            2 * np.pi * (ki * rows / h + kj * cols / w) + phase)

    lo, hi = tex.min(), tex.max()
    return (tex - lo) / (hi - lo) if hi > lo else np.zeros_like(tex)


def _distinct(texture, accepted):
    return all(np.mean(np.abs(texture - other) > _COLLISION_DELTA) >= _COLLISION_FRACTION
               for other in accepted)


def generate(spec: SynthSpec) -> IdentityStore:
    spec.validate()
    textures = []
    for ident in range(spec.identities):
        for attempt in range(64):
            tex = _base_texture(spec, rng_stream(spec.seed, 10, ident, attempt))
            if _distinct(tex, textures):
                textures.append(tex)
                break
        else:
            raise RuntimeError(f"could not draw a distinct texture for identity {ident}")

    images = np.empty((spec.identities * spec.images_per_identity, spec.height, spec.width))
    identity_of = np.empty(len(images), dtype=np.intp)
    max_rows = spec.max_occlusion_rows
    n = 0
    for ident, tex in enumerate(textures):
        rng = rng_stream(spec.seed, 11, ident)
        for _ in range(spec.images_per_identity):
            shift = int(rng.integers(-spec.rotation_range, spec.rotation_range + 1)) \
                if spec.rotation_range else 0
            img = np.roll(tex, shift, axis=1)
            if spec.noise_sigma > 0:
                img = np.clip(img + rng.normal(0.0, spec.noise_sigma, img.shape), 0.0, 1.0)
            if spec.occlusion_prob > 0 and rng.random() < spec.occlusion_prob:
                band = int(rng.integers(1, max_rows + 1))
                top = int(rng.integers(0, spec.height - band + 1))
                img = img.copy()
                img[top:top + band] = 0.0
            images[n] = img
            identity_of[n] = ident
            n += 1

    labels = [f"identity_{j:03d}" for j in range(spec.identities)]
    return IdentityStore(images=images, identity_of=identity_of, identity_ids=labels)


# ---------------------------------------------------------------- store I/O


def write_store(store: IdentityStore, root):
    """Directory tree identity_<k>/img_<n> of raw iris files plus a manifest."""
    os.makedirs(root, exist_ok=True)
    manifest = {"height": int(store.height), "width": int(store.width), "identities": []}
    for j, label in enumerate(store.identity_ids):
        subdir = os.path.join(root, label)
        os.makedirs(subdir, exist_ok=True)
        files = []
        for n, img_idx in enumerate(np.flatnonzero(store.identity_of == j)):
            rel = f"{label}/img_{n:03d}"
            write_iris_raw(os.path.join(root, rel), store.images[img_idx])
            files.append(rel)
        manifest["identities"].append({"id": label, "files": files})
    with atomic_open(os.path.join(root, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return os.path.join(root, MANIFEST_NAME)


def read_manifest(path):
    """The parsed manifest of a store, checked for what ``read_store`` needs;
    a file that is not such a manifest raises a one-line ``ValueError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        entries = manifest["identities"]
        usable = (entries and all(type(manifest[k]) is int and manifest[k] > 0
                                  for k in ("height", "width"))
                  and all(isinstance(e["id"], str) and isinstance(e["files"], list)
                          and e["files"] and all(isinstance(f, str) for f in e["files"])
                          for e in entries))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed manifest ({exc!r})") from exc
    if not usable:
        raise ValueError(f"{path}: malformed manifest: it needs a positive integer height and "
                         f"width and a non-empty identities list, each with an id and files")
    return manifest


def read_store(root) -> IdentityStore:
    manifest_path = os.path.join(root, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"dataset manifest not found: {manifest_path}")
    manifest = read_manifest(manifest_path)
    shape = (manifest["height"], manifest["width"])
    images, identity_of, labels = [], [], []
    for j, entry in enumerate(manifest["identities"]):
        labels.append(entry["id"])
        for rel in entry["files"]:
            path = os.path.join(root, rel)
            images.append(read_iris_raw(path))
            if images[-1].shape != shape:
                raise ValueError(f"{path}: shape {images[-1].shape} is not the manifest's {shape}")
            identity_of.append(j)
    return IdentityStore(images=np.stack(images), identity_of=np.array(identity_of),
                         identity_ids=labels)
