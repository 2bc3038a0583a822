"""Identity-grouped image stores and authentic/imposter pair machinery."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


def rng_stream(seed, *tags):
    """Independent, reproducible generator derived from (seed, tags)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                        spawn_key=tuple(int(t) for t in tags)))


@dataclass
class IdentityStore:
    """Images grouped by identity: images[i] belongs to identity_of[i]."""

    images: np.ndarray          # (N, H, W) float64 in [0, 1]
    identity_of: np.ndarray     # (N,) int
    identity_ids: list          # printable label per identity index

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.identity_of = np.asarray(self.identity_of, dtype=np.intp)
        if self.images.ndim != 3:
            raise ValueError(f"expected (N, H, W) images, got shape {self.images.shape}")
        if len(self.images) != len(self.identity_of):
            raise ValueError("images and identity_of lengths disagree")
        n_ids = len(self.identity_ids)
        if n_ids == 0 or any(len(g) == 0 for g in self.groups()):
            raise ValueError("every identity needs at least one image")
        if len(set(self.identity_ids)) != n_ids:
            raise ValueError("identity labels must be distinct")

    @property
    def num_identities(self):
        return len(self.identity_ids)

    @property
    def num_images(self):
        return len(self.images)

    @property
    def height(self):
        return self.images.shape[1]

    @property
    def width(self):
        return self.images.shape[2]

    def groups(self):
        """Image indices per identity, in identity order."""
        return [np.flatnonzero(self.identity_of == j) for j in range(len(self.identity_ids))]

    def subset(self, identity_indices):
        """New store restricted to the given identity indices (order kept)."""
        identity_indices = list(identity_indices)
        keep = np.isin(self.identity_of, identity_indices)
        remap = {old: new for new, old in enumerate(identity_indices)}
        return IdentityStore(
            images=self.images[keep].copy(),
            identity_of=np.array([remap[j] for j in self.identity_of[keep]]),
            identity_ids=[self.identity_ids[j] for j in identity_indices])


@dataclass
class PairSet:
    """Unordered image-index pairs; authentic share an identity, imposters do not."""

    authentic: np.ndarray       # (A, 2) int
    imposter: np.ndarray        # (I, 2) int
    identity_of: np.ndarray     # (N,) identity index per image

    def __post_init__(self):
        self.authentic = np.asarray(self.authentic, dtype=np.intp).reshape(-1, 2)
        self.imposter = np.asarray(self.imposter, dtype=np.intp).reshape(-1, 2)

    @property
    def n_positive(self):
        return len(self.authentic)

    @property
    def n_negative(self):
        return len(self.imposter)


def enumerate_pairs(store: IdentityStore) -> PairSet:
    """All unordered pairs: authentic = sum_j C(N_j, 2), imposter = the rest."""
    if store.num_identities < 2:
        raise ValueError("need at least 2 identities to define imposter pairs")
    ids = store.identity_of
    i, j = np.triu_indices(store.num_images, k=1)
    same = ids[i] == ids[j]
    authentic = np.stack([i[same], j[same]], axis=1)
    imposter = np.stack([i[~same], j[~same]], axis=1)
    return PairSet(authentic, imposter, ids.copy())


def split_train_val(pairs: PairSet, seed) -> tuple[PairSet, PairSet]:
    """Identity-disjoint split with authentic-pair counts as close to 10:1 as
    identity granularity allows.  All pairs of a held-out identity go to the
    validation side; cross-side imposter pairs are dropped."""
    all_ids = np.unique(pairs.identity_of)
    if len(all_ids) < 4:
        raise ValueError("need at least 4 identities for an identity-disjoint split")
    order = rng_stream(seed, 2).permutation(all_ids)
    per_identity = {j: 0 for j in all_ids}
    for a, _ in pairs.authentic:
        per_identity[pairs.identity_of[a]] += 1
    total = sum(per_identity.values())
    target = total / 11.0

    val_ids = []
    acc = 0
    for j in order:
        if acc >= target and len(val_ids) >= 2:
            break
        val_ids.append(int(j))
        acc += per_identity[int(j)]
    train_ids = [int(j) for j in all_ids if int(j) not in set(val_ids)]
    if len(train_ids) < 2 or len(val_ids) < 2:
        raise ValueError("split leaves fewer than 2 identities on one side")

    def side(id_list):
        member = np.isin(pairs.identity_of, id_list)

        def keep(arr):
            inside = member[arr[:, 0]] & member[arr[:, 1]]
            return arr[inside].copy()

        return PairSet(keep(pairs.authentic), keep(pairs.imposter), pairs.identity_of.copy())

    return side(train_ids), side(val_ids)


def rebalance_epoch(pairs: PairSet, rng):
    """One epoch sample: every authentic pair plus an equal number of
    imposters drawn uniformly without replacement, shuffled together.

    Returns (pair_array, labels) with labels 1.0 authentic / 0.0 imposter.
    If there are fewer imposters than authentic pairs, all are taken and
    ``warnings.warn`` says so.
    """
    n_pos = pairs.n_positive
    if n_pos == 0:
        raise ValueError("no authentic pairs to balance against")
    if pairs.n_negative >= n_pos:
        pick = rng.choice(pairs.n_negative, size=n_pos, replace=False)
        negatives = pairs.imposter[pick]
    else:
        warnings.warn(f"only {pairs.n_negative} imposter pairs for {n_pos} authentic; using all")
        negatives = pairs.imposter
    sample = np.concatenate([pairs.authentic, negatives], axis=0)
    labels = np.concatenate([np.ones(len(pairs.authentic)), np.zeros(len(negatives))])
    order = rng.permutation(len(sample))
    return sample[order], labels[order]
