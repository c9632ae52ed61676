"""Seedable random-selection primitives shared by all sampling techniques.

Every technique draws through the functions in this module so that a run is
fully determined by its :class:`RandomStream` seed, on every platform.  The
underlying generator is Philox, a counter-based generator whose output does
not depend on machine word size or threading.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RandomStream",
    "DrawTrace",
    "derive_seed",
    "srs_with_replacement",
    "srs_without_replacement",
    "pps_with_replacement",
    "random_grouping",
]

_KEY_MASK = (1 << 256) - 1


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from arbitrary repr-able parts.

    Uses BLAKE2b over the joined reprs, so the mapping is identical across
    platforms and process restarts.
    """
    payload = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


class RandomStream:
    """Counter-based random stream with explicit seeding and splitting.

    A stream is owned by one logical task; parallel work splits child
    streams instead of sharing one.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed & _KEY_MASK))

    def split(self, *tags) -> "RandomStream":
        """Child stream keyed by this stream's seed plus the given tags."""
        return RandomStream(derive_seed(self.seed, *tags))

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"RandomStream(seed={self.seed})"


@dataclass
class DrawTrace:
    """Ordered audit log of selections: (step, id, probability, scheme tag)."""

    entries: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)


def srs_with_replacement(ids, n: int, rng: RandomStream) -> np.ndarray:
    """n independent uniform draws from ids; duplicates allowed."""
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("empty id set")
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return ids[rng.integers(0, ids.size, size=n)]


def srs_without_replacement(ids, n: int, rng: RandomStream) -> np.ndarray:
    """Partial Fisher-Yates draw of n distinct ids; all n-subsets equiprobable."""
    ids = np.asarray(ids)
    size = ids.size
    if n > size:
        raise ValueError(f"cannot draw {n} without replacement from {size} ids")
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if n == 0:
        return ids[:0].copy()
    pool = ids.copy()
    for i in range(n):
        j = int(rng.integers(i, size))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:n]


def _cumulative(weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        raise ValueError("empty weight vector")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and nonnegative")
    cum = np.cumsum(weights)
    if cum[-1] <= 0:
        raise ValueError("all weights are zero")
    return cum


def pps_with_replacement(ids, weights, n: int, rng: RandomStream) -> np.ndarray:
    """n independent PPS draws (multiset).

    Cumulative sums plus binary search; chosen over alias tables so the
    mapping from uniforms to ids is identical on every platform.
    """
    ids = np.asarray(ids)
    if n < 1:
        raise ValueError("sample size must be >= 1")
    cum = _cumulative(weights)
    r = rng.random(n) * cum[-1]
    idx = np.minimum(np.searchsorted(cum, r, side="right"), ids.size - 1)
    return ids[idx]


def random_grouping(ids, n_groups: int, rng: RandomStream) -> list:
    """Uniform random partition of ids into n_groups near-equal groups.

    Group sizes are floor(N/n) or ceil(N/n); exactly N mod n groups get the
    larger size, so sizes differ by at most one.
    """
    ids = np.asarray(ids)
    size = ids.size
    if n_groups < 1:
        raise ValueError("need at least one group")
    if n_groups > size:
        raise ValueError(f"cannot split {size} ids into {n_groups} groups")
    perm = ids[rng.permutation(size)]
    base, rem = divmod(size, n_groups)
    groups = []
    start = 0
    for g in range(n_groups):
        length = base + 1 if g < rem else base
        groups.append(perm[start : start + length])
        start += length
    return groups
