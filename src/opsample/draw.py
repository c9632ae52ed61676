"""Seedable random-selection primitives shared by all sampling techniques.

Every random choice a technique makes goes through four primitives of
:class:`RandomStream`: a uniform index (``integers``), a Bernoulli trial,
an index by a cumulative weight vector and a random grouping into given
sizes.  A run is fully determined by its seed on every platform: the
generator is Philox, whose output does not depend on machine word size or
threading.  :class:`EnumeratingStream` makes each primitive a branch point
with exact probabilities, so the exact oracle can replay a technique's own
law over every sample path.

The batched forms of ``integers`` (array bounds) and ``weighted_index`` (a
2-D ``cum``, one index per row) consume the stream exactly as the
element-by-element calls would, in C order, so a law may batch its draws
without changing a single result, and the enumerating stream replays them
as those element-by-element calls.
"""

from __future__ import annotations

import hashlib
import itertools
import numpy as np

__all__ = [
    "RandomStream",
    "EnumeratingStream",
    "NotEnumerableError",
    "derive_seed",
    "srs_without_replacement",
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
        """Uniform integers in [low, high); array bounds draw one per element."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def bernoulli(self, p: float) -> bool:
        """True with probability p."""
        return self.random() < p

    def weighted_index(self, cum, size=None):
        """Index i with probability (cum[i] - cum[i-1]) / cum[-1]; ``size`` draws a vector.

        A 2-D ``cum`` draws one index per row, by that row's weights.
        Cumulative sums plus binary search; chosen over alias tables so the
        mapping from uniforms to indices is identical on every platform.
        """
        if np.ndim(cum) == 2:
            u = self.random(len(cum)) * cum[:, -1]
            # Per row, the count of entries <= u is searchsorted(..., "right").
            idx = np.count_nonzero(cum <= u[:, None], axis=1)
            return np.minimum(idx, cum.shape[1] - 1)
        u = self.random(size) * cum[-1]
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        return idx if size is not None else int(idx)

    def grouping(self, size: int, sizes) -> np.ndarray:
        """Uniform random split of range(size) into groups of the given sizes.

        Returns the ids in group order: group i holds the next ``sizes[i]``.
        """
        return self.permutation(size)

    def __repr__(self):
        return f"RandomStream(seed={self.seed})"


class NotEnumerableError(ValueError):
    """Technique whose path space cannot be enumerated; use Monte Carlo."""


class EnumeratingStream:
    """Stand-in for :class:`RandomStream` that replays one sample path per run.

    Every primitive call is a branch point whose alternatives carry their
    exact probabilities; zero-probability alternatives are skipped.  A run
    takes the alternatives named by the current choice prefix (the first
    one past its end), and :meth:`next_path` advances the prefix like an
    odometer, so re-running a law until :meth:`next_path` returns False
    visits every path once, depth first.  ``probability`` is the product of
    the current path's branch probabilities.  Draws that bypass the
    primitives (``random``, ``permutation``, ``standard_normal``) raise
    :class:`NotEnumerableError`.
    """

    def __init__(self):
        self._prefix = []  # chosen alternative per branch point, in call order
        self._arity = []  # number of alternatives at each of those branch points
        self._depth = 0
        self.probability = 1.0

    def _choose(self, probabilities) -> int:
        """Index of the alternative this path takes at the next branch point."""
        if self._depth == len(self._prefix):
            self._prefix.append(0)
            self._arity.append(len(probabilities))
        i = self._prefix[self._depth]
        self._depth += 1
        self.probability *= probabilities[i]
        return i

    def next_path(self) -> bool:
        """Move to the next path; False once every path has been visited."""
        while self._prefix and self._prefix[-1] + 1 == self._arity[-1]:
            self._prefix.pop()
            self._arity.pop()
        if self._prefix:
            self._prefix[-1] += 1
        self._depth = 0
        self.probability = 1.0
        return bool(self._prefix)

    def _vector(self, draw, size):
        if size is None:
            return draw()
        return np.array([draw() for _ in range(int(np.prod(size)))]).reshape(size)

    def integers(self, low, high, size=None):
        if np.ndim(low) or np.ndim(high):
            lows, highs = np.broadcast_arrays(low, high)
            draws = [self.integers(lo, hi) for lo, hi in zip(lows.flat, highs.flat)]
            return np.array(draws, dtype=np.int64).reshape(lows.shape)
        low, high = int(low), int(high)
        p = [1.0 / (high - low)] * (high - low)
        return self._vector(lambda: low + self._choose(p), size)

    def bernoulli(self, p: float) -> bool:
        return self.weighted_index([p, 1.0]) == 0  # weights p and 1 - p

    def weighted_index(self, cum, size=None):
        if np.ndim(cum) == 2:
            return np.array([self.weighted_index(row) for row in cum], dtype=np.int64)
        cum = np.asarray(cum, dtype=float).tolist()  # tiny vectors: plain floats are faster
        weights = [c - prev for prev, c in zip([0.0] + cum, cum)]
        support = [i for i, w in enumerate(weights) if w > 0]
        p = [weights[i] / cum[-1] for i in support]
        return self._vector(lambda: support[self._choose(p)], size)

    def grouping(self, size: int, sizes) -> np.ndarray:
        """Branches over ordered set compositions, each with probability prod(s_i!) / size!.

        Each group is one branch point over the combinations of the ids not
        yet grouped, so the size! orderings of a permutation are never visited.
        """
        rest, order = list(range(size)), []
        for s in sizes:
            blocks = list(itertools.combinations(rest, int(s)))
            block = blocks[self._choose([1.0 / len(blocks)] * len(blocks))]
            order.extend(block)
            rest = [i for i in rest if i not in block]
        return np.array(order, dtype=np.int64)

    def _refuse(self, *args, **kwargs):
        raise NotEnumerableError("draw bypasses the enumerable primitives")

    random = permutation = standard_normal = _refuse


def srs_without_replacement(ids, n: int, rng: RandomStream) -> np.ndarray:
    """Partial Fisher-Yates draw of n distinct ids; all n-subsets equiprobable.

    Step i swaps position i with a uniform position j in [i, size).  All n
    positions come from one batched draw, and the swaps are replayed on a
    map of the positions they moved, so a draw costs O(n), not O(size).
    """
    ids = np.asarray(ids)
    size = ids.size
    if n > size:
        raise ValueError(f"cannot draw {n} without replacement from {size} ids")
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if n == 0:
        return ids[:0].copy()
    moved = {}  # position -> position of the id now there, where they differ
    picks = []
    for i, j in enumerate(rng.integers(np.arange(n), size).tolist()):
        picks.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return ids[picks]

