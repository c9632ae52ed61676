"""Partitioning of the operational dataset on chi, and sample allocation.

Partitions come from 1-D k-means (Lloyd) on the auxiliary variable; sample
sizes per partition come from Neyman allocation with largest-remainder
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PartitionMap", "kmeans_1d", "neyman_allocation"]

_EPS = np.finfo(float).eps


@dataclass
class PartitionMap:
    """Assignment of every record to one of P partitions, centroids ascending.

    ``values`` are the scores the map stratifies.
    """

    assignment: np.ndarray
    centroids: np.ndarray
    sizes: np.ndarray
    P: int
    values: np.ndarray
    _members: list | None = field(default=None, init=False, repr=False, compare=False)

    def member_lists(self) -> list:
        """Record ids of each partition, ascending; computed once per map."""
        if self._members is None:
            order = np.argsort(self.assignment, kind="stable")
            order.flags.writeable = False  # the lists are shared by every caller
            self._members = np.split(order, np.cumsum(self.sizes)[:-1])
        return self._members


def _argmin_step(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """One Lloyd step by the full N x k distance matrix, re-seeding empty clusters.

    Updates ``centroids`` in place and returns the assignment.
    """
    assignment = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
    for j in range(centroids.size):
        mask = assignment == j
        if not np.any(mask):
            # Re-seed the empty cluster to the globally worst-fit point.
            dist = np.abs(values - centroids[assignment])
            far = int(np.argmax(dist))
            centroids[j] = values[far]
            assignment[far] = j
            mask = assignment == j
        centroids[j] = values[mask].mean()
    return assignment


def _means(values: np.ndarray, assignment: np.ndarray, p: int) -> np.ndarray:
    """Cluster means summed in index order, as the N x k Lloyd takes them."""
    return np.array([values[assignment == j].mean() for j in range(p)])


def _decided(s: np.ndarray, c: np.ndarray, inner: np.ndarray, slack: np.ndarray) -> bool:
    """Whether every boundary keeps its place for any centroids within ``slack`` of ``c``.

    The elements on either side of a boundary are the closest calls between
    two adjacent centroids, so their distance gaps are the ones to check.
    """
    for v in (s[inner - 1], s[inner]):
        d_lo, d_hi = np.abs(v - c[:-1]), np.abs(v - c[1:])
        if np.any(np.abs(d_hi - d_lo) <= slack[:-1] + slack[1:] + 2 * _EPS * (d_lo + d_hi)):
            return False
    return True


def _boundaries(s: np.ndarray, c: np.ndarray, hi_wins_tie: np.ndarray) -> np.ndarray:
    """Per i, the first position in sorted ``s`` going to ``c[i + 1]``, not ``c[i]``.

    ``c`` is ascending.  The search starts at the float midpoints and each
    boundary element is then settled by the same ``|v - c|`` comparison that
    argmin makes.  argmin breaks a tie toward the lower centroid index;
    ``hi_wins_tie[i]`` says whether that is the index of ``c[i + 1]``.
    """

    def goes_hi(v):
        d_lo, d_hi = np.abs(v - c[:-1]), np.abs(v - c[1:])
        return (d_hi < d_lo) | ((d_hi == d_lo) & hi_wins_tie)

    n = s.size
    b = np.searchsorted(s, 0.5 * (c[:-1] + c[1:]))
    while True:
        before, at = s[np.maximum(b - 1, 0)], s[np.minimum(b, n - 1)]
        left = (b > 0) & goes_hi(before)
        right = (b < n) & ~goes_hi(at)
        if not (left.any() or right.any()):
            return b
        # Step over the whole run of an equal value: it goes to one side.
        b = np.where(left, np.searchsorted(s, before, "left"), b)
        b = np.where(right, np.searchsorted(s, at, "right"), b)


def kmeans_1d(chi, k: int) -> PartitionMap:
    """Lloyd's algorithm on scalar chi values.

    Farthest-point seeding (Gonzalez 1985) that starts from the smallest
    distinct value, so the map depends on chi and k alone; if fewer than k
    distinct values exist, the partition count drops to the distinct count.
    Empty clusters are re-seeded to the point farthest from its centroid.
    Lloyd stops when the assignment repeats, or after 300 iterations.
    Output labels are sorted by centroid, so partition 0 holds the smallest
    chi values.  The map keeps a read-only copy of chi as ``values``.

    1-D clusters are contiguous in sorted order (Wang & Song 2011,
    Ckmeans.1d.dp), so the values are sorted once and each iteration finds
    k - 1 boundaries by binary search and the means from a prefix sum:
    O(k log N) per iteration instead of the O(N k) distance matrix.  The
    result is that of the distance-matrix Lloyd: a prefix-sum mean can
    differ from a mean summed in index order by rounding, so when a boundary
    element lies within that rounding of a tie, the means are recomputed in
    index order (O(N k)) before it is settled, and so are the final
    centroids.  An iteration that leaves a cluster empty runs the O(N k)
    step with its re-seeding.
    """
    values = np.array(chi, dtype=float)
    values.flags.writeable = False
    n = values.size
    if n == 0:
        raise ValueError("empty input")
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct = np.unique(values)
    p = min(k, distinct.size)

    centroids = np.empty(p)
    centroids[0] = distinct[0]
    gaps = np.abs(distinct - centroids[0])
    for j in range(1, p):
        centroids[j] = distinct[int(np.argmax(gaps))]
        gaps = np.minimum(gaps, np.abs(distinct - centroids[j]))
    centroids.sort()

    order = np.argsort(values, kind="stable")
    s = values[order]
    prefix = np.concatenate(([0.0], np.cumsum(s)))
    # prefix[i] is off by at most about i * eps * (sum of |s| up to i).
    drift = np.arange(n + 1) * np.concatenate(([0.0], np.cumsum(np.abs(s))))

    def labels(state):
        # An assignment is a label array, or (centroid indices in ascending
        # order, boundaries of their runs in sorted order).
        if not isinstance(state, tuple):
            return state
        ranked, bounds = state
        out = np.empty(n, dtype=np.int64)
        out[order] = np.repeat(ranked, np.diff(bounds))
        return out

    def same(a, b):
        if b is None:
            return False
        if isinstance(a, tuple) and isinstance(b, tuple):
            return all(np.array_equal(x, y) for x, y in zip(a, b))
        return np.array_equal(labels(a), labels(b))

    # While ``exact``, the centroids are those the N x k Lloyd holds at this
    # point; otherwise they come from the prefix sum and each lies within
    # ``slack`` of it.
    exact, slack = True, np.zeros(p)
    previous = None
    for _ in range(300):
        while True:
            ranked = np.argsort(centroids, kind="stable")
            c = centroids[ranked]
            inner = _boundaries(s, c, ranked[1:] < ranked[:-1])
            bounds = np.concatenate(([0], inner, [n]))
            counts = np.diff(bounds)
            if exact or (np.all(counts > 0) and _decided(s, c, inner, slack[ranked])):
                break
            # A boundary element is too close to call: take the exact means.
            centroids = _means(values, labels(previous), p)
            exact = True
        if np.all(counts > 0):
            a, b = bounds[:-1], bounds[1:]
            centroids[ranked] = (prefix[b] - prefix[a]) / counts
            # Rounding bound of the prefix-sum mean plus that of a mean summed
            # in index order, whose terms are at most the run's widest value.
            widest = np.maximum(np.abs(s[a]), np.abs(s[b - 1]))
            slack[ranked] = _EPS * ((drift[a] + drift[b]) / counts + (counts + 4) * widest)
            exact = False
            current = (ranked, bounds)
        else:
            current = _argmin_step(values, centroids)
            exact = True
        if same(current, previous):
            break
        previous = current
    assignment = labels(current)
    if not exact:
        centroids = _means(values, assignment, p)

    by_centroid = np.argsort(centroids, kind="stable")
    relabel = np.empty(p, dtype=np.int64)
    relabel[by_centroid] = np.arange(p)
    assignment = relabel[assignment]
    centroids = centroids[by_centroid]
    sizes = np.bincount(assignment, minlength=p)
    return PartitionMap(assignment, centroids, sizes, p, values)


def _largest_remainder(weights: np.ndarray, n: int) -> np.ndarray:
    quota = n * weights / weights.sum()
    alloc = np.floor(quota).astype(np.int64)
    short = n - int(alloc.sum())
    if short > 0:
        frac = quota - alloc
        # Stable tie-break: larger fraction first, then lower index.
        order = np.lexsort((np.arange(frac.size), -frac))
        alloc[order[:short]] += 1
    return alloc


def neyman_allocation(pm: PartitionMap, n: int) -> np.ndarray:
    """Allocate n draws proportionally to N_p * sigma_p of the map's globally normalized values.

    One capped fill, run twice.  A fill splits the budget left over the
    partitions that are active (positive weight and room left) by
    largest-remainder rounding; a partition whose share exceeds its room is
    capped at its size and the rest re-split among the others.  The first
    fill weighs by N_p * sigma_p.  Budget it cannot place, because every
    positive-spread partition is capped or none has spread, spills in the
    second fill over the partitions with room, in proportion to their size.
    """
    values = pm.values
    if n < 1:
        raise ValueError("budget must be >= 1")
    total = values.size
    if n > total:
        raise ValueError(f"budget {n} exceeds population size {total}")
    lo, hi = values.min(), values.max()
    norm = (values - lo) / (hi - lo) if hi > lo else np.zeros_like(values)

    raw = np.empty(pm.P)
    for p, members in enumerate(pm.member_lists()):
        spread = norm[members].std()
        if spread < 1e-12:  # constant partition up to rounding noise
            spread = 0.0
        raw[p] = pm.sizes[p] * spread

    caps = pm.sizes.astype(np.int64)
    alloc = np.zeros(pm.P, dtype=np.int64)
    for weights in (raw, pm.sizes.astype(float)):
        active = (weights > 0) & (alloc < caps)
        while alloc.sum() < n and np.any(active):
            trial = alloc.copy()
            trial[active] += _largest_remainder(weights[active], n - int(alloc.sum()))
            over = trial > caps
            if not np.any(over):
                alloc = trial  # places the whole budget
                break
            alloc[over] = caps[over]
            active &= ~over
    return alloc
