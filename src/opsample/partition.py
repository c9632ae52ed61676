"""Partitioning of the operational dataset on chi, and sample allocation.

Partitions come from 1-D k-means on the auxiliary variable: Lloyd on the
sorted values, a value at a float midpoint going to the lower centroid and
an empty cluster taking one distance-matrix step, so the map is the N x k
Lloyd's except within rounding of a midpoint.  Sample sizes per partition
come from Neyman allocation with largest-remainder rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PartitionMap", "kmeans_1d", "neyman_allocation"]


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
    """One N x k distance-matrix Lloyd step; re-seeds empty clusters, updates ``centroids``."""
    assignment = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
    for j in range(centroids.size):
        mask = assignment == j
        if not np.any(mask):
            # Re-seed the empty cluster to the globally worst-fit point.
            dist = np.abs(values - centroids[assignment])
            far = int(np.argmax(dist))
            assignment[far] = j
            mask = assignment == j
        centroids[j] = values[mask].mean()
    return assignment


def kmeans_1d(chi, k: int) -> PartitionMap:
    """Lloyd's algorithm on scalar chi values, sorted once; labels ascend by centroid.

    Farthest-point seeding (Gonzalez 1985) from the smallest distinct value,
    so the map depends on chi and k alone; with fewer than k distinct values
    the partition count drops to the distinct count.  1-D clusters are runs
    of the sorted values (Wang & Song 2011, Ckmeans.1d.dp), so an iteration
    is k - 1 binary searches at the float midpoints of adjacent centroids (a
    value at one goes to the lower centroid) and the means of one prefix
    sum; one whose midpoint rounds onto a centroid and empties its run is an
    :func:`_argmin_step`.  Lloyd stops when the boundaries or that step's
    assignment repeat, or after 300 iterations; the final centroids are
    means summed in index order.  The map is the N x k distance-matrix
    Lloyd's except where a value lies within rounding of a midpoint, and
    keeps a read-only copy of chi as ``values``.
    """
    values = np.array(chi, dtype=float)
    values.flags.writeable = False
    if values.size == 0:
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

    s = np.sort(values)
    prefix = np.concatenate(([0.0], np.cumsum(s)))
    # Rounding can alternate the two kinds of step; each ends Lloyd on repeating its last.
    last_bounds = last_labels = None
    for _ in range(300):
        mid = 0.5 * (centroids[:-1] + centroids[1:])
        inner = np.searchsorted(s, mid, "right")
        bounds = np.concatenate(([0], inner, [s.size]))
        counts = np.diff(bounds)
        if np.all(counts > 0):
            current = bounds
            if np.array_equal(bounds, last_bounds):
                break
            last_bounds = bounds
            centroids[:] = (prefix[bounds[1:]] - prefix[bounds[:-1]]) / counts
        else:
            current = _argmin_step(values, centroids)
            if np.array_equal(current, last_labels):
                break
            last_labels = current
    assignment = current
    if current is bounds:  # each value's run, by the same midpoints and tie rule
        assignment = np.searchsorted(mid, values)
    centroids = np.array([values[assignment == j].mean() for j in range(p)])

    by_centroid = np.argsort(centroids, kind="stable")
    relabel = np.argsort(by_centroid)  # the inverse permutation
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
