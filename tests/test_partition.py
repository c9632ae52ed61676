import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsample.draw import RandomStream
from opsample.partition import (
    PartitionMap,
    _argmin_step,
    _boundaries,
    kmeans_1d,
    neyman_allocation,
)


def brute_force_best_split_sizes(values, k):
    """Minimal within-cluster SSE over all contiguous 1-D splits."""
    values = np.sort(values)
    n = len(values)
    best_sse, best_sizes = np.inf, None
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = [0, *cuts, n]
        sse = 0.0
        sizes = []
        for a, b in zip(bounds, bounds[1:]):
            chunk = values[a:b]
            sizes.append(len(chunk))
            sse += float(np.sum((chunk - chunk.mean()) ** 2))
        if sse < best_sse:
            best_sse, best_sizes = sse, sizes
    return best_sizes


def reference_kmeans_1d(values, k, seed=0, max_iter=300):
    """Lloyd with the full N x k distance matrix: (assignment, centroids, sizes).

    The O(N k)-per-iteration form that kmeans_1d's sort-once Lloyd must
    reproduce: same seeding, same argmin tie-break, same re-seeding.
    """
    n = values.size
    distinct = np.unique(values)
    p = min(k, distinct.size)
    rng = RandomStream(seed)
    centroids = np.empty(p)
    centroids[0] = distinct[int(rng.integers(0, distinct.size))]
    for j in range(1, p):
        gaps = np.min(np.abs(distinct[:, None] - centroids[None, :j]), axis=1)
        centroids[j] = distinct[int(np.argmax(gaps))]
    centroids.sort()
    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        new_assignment = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
        for j in range(p):
            mask = new_assignment == j
            if not np.any(mask):
                dist = np.abs(values - centroids[new_assignment])
                far = int(np.argmax(dist))
                centroids[j] = values[far]
                new_assignment[far] = j
                mask = new_assignment == j
            centroids[j] = values[mask].mean()
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    order = np.argsort(centroids, kind="stable")
    relabel = np.empty(p, dtype=np.int64)
    relabel[order] = np.arange(p)
    assignment = relabel[assignment]
    return assignment, centroids[order], np.bincount(assignment, minlength=p)


def reference_neyman_allocation(pm, n):
    """Neyman allocation as three separate rules: (N_p * sigma_p) fill, size fallback, spill.

    The form that neyman_allocation's one capped fill, run twice, must
    reproduce in value and dtype: a special case for all-zero spread, and a
    spill by size, with its own repair loop, once every positive-spread
    partition is capped.
    """

    def largest_remainder(weights, n):
        quota = n * weights / weights.sum()
        alloc = np.floor(quota).astype(np.int64)
        short = n - int(alloc.sum())
        if short > 0:
            frac = quota - alloc
            order = np.lexsort((np.arange(frac.size), -frac))
            alloc[order[:short]] += 1
        return alloc

    values = pm.values
    lo, hi = values.min(), values.max()
    norm = (values - lo) / (hi - lo) if hi > lo else np.zeros_like(values)
    raw = np.empty(pm.P)
    for p, members in enumerate(pm.member_lists()):
        spread = norm[members].std()
        if spread < 1e-12:
            spread = 0.0
        raw[p] = pm.sizes[p] * spread
    if raw.sum() <= 0:
        raw = pm.sizes.astype(float)

    caps = pm.sizes.astype(np.int64)
    alloc = np.zeros(pm.P, dtype=np.int64)
    active = raw > 0
    remaining = n
    while remaining > 0 and np.any(active):
        trial = np.zeros(pm.P, dtype=np.int64)
        trial[active] = largest_remainder(raw[active], remaining)
        over = active & (trial > caps)
        if not np.any(over):
            alloc[active] = trial[active]
            remaining = 0
            break
        alloc[over] = caps[over]
        active &= ~over
        remaining = n - int(alloc.sum())
    if remaining > 0:
        spare = caps - alloc
        open_p = spare > 0
        extra = np.zeros(pm.P, dtype=np.int64)
        extra[open_p] = largest_remainder(pm.sizes[open_p].astype(float), remaining)
        while np.any(extra > spare):
            bad = extra > spare
            surplus = int((extra[bad] - spare[bad]).sum())
            extra[bad] = spare[bad]
            room = spare - extra
            for idx in np.argsort(-room, kind="stable"):
                if surplus == 0:
                    break
                take = min(surplus, int(room[idx]))
                extra[idx] += take
                surplus -= take
        alloc += extra
    return alloc


def partition_map(groups, seed=0):
    """A PartitionMap whose partition p holds the values ``groups[p]``, ids shuffled."""
    sizes = np.array([len(g) for g in groups])
    values = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    labels = np.repeat(np.arange(len(groups)), sizes)
    order = np.random.default_rng(seed).permutation(values.size)
    centroids = np.array([np.mean(g) for g in groups])
    return PartitionMap(labels[order], centroids, sizes, len(groups), values[order])


@st.composite
def allocation_groups(draw):
    """Partitions that are constant (zero spread) or spread, of sizes down to 1.

    Small spread partitions beside large constant ones get capped; all
    constant partitions give all-zero spread.
    """
    groups = []
    for _ in range(draw(st.integers(1, 7))):
        size = draw(st.integers(1, 9))
        if draw(st.booleans()):
            groups.append([draw(st.sampled_from([0.0, 0.5, 1.0]))] * size)
        else:
            groups.append(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    return groups


SKEWS = {
    "linear": lambda v: v,
    "power4": lambda v: v**4,
    "power12": lambda v: v**12,
    "exp6": lambda v: np.exp(6.0 * v),
}


@st.composite
def chi_vectors(draw):
    """Unsorted vectors with duplicates, skewed values and constant runs.

    Small integers and tenths put values at or next to midpoints between
    centroids, where argmin's tie-break and rounding decide.
    """
    value = st.one_of(
        st.floats(0.0, 1.0),
        st.integers(0, 8).map(float),
        st.integers(0, 10).map(lambda x: x / 10),
    )
    pool = draw(st.lists(value, min_size=1, max_size=30))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=150))
    runs = draw(st.lists(st.integers(1, 20), min_size=len(picks), max_size=len(picks)))
    skew = SKEWS[draw(st.sampled_from(sorted(SKEWS)))]
    return skew(np.repeat(np.array(pool)[picks], runs))


class TestKmeans1D:
    @settings(max_examples=300, deadline=None)
    @given(values=chi_vectors(), k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @example(values=np.array([0.0, 1.0, 2.0]), k=2, seed=0)  # 1.0 ties between 0 and 2
    # The prefix sum rounds the mean of the two 1 + 4 ulp values down to 1.0.
    @example(values=np.array([1.0] * 20 + [1.0000000000000009] * 2), k=2, seed=0)
    # Prefix-sum means that would settle a boundary element on the wrong side.
    @example(values=np.array([0.7, 0.17789229916566074, 0.5, 0.6, 0.3792312703656151,
                              0.8, 0.6, 0.6, 0.17789229916566074]), k=4, seed=59)
    @example(values=np.array([7 / 3, 7 / 3, 2.0, 0.7299015178694915, 4 / 3, 0.7299015178694915,
                              5 / 3, 0.7299015178694915, -3e7, -3e7, -3e7]), k=4, seed=12)
    def test_matches_distance_matrix_lloyd(self, values, k, seed):
        assignment, centroids, sizes = reference_kmeans_1d(values, k, seed)
        pm = kmeans_1d(values, k, seed)
        np.testing.assert_array_equal(pm.assignment, assignment)
        np.testing.assert_array_equal(pm.sizes, sizes)
        np.testing.assert_array_equal(pm.centroids, centroids)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(0, 16), min_size=1, max_size=60),
        centroids=st.lists(st.integers(0, 16), min_size=1, max_size=6, unique=True),
    )
    def test_boundaries_match_argmin_in_any_centroid_order(self, values, centroids):
        # Halves keep every distance exact, so values often tie between two
        # centroids; centroids in any index order reach the tie-break both ways.
        s = np.sort(np.array(values) / 2.0)
        c = np.array(centroids) / 2.0
        ranked = np.argsort(c, kind="stable")
        inner = _boundaries(s, c[ranked], ranked[1:] < ranked[:-1])
        labels = np.repeat(ranked, np.diff(np.concatenate(([0], inner, [s.size]))))
        np.testing.assert_array_equal(labels, np.argmin(np.abs(s[:, None] - c[None, :]), axis=1))

    def test_argmin_step_reseeds_an_empty_cluster_at_the_worst_fit_value(self):
        # Centroid 1 owns no value.  After centroid 0 moves to 0.5, the worst
        # fit is 10.0 (8.5 from centroid 2), so cluster 1 takes it and its
        # mean, as reference_kmeans_1d's loop does; 1.0 ties to centroid 0.
        values = np.array([0.0, 1.0, 2.0, 10.0])
        centroids = np.array([0.5, 100.0, 1.5])
        assignment = _argmin_step(values, centroids)
        np.testing.assert_array_equal(assignment, [0, 0, 2, 1])
        np.testing.assert_array_equal(centroids, [0.5, 10.0, 2.0])

    def test_member_lists_are_ascending_ids_per_partition(self):
        values = np.random.default_rng(4).random(300) ** 3
        pm = kmeans_1d(values, 7, seed=2)
        members = pm.member_lists()
        assert members is pm.member_lists()  # computed once per map
        assert len(members) == pm.P
        for p, ids in enumerate(members):
            np.testing.assert_array_equal(ids, np.flatnonzero(pm.assignment == p))

    def test_separated_clusters(self):
        pm = kmeans_1d(np.array([0.0, 0.1, 0.9, 1.0]), 2, seed=0)
        assert list(pm.assignment) == [0, 0, 1, 1]
        assert list(pm.sizes) == [2, 2]

    def test_k1_single_partition(self):
        pm = kmeans_1d(np.array([3.0, 1.0, 2.0]), 1, seed=0)
        assert pm.P == 1
        assert list(pm.sizes) == [3]

    def test_matches_exhaustive_split(self):
        values = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        pm = kmeans_1d(values, 2, seed=0)
        assert sorted(pm.sizes) == sorted(brute_force_best_split_sizes(values, 2))
        assert list(pm.sizes) == [2, 3]

    def test_deterministic(self):
        values = np.random.default_rng(0).random(200)
        a = kmeans_1d(values, 10, seed=5)
        b = kmeans_1d(values, 10, seed=5)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)

    def test_reduces_k_to_distinct_count(self):
        pm = kmeans_1d(np.array([1.0, 1.0, 2.0]), 5, seed=0)
        assert pm.P == 2

    def test_empty_input_errors(self):
        with pytest.raises(ValueError):
            kmeans_1d(np.array([]), 2, seed=0)

    def test_partitions_contiguous_in_chi_order(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            values = rng.random(100)
            pm = kmeans_1d(values, 6, seed=seed)
            labels_sorted = pm.assignment[np.argsort(values, kind="stable")]
            # Non-interleaved: once a label ends it never reappears.
            changes = np.diff(labels_sorted)
            assert np.all(changes >= 0)

    def test_centroids_sorted_and_nonempty(self):
        values = np.random.default_rng(3).random(50)
        pm = kmeans_1d(values, 8, seed=1)
        assert np.all(np.diff(pm.centroids) > 0)
        assert np.all(pm.sizes > 0)
        assert pm.sizes.sum() == 50


class TestNeymanAllocation:
    def _pm(self, chi, k):
        return kmeans_1d(np.asarray(chi, dtype=float), k, seed=0)

    def test_zero_variance_stratum_gets_nothing(self):
        chi = np.array([0.5] * 50 + list(np.linspace(0, 1, 50)))
        pm = kmeans_1d(chi, 2, seed=0)
        # Identify which partition is the constant one.
        const_p = pm.assignment[0]
        alloc = neyman_allocation(pm, 10)
        sigma = [chi[pm.assignment == p].std() for p in range(pm.P)]
        if sigma[const_p] == 0:
            assert alloc[const_p] == 0
        assert alloc.sum() == 10

    def test_symmetry(self):
        chi = np.array([0.0, 0.1, 0.2, 0.8, 0.9, 1.0])
        pm = self._pm(chi, 2)
        alloc = neyman_allocation(pm, 10 if False else 4)
        assert list(alloc) == [2, 2]

    def test_hand_example_largest_remainder(self):
        # sizes [10, 30], sigma [0.2, 0.1] -> raw [2, 3] -> [4, 6].
        rng = np.random.default_rng(0)
        chi = np.concatenate(
            [
                0.2 + 0.2 * np.sin(np.linspace(0, 2 * np.pi, 10)),
                0.8 + 0.1 * np.sin(np.linspace(0, 2 * np.pi, 30)),
            ]
        )
        pm = kmeans_1d(chi, 2, seed=0)
        assert list(pm.sizes) == [10, 30]
        norm = (chi - chi.min()) / (chi.max() - chi.min())
        raw = [
            pm.sizes[p] * norm[pm.assignment == p].std() for p in range(2)
        ]
        alloc = neyman_allocation(pm, 10)
        expected = np.round(10 * np.array(raw) / sum(raw)).astype(int)
        assert list(alloc) == list(expected)
        assert alloc.sum() == 10

    def test_sums_exactly(self):
        rng = np.random.default_rng(1)
        chi = rng.random(100)
        pm = self._pm(chi, 7)
        for n in (1, 5, 17, 99):
            assert neyman_allocation(pm, n).sum() == n

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        chi = rng.random(60) + 0.1
        pm = self._pm(chi, 4)
        a = neyman_allocation(pm, 20)
        b = neyman_allocation(replace(pm, values=5.0 * chi), 20)
        assert np.array_equal(a, b)

    def test_caps_at_partition_size(self):
        # One tiny high-spread partition cannot absorb more than its size.
        chi = np.array([0.0, 1.0] + [0.5] * 18)
        pm = kmeans_1d(chi, 3, seed=0)
        alloc = neyman_allocation(pm, 15)
        assert np.all(alloc <= pm.sizes)
        assert alloc.sum() == 15

    def test_constant_chi_falls_back_to_proportional(self):
        chi = np.array([0.3] * 30)
        pm = kmeans_1d(chi, 3, seed=0)  # collapses to one partition
        alloc = neyman_allocation(pm, 6)
        assert alloc.sum() == 6

    @settings(max_examples=300, deadline=None)
    @given(groups=allocation_groups(), seed=st.integers(0, 2**32 - 1))
    # All-zero spread: the size fill alone.
    @example(groups=[[0.5] * 3, [0.5] * 7, [1.0] * 2], seed=0)
    # A two-record spread partition, capped, spills into the constant ones.
    @example(groups=[[0.0, 1.0], [0.5] * 9, [0.5] * 4], seed=0)
    # Two spread partitions: the smaller is capped, the larger takes the rest.
    @example(groups=[[0.0, 1.0], [0.4, 0.5, 0.6, 0.5, 0.4, 0.6, 0.5]], seed=1)
    def test_matches_three_rule_reference(self, groups, seed):
        pm = partition_map(groups, seed)
        for n in range(1, pm.sizes.sum() + 1):
            expected = reference_neyman_allocation(pm, n)
            alloc = neyman_allocation(pm, n)
            assert alloc.dtype == expected.dtype
            np.testing.assert_array_equal(alloc, expected)

    def test_budget_above_population_errors(self):
        chi = np.array([0.1, 0.9])
        pm = self._pm(chi, 2)
        with pytest.raises(ValueError):
            neyman_allocation(pm, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kmeans_1d([0.1, 0.2], 0), "k must be >= 1"),
        (lambda: neyman_allocation(kmeans_1d([0.1, 0.2, 0.9], 2), 0), "budget must be >= 1"),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
