import itertools
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from opsample import auxvar
from opsample.auxvar import (
    ActivationTraces,
    ChiVector,
    chi_from_confidence,
    compute_dsa,
    compute_lsa,
    min_max_normalize,
    reconstruction_error,
    selection_probabilities,
    shift_positive,
)


class TestChiFromConfidence:
    def test_fully_confident(self):
        assert chi_from_confidence([1.0]).values[0] == 0.0

    def test_half(self):
        assert chi_from_confidence([0.5]).values[0] == 0.5

    def test_hand_values(self):
        np.testing.assert_allclose(chi_from_confidence([0.9, 0.6]).values, [0.1, 0.4])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chi_from_confidence([1.2])


class TestDSA:
    def test_hand_example_1d(self):
        # Exhaustive nearest-neighbour check: record 0 (class A) has same-class
        # neighbour at distance 1 and cross-class neighbour at distance 10.
        ats = ActivationTraces(np.array([[0.0], [1.0], [10.0], [11.0]]), ["A", "A", "B", "B"])
        dsa = compute_dsa(ats).values
        assert dsa[0] == pytest.approx(1.0 / 10.0)
        assert dsa[1] == pytest.approx(1.0 / 9.0)

    def test_duplicate_same_class_gives_zero(self):
        ats = ActivationTraces(np.array([[0.0], [0.0], [5.0], [6.0]]), ["A", "A", "B", "B"])
        dsa = compute_dsa(ats).values
        assert dsa[0] == 0.0 and dsa[1] == 0.0

    def test_single_class_errors(self):
        ats = ActivationTraces(np.array([[0.0], [1.0]]), ["A", "A"])
        with pytest.raises(ValueError):
            compute_dsa(ats)

    def test_singleton_class_errors(self):
        ats = ActivationTraces(np.array([[0.0], [1.0], [2.0]]), ["A", "A", "B"])
        with pytest.raises(ValueError):
            compute_dsa(ats)

    def test_cross_class_duplicate_sentinel(self):
        ats = ActivationTraces(
            np.array([[0.0], [1.0], [0.0], [9.0]]), ["A", "A", "B", "B"]
        )
        with pytest.warns(UserWarning):
            dsa = compute_dsa(ats).values
        finite = np.delete(dsa, [0, 2])
        assert dsa[0] > 5 * finite.max()
        assert np.isfinite(dsa).all()

    def test_isometry_invariance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        classes = np.array(["A"] * 6 + ["B"] * 6)
        base = compute_dsa(ActivationTraces(X, classes)).values
        # Random rotation plus translation preserves all distances.
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = X @ q.T + np.array([5.0, -3.0, 2.0])
        np.testing.assert_allclose(
            compute_dsa(ActivationTraces(moved, classes)).values, base, atol=1e-10
        )


def reference_dsa(ats):
    """compute_dsa over the full N x N distance matrix: the unblocked reference."""
    X, classes, n = ats.matrix, ats.predicted_class, ats.matrix.shape[0]
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, np.inf)
    same = classes[:, None] == classes[None, :]
    sigma_a = np.min(np.where(same, dist, np.inf), axis=1)
    sigma_b = np.min(np.where(~same, dist, np.inf), axis=1)
    values = np.zeros(n)
    zero_a, zero_b = sigma_a == 0, sigma_b == 0
    regular = ~zero_a & ~zero_b
    values[regular] = sigma_a[regular] / sigma_b[regular]
    degenerate = zero_b & ~zero_a
    if np.any(degenerate):
        finite_max = values[regular].max() if np.any(regular) else 1.0
        values[degenerate] = 10.0 * max(finite_max, 1e-12)
        warnings.warn("DSA set to a large sentinel", stacklevel=2)
    return values


def reference_lsa(ats):
    """compute_lsa over the full N x N log-kernel matrix: the unblocked reference."""
    X, n = ats.matrix, ats.matrix.shape[0]
    var = X.var(axis=0)
    keep = var >= 1e-5
    X = X[:, keep]
    d = X.shape[1]
    bw = np.sqrt(var[keep]) * n ** (-1.0 / (d + 4))
    Z = (X - X.mean(axis=0)) / bw
    half_sq = 0.5 * np.sum(Z * Z, axis=1)
    log_k = np.einsum("ik,jk->ij", Z, Z) - half_sq[:, None] - half_sq[None, :]
    np.minimum(log_k, 0.0, out=log_k)
    log_norm = np.sum(np.log(bw * math.sqrt(2.0 * math.pi)))
    np.fill_diagonal(log_k, -np.inf)
    log_density = auxvar.logsumexp(log_k, axis=1) - math.log(n - 1) - log_norm
    return shift_positive(-log_density)


def _blocky_traces():
    """300 traces (blocks of 109, 109 and 82 rows) with duplicates across blocks.

    Entries lie on a 1/8 grid, so a duplicate's squared distance is exactly 0.
    Rows 5 and 250 are same-class duplicates (sigma_A == 0); rows 10 and 200
    are a cross-class duplicate (sigma_B == 0, the sentinel).  The last
    dimension is constant.
    """
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(0.0, 2.0, size=(300, 4)) * 8) / 8
    X[:, 3] = 1.5
    classes = np.arange(300) % 5
    X[250], classes[250] = X[5], classes[5]
    X[200] = X[10]
    classes[200] = (classes[10] + 1) % 5
    return ActivationTraces(X, classes)


def test_blocked_scores_match_the_full_matrix():
    ats = _blocky_traces()
    with pytest.warns(UserWarning, match="sentinel"):
        expected_dsa = reference_dsa(ats)
    with pytest.warns(UserWarning, match="sentinel"):
        dsa = compute_dsa(ats).values
    assert expected_dsa[5] == expected_dsa[250] == 0.0
    assert expected_dsa[10] == expected_dsa[200] > 5 * np.delete(expected_dsa, [10, 200]).max()
    np.testing.assert_allclose(dsa, expected_dsa, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(compute_lsa(ats).values, reference_lsa(ats))


@pytest.mark.parametrize("scorer", [compute_dsa, compute_lsa])
def test_scoring_memory_is_one_block_not_n_squared(scorer):
    # At N=3000 one N x N float64 matrix alone takes 72 MB.
    rng = np.random.default_rng(0)
    classes = np.arange(3000) % 10
    ats = ActivationTraces(rng.normal(size=(10, 8))[classes] + rng.normal(size=(3000, 8)), classes)
    tracemalloc.start()
    try:
        scorer(ats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _clustered_traces(n, seed):
    """Traces like the benchmark's: one Gaussian blob in 16 dimensions per class of 10."""
    rng = np.random.default_rng(seed)
    classes = rng.permutation(np.arange(n) % 10)
    return ActivationTraces(rng.normal(0.0, 3.0, size=(10, 16))[classes] + rng.normal(size=(n, 16)),
                            classes)


@pytest.mark.filterwarnings("ignore:.*sentinel")
@pytest.mark.parametrize("traces", [_blocky_traces, lambda: _clustered_traces(1000, 0)],
                         ids=["blocky", "clustered-1000"])
def test_thread_count_does_not_change_the_scores(traces, monkeypatch):
    ats = traces()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    one_thread = compute_dsa(ats).values
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, so a lost row write would show
    try:
        for cpus in (1, 2, 3, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert compute_dsa(ats).values.tobytes() == one_thread.tobytes()
            np.testing.assert_array_equal(compute_lsa(ats).values, reference_lsa(ats))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("scorer", [compute_dsa, compute_lsa])
def test_scoring_memory_holds_on_64_cpus(scorer, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    test_scoring_memory_is_one_block_not_n_squared(scorer)


def test_a_failing_block_reaches_the_caller(monkeypatch):
    calls = itertools.count(1)

    def failing_logsumexp(*args, **kwargs):
        if next(calls) == 2:
            raise RuntimeError("block failed")
        return logsumexp(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(auxvar, "logsumexp", failing_logsumexp)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        compute_lsa(_clustered_traces(1000, 0))  # 32 blocks
    assert threading.active_count() == threads
    # The workers stop at their next block: the failing one plus one in flight per other worker.
    assert next(calls) - 1 <= 2 + 3


def _unshifted_lsa(X):
    """-log of the leave-one-out Gaussian KDE, computed directly, without a shift.

    Differences are taken per dimension, so an offset shared by every trace cancels exactly.
    """
    n, d = X.shape
    bw = X.std(axis=0) * n ** (-1.0 / (d + 4))
    log_k = np.full((n, n), -np.sum(np.log(bw * math.sqrt(2 * math.pi))))
    for dim in range(d):
        diff = (X[:, dim, None] - X[None, :, dim]) / bw[dim]
        log_k -= 0.5 * diff * diff
    np.fill_diagonal(log_k, -np.inf)
    return -(logsumexp(log_k, axis=1) - math.log(n - 1))


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_lsa_matches_the_elementwise_kde(offset):
    X = _clustered_traces(1000, 0).matrix + offset
    expected = shift_positive(_unshifted_lsa(X))
    np.testing.assert_allclose(compute_lsa(ActivationTraces(X)).values, expected, rtol=1e-12)


def test_dsa_ignores_an_offset_shared_by_every_trace():
    # X - 1e6 is exact, so both calls score the same distances.
    ats = _clustered_traces(1000, 0)
    offset = ats.matrix + 1e6
    plain = compute_dsa(ActivationTraces(offset - 1e6, ats.predicted_class)).values
    np.testing.assert_allclose(compute_dsa(ActivationTraces(offset, ats.predicted_class)).values,
                               plain, rtol=1e-12, atol=0)


class TestLSA:
    def test_outlier_has_larger_surprise(self):
        ats = ActivationTraces(np.array([[0.0], [0.1], [-0.1], [0.05], [5.0]]))
        lsa = compute_lsa(ats).values
        assert lsa[4] > lsa[:4].max()

    def test_hand_example_against_direct_kde(self):
        X = np.array([[0.0], [0.2], [-0.2], [5.0]])
        lsa = compute_lsa(ats := ActivationTraces(X)).values
        n = X.shape[0]
        bw = X[:, 0].std() * n ** (-1.0 / 5)
        # Independent leave-one-out KDE evaluation by explicit loops.
        expected = []
        for i in range(n):
            total = 0.0
            for j in range(n):
                if j == i:
                    continue
                total += math.exp(-0.5 * ((X[i, 0] - X[j, 0]) / bw) ** 2) / (
                    bw * math.sqrt(2 * math.pi)
                )
            expected.append(-math.log(total / (n - 1)))
        np.testing.assert_allclose(lsa, expected, rtol=1e-10)
        assert lsa[3] > max(lsa[:3])

    def test_all_dims_dropped_errors(self):
        ats = ActivationTraces(np.full((5, 2), 3.0))
        with pytest.raises(ValueError):
            compute_lsa(ats)

    def test_constant_dimension_is_ignored(self):
        varying = np.random.default_rng(1).normal(size=(8, 1))
        with_const = np.column_stack([varying, np.full(8, 2.0)])
        a = compute_lsa(ActivationTraces(varying)).values
        b = compute_lsa(ActivationTraces(with_const)).values
        np.testing.assert_allclose(a, b)

    @pytest.mark.parametrize("dims, scale", [(1, 0.01), (2, 0.05)])
    def test_concentrated_traces_are_shifted_nonnegative(self, dims, scale):
        X = np.random.default_rng(0).normal(size=(200, dims)) * scale
        unshifted = _unshifted_lsa(X)
        assert unshifted.min() < 0  # the density exceeds 1 on these traces
        lsa = compute_lsa(ActivationTraces(X)).values
        assert np.all(np.isfinite(lsa))
        assert 0.0 <= lsa.min() < 1.0
        np.testing.assert_allclose(lsa - unshifted, math.ceil(-unshifted.min()), rtol=0, atol=1e-9)


class TestReconstructionError:
    def test_identical_is_zero(self):
        img = np.ones((2, 2, 3))
        assert reconstruction_error(img, img) == 0.0

    def test_single_pixel(self):
        assert reconstruction_error([[[1.0]]], [[[0.0]]]) == 1.0

    def test_hand_example(self):
        a = np.array([1.0, 3.0]).reshape(2, 1, 1)
        b = np.zeros((2, 1, 1))
        assert reconstruction_error(a, b) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 4, 3)), rng.normal(size=(4, 4, 3))
        assert reconstruction_error(a, b) == pytest.approx(reconstruction_error(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_error(np.zeros((2, 2, 1)), np.zeros((2, 2, 3)))


class TestNormalization:
    def test_min_max_basic(self):
        np.testing.assert_allclose(min_max_normalize([2, 4, 6]), [0, 0.5, 1])

    def test_min_max_identity(self):
        np.testing.assert_allclose(min_max_normalize([0.0, 0.25, 1.0]), [0.0, 0.25, 1.0])

    def test_min_max_negative(self):
        np.testing.assert_allclose(min_max_normalize([-1.0, 1.0]), [0.0, 1.0])

    def test_min_max_constant_errors(self):
        with pytest.raises(ValueError):
            min_max_normalize([3.0, 3.0])

    def test_shift_ceiling(self):
        np.testing.assert_allclose(shift_positive([-1.2, 0.5]), [0.8, 2.5])

    def test_shift_noop_when_nonnegative(self):
        np.testing.assert_allclose(shift_positive([0.0, 2.0]), [0.0, 2.0])

    def test_shift_integer_min(self):
        np.testing.assert_allclose(shift_positive([-3.0, -3.0]), [0.0, 0.0])

    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=30).filter(
            lambda xs: max(xs) > min(xs)
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rank_preservation(self, xs):
        x = np.array(xs, dtype=float) / 1000.0
        ranks = np.argsort(x, kind="stable")
        assert np.array_equal(np.argsort(min_max_normalize(x), kind="stable"), ranks)
        assert np.array_equal(np.argsort(shift_positive(x), kind="stable"), ranks)


class TestSelectionProbabilities:
    def test_uniform_reduces_to_srs(self):
        np.testing.assert_allclose(selection_probabilities(np.ones(4)), [0.25] * 4)

    def test_hand_example(self):
        np.testing.assert_allclose(
            selection_probabilities(np.array([2.0, 1.0, 1.0])), [0.5, 0.25, 0.25]
        )

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            selection_probabilities(np.zeros(2))

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pi = selection_probabilities(rng.random(50))
            assert abs(pi.sum() - 1.0) < 1e-12

    def test_zero_floor_keeps_everything_selectable(self):
        pi = selection_probabilities(np.array([0.0, 1.0]))
        assert pi[0] > 0
        assert abs(pi.sum() - 1.0) < 1e-12

    def test_zero_floor_values_are_pinned(self):
        pi = selection_probabilities(np.array([0.0, 1.0]))
        assert [float(p).hex() for p in pi] == ["0x1.12e0be79343a6p-30", "0x1.fffffff768fa0p-1"]

    @pytest.mark.parametrize("chi", [[0.0, 1e-320], [5e-324, 2.0]])
    def test_a_probability_rounding_to_zero_is_refused(self, chi):
        with pytest.raises(ValueError, match="span too wide a range"):
            selection_probabilities(np.array(chi))

    @given(st.lists(st.floats(0.01, 1e3), min_size=2, max_size=20), st.floats(0.01, 100))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, xs, c):
        x = np.array(xs)
        np.testing.assert_allclose(
            selection_probabilities(c * x), selection_probabilities(x), rtol=1e-9
        )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ChiVector("chi", [[0.5]]), "auxiliary values must be a flat vector"),
        (lambda: ChiVector("chi", [np.nan]), "auxiliary values must be finite"),
        (lambda: ChiVector("chi", [-0.5]), "auxiliary values must be nonnegative"),
        (lambda: ActivationTraces(np.zeros(3)),
         "activation traces must be an N x L matrix with L >= 1"),
        (lambda: ActivationTraces([[np.inf]]), "activation traces contain non-finite entries"),
        (lambda: ActivationTraces(np.zeros((3, 2)), predicted_class=[0, 1]),
         "one predicted class per trace required"),
        (lambda: compute_dsa(ActivationTraces(np.zeros((3, 2)))), "DSA requires predicted classes"),
        (lambda: compute_lsa(ActivationTraces(np.zeros((1, 2)))), "LSA needs at least two records"),
        (lambda: selection_probabilities([0.5, -0.1]), "chi values must be nonnegative"),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
