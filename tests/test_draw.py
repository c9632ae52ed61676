import numpy as np
import pytest
from scipy import stats

from opsample.draw import (
    RandomStream,
    derive_seed,
    pps_with_replacement,
    random_grouping,
    srs_with_replacement,
    srs_without_replacement,
)


def test_reproducibility():
    a = RandomStream(42)
    b = RandomStream(42)
    assert np.array_equal(a.random(100), b.random(100))
    assert np.array_equal(a.integers(0, 1000, size=50), b.integers(0, 1000, size=50))


def test_split_streams_differ_and_are_stable():
    root = RandomStream(7)
    assert root.split("a").seed == root.split("a").seed
    assert root.split("a").seed != root.split("b").seed
    assert derive_seed(7, "a") == root.split("a").seed


def test_srs_wr_single_id():
    out = srs_with_replacement([5], 3, RandomStream(0))
    assert list(out) == [5, 5, 5]


def test_srs_wr_errors():
    with pytest.raises(ValueError):
        srs_with_replacement([], 1, RandomStream(0))
    with pytest.raises(ValueError):
        srs_with_replacement([1, 2], 0, RandomStream(0))


def test_srs_wr_frequencies():
    draws = srs_with_replacement([0, 1], 100_000, RandomStream(3))
    freq = np.mean(draws == 0)
    sigma = 0.5 / np.sqrt(100_000)
    assert abs(freq - 0.5) < 3 * sigma


def test_srs_wor_full_draw_is_permutation():
    ids = np.arange(10)
    out = srs_without_replacement(ids, 10, RandomStream(1))
    assert sorted(out) == list(range(10))


def test_srs_wor_zero_and_error():
    assert len(srs_without_replacement([1, 2, 3], 0, RandomStream(0))) == 0
    with pytest.raises(ValueError):
        srs_without_replacement([1, 2], 3, RandomStream(0))


def test_srs_wor_pair_frequencies():
    rng = RandomStream(5)
    counts = {}
    trials = 30_000
    for _ in range(trials):
        pair = frozenset(srs_without_replacement([0, 1, 2], 2, rng))
        counts[pair] = counts.get(pair, 0) + 1
    sigma = np.sqrt((1 / 3) * (2 / 3) / trials)
    for pair, c in counts.items():
        assert abs(c / trials - 1 / 3) < 3 * sigma, pair


def test_pps_draw_degenerate_weight():
    for seed in range(20):
        assert list(pps_with_replacement([10, 11], [1.0, 0.0], 1, RandomStream(seed))) == [10]


def test_pps_frequencies():
    draws = pps_with_replacement([0, 1, 2], [2, 1, 1], 100_000, RandomStream(9))
    for i, p in enumerate([0.5, 0.25, 0.25]):
        freq = np.mean(draws == i)
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / 100_000)


def test_pps_equal_weights_uniform_chisquare():
    draws = pps_with_replacement(np.arange(5), np.ones(5), 100_000, RandomStream(11))
    counts = np.bincount(draws, minlength=5)
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.001


def test_pps_concentrated_weight_dominates():
    weights = [1.0, 1e6, 1.0]
    draws = pps_with_replacement([0, 1, 2], weights, 1000, RandomStream(2))
    assert np.mean(draws == 1) > 0.99


def test_pps_errors():
    with pytest.raises(ValueError):
        pps_with_replacement([0, 1], [0.0, 0.0], 1, RandomStream(0))
    with pytest.raises(ValueError):
        pps_with_replacement([0, 1], [-1.0, 2.0], 1, RandomStream(0))


def test_grouping_even_split():
    groups = random_grouping(np.arange(4), 2, RandomStream(0))
    assert sorted(len(g) for g in groups) == [2, 2]


def test_grouping_remainder_sizes():
    groups = random_grouping(np.arange(5), 2, RandomStream(0))
    assert sorted(len(g) for g in groups) == [2, 3]


def test_grouping_is_partition():
    for seed in range(10):
        groups = random_grouping(np.arange(17), 5, RandomStream(seed))
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1
        combined = sorted(int(i) for g in groups for i in g)
        assert combined == list(range(17))


def test_grouping_error():
    with pytest.raises(ValueError):
        random_grouping(np.arange(3), 4, RandomStream(0))
