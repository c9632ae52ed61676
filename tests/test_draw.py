import numpy as np
import pytest
from scipy import stats

from opsample.draw import (
    EnumeratingStream,
    RandomStream,
    derive_seed,
    pps_with_replacement,
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


def test_grouping_is_partition():
    # The ids come back in group order: every id exactly once.
    for seed in range(10):
        order = RandomStream(seed).grouping(17, [4, 4, 3, 3, 3])
        assert sorted(order.tolist()) == list(range(17))


# ---------------------------------------------------------------------------
# Batched primitives consume the stream as the element-by-element calls do


@pytest.mark.parametrize("seed", range(5))
def test_integers_with_array_bounds_equals_scalar_calls(seed):
    lows = np.array([0, 3, 0, 7, 0, 0, 5, 2**40])
    highs = np.array([1, 10, 2, 8, 2**33, 1000, 6, 2**41])  # ranges of 1 consume nothing
    batched, scalar = RandomStream(seed), RandomStream(seed)
    expected = [scalar.integers(lo, hi) for lo, hi in zip(lows.tolist(), highs.tolist())]
    assert batched.integers(lows, highs).tolist() == expected
    assert batched.integers(np.arange(6), 9).tolist() == [scalar.integers(i, 9) for i in range(6)]
    assert batched.integers(0, highs[:4]).tolist() == [scalar.integers(0, h) for h in highs[:4]]
    assert batched.random() == scalar.random()  # both streams are left in the same state


@pytest.mark.parametrize("seed", range(5))
def test_weighted_index_by_rows_equals_row_calls(seed):
    weights = np.random.default_rng(seed).random((6, 5))
    weights[weights < 0.3] = 0.0  # zero-weight entries are never drawn
    weights[:, 2] += 0.1
    cum = np.cumsum(weights, axis=1)
    batched, scalar = RandomStream(seed), RandomStream(seed)
    expected = [scalar.weighted_index(row) for row in cum]
    assert batched.weighted_index(cum).tolist() == expected
    assert batched.random() == scalar.random()


def _paths(law):
    """(probability, outcome) of every path of law(stream), in enumeration order."""
    stream, paths = EnumeratingStream(), []
    while True:
        outcome = law(stream)
        paths.append((stream.probability, outcome))
        if not stream.next_path():
            return paths


def test_enumerating_stream_replays_batched_forms_as_scalar_calls():
    lows, highs = [0, 1, 0], [3, 4, 1]
    cum = np.cumsum([[0.5, 0.0, 1.5], [1.0, 1.0, 2.0]], axis=1)

    def batched(stream):
        return (
            tuple(stream.integers(np.array(lows), np.array(highs)).tolist()),
            tuple(stream.integers(np.arange(2), 3).tolist()),
            tuple(stream.weighted_index(cum).tolist()),
        )

    def scalar(stream):
        return (
            tuple(stream.integers(lo, hi) for lo, hi in zip(lows, highs)),
            tuple(stream.integers(i, 3) for i in range(2)),
            tuple(stream.weighted_index(row) for row in cum),
        )

    paths = _paths(batched)
    assert paths == _paths(scalar)
    assert len(paths) == 3 * 3 * (3 * 2) * (2 * 3)
    assert sum(p for p, _ in paths) == pytest.approx(1.0, abs=1e-12)
