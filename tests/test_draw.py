import numpy as np
import pytest
from scipy import stats

from opsample.draw import (
    EnumeratingStream,
    RandomStream,
    derive_seed,
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


# srs draws its ids with replacement as integers(0, N, size=n).


def test_srs_wr_single_id():
    out = RandomStream(0).integers(0, 1, size=3)
    assert list(out) == [0, 0, 0]


def test_srs_wr_frequencies():
    draws = RandomStream(3).integers(0, 2, size=100_000)
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


# PPS with replacement draws weighted_index(np.cumsum(weights), n), as sups and twoups do.


def test_pps_draw_degenerate_weight():
    for seed in range(20):
        assert list(RandomStream(seed).weighted_index(np.cumsum([1.0, 0.0]), 1)) == [0]


def test_pps_frequencies():
    draws = RandomStream(9).weighted_index(np.cumsum([2.0, 1.0, 1.0]), 100_000)
    for i, p in enumerate([0.5, 0.25, 0.25]):
        freq = np.mean(draws == i)
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / 100_000)


def test_pps_equal_weights_uniform_chisquare():
    draws = RandomStream(11).weighted_index(np.cumsum(np.ones(5)), 100_000)
    counts = np.bincount(draws, minlength=5)
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.001


def test_pps_concentrated_weight_dominates():
    weights = [1.0, 1e6, 1.0]
    draws = RandomStream(2).weighted_index(np.cumsum(weights), 1000)
    assert np.mean(draws == 1) > 0.99


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


# ---------------------------------------------------------------------------
# index: a uniform int in [0, high) outside an excluded set, read from chunks


def test_index_never_returns_an_excluded_value():
    rng = RandomStream(4)
    excluded = {0, 2, 3, 5, 8}
    draws = [rng.index(10, excluded) for _ in range(2000)]
    assert set(draws) == {1, 4, 6, 7, 9}
    # A growing excluded set, as a without-replacement law grows it.
    taken = set()
    for _ in range(30):
        taken.add(rng.index(30, taken))
    assert taken == set(range(30))


def test_index_is_uniform_over_the_admissible_values_across_refills():
    # 20,000 draws at a third rejected span hundreds of chunk refills.
    rng = RandomStream(12)
    excluded = {1, 4, 7}
    draws = np.array([rng.index(9, excluded) for _ in range(20_000)])
    counts = np.bincount(draws, minlength=9)
    assert counts[sorted(excluded)].sum() == 0
    _, p_value = stats.chisquare(np.delete(counts, sorted(excluded)))
    assert p_value > 0.001


def test_index_and_bernoulli_repeat_for_the_same_seed():
    def sequence(seed):
        rng = RandomStream(seed)
        return [(rng.index(7, {2}), rng.index(1000), rng.bernoulli(0.3)) for _ in range(300)]

    assert sequence(8) == sequence(8)
    assert sequence(8) != sequence(9)


def test_bernoulli_frequency_across_refills():
    rng = RandomStream(6)
    trials = 20_000
    freq = np.mean([rng.bernoulli(0.3) for _ in range(trials)])
    assert abs(freq - 0.3) < 4 * np.sqrt(0.3 * 0.7 / trials)


def test_enumerating_index_branches_equally_over_the_admissible_values():
    paths = _paths(lambda stream: stream.index(6, {0, 3}))
    assert [outcome for _, outcome in paths] == [1, 2, 4, 5]
    assert all(p == 0.25 for p, _ in paths)


@pytest.mark.parametrize("stream", [RandomStream(0), EnumeratingStream()])
@pytest.mark.parametrize("high, excluded", [(3, {0, 1, 2}), (2, {0, 1, 5}), (0, ())])
def test_index_refuses_an_excluded_set_covering_the_range(stream, high, excluded):
    with pytest.raises(ValueError, match=f"every value in \\[0, {high}\\) is excluded"):
        stream.index(high, excluded)


# ---------------------------------------------------------------------------
# distinct_rows: rows of distinct uniform ints, each an SRS without replacement


def test_distinct_rows_hold_distinct_entries_uniformly():
    rng = RandomStream(3)
    rows = np.concatenate([rng.distinct_rows(5, 200, 3) for _ in range(50)])
    assert rows.shape == (10_000, 3) and rows.min() >= 0 and rows.max() < 5
    assert all(len(set(row)) == 3 for row in rows.tolist())
    # Each of the 5 * 4 * 3 ordered tuples, uniformly.
    codes = (rows * [25, 5, 1]).sum(axis=1)
    counts = np.bincount(codes, minlength=125)[np.unique(codes)]
    assert counts.size == 60
    assert stats.chisquare(counts).pvalue > 0.001


def test_distinct_rows_at_width_one_are_plain_iid_draws():
    # No column pair at width 1, so nothing is redrawn.
    a, b = RandomStream(5), RandomStream(5)
    assert a.distinct_rows(7, 30, 1).ravel().tolist() == b.integers(0, 7, size=30).tolist()


def test_enumerating_distinct_rows_visits_each_ordered_tuple_once():
    paths = _paths(lambda stream: tuple(map(tuple, stream.distinct_rows(4, 2, 2).tolist())))
    assert len(paths) == len({outcome for _, outcome in paths}) == (4 * 3) ** 2
    assert all(len(set(row)) == 2 for _, outcome in paths for row in outcome)
    assert all(p == pytest.approx(1 / 144, abs=1e-15) for p, _ in paths)
    assert sum(p for p, _ in paths) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: srs_without_replacement([1, 2, 3], -1, rng), "sample size must be >= 0"),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call(RandomStream(0))
