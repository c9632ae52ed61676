"""Behavioral and hand-example tests for the eight sampling techniques."""

import numpy as np
import pytest

from conftest import make_classification, make_regression

from opsample.auxvar import selection_probabilities
from opsample.draw import RandomStream
from opsample.population import LabelingOracle
from opsample.techniques import (
    REGISTRY,
    TECHNIQUES,
    TechniqueConfig,
    run_ces,
    run_deepest,
    run_gbs,
    run_rhcs,
    run_srs,
    run_ssrs,
    run_sups,
    run_technique,
    run_twoups,
)


def run_named(name, pop, n, seed, chi=None, **kwargs):
    config = TechniqueConfig(technique=name, budget=n, **kwargs)
    return run_technique(pop, LabelingOracle(pop), config, RandomStream(seed), chi=chi)


CHI = np.array([0.9, 0.1, 0.5, 0.3, 0.7, 0.2])
Z = np.array([1, 0, 1, 0, 0, 1])


@pytest.fixture
def pop6():
    return make_classification(Z, CHI)


# ---------------------------------------------------------------------------
# Simple random sampling


def test_srs_estimate_is_sample_mean(pop6):
    res = run_srs(pop6, LabelingOracle(pop6), 4, RandomStream(7))
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-15)
    assert res.xi_hat == pytest.approx(1.0 - res.estimate, abs=1e-15)


def test_srs_failures_count_distinct_failures_only(pop6):
    res = run_srs(pop6, LabelingOracle(pop6), 12, RandomStream(3))
    distinct = np.unique(res.selected_ids)
    assert res.failures == int(Z[distinct].sum())
    assert res.distinct_labeled == distinct.size


# ---------------------------------------------------------------------------
# Unequal-probability sampling with replacement


def test_sups_estimate_matches_reweighting_formula(pop6):
    pi = selection_probabilities(CHI)
    res = run_sups(pop6, LabelingOracle(pop6), 3, CHI, RandomStream(11))
    expected = np.sum(Z[res.selected_ids] / pi[res.selected_ids]) / (3 * 6)
    assert res.estimate == pytest.approx(expected, abs=1e-15)


def test_sups_single_draw_hand_values():
    # chi = [3, 1] gives pi = [0.75, 0.25]; a single draw of the failing
    # record (id 0) estimates 1/(1*2*0.75) = 2/3, a draw of id 1 estimates 0.
    pop = make_classification([1, 0], [3.0, 1.0])
    seen = set()
    for seed in range(40):
        res = run_sups(pop, LabelingOracle(pop), 1, np.array([3.0, 1.0]), RandomStream(seed))
        if res.selected_ids[0] == 0:
            assert res.estimate == pytest.approx(2.0 / 3.0, abs=1e-15)
        else:
            assert res.estimate == pytest.approx(0.0, abs=1e-15)
        seen.add(int(res.selected_ids[0]))
    assert seen == {0, 1}


def test_sups_uniform_chi_reduces_to_sample_mean(pop6):
    chi = np.ones(6)
    res = run_sups(pop6, LabelingOracle(pop6), 5, chi, RandomStream(2))
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-12)


# ---------------------------------------------------------------------------
# Random-grouping without-replacement scheme


def test_rhcs_full_budget_recovers_truth_exactly(pop6):
    # n = N puts every record in its own group; the estimate is the census mean.
    res = run_rhcs(pop6, LabelingOracle(pop6), 6, CHI, RandomStream(5))
    assert res.estimate == pytest.approx(Z.mean(), abs=1e-12)
    assert sorted(res.selected_ids) == list(range(6))


def test_rhcs_single_group_matches_single_pps_draw(pop6):
    # n = 1: one group holding everyone, total probability 1, so the
    # estimate is z_i / (N * pi_i) for the drawn record.
    pi = selection_probabilities(CHI)
    res = run_rhcs(pop6, LabelingOracle(pop6), 1, CHI, RandomStream(9))
    i = int(res.selected_ids[0])
    assert res.estimate == pytest.approx(Z[i] / (6 * pi[i]), abs=1e-12)


def test_rhcs_is_without_replacement(pop6):
    for seed in range(20):
        res = run_rhcs(pop6, LabelingOracle(pop6), 4, CHI, RandomStream(seed))
        assert len(np.unique(res.selected_ids)) == 4


def test_rhcs_budget_above_population_rejected(pop6):
    with pytest.raises(ValueError, match="exceeds population size"):
        run_rhcs(pop6, LabelingOracle(pop6), 7, CHI, RandomStream(0))


# ---------------------------------------------------------------------------
# Representativeness-driven sampling


def test_ces_estimate_is_sample_mean_and_without_replacement(pop6):
    res = run_ces(pop6, LabelingOracle(pop6), 5, RandomStream(4), chi=CHI, initial=2, group=2, candidates=20, bins=4)
    assert len(res.selected_ids) == 5
    assert len(np.unique(res.selected_ids)) == 5
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-15)


def test_ces_tracks_feature_distribution():
    # Bimodal chi: a representative sample keeps roughly the population's
    # low/high mix rather than drifting to one mode.
    rng = np.random.default_rng(0)
    chi = np.concatenate([rng.random(160) * 0.2, 0.8 + rng.random(40) * 0.2])
    z = np.zeros(200, dtype=int)
    pop = make_classification(z, chi)
    high_fracs = []
    for seed in range(10):
        res = run_ces(pop, LabelingOracle(pop), 50, RandomStream(seed), chi=chi,
                      initial=10, group=5, candidates=100, bins=10)
        high_fracs.append(np.mean(chi[res.selected_ids] > 0.5))
    assert abs(np.mean(high_fracs) - 0.2) < 0.08


def test_ces_budget_below_initial_rejected(pop6):
    with pytest.raises(ValueError, match="initial"):
        run_ces(pop6, LabelingOracle(pop6), 3, RandomStream(0), chi=CHI, initial=4)


# ---------------------------------------------------------------------------
# Adaptive failure-seeking sampler


def test_deepest_two_record_hand_enumeration():
    # chi = [1, 2], threshold = 1.7, r = 0: both steps are uniform, and the
    # step estimate telescopes to 0.75 (first pick id 0) or 0.25 (id 1).
    pop = make_classification([1, 0], [1.0, 2.0])
    chi = np.array([1.0, 2.0])
    seen = set()
    for seed in range(40):
        res = run_deepest(pop, LabelingOracle(pop), 2, chi, RandomStream(seed), r=0.0)
        first = int(res.selected_ids[0])
        assert res.estimate == pytest.approx(0.75 if first == 0 else 0.25, abs=1e-15)
        seen.add(first)
    assert seen == {0, 1}


def test_deepest_is_without_replacement_and_respects_budget(pop6):
    for seed in range(20):
        res = run_deepest(pop6, LabelingOracle(pop6), 4, CHI, RandomStream(seed))
        assert len(res.selected_ids) == 4
        assert len(np.unique(res.selected_ids)) == 4
        assert res.distinct_labeled == 4


def test_deepest_guidance_prefers_high_chi():
    # With r near 1 the sampler should oversample the above-threshold tail
    # relative to uniform sampling.
    rng = np.random.default_rng(1)
    chi = rng.random(100)
    z = np.zeros(100, dtype=int)
    pop = make_classification(z, chi)
    threshold = np.quantile(chi, 0.7)
    fracs = []
    for seed in range(30):
        res = run_deepest(pop, LabelingOracle(pop), 20, chi, RandomStream(seed), r=0.95)
        fracs.append(np.mean(chi[res.selected_ids] > threshold))
    assert np.mean(fracs) > 0.6  # uniform would give about 0.3


def test_deepest_rejects_all_zero_chi(pop6):
    with pytest.raises(ValueError, match="all-zero"):
        run_deepest(pop6, LabelingOracle(pop6), 2, np.zeros(6), RandomStream(0))


def test_deepest_regression_variants_differ():
    pop = make_regression([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
    chi = np.array([0.1, 0.2, 0.3, 0.4])
    default = run_deepest(pop, LabelingOracle(pop), 3, chi, RandomStream(8))
    verbatim = run_deepest(
        pop, LabelingOracle(pop), 3, chi, RandomStream(8), verbatim_regression=True
    )
    assert list(default.selected_ids) == list(verbatim.selected_ids)
    assert default.estimate != verbatim.estimate


# ---------------------------------------------------------------------------
# Stratified sampling with variance-optimal allocation


def test_ssrs_full_budget_recovers_truth_exactly(pop6):
    res = run_ssrs(pop6, LabelingOracle(pop6), 6, CHI, 2, RandomStream(1))
    assert res.estimate == pytest.approx(Z.mean(), abs=1e-12)


def test_ssrs_two_strata_hand_case():
    # chi separates records into {0,1,2} (constant 0.1) and {3,4} (constant
    # 0.9).  Constant within-stratum chi forces the proportional fallback:
    # n_p = [2, 2] for n = 4.  The high stratum is all failures, so its
    # stratum mean is exactly 1 and the estimate is (3*m + 2)/5 with
    # m in {0, 1/2, 1}.
    chi = np.array([0.1, 0.1, 0.1, 0.9, 0.9])
    z = np.array([0, 1, 0, 1, 1])
    pop = make_classification(z, chi)
    for seed in range(10):
        res = run_ssrs(pop, LabelingOracle(pop), 4, chi, 2, RandomStream(seed))
        assert res.knobs["allocation"] == [2, 2]
        m = z[[i for i in res.selected_ids if chi[i] < 0.5]].mean()
        assert res.estimate == pytest.approx((3 * m + 2) / 5, abs=1e-12)


def test_ssrs_zero_allocation_is_flagged():
    chi = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    pop = make_classification(np.zeros(6, dtype=int), chi)
    res = run_ssrs(pop, LabelingOracle(pop), 1, chi, 2, RandomStream(0))
    assert any("zero allocation" in f for f in res.flags)


def test_ssrs_respects_allocation_budget(pop6):
    res = run_ssrs(pop6, LabelingOracle(pop6), 4, CHI, 3, RandomStream(6))
    assert sum(res.knobs["allocation"]) == 4
    assert len(res.selected_ids) == 4
    assert len(np.unique(res.selected_ids)) == 4


# ---------------------------------------------------------------------------
# Variance-gradient adaptive stratified sampling


def test_gbs_single_partition_is_with_replacement_mean(pop6):
    res = run_gbs(pop6, LabelingOracle(pop6), 8, CHI, 1, RandomStream(3))
    assert len(res.selected_ids) == 8
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-12)


def test_gbs_warm_up_covers_every_partition(pop6):
    res = run_gbs(pop6, LabelingOracle(pop6), 6, CHI, 3, RandomStream(4))
    assert res.knobs["P"] == 3
    # with budget >= P every partition receives at least one draw, so no
    # zero-draw flag is raised
    assert not any("no draws" in f for f in res.flags)


def test_gbs_truncated_warm_up_flagged(pop6):
    res = run_gbs(pop6, LabelingOracle(pop6), 2, CHI, 3, RandomStream(4))
    assert any("warm-up truncated" in f for f in res.flags)
    assert len(res.selected_ids) == 2


def test_gbs_steers_draws_toward_heterogeneous_partitions():
    # Partition 0 (low chi) has mixed outcomes; partition 1 (high chi) is
    # constant.  The variance gradient should concentrate draws on the
    # mixed partition.
    rng = np.random.default_rng(2)
    chi = np.concatenate([rng.random(50) * 0.2, 0.8 + rng.random(50) * 0.2])
    z = np.concatenate([rng.integers(0, 2, 50), np.ones(50, dtype=int)])
    pop = make_classification(z, chi)
    counts = []
    for seed in range(20):
        res = run_gbs(pop, LabelingOracle(pop), 40, chi, 2, RandomStream(seed))
        counts.append(np.mean(chi[res.selected_ids] < 0.5))
    assert np.mean(counts) > 0.7


# ---------------------------------------------------------------------------
# Two-stage unequal-probability sampling


def test_twoups_single_partition_reduces_to_sample_mean(pop6):
    res = run_twoups(pop6, LabelingOracle(pop6), 4, CHI, 1, RandomStream(5))
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-12)
    assert len(np.unique(res.selected_ids)) == 4


def test_twoups_estimate_matches_two_stage_formula(pop6):
    res = run_twoups(pop6, LabelingOracle(pop6), 3, CHI, 2, RandomStream(12))
    pi = selection_probabilities(CHI)
    # reconstruct psi and sizes from the recorded knobs
    psi = np.array(res.knobs["psi"])
    # brute-force the per-record partition by matching psi share
    from opsample.partition import kmeans_1d

    pm = kmeans_1d(CHI, 2, 0)
    total = sum(
        Z[i] * pm.sizes[pm.assignment[i]] / psi[pm.assignment[i]] for i in res.selected_ids
    )
    assert res.estimate == pytest.approx(total / (6 * 3), abs=1e-12)


def test_twoups_pool_exhaustion_flagged():
    chi = np.array([0.1, 0.9])
    pop = make_classification([0, 1], chi)
    flagged = False
    for seed in range(30):
        res = run_twoups(pop, LabelingOracle(pop), 2, chi, 2, RandomStream(seed))
        flagged = flagged or any("reused with replacement" in f for f in res.flags)
        assert len(res.selected_ids) == 2
    # n=2 over two singleton partitions double-hits one partition often
    assert flagged


# ---------------------------------------------------------------------------
# Cross-technique behavior


@pytest.mark.parametrize("name", TECHNIQUES)
def test_budget_and_determinism(name, pop6):
    kwargs = {"aux": "chi"} if REGISTRY[name].needs_chi else {}
    if name == "ces":
        kwargs.update(ces_initial=2, ces_group=2, ces_candidates=20, ces_bins=4)
    if REGISTRY[name].partitioned:
        kwargs["k"] = 2
    a = run_named(name, pop6, 4, 99, **kwargs)
    b = run_named(name, pop6, 4, 99, **kwargs)
    c = run_named(name, pop6, 4, 100, **kwargs)
    assert list(a.selected_ids) == list(b.selected_ids)
    assert a.estimate == b.estimate
    assert a.distinct_labeled <= 4
    assert len(a.selected_ids) == 4
    # a different seed should usually change the sample
    assert list(a.selected_ids) != list(c.selected_ids) or a.technique == name


@pytest.mark.parametrize("name", [t for t in TECHNIQUES if REGISTRY[t].needs_chi])
def test_chi_techniques_require_aux(name, pop6):
    config = TechniqueConfig(technique=name, budget=2, k=2)
    with pytest.raises(ValueError, match="auxiliary"):
        run_technique(pop6, LabelingOracle(pop6), config, RandomStream(0))


def test_every_config_field_is_read(pop6):
    """A TechniqueConfig field that no dispatch reads is a dead knob."""

    class Recorder:
        def __init__(self, config):
            self._config = config

        def __getattr__(self, name):
            read.add(name)
            return getattr(self._config, name)

    read = set()
    for name in TECHNIQUES:
        kwargs = dict(ces_initial=2, ces_group=2, ces_candidates=20, ces_bins=4, k=2)
        config = TechniqueConfig(technique=name, aux="chi", budget=4, **kwargs)
        run_technique(pop6, LabelingOracle(pop6), Recorder(config), RandomStream(0))
    fields = set(TechniqueConfig.__dataclass_fields__)
    assert read == fields
    assert {f for entry in REGISTRY.values() for f, _ in entry.knobs} <= fields


def test_regression_failures_use_threshold():
    pop = make_regression([5.0, 20.0, 14.0], [0.2, 0.5, 0.3])
    res = run_srs(pop, LabelingOracle(pop), 6, RandomStream(1), failure_threshold=12.5)
    labeled = np.unique(res.selected_ids)
    deltas = np.array([5.0, 20.0, 14.0])[labeled]
    assert res.failures == int(np.count_nonzero(deltas >= 12.5))
    assert res.offsets is not None
    assert res.estimate == pytest.approx(
        np.mean(np.array([5.0, 20.0, 14.0])[res.selected_ids] ** 2), abs=1e-12
    )


def test_trace_recording(pop6):
    res = run_srs(pop6, LabelingOracle(pop6), 3, RandomStream(0), record_trace=True)
    assert res.trace is not None
    assert len(res.trace.entries) == 3
    assert all(p == pytest.approx(1 / 6) for (_, _, p, _) in res.trace.entries)


def test_result_json_round_trip(pop6):
    import json

    res = run_srs(pop6, LabelingOracle(pop6), 3, RandomStream(0), record_trace=True)
    payload = json.loads(res.to_json(include_trace=True))
    assert payload["technique"] == "srs"
    assert len(payload["selected_ids"]) == 3
    assert len(payload["trace"]) == 3
    assert payload["xi_hat"] == pytest.approx(1.0 - payload["estimate"])
