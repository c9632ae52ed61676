"""Behavioral and hand-example tests for the eight sampling techniques."""

import hashlib
import itertools
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_classification, make_regression

from opsample.auxvar import selection_probabilities
from opsample.cli import main
from opsample.draw import RandomStream, srs_without_replacement
from opsample import techniques
from opsample.partition import kmeans_1d
from opsample.population import (
    CLASSIFICATION,
    REGRESSION,
    LabelingOracle,
    Population,
    SyntheticConfig,
    generate_synthetic,
    write_population_csv,
)
from opsample.techniques import (
    REGISTRY,
    TECHNIQUES,
    TechniqueConfig,
    refusal,
    run_technique,
    ssrs_allocation,
)


def run_named(name, pop, n, seed, chi=None, **kwargs):
    """Run a technique once; a ``chi`` given becomes the population's chi column."""
    if chi is not None:
        pop = Population(
            pop.task, np.arange(pop.N), pop._true, pop._predicted,
            aux={"chi": chi}, features=pop.features_matrix(),
        )
        kwargs.setdefault("aux", "chi")
    config = TechniqueConfig(technique=name, budget=n, **kwargs)
    return run_technique(pop, LabelingOracle(pop), config, RandomStream(seed))


CHI = np.array([0.9, 0.1, 0.5, 0.3, 0.7, 0.2])
Z = np.array([1, 0, 1, 0, 0, 1])
SMALL_CES = dict(ces_initial=2, ces_group=2, ces_candidates=20, ces_bins=4)


@pytest.fixture
def pop6():
    return make_classification(Z, CHI)


# ---------------------------------------------------------------------------
# Simple random sampling


def test_srs_estimate_is_sample_mean(pop6):
    res = run_named("srs", pop6, 4, 7)
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-15)
    assert res.xi_hat == pytest.approx(1.0 - res.estimate, abs=1e-15)


def test_srs_failures_count_distinct_failures_only(pop6):
    res = run_named("srs", pop6, 12, 3)
    distinct = np.unique(res.selected_ids)
    assert res.failures == int(Z[distinct].sum())
    assert res.distinct_labeled == distinct.size


# ---------------------------------------------------------------------------
# Unequal-probability sampling with replacement


def test_sups_estimate_matches_reweighting_formula(pop6):
    pi = selection_probabilities(CHI)
    res = run_named("sups", pop6, 3, 11, chi=CHI)
    expected = np.sum(Z[res.selected_ids] / pi[res.selected_ids]) / (3 * 6)
    assert res.estimate == pytest.approx(expected, abs=1e-15)


def test_sups_single_draw_hand_values():
    # chi = [3, 1] gives pi = [0.75, 0.25]; a single draw of the failing
    # record (id 0) estimates 1/(1*2*0.75) = 2/3, a draw of id 1 estimates 0.
    pop = make_classification([1, 0], [3.0, 1.0])
    seen = set()
    for seed in range(40):
        res = run_named("sups", pop, 1, seed, chi=np.array([3.0, 1.0]))
        if res.selected_ids[0] == 0:
            assert res.estimate == pytest.approx(2.0 / 3.0, abs=1e-15)
        else:
            assert res.estimate == pytest.approx(0.0, abs=1e-15)
        seen.add(int(res.selected_ids[0]))
    assert seen == {0, 1}


def test_sups_uniform_chi_reduces_to_sample_mean(pop6):
    chi = np.ones(6)
    res = run_named("sups", pop6, 5, 2, chi=chi)
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-12)


# ---------------------------------------------------------------------------
# Random-grouping without-replacement scheme


def test_rhcs_full_budget_recovers_truth_exactly(pop6):
    # n = N puts every record in its own group; the estimate is the census mean.
    res = run_named("rhcs", pop6, 6, 5, chi=CHI)
    assert res.estimate == pytest.approx(Z.mean(), abs=1e-12)
    assert sorted(res.selected_ids) == list(range(6))


def test_rhcs_single_group_matches_single_pps_draw(pop6):
    # n = 1: one group holding everyone, total probability 1, so the
    # estimate is z_i / (N * pi_i) for the drawn record.
    pi = selection_probabilities(CHI)
    res = run_named("rhcs", pop6, 1, 9, chi=CHI)
    i = int(res.selected_ids[0])
    assert res.estimate == pytest.approx(Z[i] / (6 * pi[i]), abs=1e-12)


def test_rhcs_is_without_replacement(pop6):
    for seed in range(20):
        res = run_named("rhcs", pop6, 4, seed, chi=CHI)
        assert len(np.unique(res.selected_ids)) == 4


def test_rhcs_budget_above_population_rejected(pop6):
    with pytest.raises(ValueError, match="exceeds population size"):
        run_named("rhcs", pop6, 7, 0, chi=CHI)


# ---------------------------------------------------------------------------
# Representativeness-driven sampling


def test_ces_estimate_is_sample_mean_and_without_replacement(pop6):
    res = run_named("ces", pop6, 5, 4, chi=CHI, **SMALL_CES)
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
        res = run_named("ces", pop, 50, seed, chi=chi,
                        ces_initial=10, ces_group=5, ces_candidates=100, ces_bins=10)
        high_fracs.append(np.mean(chi[res.selected_ids] > 0.5))
    assert abs(np.mean(high_fracs) - 0.2) < 0.08


def test_ces_budget_below_initial_rejected(pop6):
    with pytest.raises(ValueError, match="initial"):
        run_named("ces", pop6, 3, 0, chi=CHI, ces_initial=4)


# ces_group=2 last: without the budget check it redraws duplicate candidate
# groups forever once one record is left unselected.
@pytest.mark.parametrize("group", [1, 2])
def test_ces_budget_above_population_size_rejected(group):
    pop = make_classification([1, 0, 0, 1, 0], [0.1, 0.4, 0.2, 0.9, 0.6])
    with pytest.raises(ValueError, match="budget 7 exceeds population size 5"):
        run_named("ces", pop, 7, 0, ces_initial=2, ces_group=group, ces_candidates=20)



def test_ces_selects_on_feature_columns():
    # Feature columns win over chi: one feature column selects as that
    # column would as chi, and not as chi does.
    rng = np.random.default_rng(5)
    feature, chi = rng.random(30), rng.random(30)
    z = (rng.random(30) < 0.3).astype(int)
    pop = Population(
        CLASSIFICATION, np.arange(30), z, np.zeros(30, int), aux={"chi": chi},
        features=feature[:, None],
    )
    on_features = run_named("ces", pop, 12, 1, aux="chi", **SMALL_CES)
    as_chi = run_named("ces", make_classification(z, feature), 12, 1, aux="chi", **SMALL_CES)
    on_chi = run_named("ces", make_classification(z, chi), 12, 1, aux="chi", **SMALL_CES)
    assert list(on_features.selected_ids) == list(as_chi.selected_ids)
    assert list(on_features.selected_ids) != list(on_chi.selected_ids)


def test_ces_refuses_a_population_without_features_or_aux():
    pop = make_classification([1, 0, 0, 1])
    with pytest.raises(ValueError, match="CES needs feature columns"):
        run_named("ces", pop, 3, 0, ces_initial=2)


def reference_ces(pop, oracle, config, rng, chi, partition):
    """The ces law as it was before its step became whole-array passes: the byte reference."""
    n, initial, group = config.budget, config.ces_initial, config.ces_group
    candidates, bins = config.ces_candidates, config.ces_bins
    X = techniques._ces_features(pop, chi)
    n_dims = X.shape[1]
    lo = X.min(axis=0)
    width = X.max(axis=0) - lo
    width[width == 0] = 1.0
    bin_idx = np.minimum(((X - lo) / width * bins).astype(np.int64), bins - 1)

    n_cells = n_dims * bins
    cell_ids = np.arange(n_cells)
    row_starts = np.arange(candidates)[:, None] * n_cells
    flat_idx = bin_idx + np.arange(n_dims) * bins
    pop_flat = np.bincount(flat_idx.ravel(), minlength=n_cells) / pop.N
    unselected = techniques._SwapPool(pop.N)
    selected = list(srs_without_replacement(np.arange(pop.N), initial, rng))
    for rid in selected:
        unselected.remove(rid)
    sel_flat = np.bincount(flat_idx[selected].ravel(), minlength=n_cells).astype(float)
    probabilities = [1.0 / pop.N] * initial

    while len(selected) < n:
        g = min(group, n - len(selected))
        pool = unselected.ids[:unselected.size]
        idx = rng.integers(0, pool.size, size=(candidates, g))
        if g > 1:
            while True:
                srt = np.sort(idx, axis=1)
                same = srt[:, 1:] == srt[:, :-1]
                if not same.any():
                    break
                dup = same.any(axis=1)
                idx[dup] = rng.integers(0, pool.size, size=(int(dup.sum()), g))
        cand = pool[idx]
        cells = flat_idx[cand].reshape(candidates, -1)
        combined = (row_starts + cells).ravel()
        delta = np.bincount(combined, minlength=candidates * n_cells)
        delta = delta.reshape(candidates, n_cells)
        total = len(selected) + g
        k = np.arange(g + 1)[:, None]
        terms = pop_flat * np.log((sel_flat + k + 1.0) / (total + bins))
        ce = -terms.ravel()[delta * n_cells + cell_ids].sum(axis=1) / n_dims
        best = int(np.argmin(ce))
        sel_flat += delta[best]
        selected.extend(cand[best].tolist())
        probabilities.extend([1.0 / pool.size] * g)
        for rid in cand[best]:
            unselected.remove(rid)

    selected = np.array(selected, dtype=np.int64)
    y = techniques._estimand(pop, oracle.reveal_many(selected))
    schemes = ["ces-initial"] * initial + ["ces-group"] * (n - initial)
    knobs = {"initial": initial, "group": group, "candidates": candidates, "bins": bins}
    return techniques.Draws(selected, y.mean(), probabilities, schemes, [], knobs)


def _pool_with_features(task):
    """N=200 with 4 feature columns, one of them constant."""
    pop = generate_synthetic(SyntheticConfig(task=task, N=200), seed=7)
    rng = np.random.default_rng(8)
    features = np.column_stack(
        [rng.random(200), rng.normal(size=200), np.full(200, -1.5), rng.integers(0, 3, 200)]
    )
    return Population(
        task, np.arange(200), pop._true, pop._predicted, aux={"chi": pop.aux_vector("chi")},
        features=features,
    )


@pytest.mark.parametrize(
    "task, features, budget, kwargs",
    [
        (CLASSIFICATION, False, 60, {"ces_group": 1}),
        (CLASSIFICATION, False, 47, {"ces_group": 5}),  # last group of 2
        (CLASSIFICATION, False, 60, {"ces_candidates": 1}),
        (CLASSIFICATION, False, 60, {"ces_bins": 1}),
        (CLASSIFICATION, False, 190, {}),  # 10 records left: redraws are frequent
        (CLASSIFICATION, True, 80, {"ces_group": 3, "ces_bins": 7}),
        (REGRESSION, False, 93, {"ces_group": 4}),
        (REGRESSION, True, 120, {}),
    ],
)
def test_ces_matches_the_reference_law(task, features, budget, kwargs):
    if features:
        pop, chi = _pool_with_features(task), None
    else:
        pop = generate_synthetic(SyntheticConfig(task=task, N=200), seed=7)
        chi = pop.aux_vector("chi")
    aux = None if features else "chi"
    config = TechniqueConfig(technique="ces", aux=aux, budget=budget, **kwargs)
    for seed in range(3):
        got = techniques._ces(pop, LabelingOracle(pop), config, RandomStream(seed), chi, None)
        want = reference_ces(pop, LabelingOracle(pop), config, RandomStream(seed), chi, None)
        assert got.selected.tolist() == want.selected.tolist()
        assert got.probabilities == want.probabilities
        assert got.schemes == want.schemes
        assert got.estimate == want.estimate


# ---------------------------------------------------------------------------
# Adaptive failure-seeking sampler


def test_deepest_two_record_hand_enumeration():
    # chi = [1, 2], threshold = 1.7, r = 0: both steps are uniform, and the
    # step estimate telescopes to 0.75 (first pick id 0) or 0.25 (id 1).
    pop = make_classification([1, 0], [1.0, 2.0])
    chi = np.array([1.0, 2.0])
    seen = set()
    for seed in range(40):
        res = run_named("deepest", pop, 2, seed, chi=chi, r=0.0)
        first = int(res.selected_ids[0])
        assert res.estimate == pytest.approx(0.75 if first == 0 else 0.25, abs=1e-15)
        seen.add(first)
    assert seen == {0, 1}


def test_deepest_is_without_replacement_and_respects_budget(pop6):
    for seed in range(20):
        res = run_named("deepest", pop6, 4, seed, chi=CHI)
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
        res = run_named("deepest", pop, 20, seed, chi=chi, r=0.95)
        fracs.append(np.mean(chi[res.selected_ids] > threshold))
    assert np.mean(fracs) > 0.6  # uniform would give about 0.3


def test_deepest_rejects_all_zero_chi(pop6):
    with pytest.raises(ValueError, match="all-zero"):
        run_named("deepest", pop6, 2, 0, chi=np.zeros(6))


def test_deepest_counts_every_uniform_fallback(pop6):
    # At the 1.0 quantile no chi lies above the threshold, so every step
    # after the first falls back to uniform.
    for seed in range(5):
        res = run_named("deepest", pop6, 4, seed, chi=CHI, threshold_quantile=1.0)
        assert res.counts == {"uniform_fallbacks": 3}
        assert res.schemes == ["srs-first"] + ["srs-step"] * 3


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_deepest_estimate_equals_running_step_sums(task):
    # deepest labels after it selects and sums the steps by cumsum; the
    # per-step running sums give the same float.
    rng = np.random.default_rng(3)
    chi = rng.random(40)
    if task == CLASSIFICATION:
        pop = make_classification((rng.random(40) < 0.3).astype(int), chi)
    else:
        pop = make_regression(rng.random(40), chi)
    res = run_named("deepest", pop, 15, 2, chi=chi)
    outcomes = pop._true_outcomes()
    y = [float(outcomes[i] if task == CLASSIFICATION else outcomes[i] ** 2)
         for i in res.selected_ids]
    y_sel_sum, step_total = y[0], 0.0
    for y_pick, q in zip(y[1:], res.probabilities[1:].tolist()):
        step_total += y_sel_sum + y_pick / q
        y_sel_sum += y_pick
    assert res.estimate == (y[0] + step_total / pop.N) / 15

# ---------------------------------------------------------------------------
# Stratified sampling with variance-optimal allocation


def test_ssrs_full_budget_recovers_truth_exactly(pop6):
    res = run_named("ssrs", pop6, 6, 1, chi=CHI, k=2)
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
        res = run_named("ssrs", pop, 4, seed, chi=chi, k=2)
        assert res.knobs["allocation"] == [2, 2]
        m = z[[i for i in res.selected_ids if chi[i] < 0.5]].mean()
        assert res.estimate == pytest.approx((3 * m + 2) / 5, abs=1e-12)


def test_ssrs_zero_allocation_is_flagged():
    chi = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    pop = make_classification(np.zeros(6, dtype=int), chi)
    for n, zeros in ((1, 1), (2, 0)):
        res = run_named("ssrs", pop, n, 0, chi=chi, k=2)
        assert res.knobs["allocation"].count(0) == zeros
        assert res.counts == {"zero_allocations": zeros}


def test_ssrs_respects_allocation_budget(pop6):
    res = run_named("ssrs", pop6, 4, 6, chi=CHI, k=3)
    assert sum(res.knobs["allocation"]) == 4
    assert len(res.selected_ids) == 4
    assert len(np.unique(res.selected_ids)) == 4


# ---------------------------------------------------------------------------
# Variance-gradient adaptive stratified sampling


def test_gbs_single_partition_is_with_replacement_mean(pop6):
    res = run_named("gbs", pop6, 8, 3, chi=CHI, k=1)
    assert len(res.selected_ids) == 8
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-12)


def test_gbs_warm_up_covers_every_partition(pop6):
    # With budget >= P the warm-up gives every partition a draw.
    pm = kmeans_1d(CHI, 3, 0)
    for n in (3, 6):
        res = run_named("gbs", pop6, n, 4, chi=CHI, k=3)
        assert res.knobs["P"] == 3
        assert res.counts == {"undrawn_partitions": 0}
        assert np.unique(pm.assignment[res.selected_ids]).size == 3


def test_gbs_truncated_warm_up_flagged(pop6):
    # A budget n below P leaves exactly P - n partitions undrawn.
    pm = kmeans_1d(CHI, 3, 0)
    for n in (1, 2):
        res = run_named("gbs", pop6, n, 4, chi=CHI, k=3)
        assert len(res.selected_ids) == n
        assert res.counts == {"undrawn_partitions": 3 - n}
        assert np.unique(pm.assignment[res.selected_ids]).size == n


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
        res = run_named("gbs", pop, 40, seed, chi=chi, k=2)
        counts.append(np.mean(chi[res.selected_ids] < 0.5))
    assert np.mean(counts) > 0.7


# ---------------------------------------------------------------------------
# Two-stage unequal-probability sampling


def test_twoups_single_partition_reduces_to_sample_mean(pop6):
    res = run_named("twoups", pop6, 4, 5, chi=CHI, k=1)
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-12)
    assert len(np.unique(res.selected_ids)) == 4


def test_twoups_estimate_matches_two_stage_formula(pop6):
    res = run_named("twoups", pop6, 3, 12, chi=CHI, k=2)
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
    pm = kmeans_1d(chi, 2, 0)
    seen = set()
    for seed in range(30):
        res = run_named("twoups", pop, 2, seed, chi=chi, k=2)
        assert len(res.selected_ids) == 2
        drawn = np.bincount(pm.assignment[res.selected_ids], minlength=pm.P)
        exhausted = int(np.count_nonzero(drawn > pm.sizes))
        assert res.counts == {"exhausted_partitions": exhausted}
        seen.add(exhausted)
    # n=2 over two singleton partitions double-hits one partition often
    assert seen == {0, 1}


# ---------------------------------------------------------------------------
# Cross-technique behavior


@pytest.mark.parametrize("name", TECHNIQUES)
def test_budget_and_determinism(name, pop6):
    kwargs = {"aux": "chi"} if REGISTRY[name].needs_chi else {}
    if name == "ces":
        kwargs.update(SMALL_CES)
    if REGISTRY[name].partitioned:
        kwargs["k"] = 2
    a = run_named(name, pop6, 4, 99, **kwargs)
    b = run_named(name, pop6, 4, 99, **kwargs)
    c = run_named(name, pop6, 4, 100, **kwargs)
    assert list(a.selected_ids) == list(b.selected_ids)
    assert a.estimate == b.estimate
    assert a.distinct_labeled <= 4
    assert len(a.selected_ids) == 4
    # another seed changes the sample of every technique on this population
    assert list(a.selected_ids) != list(c.selected_ids)



@pytest.mark.parametrize("name", ["rhcs", "ces", "deepest", "ssrs"])
def test_budget_above_population_refused_before_any_label(name, pop6):
    oracle = LabelingOracle(pop6)
    config = TechniqueConfig(technique=name, aux="chi", budget=7, k=2, **SMALL_CES)
    with pytest.raises(ValueError, match="budget 7 exceeds population size 6"):
        run_technique(pop6, oracle, config, RandomStream(0))
    assert oracle.reveal_count == 0


@pytest.mark.parametrize("name", TECHNIQUES)
def test_run_technique_records_the_shared_knobs(name, pop6):
    config = TechniqueConfig(technique=name, aux="chi", budget=4, k=2, **SMALL_CES)
    res = run_technique(pop6, LabelingOracle(pop6), config, RandomStream(0))
    assert res.knobs["n"] == 4
    if REGISTRY[name].partitioned:
        assert res.knobs["k"] == 2
        assert res.knobs["P"] == kmeans_1d(CHI, 2, 0).P
    else:
        assert "k" not in res.knobs and "P" not in res.knobs


class CountingOracle(LabelingOracle):
    """A labeling oracle that counts its calls."""

    def __init__(self, population):
        super().__init__(population)
        self.calls = {"reveal": 0, "reveal_many": 0}

    def reveal(self, record_id):
        self.calls["reveal"] += 1
        return super().reveal(record_id)

    def reveal_many(self, record_ids):
        self.calls["reveal_many"] += 1
        return super().reveal_many(record_ids)


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
@pytest.mark.parametrize("name", [t for t in TECHNIQUES if t != "gbs"])
def test_every_law_but_gbs_labels_its_sample_in_one_call(name, task, pop6):
    # gbs picks each partition from the labels seen so far, so it labels draw by draw.
    pop = pop6 if task == CLASSIFICATION else make_regression(0.1 * np.arange(6), CHI)
    oracle = CountingOracle(pop)
    config = TechniqueConfig(technique=name, aux="chi", budget=5, k=3, **SMALL_CES)
    run_technique(pop, oracle, config, RandomStream(3))
    assert oracle.calls == {"reveal": 0, "reveal_many": 1}

@pytest.mark.parametrize(
    "knob, value",
    [
        ("ces_bins", 0),
        ("ces_bins", -2),
        ("threshold_quantile", -0.1),
        ("threshold_quantile", 1.5),
        ("threshold_quantile", float("nan")),
        ("gbs_prior_variance", -0.25),
        ("gbs_variance_floor", -1e-6),
        ("gbs_variance_floor", float("nan")),
    ],
)
def test_config_refuses_bad_knob_values(knob, value):
    with pytest.raises(ValueError, match=knob):
        TechniqueConfig(technique="srs", **{knob: value})


def test_config_accepts_knob_bounds():
    for kwargs in (
        {"ces_bins": 1},
        {"threshold_quantile": 0.0},
        {"threshold_quantile": 1.0},
        {"gbs_prior_variance": 0.0, "gbs_variance_floor": 0.0},
    ):
        TechniqueConfig(technique="srs", **kwargs)


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
    # failure_threshold is read only on regression populations.
    for pop in (pop6, make_regression(5.0 * np.arange(6), CHI)):
        for name in TECHNIQUES:
            config = TechniqueConfig(technique=name, aux="chi", budget=4, k=2, **SMALL_CES)
            run_technique(pop, LabelingOracle(pop), Recorder(config), RandomStream(0))
    assert read == set(TechniqueConfig.__dataclass_fields__)


def test_regression_failures_use_threshold():
    pop = make_regression([5.0, 20.0, 14.0], [0.2, 0.5, 0.3])
    res = run_named("srs", pop, 6, 1, failure_threshold=12.5)
    labeled = np.unique(res.selected_ids)
    deltas = np.array([5.0, 20.0, 14.0])[labeled]
    assert res.failures == int(np.count_nonzero(deltas >= 12.5))
    assert res.offsets is not None
    assert res.estimate == pytest.approx(
        np.mean(np.array([5.0, 20.0, 14.0])[res.selected_ids] ** 2), abs=1e-12
    )


def test_trace_recording(pop6):
    res = run_named("srs", pop6, 3, 0)
    assert len(res.probabilities) == len(res.schemes) == 3
    assert all(p == pytest.approx(1 / 6) for p in res.probabilities)
    assert res.schemes == ["srs-wr"] * 3


# Zeros in chi make some deepest paths start with a chi-zero pick, so its
# uniform fallback is traced too.
CHI12 = np.array([0.0, 0.9, 0.1, 0.0, 0.5, 0.3, 0.7, 0.2, 0.0, 0.8, 0.4, 0.6])
Z12 = np.array([1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0])


def deepest_step_probabilities(
    chi: np.ndarray,
    unselected: np.ndarray,
    chi_selected_sum: float,
    r: float,
    threshold: float,
):
    """Marginal per-step selection probabilities for the adaptive sampler.

    Returns (q over `unselected`, fell_back) where q mixes the weight-based
    branch (probability r) with the uniform branch (probability 1 - r).
    The weight-based branch is uniform over the unselected records whose
    chi exceeds the threshold.
    """
    u = unselected.size
    uniform = np.full(u, 1.0 / u)
    above = chi[unselected] > threshold
    m = int(above.sum())
    if m == 0 or chi_selected_sum <= 0:
        return uniform, True
    wbs = np.where(above, 1.0 / m, 0.0)
    return r * wbs + (1.0 - r) * uniform, False


@pytest.mark.parametrize("name", TECHNIQUES)
def test_trace_follows_selection(name):
    """Entry s of the trace is draw s; deepest's q is its step law for that state."""
    pop = make_classification(Z12, CHI12)
    config = TechniqueConfig(
        technique=name, aux="chi" if REGISTRY[name].needs_chi else None,
        budget=5, k=3, **SMALL_CES,
    )
    threshold = np.quantile(CHI12, config.threshold_quantile)
    fell_back = set()
    for seed in range(40):
        res = run_technique(pop, LabelingOracle(pop), config, RandomStream(seed))
        trace = json.loads(res.to_json(include_trace=True))["trace"]
        assert len(trace) == len(res.selected_ids) == len(res.probabilities)
        for s, entry in enumerate(trace):
            rid, q = entry["id"], entry["probability"]
            assert (entry["step"], rid, q) == (s, res.selected_ids[s], res.probabilities[s])
            assert entry["scheme"] == res.schemes[s]
            assert 0.0 < q <= 1.0
            if name == "deepest" and s > 0:
                before = res.selected_ids[:s]
                unselected = np.setdiff1d(np.arange(pop.N), before)
                law, fallback = deepest_step_probabilities(
                    CHI12, unselected, float(CHI12[before].sum()), config.r, threshold
                )
                assert q == pytest.approx(law[unselected == rid][0], rel=1e-12, abs=0)
                fell_back.add(fallback)
    if name == "deepest":
        assert fell_back == {False, True}


def test_result_json_round_trip(pop6):
    res = run_named("srs", pop6, 3, 0)
    payload = json.loads(res.to_json(include_trace=True))
    assert payload["technique"] == "srs"
    assert len(payload["selected_ids"]) == 3
    assert len(payload["trace"]) == 3
    assert "trace" not in json.loads(res.to_json())
    assert payload["xi_hat"] == pytest.approx(1.0 - payload["estimate"])


# ---------------------------------------------------------------------------
# Label-free set-up kept per population: a run on a population that earlier
# runs used must give the bytes of a run on a fresh copy.


def _memo_pool(task):
    """N=60 without features, so ces bins the aux columns; "other" ranks unlike chi."""
    base = generate_synthetic(SyntheticConfig(task=task, N=60), seed=11)
    other = np.random.default_rng(12).random(60)
    return dict(
        task=task, ids=np.arange(60), true=base._true, predicted=base._predicted,
        aux={"chi": base.aux_vector("chi"), "other": other},
    )


def _memo_run(pop, name, budget, seed=5, **kwargs):
    kwargs.setdefault("aux", "chi" if REGISTRY[name].needs_chi else None)
    config = TechniqueConfig(technique=name, budget=budget, ces_initial=1, **kwargs)
    return run_technique(pop, LabelingOracle(pop), config, RandomStream(seed))


def _warm_up(pop):
    """Run every law under other aux columns and other deepest, ces and strata knobs.

    The strata pairs differ from the default (k=10, partition_seed=0) in one
    field each, so a map key that left out k or the seed would be shared.
    """
    for name in TECHNIQUES:
        for aux in ("other", "chi", None):
            if REGISTRY[name].needs_chi and aux is None:
                continue
            for k, partition_seed in ((3, 0), (10, 1)):
                _memo_run(
                    pop, name, 7, seed=1, aux=aux, threshold_quantile=0.4, ces_bins=4,
                    k=k, partition_seed=partition_seed,
                )


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_a_used_population_runs_as_a_fresh_one(task):
    columns = _memo_pool(task)
    warm = Population(**columns)
    _warm_up(warm)
    for name in TECHNIQUES:
        for budget in (1, 3, 50):
            got = _memo_run(warm, name, budget).to_json(include_trace=True)
            want = _memo_run(Population(**columns), name, budget).to_json(include_trace=True)
            assert got == want, (name, budget)


def test_kept_set_up_is_read_only_and_not_pickled():
    columns = _memo_pool(CLASSIFICATION)
    warm = Population(**columns)
    _warm_up(warm)
    kinds = {key[0] for key in warm._memo}
    assert kinds == {"aux", "pi", "cum", "ces", "deepest", "strata"}
    # Under ("strata", aux, k, partition_seed): the map, ssrs's allocation
    # per budget and twoups's partition shares.
    assert {key[4:] for key in warm._memo if key[0] == "strata"} == {(), (7,), ("psi",)}
    for value in warm._memo.values():
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                assert not part.flags.writeable
    assert pickle.dumps(warm) == pickle.dumps(Population(**columns))
    back = pickle.loads(pickle.dumps(warm))
    assert back._memo == {}
    assert not back.aux_vector("chi").flags.writeable
    assert _memo_run(back, "deepest", 9).to_json() == _memo_run(warm, "deepest", 9).to_json()


def test_ssrs_allocation_is_cached_per_chi_and_budget(monkeypatch):
    # One neyman_allocation call per (aux, k, partition_seed, budget) across
    # the runs on one population, each kept read-only.
    columns = _memo_pool(CLASSIFICATION)
    keys = list(itertools.product(("chi", "other"), (3, 4), (0, 1), (20, 30)))

    def allocations(pop):
        return [
            _memo_run(pop, "ssrs", n, aux=aux, k=k, partition_seed=seed).knobs["allocation"]
            for aux, k, seed, n in keys
        ]

    want = allocations(Population(**columns))
    assert len({tuple(a) for a in want}) > 1
    calls = []
    neyman = techniques.neyman_allocation
    monkeypatch.setattr(
        techniques, "neyman_allocation", lambda *args: calls.append(args) or neyman(*args)
    )
    pop = Population(**columns)
    assert allocations(pop) == want
    assert allocations(pop) == want
    assert len(calls) == len(keys)
    for aux, k, seed, n in keys:
        kept = pop._memo[("strata", aux, k, seed, n)]
        assert not kept.flags.writeable
        # ssrs_allocation itself keeps nothing: each call returns a new array.
        fresh = ssrs_allocation(pop._memo[("strata", aux, k, seed)], n)
        assert fresh.tolist() == kept.tolist() and fresh is not kept
    assert len(calls) == 2 * len(keys)
    # The map keeps its own copy of the scores: changing the caller's array
    # after kmeans_1d does not change what it allocates.
    chi, other = columns["aux"]["chi"].copy(), columns["aux"]["other"]
    copied = kmeans_1d(chi, 4, 0)
    before = ssrs_allocation(copied, 20).tolist()
    assert ssrs_allocation(kmeans_1d(other, 4, 0), 20).tolist() != before
    chi[:] = other
    assert ssrs_allocation(copied, 20).tolist() == before


def test_writing_the_callers_columns_after_construction_changes_no_run():
    columns = _memo_pool(CLASSIFICATION)
    chi, features = columns["aux"]["chi"].copy(), np.random.default_rng(3).random((60, 2))
    pop = Population(**{**columns, "aux": {"chi": chi}}, features=features)
    before = [_memo_run(pop, name, 20).to_json(include_trace=True) for name in TECHNIQUES]
    chi[:] = chi[::-1]
    features[:] = features[::-1]
    after = [_memo_run(pop, name, 20).to_json(include_trace=True) for name in TECHNIQUES]
    assert after == before


def test_ces_runs_finite_on_features_at_the_bound():
    bound = np.finfo(float).max / 2
    features = np.column_stack([bound * np.linspace(-1.0, 1.0, 10), np.arange(10.0)])
    pop = Population(CLASSIFICATION, np.arange(10), np.arange(10) % 2, np.zeros(10, int),
                     features=features)
    config = TechniqueConfig(technique="ces", budget=6, ces_initial=2, ces_group=2,
                             ces_candidates=5, ces_bins=4)
    result = run_technique(pop, LabelingOracle(pop), config, RandomStream(0))
    assert np.isfinite(result.estimate)
    cells, _ = pop._memo[("ces", "features", 4)]
    assert set(cells[:, 0].tolist()) == {0, 1, 2, 3}  # the wide column is binned, not all in bin 0


# ---------------------------------------------------------------------------
# Golden outputs: the draws, estimates and traces of every law, pinned byte
# for byte.  A change to how a law consumes its random stream, or to the
# float operations behind an estimate or a selection probability, changes
# these digests.  The draws and estimates they pin date from before the
# per-draw loops were batched.  They were re-recorded once when the result's
# free-text flags became counters: every field but those, and deepest's two
# deleted knob keys, was checked equal to the old output run by run.


def _golden_population(task):
    return generate_synthetic(SyntheticConfig(task=task, N=2000), seed=11)


def _sha256(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return digest.hexdigest()


GOLDEN_RUNS = {
    (CLASSIFICATION, "srs"): "74b86c601c779cc7caf8271a1ab78da7db36c94a972d2b703cd7c870da2fd1b4",
    (CLASSIFICATION, "sups"): "53faa05b28af540240456c144a7979c3c89c0c21a0c5dd6fae4a81d10c21b8c5",
    (CLASSIFICATION, "rhcs"): "48aaf447d1ddeb45a44d2c34b98d12634eac5d88613ae4652e11f8ca3599029c",
    (CLASSIFICATION, "ces"): "c4ab7704f18c1e9ab308a1738d06cea8a636669cf3b082db222d2d7e6a4e15e8",
    (CLASSIFICATION, "deepest"): "82234a254b6334f46ada3b0c38c9081f179ee0d851a84518ef3f1a46a61f1eec",
    (CLASSIFICATION, "ssrs"): "6188651f77d9341c83cda47320513bab92170b2fd2724b37a1b0b6880bca7998",
    (CLASSIFICATION, "gbs"): "405fba9f890e22afc5eab3eeee2a7121898f792a1a754543bd4750482e24b57d",
    (CLASSIFICATION, "twoups"): "fea5956c9c9f6dd33ecad82dc74f5507ee22f90992287c3e6878b1d4b3250aae",
    (REGRESSION, "srs"): "b8c6415e96de084b133d3073b002ff3c50e171c06e15024a264901d81bb6bc0d",
    (REGRESSION, "sups"): "2d9b8ce4b458f49bbc494e62dfd042f9fb71b305f3f2950c4dd7319b8c0ef895",
    (REGRESSION, "rhcs"): "0a07bd41e4464cda6ef707b6c7e6f17ba161b75ad79d30b9ff7554bce057fffd",
    (REGRESSION, "ces"): "56570d3851ece290ff65eb28f8fd20ad628e7a6ea3c701d0942f3e52dd18e79c",
    (REGRESSION, "deepest"): "b6b1efc30b86f7d9ba7db338e0e1764f28761db478632e60d8a5458e3a1935fd",
    (REGRESSION, "ssrs"): "d3b49389f9481bf7715c94778449eb06f612181f4676f4de8115ec3f828a16bf",
    (REGRESSION, "gbs"): "4952a59e4ae8eee8b24f4e2bb61600046317b93265f6bf834fa8fd02ff0d14e9",
    (REGRESSION, "twoups"): "b2f16cbea3b8dd5fa9bc5e9ac553c057889af12b81593a195362cb578edf79d5",
}


def _golden_run_digest(task, name):
    """sha256 over the traced result JSON of 3 budgets x 3 seeds."""
    pop = _golden_population(task)
    P = kmeans_1d(pop.aux_vector("chi"), 10, 0).P
    blobs = []
    for budget in (P - 1, 50, 200):  # P - 1 truncates gbs's warm-up
        kwargs = {"aux": "chi"} if REGISTRY[name].needs_chi else {}
        if name == "ces" and budget < 30:
            kwargs["ces_initial"] = 4  # the default initial set exceeds the budget
        config = TechniqueConfig(technique=name, budget=budget, **kwargs)
        for seed in (0, 1, 2):
            result = run_technique(pop, LabelingOracle(pop), config, RandomStream(seed))
            blobs.append(result.to_json(include_trace=True))
    return _sha256(blobs)


@pytest.mark.parametrize("task, name", list(GOLDEN_RUNS))
def test_golden_run_outputs(task, name):
    assert _golden_run_digest(task, name) == GOLDEN_RUNS[task, name]


GOLDEN_EVAL = {
    CLASSIFICATION: (
        "d3b4486d25f774ff2ea46b39b9064a5d63d10e17097d2e271078acae1045b0ca",
        "2ce12b37524f958fe0d3855a866a6a15095505cf792c7a157b76b5dbecb448e7",
    ),
    REGRESSION: (
        "83b85d17e2287b40d28be91e77c38fa45c48fca77d3a7bd552922b5b1185a759",
        "0883f6b9879ed89724a7d59173a9db97248db151128737450859e44fede52971",
    ),
}


def _golden_eval_digests(task, tmp_path):
    """sha256 of raw.csv and of summary.csv of a small eval over all 8 techniques."""
    path = tmp_path / "pool.csv"
    write_population_csv(_golden_population(task), path)
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", str(path), "--techniques", ",".join(TECHNIQUES),
         "--aux", "none,chi", "--budgets", "50,200", "--reps", "3",
         "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    return tuple(_sha256([(out / name).read_bytes()]) for name in ("raw.csv", "summary.csv"))


@pytest.mark.parametrize("task", list(GOLDEN_EVAL))
def test_golden_eval_outputs(task, tmp_path):
    assert _golden_eval_digests(task, tmp_path) == GOLDEN_EVAL[task]


# ces bins every feature column in one vectorized pass.  The draws this
# digest pins date from when it still binned them column by column (it was
# re-recorded with the golden runs above); the constant column takes the
# zero-width fallback.
GOLDEN_CES_FEATURES = "98620d62b6bf63293595c66567a7731745bb6c93fc7ecf7547bbc0fa8d32f281"


def test_golden_ces_on_several_feature_columns():
    rng = np.random.default_rng(3)
    N = 2000
    features = np.column_stack(
        [rng.random(N), 5.0 * rng.normal(size=N), np.full(N, 2.5), rng.integers(0, 4, N)]
    )
    z = rng.integers(0, 2, N)
    pop = Population(CLASSIFICATION, np.arange(N), z, np.zeros(N, int), features=features)
    blobs = []
    for budget in (9, 60, 250):
        config = TechniqueConfig(
            technique="ces", budget=budget,
            ces_initial=5, ces_group=3, ces_candidates=50, ces_bins=7,
        )
        for seed in range(3):
            result = run_technique(pop, LabelingOracle(pop), config, RandomStream(seed))
            blobs.append(result.to_json(include_trace=True))
    assert _sha256(blobs) == GOLDEN_CES_FEATURES


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"technique": "bogus"}, "unknown technique 'bogus'"),
        ({"budget": 0}, "budget must be >= 1"),
        ({"r": 1.5}, "r must lie in [0, 1]"),
        ({"ces_group": 0}, "CES sizes must be >= 1"),
        ({"k": 0}, "k must be >= 1"),
    ],
)
def test_technique_config_refusals(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TechniqueConfig(**kwargs)


@pytest.mark.parametrize(
    "task, kwargs, message",
    [
        (REGRESSION, {"technique": "sups", "aux": "dsa"},
         "auxiliary variable 'dsa' is classification-only"),
        (CLASSIFICATION, {"technique": "sups", "aux": "lsa"}, "auxiliary variable 'lsa' not present"),
        (CLASSIFICATION, {"technique": "sups"}, "technique 'sups' needs an auxiliary variable"),
        (CLASSIFICATION, {"technique": "rhcs", "aux": "chi", "budget": 5},
         "budget 5 exceeds population size 4"),
        (CLASSIFICATION, {"technique": "srs", "budget": 5}, None),
        (CLASSIFICATION, {"technique": "sups", "aux": "neg"}, "auxiliary values must be nonnegative"),
        (CLASSIFICATION, {"technique": "ces", "budget": 3}, "CES budget must cover the initial set"),
        (CLASSIFICATION, {"technique": "ces", "budget": 3, "ces_initial": 2},
         "auxiliary values must be nonnegative"),
        (CLASSIFICATION, {"technique": "twoups", "aux": "zero"},
         "auxiliary variable 'zero' is all-zero, and twoups draws by it"),
        (CLASSIFICATION, {"technique": "gbs", "aux": "zero", "budget": 4}, None),
        # 5e-324 / 4 and selection_probabilities' floor 1e-9 * 1e-320 round to 0.
        (CLASSIFICATION, {"technique": "rhcs", "aux": "wide", "budget": 4},
         "auxiliary variable 'wide' spans too wide a range"),
        (CLASSIFICATION, {"technique": "sups", "aux": "tiny"},
         "auxiliary variable 'tiny' spans too wide a range"),
        (CLASSIFICATION, {"technique": "deepest", "aux": "wide", "budget": 4}, None),
        (CLASSIFICATION, {"technique": "twoups", "aux": "chi"}, None),
    ],
)
def test_run_technique_refuses_what_refusal_names(task, kwargs, message):
    pop = Population(
        task, np.arange(4), [0, 1, 0, 0], [0, 0, 0, 0],
        aux={"chi": [0.1, 0.4, 0.2, 0.3], "dsa": [0.5, 0.5, 0.5, 0.5], "neg": [0.1, -0.5, 0.2, 0.3],
             "zero": [0.0, 0.0, 0.0, 0.0], "wide": [5e-324, 2.0, 1.0, 1.0],
             "tiny": [0.0, 1e-320, 1e-320, 1e-320]},
    )
    config = TechniqueConfig(**kwargs)
    assert refusal(pop, config) == message
    if message is not None:
        oracle = LabelingOracle(pop)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_technique(pop, oracle, config, RandomStream(0))
        assert oracle.reveal_count == 0


@pytest.mark.parametrize("name", [name for name, entry in REGISTRY.items() if entry.weighted])
def test_a_weighted_run_reads_its_aux_column_once(name, pop6, monkeypatch):
    reads = []
    aux_vector = Population.aux_vector

    def counted(self, aux):
        reads.append(aux)
        return aux_vector(self, aux)

    monkeypatch.setattr(Population, "aux_vector", counted)
    config = TechniqueConfig(technique=name, aux="chi", budget=3)
    run_technique(pop6, LabelingOracle(pop6), config, RandomStream(0))
    assert reads == ["chi"]


# ---------------------------------------------------------------------------
# Adversarial auxiliary values


def aux_bound(N):
    """The largest auxiliary value a population of N records accepts."""
    return np.finfo(float).max / (16 * N * N)


def _population(task, outcomes, chi):
    N = len(chi)
    if task == CLASSIFICATION:
        return Population(task, np.arange(N), outcomes, np.zeros(N, int), aux={"chi": chi})
    return Population(task, np.arange(N), np.zeros(N), outcomes, aux={"chi": chi})


@pytest.mark.parametrize("N", [50, 2000])
@pytest.mark.parametrize("name", TECHNIQUES)
def test_every_law_is_finite_at_the_aux_bound(name, N):
    rng = np.random.default_rng(N)
    chi = aux_bound(N) * rng.random(N)
    chi[::7] = 0.0
    chi[1] = aux_bound(N)
    config = TechniqueConfig(technique=name, aux="chi", budget=10, ces_initial=5)
    for task, outcomes in ((CLASSIFICATION, rng.integers(0, 2, N)), (REGRESSION, rng.random(N))):
        pop = _population(task, outcomes, chi)
        res = run_technique(pop, LabelingOracle(pop), config, RandomStream(0))
        assert np.isfinite(res.estimate)
        chi_above = chi.copy()
        chi_above[3] = np.nextafter(aux_bound(N), np.inf)
        with pytest.raises(ValueError, match="auxiliary value too large at row 3"):
            _population(task, outcomes, chi_above)


#: The counters each law records, under fixed keys.
COUNTERS = {
    "srs": set(), "sups": set(), "rhcs": set(), "ces": set(),
    "deepest": {"uniform_fallbacks"}, "ssrs": {"zero_allocations"},
    "gbs": {"undrawn_partitions"}, "twoups": {"exhausted_partitions"},
}


@st.composite
def adversarial_runs(draw):
    """A population of at most 50 records with chi from an adversarial family, and a config."""
    N = draw(st.integers(1, 50))
    family = draw(st.sampled_from(["one nonzero", "1e-300 range", "subnormal", "constant", "bound"]))
    top = {"1e-300 range": 1e-300, "subnormal": 2.2e-308, "bound": aux_bound(N)}.get(family, 1.0)
    values = st.floats(0.0, top)
    if family == "one nonzero":
        chi = np.zeros(N)
        chi[draw(st.integers(0, N - 1))] = draw(st.floats(5e-324, aux_bound(N)))
    elif family == "constant":
        chi = np.full(N, draw(st.floats(0.0, aux_bound(N))))
    else:
        chi = np.array(draw(st.lists(values, min_size=N, max_size=N)))
    task = draw(st.sampled_from([CLASSIFICATION, REGRESSION]))
    if task == CLASSIFICATION:
        outcomes = np.array(draw(st.lists(st.integers(0, 1), min_size=N, max_size=N)))
    else:
        outcomes = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=N, max_size=N)))
    budget = draw(st.integers(1, 60))
    config = TechniqueConfig(
        technique=draw(st.sampled_from(TECHNIQUES)), aux="chi", budget=budget,
        k=draw(st.integers(1, 10)), ces_initial=min(budget, 3), ces_group=2,
        ces_candidates=10, ces_bins=4,
    )
    return _population(task, outcomes, chi), config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=adversarial_runs())
def test_every_law_is_finite_or_refused_on_adversarial_chi(case):
    pop, config, seed = case

    def run():
        return run_technique(pop, LabelingOracle(pop), config, RandomStream(seed))

    reason = refusal(pop, config)
    if reason is not None:
        with pytest.raises(ValueError, match=re.escape(reason)):
            run()
        return
    res = run()
    assert np.isfinite(res.estimate)
    assert res.distinct_labeled <= config.budget
    assert res.to_json(include_trace=True) == run().to_json(include_trace=True)
    assert set(res.counts) == COUNTERS[config.technique]
    assert all(type(v) is int and v >= 0 for v in res.counts.values())
