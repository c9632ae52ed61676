"""Metrics, the exact path-enumeration oracle, and the experiment grid."""

import csv
import json
import multiprocessing
import os
import pickle
import re

import numpy as np
import pytest

from conftest import make_classification, make_regression, random_tiny_population

from opsample import harness, techniques
from opsample.draw import EnumeratingStream, RandomStream
from opsample.harness import (
    EvalConfig,
    IntractableError,
    enumerate_expectation,
    enumerate_paths,
    offset_histogram,
    rmedse,
    rmse,
    run_experiment,
)
from opsample.partition import kmeans_1d
from opsample.population import (
    CLASSIFICATION,
    REGRESSION,
    LabelingOracle,
    Population,
    true_accuracy,
)
from opsample.techniques import REGISTRY, TECHNIQUES, TechniqueConfig, run_technique


# ---------------------------------------------------------------------------
# Metrics


def test_rmse_hand_example():
    # errors 0.1 and 0.3 -> sqrt((0.01 + 0.09) / 2) = sqrt(0.05)
    assert rmse([0.8, 0.6], 0.9) == pytest.approx(np.sqrt(0.05), abs=1e-15)


def test_rmse_zero_for_exact_estimates():
    assert rmse([0.9, 0.9, 0.9], 0.9) == 0.0


def test_rmedse_hand_example():
    # squared errors 0.01, 0.04, 0.81 -> median 0.04 -> root 0.2
    assert rmedse([0.8, 0.7, 0.0], 0.9) == pytest.approx(0.2, abs=1e-15)


def test_rmedse_robust_to_one_outlier():
    est = [0.9] * 9 + [0.0]
    assert rmedse(est, 0.9) == 0.0
    assert rmse(est, 0.9) > 0.2


def test_metrics_reject_empty_input():
    with pytest.raises(ValueError):
        rmse([], 0.9)
    with pytest.raises(ValueError):
        rmedse([], 0.9)


def test_offset_histogram_hand_example():
    counts = offset_histogram([0.0, 3.0, 13.0, 26.0], [0.0, 2.5, 12.5, 25.0])
    assert list(counts) == [4, 3, 2, 1]


def test_offset_histogram_rejects_descending_thresholds():
    with pytest.raises(ValueError, match="ascending"):
        offset_histogram([1.0], [5.0, 2.5])


# ---------------------------------------------------------------------------
# Exact enumeration oracle: frozen hand examples


def test_enum_srs_three_records():
    # z = [1, 0, 0]: E[sample mean] is the population mean 1/3 for any n.
    pop = make_classification([1, 0, 0])
    config = TechniqueConfig(technique="srs", budget=2)
    assert enumerate_expectation(pop, config) == pytest.approx(1 / 3, abs=1e-15)


def test_enum_srs_path_count_and_probabilities():
    pop = make_classification([1, 0, 0])
    paths = list(enumerate_paths(pop, TechniqueConfig(technique="srs", budget=2)))
    assert len(paths) == 9  # ordered with-replacement pairs
    assert sum(p for p, _ in paths) == pytest.approx(1.0, abs=1e-15)


def test_enum_sups_single_draw():
    # chi = [2, 1, 1] -> pi = [1/2, 1/4, 1/4]; one draw of the failing
    # record estimates 1/(3 * 1/2) = 2/3, expectation 1/2 * 2/3 = 1/3.
    pop = make_classification([1, 0, 0], [2.0, 1.0, 1.0])
    config = TechniqueConfig(technique="sups", aux="chi", budget=1)
    assert enumerate_expectation(pop, config) == pytest.approx(1 / 3, abs=1e-15)


def test_enum_all_zero_outcomes_give_zero():
    pop = make_classification([0, 0, 0, 0], [0.4, 0.3, 0.2, 0.1])
    for name in ("srs", "sups", "rhcs", "twoups", "deepest"):
        config = TechniqueConfig(technique=name, aux="chi", budget=2, k=2)
        assert enumerate_expectation(pop, config) == pytest.approx(0.0, abs=1e-15)


def test_enum_rejects_intractable_sizes():
    pop = make_classification(np.zeros(12, dtype=int), np.linspace(0.1, 1.0, 12))
    with pytest.raises(IntractableError):
        enumerate_expectation(pop, TechniqueConfig(technique="srs", budget=2))
    pop11 = make_classification(np.zeros(11, dtype=int), np.linspace(0.1, 1.0, 11))
    with pytest.raises(IntractableError):
        enumerate_expectation(pop11, TechniqueConfig(technique="deepest", aux="chi", budget=2))


# ---------------------------------------------------------------------------
# The enumerating stream


def test_enum_rhcs_branches_over_compositions_not_permutations():
    # N=4 into 2 groups of 2: 4!/(2! 2!) = 6 ordered compositions, then one
    # of 2 records per group; branching over the 4! permutations would give 96.
    pop = make_classification([1, 0, 0, 1], [0.1, 0.2, 0.3, 0.4])
    paths = list(enumerate_paths(pop, TechniqueConfig(technique="rhcs", aux="chi", budget=2)))
    assert len(paths) == 24
    assert sum(p for p, _ in paths) == pytest.approx(1.0, abs=1e-15)


# rhcs at N=10, n=4 has 907,200 paths and takes minutes; N=7, n=3 still
# splits into groups of unequal size (3, 2, 2), so both of its blocks branch.
@pytest.mark.parametrize(
    "name, N, n, n_paths", [("rhcs", 7, 3, 2520), ("ssrs", 10, 4, 480), ("twoups", 10, 4, 5040)]
)
def test_enum_replays_batched_draws_over_every_path(name, N, n, n_paths):
    z = [1, 0, 0, 1, 0, 1, 0, 0, 1, 1][:N]
    pop = make_classification(z, [0.1, 0.15, 0.2, 0.3, 0.35, 0.5, 0.7, 0.8, 0.85, 0.9][:N])
    config = TechniqueConfig(technique=name, aux="chi", budget=n, k=2)
    paths = list(enumerate_paths(pop, config))
    assert len(paths) == n_paths
    assert sum(p for p, _ in paths) == pytest.approx(1.0, abs=1e-12)
    expectation = sum(p * result.estimate for p, result in paths)
    assert expectation == pytest.approx(np.mean(z), abs=1e-12)


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_enum_deepest_skips_zero_probability_branches(r):
    pop = make_classification([1, 0, 0, 1, 0], [0.1, 0.9, 0.3, 0.8, 0.5])
    config = TechniqueConfig(technique="deepest", aux="chi", budget=3, r=r)
    paths = list(enumerate_paths(pop, config))
    assert all(p > 0 for p, _ in paths)
    assert sum(p for p, _ in paths) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "r, expectation", [(0.0, 0.4), (0.5, 0.4), (0.8, 0.4), (0.99, 0.4), (1.0, 0.32)]
)
def test_enum_deepest_is_biased_only_at_r_1(r, expectation):
    # At r = 1 a step that does not fall back never picks a record at or
    # below the threshold, so its total misses that record's outcome.
    pop = make_classification([1, 0, 0, 1, 0], [0.1, 0.9, 0.3, 0.8, 0.5])
    config = TechniqueConfig(technique="deepest", aux="chi", budget=3, r=r)
    assert 1.0 - true_accuracy(pop) == pytest.approx(0.4, abs=1e-12)
    assert enumerate_expectation(pop, config) == pytest.approx(expectation, abs=1e-12)


@pytest.mark.parametrize("draw", ["random", "permutation", "standard_normal"])
def test_enumerating_stream_refuses_draws_outside_the_primitives(draw):
    with pytest.raises(AttributeError):
        getattr(EnumeratingStream(), draw)(3)


@pytest.mark.parametrize("n, bias, n_paths", [(3, 0.0, 32), (4, -1 / 48, 88)])
def test_enum_gbs_exact_bias_on_a_fixed_population(n, bias, n_paths):
    # k=2 splits chi into strata of 2 and 4 records.  gbs's adaptive
    # allocation biases its stratum means; at n=4 the exact bias is -1/48.
    pop = make_classification([0, 0, 1, 0, 0, 0], [0.1, 0.2, 0.8, 0.85, 0.9, 0.95])
    config = TechniqueConfig(technique="gbs", aux="chi", budget=n, k=2)
    assert len(list(enumerate_paths(pop, config))) == n_paths
    truth = 1.0 - true_accuracy(pop)
    assert enumerate_expectation(pop, config) - truth == pytest.approx(bias, abs=1e-12)


def test_enum_gbs_traces_each_tuple_probability_with_its_tie_breaks():
    # Every outcome is 0, so every gain ties and each later step breaks the
    # tie by a uniform pick among the partitions: its 1/2 is traced with the draw.
    pop = make_classification([0] * 6, [0.1, 0.11, 0.12, 0.9, 0.91, 0.92])
    config = TechniqueConfig(technique="gbs", aux="chi", budget=4, k=2)
    law, traced = {}, {}
    for probability, result in enumerate_paths(pop, config):
        key = tuple(result.selected_ids.tolist())
        law[key] = law.get(key, 0.0) + probability
        traced.setdefault(key, set()).add(float(np.prod(result.probabilities)))
    assert len(law) == 162
    for key, probability in law.items():
        (product,) = traced[key]
        assert probability == pytest.approx(product, rel=1e-12, abs=0)


@pytest.mark.parametrize("make", [make_classification, make_regression])
@pytest.mark.parametrize(
    "chi",
    [[0.1, 0.2, 0.8, 0.85, 0.9, 0.95], [0.1, 0.1, 0.5, 0.5, 0.9, 0.9]],
    ids=["distinct", "tied"],
)
@pytest.mark.parametrize("name", TECHNIQUES)
def test_enum_traced_probabilities_mean_what_the_result_states(name, chi, make):
    # TechniqueResult's docstring: the six chain laws trace each draw's
    # probability given the draws before it, rhcs its within-group pi_s/q_r,
    # and ces its proposal probability.
    pop = make([0, 0, 1, 0, 1, 0], chi)
    ces = {"ces_initial": 1, "ces_candidates": 2, "ces_group": 1, "ces_bins": 2}
    config = TechniqueConfig(
        technique=name, aux="chi" if REGISTRY[name].needs_chi else None, budget=3, k=2,
        **(ces if name == "ces" else {}),
    )
    law, traced = {}, {}
    for probability, result in enumerate_paths(pop, config):
        p = result.probabilities
        if name == "rhcs":
            np.testing.assert_allclose(p * result.expansions, 3.0, rtol=1e-12, atol=0)
        elif name == "ces":
            assert p.tolist() == [1 / 6, 1 / 5, 1 / 4]
        else:
            key = tuple(result.selected_ids.tolist())
            law[key] = law.get(key, 0.0) + probability
            traced.setdefault(key, set()).add(float(np.prod(p)))
    for key, probability in law.items():
        (product,) = traced[key]
        assert probability == pytest.approx(product, rel=1e-12, abs=0), key


def test_enum_ces_exact_bias_on_a_fixed_population():
    # 6 initial records, then per step 2 one-record candidates among the 5
    # and then 4 left: 6 * 5**2 * 4**2 paths.  ces's plain mean of its
    # feature-matched sample is biased: 0.35 against the truth 1/3.
    pop = make_classification([0, 0, 1, 0, 1, 0], [0.1, 0.2, 0.8, 0.85, 0.9, 0.95])
    config = TechniqueConfig(
        technique="ces", aux="chi", budget=3, ces_initial=1, ces_candidates=2, ces_group=1,
        ces_bins=2,
    )
    paths = list(enumerate_paths(pop, config))
    assert len(paths) == 2400 == harness._ces_paths(pop.N, config)
    assert 1.0 - true_accuracy(pop) == pytest.approx(1 / 3, abs=1e-12)
    assert enumerate_expectation(pop, config) == pytest.approx(0.35, abs=1e-12)


@pytest.mark.parametrize(
    "knobs, n_paths", [({"ces_group": 2}, 6 * 20**2), ({"ces_initial": 2}, 30 * 4**2)]
)
def test_enum_ces_path_count_matches_the_replay(knobs, n_paths):
    pop = make_classification([0, 0, 1, 0, 1, 0], [0.1, 0.2, 0.8, 0.85, 0.9, 0.95])
    config = TechniqueConfig(
        technique="ces", aux="chi", budget=3, ces_candidates=2, ces_bins=2,
        **{"ces_initial": 1, "ces_group": 1, **knobs},
    )
    paths = list(enumerate_paths(pop, config))
    assert len(paths) == n_paths == harness._ces_paths(pop.N, config)
    assert sum(p for p, _ in paths) == pytest.approx(1.0, abs=1e-12)


def test_enum_refuses_intractable_ces_before_any_path():
    pop = make_classification([0, 0, 1, 0, 1, 0], [0.1, 0.2, 0.8, 0.85, 0.9, 0.95])
    # One step of 300 one-record candidates among 5 records: 6 * 5**300 paths.
    config = TechniqueConfig(technique="ces", aux="chi", budget=2, ces_initial=1)
    with pytest.raises(IntractableError, match="ces has more than 100000 sample paths"):
        enumerate_paths(pop, config)
    # A budget above N is left to run_technique's refusal.
    config = TechniqueConfig(technique="ces", aux="chi", budget=4, ces_initial=1)
    with pytest.raises(ValueError, match="budget 4 exceeds population size 3"):
        enumerate_expectation(make_classification([0, 1, 0], [0.1, 0.2, 0.3]), config)


def test_enum_needs_the_configured_aux_for_chi_techniques():
    pop = make_classification([1, 0, 0], [2.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="needs an auxiliary variable"):
        enumerate_expectation(pop, TechniqueConfig(technique="sups", budget=1))


# ---------------------------------------------------------------------------
# Unbiasedness over random tiny populations


def tiny_cases(seed, count, task=CLASSIFICATION):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_tiny_population(rng, task=task), rng


@pytest.mark.parametrize("name", ["srs", "sups", "rhcs", "twoups"])
def test_design_unbiasedness_classification(name):
    rng = np.random.default_rng(42)
    for _ in range(25):
        pop = random_tiny_population(rng)
        n = int(rng.integers(1, min(4, pop.N) + 1))
        config = TechniqueConfig(technique=name, aux="chi", budget=n, k=2)
        exact = enumerate_expectation(pop, config)
        truth = 1.0 - true_accuracy(pop)
        assert exact == pytest.approx(truth, abs=1e-9)


def test_design_unbiasedness_deepest():
    rng = np.random.default_rng(43)
    for _ in range(15):
        pop = random_tiny_population(rng, n_min=3, n_max=5)
        n = int(rng.integers(1, 4))
        config = TechniqueConfig(technique="deepest", aux="chi", budget=n)
        exact = enumerate_expectation(pop, config)
        truth = 1.0 - true_accuracy(pop)
        assert exact == pytest.approx(truth, abs=1e-9)


def test_design_unbiasedness_deepest_at_the_size_limit():
    # N=10, n=4 is the oracle's limit for every technique, deepest included.
    z = [1, 0, 0, 1, 0, 1, 0, 0, 1, 1]
    pop = make_classification(z, [0.1, 0.15, 0.2, 0.3, 0.35, 0.5, 0.7, 0.8, 0.85, 0.9])
    config = TechniqueConfig(technique="deepest", aux="chi", budget=4)
    paths = list(enumerate_paths(pop, config))
    assert len(paths) == 10_626
    assert sum(p for p, _ in paths) == pytest.approx(1.0, abs=1e-12)
    assert sum(p * result.estimate for p, result in paths) == pytest.approx(np.mean(z), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "name, knobs",
    [
        ("srs", {}), ("sups", {}), ("rhcs", {}), ("ssrs", {"k": 2}), ("twoups", {"k": 2}),
        ("deepest", {"r": 0.0}), ("deepest", {"r": 0.5}), ("deepest", {"r": 0.99}),
    ],
)
def test_label_free_laws_are_unbiased_for_every_outcome_vector(name, knobs, n):
    # These laws select without reading a label, so each path's probability
    # is label-free and its estimate sum(v_s * y_s) / (N n) is linear in the
    # outcomes.  E = 1/N on every one-failure population e_i therefore gives
    # E = mean(y) for every outcome vector y on this chi.
    chi = [0.1, 0.5, 0.2, 0.9, 0.05, 0.4]
    config = TechniqueConfig(technique=name, aux="chi", budget=n, **knobs)
    for i in range(len(chi)):
        pop = make_classification(np.eye(len(chi), dtype=int)[i], chi)
        assert enumerate_expectation(pop, config) == pytest.approx(1 / len(chi), abs=1e-12)


def test_design_unbiasedness_regression():
    rng = np.random.default_rng(44)
    for _ in range(10):
        pop = random_tiny_population(rng, task=REGRESSION)
        n = int(rng.integers(1, min(3, pop.N) + 1))
        for name in ("srs", "sups", "deepest"):
            config = TechniqueConfig(technique=name, aux="chi", budget=n)
            exact = enumerate_expectation(pop, config)
            truth = float(np.mean(pop._true_outcomes() ** 2))
            assert exact == pytest.approx(truth, abs=1e-9)


def test_monte_carlo_matches_enumeration():
    # Cross-check: the empirical mean of many runs converges to the exact
    # enumerated expectation.
    pop = make_classification([1, 0, 1, 0], [0.7, 0.2, 0.5, 0.6])
    config = TechniqueConfig(technique="sups", aux="chi", budget=2)
    exact = enumerate_expectation(pop, config)
    runs = 4000
    total = 0.0
    sq = 0.0
    for seed in range(runs):
        res = run_technique(pop, LabelingOracle(pop), config, RandomStream(seed))
        total += res.estimate
        sq += res.estimate**2
    mean = total / runs
    se = np.sqrt((sq / runs - mean**2) / runs)
    assert abs(mean - exact) < 4 * se + 1e-12


# ---------------------------------------------------------------------------
# Experiment grid


@pytest.fixture(scope="module")
def grid_pop():
    rng = np.random.default_rng(7)
    chi = rng.random(60)
    z = (rng.random(60) < 0.3).astype(int)
    return make_classification(z, chi)


def test_run_experiment_grid_arithmetic(grid_pop):
    config = EvalConfig(
        techniques=["srs", "sups"], aux=[None, "chi"], budgets=[5, 10],
        repetitions=3, master_seed=1, k=2,
    )
    report = run_experiment(grid_pop, config)
    # srs runs under aux=None only, sups under aux="chi" only: 2 x 2 cells.
    assert len(report.cells) == 4
    assert len(report.raw_rows) == 12
    reasons = {s["reason"] for s in report.skipped}
    assert "technique 'sups' needs an auxiliary variable" in reasons
    assert "technique does not use an auxiliary variable" in reasons


def test_run_experiment_skips_missing_aux(grid_pop):
    config = EvalConfig(techniques=["sups"], aux=["dsa"], budgets=[5], repetitions=2)
    report = run_experiment(grid_pop, config)
    assert not report.cells
    assert report.skipped[0]["reason"] == "auxiliary variable 'dsa' not present"


def test_run_experiment_skips_classification_only_aux_on_regression():
    rng = np.random.default_rng(3)
    pop = Population(
        REGRESSION, np.arange(20), np.zeros(20), rng.random(20),
        aux={"chi": rng.random(20), "confidence": np.full(20, 0.5)},
    )
    assert "confidence" in pop.aux_names  # present but classification-only
    config = EvalConfig(techniques=["sups"], aux=["confidence"], budgets=[4], repetitions=2)
    report = run_experiment(pop, config)
    assert not report.cells
    assert "classification-only" in report.skipped[0]["reason"]


def test_run_experiment_deterministic(grid_pop, tmp_path):
    config = EvalConfig(
        techniques=["srs", "ssrs"], aux=[None, "chi"], budgets=[5, 10],
        repetitions=4, master_seed=9, k=3,
    )
    a = run_experiment(grid_pop, config)
    b = run_experiment(grid_pop, config)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_summary_csv(pa)
    b.write_summary_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
    ra, rb = tmp_path / "ra.csv", tmp_path / "rb.csv"
    a.write_raw_csv(ra)
    b.write_raw_csv(rb)
    assert ra.read_bytes() == rb.read_bytes()


def test_run_experiment_seeds_differ_across_cells(grid_pop):
    config = EvalConfig(techniques=["srs"], aux=[None], budgets=[5, 10], repetitions=3)
    report = run_experiment(grid_pop, config)
    seeds = [r["seed"] for r in report.raw_rows]
    assert len(set(seeds)) == len(seeds)


def test_regression_offset_columns(tmp_path):
    rng = np.random.default_rng(5)
    pop = make_regression(rng.random(30) * 30, rng.random(30))
    config = EvalConfig(
        techniques=["srs"], aux=[None], budgets=[5], repetitions=2,
        offset_thresholds=[0.0, 10.0, 20.0],
    )
    with pytest.warns(UserWarning, match="unnormalized offsets"):
        report = run_experiment(pop, config)
    raw = tmp_path / "raw.csv"
    report.write_raw_csv(raw)
    head = raw.read_text().splitlines()[0]
    assert "n_offset_ge_0.0" in head and "n_offset_ge_20.0" in head
    counts = report.raw_rows[0]["offset_counts"]
    assert counts[0] >= counts[1] >= counts[2]


def test_summarize_sets_the_series_fields(grid_pop):
    config = EvalConfig(
        techniques=["srs"], aux=[None], budgets=[5, 40], repetitions=40, master_seed=2
    )
    report = run_experiment(grid_pop, config)
    low, high = report.cells
    assert (low.budget, high.budget) == (5, 40)
    best = min(report.cells, key=lambda c: c.rmse).budget
    for c in report.cells:
        assert c.min_rmse_budget == best
        assert c.inversion is (low.rmse < high.rmse)
        assert c.f_ratio == high.mean_failures / low.mean_failures
    assert low.f_ratio > 1.0


def test_sensitivity_needs_two_budgets(grid_pop, tmp_path):
    config = EvalConfig(techniques=["srs"], aux=[None], budgets=[5], repetitions=2)
    report = run_experiment(grid_pop, config)
    (cell,) = report.cells
    assert (cell.f_ratio, cell.min_rmse_budget, cell.inversion) == (None, None, None)
    path = tmp_path / "summary.csv"
    report.write_summary_csv(path)
    with path.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["f_ratio"], row["min_rmse_budget"], row["inversion"]) == ("", "", "")
    assert row["rmse"] == repr(cell.rmse)


def test_manifest_round_trip(grid_pop, tmp_path):
    config = EvalConfig(techniques=["srs"], aux=[None], budgets=[5], repetitions=2, master_seed=4)
    report = run_experiment(grid_pop, config)
    path = tmp_path / "manifest.json"
    report.write_manifest_json(path)
    manifest = json.loads(path.read_text())
    assert manifest["config"]["master_seed"] == 4
    assert manifest["true_xi"] == pytest.approx(report.true_xi)
    assert manifest["cells"] == [{"technique": "srs", "aux": None, "budget": 5}]


def test_raw_rows_are_reproduced_by_their_cell_config(grid_pop, tmp_path):
    # A cell's config carries everything its runs read, so run_technique
    # alone, at the grid's knobs, rebuilds the grid's map and each row.
    config = EvalConfig(
        techniques=["ssrs", "gbs", "twoups", "deepest"], aux=["chi"], budgets=[5, 12],
        repetitions=3, master_seed=6, k=3, r=0.5,
    )
    path = tmp_path / "raw.csv"
    run_experiment(grid_pop, config).write_raw_csv(path)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 2 * 3
    for row in rows:
        tc = TechniqueConfig(
            technique=row["technique"], aux="chi", budget=int(row["budget"]), k=3, r=0.5
        )
        res = run_technique(grid_pop, LabelingOracle(grid_pop), tc, RandomStream(int(row["seed"])))
        assert (row["xi_hat"], row["failures"], row["distinct"]) == (
            repr(res.xi_hat), str(res.failures), str(res.distinct_labeled)
        )


def test_parallel_jobs_match_serial(grid_pop, monkeypatch):
    # Two workers even on a one-core machine, so the pool path always runs.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    base = dict(
        techniques=["srs", "sups", "ssrs", "gbs", "twoups"], aux=[None, "chi"], budgets=[5, 12],
        repetitions=3, master_seed=8,
    )
    serial = run_experiment(grid_pop, EvalConfig(**base, jobs=1))
    parallel = run_experiment(grid_pop, EvalConfig(**base, jobs=2))
    assert len(serial.raw_rows) == 5 * 2 * 3
    assert serial.raw_rows == parallel.raw_rows


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the counting patch reaches forked workers only",
)
def test_each_pool_worker_builds_a_map_once(grid_pop, monkeypatch, tmp_path):
    # Every stratified cell below stratifies alike, so a worker that keeps
    # the population across its cells builds the k-means map once.  The
    # unpickled copy keeps no map: a forked worker inherits the memo of the
    # module's population, which earlier runs under the same key may have filled.
    pop = pickle.loads(pickle.dumps(grid_pop))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    log = tmp_path / "kmeans.log"

    def counted(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return kmeans_1d(*args)

    monkeypatch.setattr(techniques, "kmeans_1d", counted)
    config = EvalConfig(
        techniques=["ssrs", "gbs", "twoups"], aux=["chi"], budgets=[5, 8, 12], repetitions=2,
        jobs=2,
    )
    run_experiment(pop, config)
    pids = log.read_text().split()
    assert len(pids) == len(set(pids)) <= 2


@pytest.mark.parametrize(
    "field, value",
    [("techniques", ["srs", "srs"]), ("aux", [None, "chi", None]), ("budgets", [5, 5])],
)
def test_eval_config_refuses_repeated_grid_entries(field, value):
    with pytest.raises(ValueError, match=f"^{field} must not repeat"):
        EvalConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("techniques", [], "techniques must not be empty"),
        ("aux", [], "aux must not be empty"),
        ("budgets", [], "budgets must not be empty"),
        ("budgets", [0], "budgets must be >= 1"),
        ("budgets", [-3, 5], "budgets must be >= 1"),
    ],
)
def test_eval_config_refuses_an_empty_grid_axis_or_a_budget_below_one(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EvalConfig(**{field: value})


@pytest.mark.parametrize("jobs", [0, -1])
def test_eval_config_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        EvalConfig(jobs=jobs)


@pytest.mark.parametrize(
    "budgets, cpus, expected",
    [
        ([5, 6, 7, 8, 9, 10], 4, [4]),  # capped by the CPU count
        ([5, 6, 7], 4, [3]),  # capped by the number of cells
        ([5], 4, []),  # one cell runs in-process
        ([5, 6, 7], None, []),  # unknown CPU count: in-process
    ],
)
def test_pool_size_is_bounded(grid_pop, monkeypatch, budgets, cpus, expected):
    created = []

    class FakePool:
        """Records the requested pool size and runs cells in-process."""

        def __init__(self, max_workers, initializer, initargs):
            created.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness, "_pool_grid", None)  # FakePool's initializer sets it
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    base = dict(techniques=["srs"], aux=[None], budgets=budgets, repetitions=2)
    huge = run_experiment(grid_pop, EvalConfig(**base, jobs=10_000))
    assert created == expected
    assert huge.raw_rows == run_experiment(grid_pop, EvalConfig(**base)).raw_rows


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"repetitions": 0}, "repetitions must be >= 1"),
        ({"budgets": [10, 5]}, "budgets must be strictly ascending"),
        ({"offset_thresholds": [2.5, 0.0]}, "offset thresholds must be ascending"),
        ({"offset_thresholds": [1.0, float("nan")]}, "offset thresholds must be finite"),
        ({"offset_thresholds": [0.0, float("inf")]}, "offset thresholds must be finite"),
        ({"techniques": ["srs", "bogus"]}, "unknown technique 'bogus'"),
        ({"failure_threshold": float("nan")}, "failure_threshold must be finite"),
    ],
)
def test_eval_config_refusals(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        EvalConfig(**kwargs)
