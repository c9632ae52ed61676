"""Behavioral and hand-example tests for the eight sampling techniques."""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_classification, make_regression

from opsample.auxvar import selection_probabilities
from opsample.cli import main
from opsample.draw import RandomStream
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


def test_deepest_regression_variants_differ():
    pop = make_regression([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
    chi = np.array([0.1, 0.2, 0.3, 0.4])
    default = run_named("deepest", pop, 3, 8, chi=chi)
    verbatim = run_named("deepest", pop, 3, 8, chi=chi, deepest_verbatim_regression=True)
    assert list(default.selected_ids) == list(verbatim.selected_ids)
    assert default.estimate != verbatim.estimate



@pytest.mark.parametrize("verbatim", [False, True])
@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_deepest_estimate_equals_running_step_sums(task, verbatim):
    # deepest labels after it selects and sums the steps by cumsum; the
    # per-step running sums give the same float.
    rng = np.random.default_rng(3)
    chi = rng.random(40)
    if task == CLASSIFICATION:
        pop = make_classification((rng.random(40) < 0.3).astype(int), chi)
    else:
        pop = make_regression(rng.random(40), chi)
    res = run_named("deepest", pop, 15, 2, chi=chi, deepest_verbatim_regression=verbatim)
    outcomes = pop._true_outcomes()
    y = [float(outcomes[i] if task == CLASSIFICATION else outcomes[i] ** 2)
         for i in res.selected_ids]
    y_sel_sum, step_total = y[0], 0.0
    for k, (y_pick, q) in enumerate(zip(y[1:], res.probabilities[1:].tolist()), start=2):
        if task == CLASSIFICATION or not verbatim:
            step_total += y_sel_sum + y_pick / q
        else:
            step_total += y_sel_sum / (k - 1) + (y_pick / k) / q
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
    res = run_named("ssrs", pop, 1, 0, chi=chi, k=2)
    assert any("zero allocation" in f for f in res.flags)


def test_ssrs_respects_allocation_budget(pop6):
    res = run_named("ssrs", pop6, 4, 6, chi=CHI, k=3)
    assert sum(res.knobs["allocation"]) == 4
    assert len(res.selected_ids) == 4
    assert len(np.unique(res.selected_ids)) == 4


def test_ssrs_allocation_is_cached_per_chi_and_budget(monkeypatch):
    rng = np.random.default_rng(3)
    chi = rng.random(200)
    other = chi**4  # other spreads per partition, so another allocation
    pm = kmeans_1d(chi, 4, 0)

    def fresh(n, values=chi):
        return ssrs_allocation(replace(pm, values=values), n).tolist()  # an empty cache

    assert fresh(20) != fresh(30)
    assert fresh(20) != fresh(20, other)
    calls = []
    neyman = techniques.neyman_allocation
    monkeypatch.setattr(
        techniques, "neyman_allocation", lambda *args: calls.append(args) or neyman(*args)
    )
    for n in (20, 20, 30, 20, 30):
        alloc = ssrs_allocation(pm, n)
        assert alloc.tolist() == fresh(n)
        assert not alloc.flags.writeable
    assert sum(args[0] is pm for args in calls) == 2  # one per budget
    assert ssrs_allocation(kmeans_1d(other, 4, 0), 20).tolist() != fresh(20)
    # The map keeps its own copy of the scores: changing the caller's array
    # after kmeans_1d does not change what it allocates.
    mutated = chi.copy()
    copied = kmeans_1d(mutated, 4, 0)
    mutated[:] = other
    assert ssrs_allocation(copied, 20).tolist() == fresh(20)


# ---------------------------------------------------------------------------
# Variance-gradient adaptive stratified sampling


def test_gbs_single_partition_is_with_replacement_mean(pop6):
    res = run_named("gbs", pop6, 8, 3, chi=CHI, k=1)
    assert len(res.selected_ids) == 8
    assert res.estimate == pytest.approx(Z[res.selected_ids].mean(), abs=1e-12)


def test_gbs_warm_up_covers_every_partition(pop6):
    res = run_named("gbs", pop6, 6, 4, chi=CHI, k=3)
    assert res.knobs["P"] == 3
    # with budget >= P every partition receives at least one draw, so no
    # zero-draw flag is raised
    assert not any("no draws" in f for f in res.flags)


def test_gbs_truncated_warm_up_flagged(pop6):
    res = run_named("gbs", pop6, 2, 4, chi=CHI, k=3)
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
    flagged = False
    for seed in range(30):
        res = run_named("twoups", pop, 2, seed, chi=chi, k=2)
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
# Golden outputs: the draws, estimates and traces of every law, pinned byte
# for byte.  A change to how a law consumes its random stream, or to the
# float operations behind an estimate or a selection probability, changes
# these digests.  They were recorded before the per-draw loops were batched.


def _golden_population(task):
    return generate_synthetic(SyntheticConfig(task=task, N=2000), seed=11)


def _sha256(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return digest.hexdigest()


GOLDEN_RUNS = {
    (CLASSIFICATION, "srs"): "d3c2d6d995b8f2606d0e74f5e2d25a836d66a573f4c45b0a9004b56784401ecf",
    (CLASSIFICATION, "sups"): "69cb8c6add6f85d587c8e48e825bf9e2d1c491755dba2efc546233d8622e163d",
    (CLASSIFICATION, "rhcs"): "74c5ee8f3aff7116473d32a71fcace79408f2a9565d118236ca27ae743974263",
    (CLASSIFICATION, "ces"): "d33b6d077b758b57d13cdf315a88bab3c00857c4b5604668351bf7a0fd779151",
    (CLASSIFICATION, "deepest"): "dcb9259f4b52044c3ad58fac9eb5b7cf7a05ca7e40b5833b2bbb4b9c56c7572a",
    (CLASSIFICATION, "ssrs"): "bea87df5154dd4aa6e4113e2367e929889df0111e45639038cb7c5e904f94fdb",
    (CLASSIFICATION, "gbs"): "b726a50a3d5609d982593bd984071634bbae6b46c510842b2fedf3ded8535f78",
    (CLASSIFICATION, "twoups"): "bd8084050e632ccf5125034ffc0b89c6f96bfd41b64dd87b799f64bb388ce0f3",
    (REGRESSION, "srs"): "a2469cf84b57eb9aea4545c40bae9c6a9ce7f5d394b02c137a387df5d63f958a",
    (REGRESSION, "sups"): "577e7d1f3a3fff99fd96e36bc8328e3823e4327ccb08a8a99859e257154a703e",
    (REGRESSION, "rhcs"): "adfca0f8758a075e22859c9f2445b5ca5ef3d1e17684fdd4c797d2c7a0511ab3",
    (REGRESSION, "ces"): "1a5627c33c1a7e77dff38ea07d88f62007a77710cdf8ee68f209aefb5006f94b",
    (REGRESSION, "deepest"): "af822e8e81a084a85ff701d40cfd4c43c4dd7de35b97a12b253330b914260efa",
    (REGRESSION, "ssrs"): "ebedc116e2646f2a2a5b1f4bd970270e802c94d8bced8550c92e78fa0aa06c5f",
    (REGRESSION, "gbs"): "5616c9fe985274ff91ed288705e5c346c57da56ea5805d45c30cba902522a5f9",
    (REGRESSION, "twoups"): "d3f0bc9fac133cd4e2d0eb0006876f1d12e9335b5b354ebef2acbcd9f09918f1",
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


# ces bins every feature column in one vectorized pass.  This digest was
# recorded while it still binned them column by column; the constant
# column takes the zero-width fallback.
GOLDEN_CES_FEATURES = "7852516ec7e30505ad6240f822f47104b5e22425b6c82bc0a997f4e5d5251783"


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
    ],
)
def test_run_technique_refuses_what_refusal_names(task, kwargs, message):
    pop = Population(
        task, np.arange(4), [0, 1, 0, 0], [0, 0, 0, 0],
        aux={"chi": [0.1, 0.4, 0.2, 0.3], "dsa": [0.5, 0.5, 0.5, 0.5], "neg": [0.1, -0.5, 0.2, 0.3],
             "zero": [0.0, 0.0, 0.0, 0.0]},
    )
    config = TechniqueConfig(**kwargs)
    assert refusal(pop, config) == message
    if message is not None:
        oracle = LabelingOracle(pop)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_technique(pop, oracle, config, RandomStream(0))
        assert oracle.reveal_count == 0
