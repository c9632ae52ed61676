"""Acceptance gate: the eight headline guarantees, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL — detail` so the gate can be read
off the captured output, then asserts at the stated tolerance.
"""

import time

import numpy as np
import pytest
from scipy import stats

from conftest import make_classification, random_tiny_population

from opsample.draw import RandomStream, derive_seed
from opsample.harness import (
    enumerate_expectation,
    offset_histogram,
    rmedse,
    rmse,
)
from opsample.partition import kmeans_1d
from opsample.population import (
    CLASSIFICATION,
    REGRESSION,
    LabelingOracle,
    Population,
    SyntheticConfig,
    generate_synthetic,
    true_accuracy,
)
from opsample.techniques import TechniqueConfig, run_technique, ssrs_allocation


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def main_pop():
    """Classification population N=10^4, accuracy 0.9, chi correlation 0.8."""
    config = SyntheticConfig(
        task=CLASSIFICATION, N=10_000, target_accuracy=0.9, chi_correlation=0.8
    )
    return generate_synthetic(config, 20260826)


def run_once(pop, config, seed):
    return run_technique(pop, LabelingOracle(pop), config, RandomStream(seed))


def estimates_for(pop, config, seeds):
    return np.array([run_once(pop, config, s).estimate for s in seeds])


# ---------------------------------------------------------------------------


def test_criterion_1_exact_oracle_unbiasedness():
    start = time.perf_counter()
    techniques = ("srs", "sups", "rhcs", "ssrs", "twoups", "deepest")
    counts = {t: 0 for t in techniques}
    worst = 0.0
    rng = np.random.default_rng(1)
    pops = 0
    while min(counts.values()) < 100:
        task = CLASSIFICATION if pops % 2 == 0 else REGRESSION
        pop = random_tiny_population(rng, task=task, n_min=3, n_max=6)
        n = int(rng.integers(1, 4))
        chi = pop.aux_vector("chi")
        if task == CLASSIFICATION:
            truth = float(np.mean(pop._true_outcomes()))
        else:
            truth = float(np.mean(pop._true_outcomes() ** 2))
        pops += 1
        for name in techniques:
            if name == "ssrs":
                if (ssrs_allocation(kmeans_1d(chi, 2), n) == 0).any():
                    # Happens only when n < P: a zero-allocation stratum
                    # contributes its mean as 0, which breaks exact
                    # unbiasedness by design, so such configurations are
                    # excluded from the oracle check.
                    continue
            config = TechniqueConfig(technique=name, aux="chi", budget=n, k=2)
            exact = enumerate_expectation(pop, config)
            gap = abs(exact - truth)
            worst = max(worst, gap)
            counts[name] += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 60
    report(1, ok,
           f"{pops} tiny populations, min {min(counts.values())} checks/technique, "
           f"worst |E[est] - truth| = {worst:.2e}, {elapsed:.1f}s")


ALL_CONFIGS = {
    "srs": dict(technique="srs"),
    "sups": dict(technique="sups", aux="chi"),
    "rhcs": dict(technique="rhcs", aux="chi"),
    "ces": dict(technique="ces"),
    "deepest": dict(technique="deepest", aux="chi"),
    "ssrs": dict(technique="ssrs", aux="chi", k=10),
    "gbs": dict(technique="gbs", aux="chi", k=10),
    "twoups": dict(technique="twoups", aux="chi", k=10),
}


@pytest.mark.slow
def test_criterion_2_monte_carlo_unbiasedness(main_pop):
    start = time.perf_counter()
    R = 10_000
    xi_true = true_accuracy(main_pop)
    details = []
    ok = True
    for name, kwargs in ALL_CONFIGS.items():
        config = TechniqueConfig(budget=200, **kwargs)
        seeds = [derive_seed(0, "c2", name, rep) for rep in range(R)]
        est = estimates_for(main_pop, config, seeds)
        xi_hat = 1.0 - est
        se = xi_hat.std(ddof=1) / np.sqrt(R)
        dev = abs(xi_hat.mean() - xi_true)
        details.append(f"{name} {dev / se:.1f}se")
        ok = ok and dev <= 3 * se
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300
    report(2, ok, f"N=10^4 xi={xi_true:.4f} n=200 R={R}: " + ", ".join(details)
           + f", {elapsed:.0f}s")


def test_criterion_3_failure_exposure_ordering(main_pop):
    R = 1000
    means = {}
    for name in ("srs", "sups", "deepest"):
        config = TechniqueConfig(budget=200, **ALL_CONFIGS[name])
        fails = [
            run_once(main_pop, config, derive_seed(0, "c3", name, rep)).failures
            for rep in range(R)
        ]
        means[name] = float(np.mean(fails))
    ok = means["sups"] >= 2 * means["srs"] and means["deepest"] >= means["srs"]
    report(3, ok,
           f"mean failures at n=200, R={R}: srs {means['srs']:.1f}, "
           f"sups {means['sups']:.1f} ({means['sups'] / means['srs']:.1f}x), "
           f"deepest {means['deepest']:.1f}")


@pytest.fixture(scope="module")
def strata_pop():
    """10 chi-homogeneous strata whose failure rates track chi closely."""
    rng = np.random.default_rng(4)
    z, chi = [], []
    for s in range(10):
        chi_s = 0.05 + 0.1 * s
        rate = 0.05 + 0.08 * s  # 5% .. 77%, strongly ordered with chi
        for _ in range(200):
            z.append(int(rng.random() < rate))
            chi.append(chi_s)
    N = len(z)
    return Population(CLASSIFICATION, np.arange(N), z, np.zeros(N, int), aux={"chi": chi})


def test_criterion_4_stratification_efficiency(strata_pop):
    R = 2000
    xi_true = true_accuracy(strata_pop)
    srs_cfg = TechniqueConfig(technique="srs", budget=200)
    ssrs_cfg = TechniqueConfig(technique="ssrs", aux="chi", budget=200, k=10)
    srs_err = np.array([
        (xi_true - (1.0 - run_once(strata_pop, srs_cfg, derive_seed(0, "c4", "srs", i)).estimate)) ** 2
        for i in range(R)
    ])
    ssrs_err = np.array([
        (xi_true - (1.0 - run_once(
            strata_pop, ssrs_cfg, derive_seed(0, "c4", "ssrs", i)
        ).estimate)) ** 2
        for i in range(R)
    ])
    gap = np.sqrt(srs_err.mean()) - np.sqrt(ssrs_err.mean())
    boot_rng = np.random.default_rng(0)
    idx = boot_rng.integers(0, R, size=(1000, R))
    boot = np.sqrt(srs_err[idx].mean(axis=1)) - np.sqrt(ssrs_err[idx].mean(axis=1))
    se = float(boot.std(ddof=1))
    ok = gap > 0 and gap > 2 * se
    report(4, ok,
           f"RMSE srs {np.sqrt(srs_err.mean()):.5f} vs ssrs {np.sqrt(ssrs_err.mean()):.5f}, "
           f"gap {gap:.5f} > 2x bootstrap SE {se:.5f}")


def test_criterion_5_budget_scaling(main_pop):
    R = 1000
    xi_true = true_accuracy(main_pop)
    stats_by_n = {}
    for n in (50, 800):
        config = TechniqueConfig(technique="srs", budget=n)
        results = [run_once(main_pop, config, derive_seed(0, "c5", n, i)) for i in range(R)]
        fails = float(np.mean([r.failures for r in results]))
        err = rmse([1.0 - r.estimate for r in results], xi_true)
        stats_by_n[n] = (fails, err)
    ratio = stats_by_n[800][0] / stats_by_n[50][0]
    no_inversion = stats_by_n[800][1] < stats_by_n[50][1]
    ok = 12 <= ratio <= 20 and no_inversion
    report(5, ok,
           f"F_800/50 = {ratio:.2f} (target [12, 20]), "
           f"RMSE 800 {stats_by_n[800][1]:.5f} < RMSE 50 {stats_by_n[50][1]:.5f}: {no_inversion}")


@pytest.mark.slow
def test_criterion_6_degenerations(main_pop):
    R = 10_000
    srs_cfg = TechniqueConfig(technique="srs", budget=200)
    srs_est = estimates_for(
        main_pop, srs_cfg, [derive_seed(0, "c6", "srs", i) for i in range(R)]
    )
    N = main_pop.N
    uniform_pop = Population(
        CLASSIFICATION, np.arange(N), main_pop._true, main_pop._predicted,
        aux={"chi": np.ones(N)},
    )
    cases = {
        "sups/uniform-chi": (
            uniform_pop, TechniqueConfig(technique="sups", aux="chi", budget=200),
        ),
        "gbs/k=1": (
            main_pop, TechniqueConfig(technique="gbs", aux="chi", budget=200, k=1),
        ),
    }
    details = []
    ok = True
    for label, (pop, config) in cases.items():
        est = estimates_for(pop, config, [derive_seed(0, "c6", label, i) for i in range(R)])
        p = stats.ks_2samp(srs_est, est).pvalue
        details.append(f"{label} KS p={p:.3g}")
        ok = ok and p > 0.001

    z = main_pop._true_outcomes()

    # DeepEST at r = 0 selects uniformly without replacement, but its per-step
    # estimator weights the j-th label by w_j = (N + n + 1 - 2j) / N, so its
    # estimates leave the 1/n lattice of SRS means and cannot match them under
    # KS.  The degeneration is checked on what it selects instead: the mean of
    # the outcomes it labeled against SRS, and, path by path, every trace
    # probability against 1/(N - step) and the estimate against its closed form.
    label = "deepest/r=0"
    config = TechniqueConfig(technique="deepest", aux="chi", budget=200, r=0.0)
    seeds = [derive_seed(0, "c6", label, i) for i in range(R)]
    labeled_mean = np.array([
        z[run_once(main_pop, config, s).selected_ids].mean() for s in seeds
    ])
    p = stats.ks_2samp(srs_est, labeled_mean).pvalue
    details.append(f"{label} labeled-mean KS p={p:.3g}")
    ok = ok and p > 0.001

    n = config.budget
    w = (N + n + 1 - 2 * np.arange(1, n + 1)) / N
    exact = True
    for s in seeds[:200]:
        res = run_once(main_pop, config, s)
        closed_form = float(w @ z[res.selected_ids]) / n
        exact = (
            exact
            and abs(res.estimate - closed_form) < 1e-12
            and len(res.probabilities) == n
            and all(
                tag in ("srs-first", "srs-step") and q == 1.0 / (N - step)
                for step, (q, tag) in enumerate(zip(res.probabilities, res.schemes))
            )
        )
    details.append(f"{label} per-path uniform trace and closed form: {exact}")
    ok = ok and exact

    # SSRS with a single partition must equal the plain sample mean path by path.
    exact = True
    ssrs1 = TechniqueConfig(technique="ssrs", aux="chi", budget=200, k=1)
    for i in range(200):
        res = run_once(main_pop, ssrs1, derive_seed(0, "c6", "ssrs1", i))
        exact = exact and abs(res.estimate - z[res.selected_ids].mean()) < 1e-15
    details.append(f"ssrs/k=1 per-path equality: {exact}")
    ok = ok and exact
    report(6, ok, ", ".join(details))


def test_criterion_7_metric_formulas():
    checks = [
        abs(rmse([0.8, 0.6], 0.9) - np.sqrt(0.05)) < 1e-12,
        abs(rmedse([0.8, 0.7, 0.0], 0.9) - 0.2) < 1e-12,
        rmse([0.9, 0.9, 0.9], 0.9) == 0.0,
        list(offset_histogram([0.0, 3.0, 13.0, 26.0], [0.0, 2.5, 12.5, 25.0])) == [4, 3, 2, 1],
    ]
    # One injected outlier: the median-based metric must shrug it off.
    est = [0.91, 0.89] * 6 + [0.4]
    robust = rmedse(est, 0.9)
    raw = rmse(est, 0.9)
    checks.append(robust <= raw / 5)
    ok = all(checks)
    report(7, ok,
           f"hand examples exact at 1e-12; outlier set rmedse {robust:.4f} "
           f"<= rmse/5 = {raw / 5:.4f}")


def test_criterion_8_byte_identical_rerun(tmp_path):
    from opsample.cli import main as cli_main
    from opsample.population import write_population_csv

    rng = np.random.default_rng(8)
    pop = make_classification((rng.random(300) < 0.1).astype(int), rng.random(300))
    pop_path = tmp_path / "pop.csv"
    write_population_csv(pop, pop_path)
    args = ["eval", "--population", str(pop_path),
            "--techniques", "srs,sups,rhcs,ces,deepest,ssrs,gbs,twoups",
            "--aux", "none,chi", "--budgets", "40,80", "--reps", "3",
            "--seed", "11", "--k", "4"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("summary.csv", "raw.csv")
    )
    report(8, same, "eval rerun with identical config: summary.csv and raw.csv byte-identical")
