"""The repeated-run evaluation harness and the exact expectation oracle.

Part 1 runs a small technique x budget grid with independently seeded
repetitions and prints the summary statistics the harness computes (RMSE,
failure counts, the failures ratio between the largest and smallest budget,
and the budget-sensitivity flags).

Part 2 shows the exact oracle: on a tiny population it re-runs each
technique's own sampling law over every possible sample path and prints
the estimator's exact expectation next to the true failure rate.
"""

import numpy as np

from opsample import (
    CLASSIFICATION,
    EvalConfig,
    Population,
    SyntheticConfig,
    TechniqueConfig,
    enumerate_expectation,
    generate_synthetic,
    run_experiment,
)

# --- Part 1: the Monte Carlo grid -----------------------------------------

pop = generate_synthetic(
    SyntheticConfig(task=CLASSIFICATION, N=4000, target_accuracy=0.9, chi_correlation=0.8),
    seed=3,
)
config = EvalConfig(
    techniques=["srs", "sups", "ssrs"],
    aux=[None, "chi"],
    budgets=[50, 200, 800],
    repetitions=100,
    master_seed=0,
    k=10,
)
report = run_experiment(pop, config)
print(f"true accuracy: {report.true_xi:.4f}\n")
print(f"{'technique':<10} {'aux':<5} {'budget':>6} {'rmse':>8} {'failures':>9}")
for c in sorted(report.cells, key=lambda c: (c.technique, c.budget)):
    print(
        f"{c.technique:<10} {c.aux or '-':<5} {c.budget:>6} "
        f"{c.rmse:>8.4f} {c.mean_failures:>9.1f}"
    )

print()
for c in sorted(report.cells, key=lambda c: c.technique):
    if c.budget == config.budgets[-1]:  # one line per (technique, aux) series
        print(
            f"{c.technique}: failures(800)/failures(50) = {c.f_ratio:.1f}, "
            f"best budget by RMSE = {c.min_rmse_budget}, "
            f"inversion = {c.inversion}"
        )

# --- Part 2: the exact oracle ---------------------------------------------

z = [1, 0, 0, 1]
chi = [0.9, 0.2, 0.3, 0.6]
tiny = Population(CLASSIFICATION, np.arange(4), z, np.zeros(4, int), aux={"chi": chi})
theta = float(np.mean(z))
print(f"\ntiny population: N=4, true failure rate {theta}")
for name in ("srs", "sups", "rhcs", "deepest", "gbs"):
    tc = TechniqueConfig(technique=name, aux="chi", budget=2, k=2)
    exact = enumerate_expectation(tiny, tc)
    print(f"  {name:<8} exact E[estimate] over all sample paths = {exact:.15f}")
