"""Why stratifying on the auxiliary score cuts estimation error.

Builds a population with ten homogeneous groups whose failure rates rise
with the auxiliary score, partitions it with 1-D k-means, shows the sample
allocation, and compares the repeated-run RMSE of plain random sampling
against stratified sampling at the same budget.
"""

import numpy as np

from opsample import (
    CLASSIFICATION,
    LabelingOracle,
    Population,
    RandomStream,
    TechniqueConfig,
    kmeans_1d,
    rmse,
    run_technique,
    ssrs_allocation,
    true_accuracy,
)

rng = np.random.default_rng(0)
chi_s = np.repeat(0.05 + 0.1 * np.arange(10), 300)  # ten groups of 300
rate = np.repeat(0.05 + 0.08 * np.arange(10), 300)
true_label = (rng.random(chi_s.size) < rate).astype(int)
N = chi_s.size
pop = Population(CLASSIFICATION, np.arange(N), true_label, np.zeros(N, int), aux={"chi": chi_s})
chi = pop.aux_vector("chi")
xi = true_accuracy(pop)
print(f"population: N={pop.N}, true accuracy {xi:.4f}")

pm = kmeans_1d(chi, 10)
alloc = ssrs_allocation(pm, 200)
print(f"partition sizes: {[int(s) for s in pm.sizes]}")
print(f"allocation of 200 draws: {[int(a) for a in alloc]}  (chi is constant inside each")
print("partition, so allocation falls back to proportional-to-size)\n")

REPS = 400
results = {}
for name in ("srs", "ssrs"):
    tc = TechniqueConfig(
        technique=name, aux=None if name == "srs" else "chi", budget=200, k=10
    )
    estimates = [
        1.0
        - run_technique(pop, LabelingOracle(pop), tc, RandomStream(seed)).estimate
        for seed in range(REPS)
    ]
    results[name] = rmse(estimates, xi)
    print(f"{name:<5} RMSE over {REPS} runs: {results[name]:.5f}")

print(
    f"\nstratification cuts RMSE by "
    f"{100 * (1 - results['ssrs'] / results['srs']):.0f}% here: the between-group"
    "\nspread of failure rates is removed from the estimator's variance."
)
