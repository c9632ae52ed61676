"""Evaluation harness: metrics, the Monte Carlo grid, and the exact oracle.

The exact oracle re-runs a technique's own sampling law over every sample
path on a tiny population and returns the estimator's exact expectation;
it is the check behind the unbiasedness claims.  Everything else here is
repeated-run machinery: RMSE/RMedSE, failure statistics, offset histograms,
and budget-sensitivity summaries.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .draw import EnumeratingStream, NotEnumerableError, RandomStream, derive_seed
from .partition import kmeans_1d
from .population import REGRESSION, LabelingOracle, Population, true_accuracy
from .techniques import REGISTRY, TechniqueConfig, run_technique

__all__ = [
    "EvalConfig",
    "EvalReport",
    "rmse",
    "rmedse",
    "offset_histogram",
    "run_experiment",
    "sensitivity_summary",
    "enumerate_expectation",
    "enumerate_paths",
    "NotEnumerableError",
    "IntractableError",
]

#: Auxiliary variables that only make sense for classification tasks.
CLASSIFICATION_ONLY_AUX = {"confidence", "dsa"}


def rmse(estimates, true_xi: float) -> float:
    """Root mean squared error of accuracy estimates against the truth."""
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("empty estimate vector")
    return float(np.sqrt(np.mean((true_xi - est) ** 2)))


def rmedse(estimates, true_xi: float) -> float:
    """Root of the median squared error; robust to outlier repetitions."""
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("empty estimate vector")
    return float(np.sqrt(np.median((true_xi - est) ** 2)))


def offset_histogram(offsets, thresholds) -> np.ndarray:
    """Count of offsets >= y for each threshold y (ascending)."""
    offs = np.asarray(offsets, dtype=float)
    thr = np.asarray(thresholds, dtype=float)
    if thr.size and np.any(np.diff(thr) < 0):
        raise ValueError("thresholds must be ascending")
    return np.array([int(np.count_nonzero(offs >= y)) for y in thr])


# ---------------------------------------------------------------------------
# Exact enumeration oracle


class IntractableError(ValueError):
    """Population/budget too large for exhaustive path enumeration."""


#: Largest (N, n) the oracle enumerates: N <= 10, n <= 4 unless listed here.
_ENUM_LIMITS = {"deepest": (8, 3)}


def enumerate_paths(pop: Population, config: TechniqueConfig, n: int):
    """Yield (probability, estimate) for every sample path of the technique.

    The technique's own law runs through :func:`run_technique` under an
    :class:`EnumeratingStream`, once per sample path, so the oracle checks
    the code that runs.  chi is looked up as :func:`run_technique` does,
    from ``config.aux``, and the partition map is built once.  ces is
    refused: its rejection-sampled candidate groups have an unbounded path
    space.
    """
    if config.technique == "ces":
        raise NotEnumerableError("ces is not enumerable; use Monte Carlo")
    max_N, max_n = _ENUM_LIMITS.get(config.technique, (10, 4))
    if pop.N > max_N or n > max_n:
        raise IntractableError(f"enumeration supports N <= {max_N}, n <= {max_n}")
    config = replace(config, budget=n)
    chi = None if config.aux is None else pop.aux_vector(config.aux)
    partition = None
    if chi is not None and REGISTRY[config.technique].partitioned:
        partition = kmeans_1d(chi, config.k, config.partition_seed)
    return _replay(pop, config, chi, partition)


def _replay(pop, config, chi, partition):
    """One run of the law per sample path, depth first."""
    stream = EnumeratingStream()
    while True:
        result = run_technique(pop, LabelingOracle(pop), config, stream, chi, partition)
        yield stream.probability, result.estimate
        if not stream.next_path():
            return


def enumerate_expectation(pop: Population, config: TechniqueConfig, n: int) -> float:
    """Exact E[estimator] over all sample paths; probabilities must sum to 1."""
    total_prob = 0.0
    expectation = 0.0
    for prob, est in enumerate_paths(pop, config, n):
        total_prob += prob
        expectation += prob * est
    if abs(total_prob - 1.0) > 1e-12:
        raise AssertionError(f"path probabilities sum to {total_prob!r}, not 1")
    return expectation


# ---------------------------------------------------------------------------
# Monte Carlo experiment grid


DEFAULT_BUDGETS = (50, 100, 200, 400, 800)
DEFAULT_THRESHOLDS = tuple(2.5 * i for i in range(11))  # 0 to 25 step 2.5
_TECHNIQUE_FIELDS = {f.name for f in fields(TechniqueConfig)}
_GRID_KEYS = ("technique", "aux", "budget", "partition_seed")


@dataclass
class EvalConfig:
    """One experiment grid: techniques x auxiliary variables x budgets."""

    techniques: list = field(default_factory=lambda: ["srs"])
    aux: list = field(default_factory=lambda: [None])
    budgets: list = field(default_factory=lambda: list(DEFAULT_BUDGETS))
    repetitions: int = 30
    master_seed: int = 0
    offset_thresholds: list = field(default_factory=lambda: list(DEFAULT_THRESHOLDS))
    failure_threshold: float = 12.5
    k: int = 10
    technique_overrides: dict = field(default_factory=dict)
    jobs: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for name in ("techniques", "aux", "budgets"):
            values = list(getattr(self, name))
            if len(set(values)) != len(values):
                # A repeated entry would run the same cells with the same seeds twice.
                raise ValueError(f"{name} must not repeat an entry")
        if list(self.budgets) != sorted(self.budgets):
            raise ValueError("budgets must be strictly ascending")
        if list(self.offset_thresholds) != sorted(self.offset_thresholds):
            raise ValueError("offset thresholds must be ascending")
        for technique, overrides in self.technique_overrides.items():
            if technique not in REGISTRY:
                raise ValueError(f"technique_overrides: unknown technique {technique!r}")
            where = f"technique_overrides[{technique!r}]"
            for key in overrides:
                if key in _GRID_KEYS:
                    # The grid sets these per cell (the partition seed comes from
                    # the master seed), so an override would be ignored or break it.
                    raise ValueError(f"{where}: {key!r} is set by the grid")
                if key not in _TECHNIQUE_FIELDS:
                    raise ValueError(f"{where}: unknown knob {key!r}")


@dataclass
class CellStats:
    technique: str
    aux: str | None
    budget: int
    rmse: float
    rmedse: float
    mean_failures: float
    std_failures: float
    mean_distinct: float


@dataclass
class EvalReport:
    config: EvalConfig
    true_xi: float
    cells: list
    raw_rows: list
    skipped: list

    def cell(self, technique, aux, budget) -> CellStats | None:
        for c in self.cells:
            if (c.technique, c.aux, c.budget) == (technique, aux, budget):
                return c
        return None

    def f_ratio(self, technique, aux) -> float | None:
        """Mean failures at the largest budget over the smallest."""
        budgets = sorted({c.budget for c in self.cells if (c.technique, c.aux) == (technique, aux)})
        if len(budgets) < 2:
            return None
        low = self.cell(technique, aux, budgets[0])
        high = self.cell(technique, aux, budgets[-1])
        if low is None or high is None or low.mean_failures == 0:
            return None
        return high.mean_failures / low.mean_failures

    def write_summary_csv(self, path):
        sens = sensitivity_summary(self) if len({c.budget for c in self.cells}) >= 2 else {}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "technique", "aux", "budget", "rmse", "rmedse",
                    "mean_failures", "std_failures", "mean_distinct",
                    "f_ratio", "min_rmse_budget", "inversion",
                ]
            )
            for c in sorted(self.cells, key=lambda c: (c.technique, str(c.aux), c.budget)):
                key = (c.technique, c.aux)
                cell_sens = sens.get(key, {})
                fr = self.f_ratio(c.technique, c.aux)
                writer.writerow(
                    [
                        c.technique, c.aux if c.aux is not None else "", c.budget,
                        repr(c.rmse), repr(c.rmedse),
                        repr(c.mean_failures), repr(c.std_failures), repr(c.mean_distinct),
                        repr(fr) if fr is not None else "",
                        cell_sens.get("min_rmse_budget", ""),
                        int(cell_sens["inversion"]) if "inversion" in cell_sens else "",
                    ]
                )

    def write_raw_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            head = ["technique", "aux", "budget", "repetition", "seed", "xi_hat", "failures", "distinct"]
            thr = self.config.offset_thresholds
            if self.raw_rows and self.raw_rows[0].get("offset_counts") is not None:
                head += [f"n_offset_ge_{y}" for y in thr]
            writer.writerow(head)
            for row in self.raw_rows:
                out = [
                    row["technique"], row["aux"] if row["aux"] is not None else "",
                    row["budget"], row["repetition"], row["seed"],
                    repr(row["xi_hat"]), row["failures"], row["distinct"],
                ]
                if row.get("offset_counts") is not None:
                    out += [int(x) for x in row["offset_counts"]]
                writer.writerow(out)

    def write_manifest_json(self, path, population=None):
        """Write the run's manifest; ``population`` (a CSV path) is recorded when given."""
        manifest = {
            "config": asdict(self.config),
            "true_xi": self.true_xi,
            "skipped": self.skipped,
            "cells": [
                {"technique": c.technique, "aux": c.aux, "budget": c.budget}
                for c in self.cells
            ],
        }
        if population is not None:
            manifest["population"] = population
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _make_config(config: EvalConfig, technique, aux, budget) -> TechniqueConfig:
    kwargs = dict(
        technique=technique,
        aux=aux,
        budget=budget,
        k=config.k,
        failure_threshold=config.failure_threshold,
    )
    kwargs.update(config.technique_overrides.get(technique, {}))
    return TechniqueConfig(**kwargs)


def _execute_cell_worker(args):
    """Raw rows of one grid cell; the same function runs in-process and in pool workers."""
    pop, config, tc, partition = args
    technique, aux, budget = tc.technique, tc.aux, tc.budget
    chi = pop.aux_vector(aux) if aux is not None else None
    rows = []
    for rep in range(config.repetitions):
        seed = derive_seed(config.master_seed, technique, aux, budget, rep)
        oracle = LabelingOracle(pop)
        result = run_technique(pop, oracle, tc, RandomStream(seed), chi=chi, partition=partition)
        row = {
            "technique": technique,
            "aux": aux,
            "budget": budget,
            "repetition": rep,
            "seed": seed,
            "xi_hat": result.xi_hat,
            "failures": result.failures,
            "distinct": result.distinct_labeled,
            "offset_counts": None,
        }
        if pop.task == REGRESSION:
            row["offset_counts"] = offset_histogram(result.offsets, config.offset_thresholds)
        rows.append(row)
    return rows


def _skip_reason(pop: Population, technique, aux) -> str | None:
    """Why a (technique, aux) pair is not run, or None when it is."""
    if not REGISTRY[technique].needs_chi:
        # SRS/CES ignore chi for selection probabilities; run them once
        # under aux=None only.
        return None if aux is None else "technique does not use an auxiliary variable"
    if aux is None:
        return "technique requires an auxiliary variable"
    if pop.task == REGRESSION and aux in CLASSIFICATION_ONLY_AUX:
        return f"{aux} is classification-only"
    if aux not in pop.aux_names:
        return f"auxiliary variable {aux!r} not present"
    return None


def run_experiment(pop: Population, config: EvalConfig) -> EvalReport:
    """Execute the full grid with independently seeded repetitions.

    Each needed partition map is computed once, here, for each (aux, k)
    pair that a stratified cell's config asks for, so cells that stratify
    alike share one map whatever the worker count.
    """
    xi = true_accuracy(pop)
    grid = []
    skipped = []
    for technique, aux, budget in itertools.product(config.techniques, config.aux, config.budgets):
        reason = _skip_reason(pop, technique, aux)
        if reason is None:
            grid.append((technique, aux, budget))
        else:
            skipped.append({"technique": technique, "aux": aux, "budget": budget, "reason": reason})

    partitions = {}
    cell_args = []
    for technique, aux, budget in grid:
        tc = _make_config(config, technique, aux, budget)
        partition = None
        if REGISTRY[technique].partitioned:
            key = (aux, tc.k)
            if key not in partitions:
                seed = derive_seed(config.master_seed, "partition", aux, tc.k)
                partitions[key] = kmeans_1d(pop.aux_vector(aux), tc.k, seed)
            partition = partitions[key]
        cell_args.append((pop, config, tc, partition))
    workers = min(config.jobs, os.cpu_count() or 1, len(cell_args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            all_rows = list(pool_exec.map(_execute_cell_worker, cell_args))
    else:
        all_rows = list(map(_execute_cell_worker, cell_args))

    cells = []
    raw_rows = []
    for (technique, aux, budget), rows in zip(grid, all_rows):
        raw_rows.extend(rows)
        estimates = np.array([r["xi_hat"] for r in rows])
        failures = np.array([r["failures"] for r in rows], dtype=float)
        distinct = np.array([r["distinct"] for r in rows], dtype=float)
        cells.append(
            CellStats(
                technique=technique,
                aux=aux,
                budget=budget,
                rmse=rmse(estimates, xi),
                rmedse=rmedse(estimates, xi),
                mean_failures=float(failures.mean()),
                std_failures=float(failures.std()),
                mean_distinct=float(distinct.mean()),
            )
        )
    return EvalReport(config=config, true_xi=xi, cells=cells, raw_rows=raw_rows, skipped=skipped)


def sensitivity_summary(report: EvalReport) -> dict:
    """Per (technique, aux): budget with minimal RMSE and the inversion flag.

    An inversion is the pathology where the smallest budget beats the
    largest one on RMSE.
    """
    budgets = sorted({c.budget for c in report.cells})
    if len(budgets) < 2:
        raise ValueError("sensitivity analysis needs at least two budgets")
    out = {}
    keys = sorted({(c.technique, c.aux) for c in report.cells}, key=lambda t: (t[0], str(t[1])))
    for key in keys:
        series = sorted(
            (c for c in report.cells if (c.technique, c.aux) == key), key=lambda c: c.budget
        )
        if len(series) < 2:
            continue
        best = min(series, key=lambda c: c.rmse)
        out[key] = {
            "min_rmse_budget": best.budget,
            "inversion": series[0].rmse < series[-1].rmse,
        }
    return out
