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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .draw import EnumeratingStream, NotEnumerableError, RandomStream, derive_seed
from .partition import kmeans_1d  # noqa: F401  bench/spans.py traces opsample.harness.kmeans_1d
from .population import REGRESSION, LabelingOracle, Population, true_accuracy
from .techniques import REGISTRY, TechniqueConfig, refusal, run_technique

__all__ = [
    "EvalConfig",
    "EvalReport",
    "rmse",
    "rmedse",
    "offset_histogram",
    "run_experiment",
    "summarize",
    "enumerate_expectation",
    "enumerate_paths",
    "require_enumerable",
    "NotEnumerableError",
    "IntractableError",
]

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


def require_enumerable(technique: str) -> None:
    """Refuse ces: its rejection-sampled candidate groups have an unbounded path space."""
    if technique == "ces":
        raise NotEnumerableError("ces is not enumerable; use Monte Carlo")


def enumerate_paths(pop: Population, config: TechniqueConfig):
    """Yield (probability, estimate) for every sample path of the technique.

    The technique's own law runs through :func:`run_technique` under an
    :class:`EnumeratingStream`, once per sample path, so the oracle checks
    the code that runs; ``pop`` keeps the partition map, so it is built once.
    """
    require_enumerable(config.technique)
    if pop.N > 10 or config.budget > 4:
        raise IntractableError("enumeration supports N <= 10, n <= 4")
    return _replay(pop, config)


def _replay(pop, config):
    """One run of the law per sample path, depth first."""
    stream = EnumeratingStream()
    while True:
        result = run_technique(pop, LabelingOracle(pop), config, stream)
        yield stream.probability, result.estimate
        if not stream.next_path():
            return


def enumerate_expectation(pop: Population, config: TechniqueConfig) -> float:
    """Exact E[estimator] over all sample paths; probabilities must sum to 1."""
    total_prob = 0.0
    expectation = 0.0
    for prob, est in enumerate_paths(pop, config):
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
    failure_threshold: float = TechniqueConfig.failure_threshold
    k: int = TechniqueConfig.k
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
    """The statistics of one grid cell's repetitions.

    The last three describe the cell's (technique, aux) series; they are
    None when it has fewer than two budgets.
    """

    technique: str
    aux: str | None
    budget: int
    rmse: float
    rmedse: float
    mean_failures: float
    std_failures: float
    mean_distinct: float
    mean_offset_counts: list | None = None  # regression: one per offset threshold
    f_ratio: float | None = None  # mean failures at the largest budget over the smallest
    min_rmse_budget: int | None = None
    inversion: bool | None = None  # the smallest budget beats the largest on RMSE


def summarize(rows, true_xi: float) -> list:
    """One :class:`CellStats` per (technique, aux, budget) cell of raw rows, in grid order.

    Rows are those of :attr:`EvalReport.raw_rows`; ``f_ratio`` is None when
    the smallest budget's mean failures are 0.
    """
    by_cell = {}
    for row in rows:
        by_cell.setdefault((row["technique"], row["aux"], row["budget"]), []).append(row)
    cells = []
    for (technique, aux, budget), cell_rows in by_cell.items():
        estimates = np.array([r["xi_hat"] for r in cell_rows])
        failures = np.array([r["failures"] for r in cell_rows], dtype=float)
        distinct = np.array([r["distinct"] for r in cell_rows], dtype=float)
        offsets = None
        if cell_rows[0]["offset_counts"] is not None:
            counts = np.array([r["offset_counts"] for r in cell_rows], dtype=float)
            offsets = counts.mean(axis=0).tolist()
        cells.append(
            CellStats(
                technique=technique,
                aux=aux,
                budget=budget,
                rmse=rmse(estimates, true_xi),
                rmedse=rmedse(estimates, true_xi),
                mean_failures=float(failures.mean()),
                std_failures=float(failures.std()),
                mean_distinct=float(distinct.mean()),
                mean_offset_counts=offsets,
            )
        )
    series = {}
    for c in cells:
        series.setdefault((c.technique, c.aux), []).append(c)
    for budgets in series.values():
        if len(budgets) < 2:
            continue
        budgets.sort(key=lambda c: c.budget)
        low, high = budgets[0], budgets[-1]
        f_ratio = None if low.mean_failures == 0 else high.mean_failures / low.mean_failures
        best = min(budgets, key=lambda c: c.rmse).budget
        for c in budgets:
            c.f_ratio, c.min_rmse_budget, c.inversion = f_ratio, best, low.rmse < high.rmse
    return cells


@dataclass
class EvalReport:
    config: EvalConfig
    true_xi: float
    cells: list
    raw_rows: list
    skipped: list

    def write_summary_csv(self, path):
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
                writer.writerow(
                    [
                        c.technique, c.aux if c.aux is not None else "", c.budget,
                        repr(c.rmse), repr(c.rmedse),
                        repr(c.mean_failures), repr(c.std_failures), repr(c.mean_distinct),
                        repr(c.f_ratio) if c.f_ratio is not None else "",
                        c.min_rmse_budget if c.min_rmse_budget is not None else "",
                        int(c.inversion) if c.inversion is not None else "",
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
    kwargs["partition_seed"] = derive_seed(config.master_seed, "partition", aux, kwargs["k"])
    return TechniqueConfig(**kwargs)


def _execute_cell_worker(args):
    """Raw rows of one grid cell; the same function runs in-process and in pool workers."""
    pop, config, tc = args
    technique, aux, budget = tc.technique, tc.aux, tc.budget
    rows = []
    for rep in range(config.repetitions):
        seed = derive_seed(config.master_seed, technique, aux, budget, rep)
        oracle = LabelingOracle(pop)
        result = run_technique(pop, oracle, tc, RandomStream(seed))
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


def run_experiment(pop: Population, config: EvalConfig) -> EvalReport:
    """Execute the full grid with independently seeded repetitions.

    A cell that :func:`refusal` refuses is skipped with its reason, before
    any run.  Cells that stratify alike share the map ``pop`` keeps; a
    worker process receives ``pop`` without it and builds its own.
    """
    xi = true_accuracy(pop)
    skipped = []
    cell_args = []
    for technique, aux, budget in itertools.product(config.techniques, config.aux, config.budgets):
        if not REGISTRY[technique].needs_chi and aux is not None:
            # SRS/CES ignore chi for selection probabilities; run them once
            # under aux=None only.
            reason = "technique does not use an auxiliary variable"
        else:
            tc = _make_config(config, technique, aux, budget)
            reason = refusal(pop, tc)
        if reason is not None:
            skipped.append({"technique": technique, "aux": aux, "budget": budget, "reason": reason})
            continue
        cell_args.append((pop, config, tc))
    workers = min(config.jobs, os.cpu_count() or 1, len(cell_args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            all_rows = list(pool_exec.map(_execute_cell_worker, cell_args))
    else:
        all_rows = list(map(_execute_cell_worker, cell_args))

    raw_rows = [row for rows in all_rows for row in rows]
    return EvalReport(
        config=config, true_xi=xi, cells=summarize(raw_rows, xi), raw_rows=raw_rows,
        skipped=skipped,
    )
