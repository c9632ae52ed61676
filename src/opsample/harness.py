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
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .draw import EnumeratingStream, RandomStream, derive_seed
from .partition import kmeans_1d  # noqa: F401  bench/spans.py traces opsample.harness.kmeans_1d
from .population import REGRESSION, LabelingOracle, Population, true_accuracy
from .techniques import REGISTRY, Knobs, TechniqueConfig, refusal, run_technique

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


MAX_CES_PATHS = 10**5  # ces's path count grows as a power of its candidate count


def enumerate_paths(pop: Population, config: TechniqueConfig):
    """Yield (probability, :class:`TechniqueResult`) for every sample path of the technique.

    The technique's own law runs through :func:`run_technique` under an
    :class:`EnumeratingStream`, once per sample path, so the oracle checks
    the code that runs; ``pop`` keeps the partition map, so it is built once.
    ces is refused before any path runs if it has too many paths.
    """
    if pop.N > 10 or config.budget > 4:
        raise IntractableError("enumeration supports N <= 10, n <= 4")
    if config.technique == "ces" and _ces_paths(pop.N, config) > MAX_CES_PATHS:
        raise IntractableError(f"ces has more than {MAX_CES_PATHS} sample paths")
    return _replay(pop, config)


def _ces_paths(N: int, config: TechniqueConfig) -> int:
    """ces's path count: the ordered initial set, then ``candidates`` ordered groups per step."""
    initial, group, n = config.ces_initial, config.ces_group, config.budget
    # max(..., 0): a budget above N has no path, and the first run refuses it.
    groups = (math.perm(max(N - s, 0), min(group, n - s)) for s in range(initial, n, group))
    return math.perm(N, initial) * math.prod(groups) ** config.ces_candidates


def _replay(pop, config):
    """One run of the law per sample path, depth first."""
    stream = EnumeratingStream()
    while True:
        result = run_technique(pop, LabelingOracle(pop), config, stream)
        yield stream.probability, result
        if not stream.next_path():
            return


def enumerate_expectation(pop: Population, config: TechniqueConfig) -> float:
    """Exact E[estimator] over all sample paths; probabilities must sum to 1."""
    total_prob = 0.0
    expectation = 0.0
    for prob, result in enumerate_paths(pop, config):
        total_prob += prob
        expectation += prob * result.estimate
    if abs(total_prob - 1.0) > 1e-12:
        raise AssertionError(f"path probabilities sum to {total_prob!r}, not 1")
    return expectation


# ---------------------------------------------------------------------------
# Monte Carlo experiment grid


DEFAULT_BUDGETS = (50, 100, 200, 400, 800)
DEFAULT_THRESHOLDS = tuple(2.5 * i for i in range(11))  # 0 to 25 step 2.5


@dataclass
class EvalConfig(Knobs):
    """One experiment grid: techniques x auxiliary variables x budgets, every cell at its knobs."""

    techniques: list = field(default_factory=lambda: ["srs"])
    aux: list = field(default_factory=lambda: [None])
    budgets: list = field(default_factory=lambda: list(DEFAULT_BUDGETS))
    repetitions: int = 30
    master_seed: int = 0
    offset_thresholds: list = field(default_factory=lambda: list(DEFAULT_THRESHOLDS))
    jobs: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for name in ("techniques", "aux", "budgets", "offset_thresholds"):
            if not isinstance(getattr(self, name), (list, tuple)):
                # A string would be iterated character by character.
                raise ValueError(f"{name} must be a list")
        for name, kind, what in (
            ("budgets", numbers.Integral, "integers"),
            ("offset_thresholds", numbers.Real, "numbers"),
        ):
            # bool is a numbers.Integral, but JSON's true is no budget or threshold.
            if not all(isinstance(x, kind) and not isinstance(x, bool) for x in getattr(self, name)):
                raise ValueError(f"{name} must hold {what}")
        for name in ("techniques", "aux", "budgets"):
            values = list(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                # A repeated entry would run the same cells with the same seeds twice.
                raise ValueError(f"{name} must not repeat an entry")
        if list(self.budgets) != sorted(self.budgets):
            raise ValueError("budgets must be strictly ascending")
        if min(self.budgets) < 1:
            raise ValueError("budgets must be >= 1")
        if not np.isfinite(self.offset_thresholds).all():
            raise ValueError("offset thresholds must be finite")
        if list(self.offset_thresholds) != sorted(self.offset_thresholds):
            raise ValueError("offset thresholds must be ascending")
        for technique in self.techniques:
            _make_config(self, technique, None, 1)  # refuses what each of its cells' configs would


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

    def write_manifest_json(self, path, **inputs):
        """Write the run's manifest, with ``inputs`` (what names the population read) as keys."""
        manifest = {
            "config": asdict(self.config),
            "true_xi": self.true_xi,
            "skipped": self.skipped,
            "cells": [
                {"technique": c.technique, "aux": c.aux, "budget": c.budget}
                for c in self.cells
            ],
            **inputs,
        }
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _make_config(config: EvalConfig, technique, aux, budget) -> TechniqueConfig:
    knobs = {f.name: getattr(config, f.name) for f in fields(Knobs)}
    return TechniqueConfig(technique=technique, aux=aux, budget=budget, **knobs)


_pool_grid = None  # a pool worker's (population, EvalConfig), set by _init_worker


def _init_worker(pop, config):
    """Hand a pool worker the grid once, so its cells share one population and its memo."""
    global _pool_grid
    _pool_grid = (pop, config)


def _execute_cell_worker(tc, grid=None):
    """Raw rows of one grid cell of ``grid``, (pop, config); a pool worker's is _init_worker's."""
    pop, config = grid or _pool_grid
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
    any run.  Cells that stratify alike share the map ``pop`` keeps; a pool
    worker receives ``pop`` once, and keeps its own map across its cells.
    """
    xi = true_accuracy(pop)
    skipped = []
    cells = []
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
        cells.append(tc)
    workers = min(config.jobs, os.cpu_count() or 1, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(pop, config)) as ex:
            all_rows = list(ex.map(_execute_cell_worker, cells))
    else:
        all_rows = [_execute_cell_worker(tc, (pop, config)) for tc in cells]

    raw_rows = [row for rows in all_rows for row in rows]
    return EvalReport(
        config=config, true_xi=xi, cells=summarize(raw_rows, xi), raw_rows=raw_rows,
        skipped=skipped,
    )
