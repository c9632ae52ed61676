"""Benchmark workloads: inputs made from a seed, the measured session, output checks.

Every workload runs the three things an opsample user waits on, through the
public API and the in-process CLI entry point ``opsample.cli.main``:

* score: ``compute_dsa`` then ``compute_lsa`` on synthetic activation traces;
* estimate: the 8 ``opsample run`` commands, one per technique, each from the
  pool CSV on disk to its result JSON;
* grid: ``opsample eval`` on the reference grid (8 techniques x aux
  {none, chi} x budgets {50, 200, 800}, 24 cells).

A workload sets the input sizes and each stage's share of the measured time.
Its run interleaves the three stages' operations until the time is used up
(see :func:`run_sessions`), so every end-to-end metric exists on every
workload and samples the whole run.  Every timed output is checked.

The pool is the reference pool, generated from a fixed seed: the number of
Lloyd iterations ``kmeans_1d`` needs depends on the pool, so pools drawn per
seed made one ssrs/gbs/twoups command at N=10^5 take 0.7 to 1.9 s of k-means
from seed to seed.  ``--seed`` makes the traces and every sampling seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import opsample.cli
from opsample.auxvar import ActivationTraces, compute_dsa, compute_lsa
from opsample.population import SyntheticConfig, generate_synthetic, write_population_csv

import speed
from spans import TECHNIQUES

perf = time.perf_counter

NO_AUX = ("srs", "ces")  # run without --aux; every other technique uses chi
#: Techniques whose grid means must lie within 5 standard errors of the truth.
#: gbs has a documented optional-stopping bias; ces claims no unbiasedness.
UNBIASED = ("srs", "sups", "rhcs", "ssrs", "twoups", "deepest")
BUDGETS = (50, 200, 800)
RUN_BUDGET = 200
EXPECTED_CELLS = {
    (t, "" if t in NO_AUX else "chi", b) for t in TECHNIQUES for b in BUDGETS
}
#: The bias check needs this many estimates per technique; fewer give a t
#: statistic whose tails make a 5-SE check fail by chance.
MIN_BIAS_SAMPLES = 60
BIAS_SE = 5.0

POOL_SEED = 0
STAGES = ("score", "estimate", "grid")
TRACE_DIM = 16
TRACE_CLASSES = 10
#: Set-up runs at least this many times, and until it has taken this long.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # pool task: classification or regression
    pool_n: int
    traces_n: int
    reps: int  # eval repetitions per grid cell
    shares: dict  # stage -> its share of the measured time
    jobs: int = 1


#: Each workload gives most of the time to the stage it is named for; the
#: 8 ``run`` commands of ``ingest`` alone take about 20 s.
GRID_SHARES = {"score": 0.1, "estimate": 0.2, "grid": 0.7}
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", "classification", 10_000, 1000, 30, GRID_SHARES),
        Workload("grid-jobs2", "classification", 10_000, 1000, 30, GRID_SHARES, jobs=2),
        Workload("ingest", "regression", 100_000, 1000, 5,
                 {"score": 0.05, "estimate": 0.6, "grid": 0.35}),
        Workload("surprise", "classification", 4000, 4000, 10,
                 {"score": 0.7, "estimate": 0.15, "grid": 0.15}),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs in a few seconds; 4 reps give each
    technique the 11 runs per grid pass that ``run_ms_tail`` needs."""
    return replace(workload, pool_n=1000, traces_n=200, reps=4)


def derive(*parts: int) -> int:
    """A 32-bit seed determined by nonnegative integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Inputs:
    pool_csv: Path
    traces: ActivationTraces
    true_xi: float
    setup_s: list  # wall seconds per set-up
    setup_calibration_s: list  # a calibration before each set-up
    generate_s: list
    write_csv_s: list


def make_traces(n: int, seed: int) -> ActivationTraces:
    """Clustered activation traces: one Gaussian blob per predicted class."""
    rng = np.random.default_rng([seed, 1])
    classes = np.arange(n) % TRACE_CLASSES
    rng.shuffle(classes)
    centres = rng.normal(0.0, 3.0, size=(TRACE_CLASSES, TRACE_DIM))
    matrix = centres[classes] + rng.standard_normal((n, TRACE_DIM))
    return ActivationTraces(matrix, classes)


def csv_true_xi(path: Path) -> float:
    """Operational accuracy read straight from the pool file's columns."""
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        if "true_label" in rows.fieldnames:
            wrong = [r["true_label"] != r["predicted_label"] for r in rows]
            return 1.0 - sum(wrong) / len(wrong)
        sq = [(float(r["true_value"]) - float(r["predicted_value"])) ** 2 for r in rows]
        return 1.0 - math.fsum(sq) / len(sq)


def set_up(wl: Workload, seed: int, work: Path) -> Inputs:
    """Generate the pool and the seed's traces; repeated to time set-up."""
    start = perf()
    pool_csv = work / "pool.csv"
    config = SyntheticConfig(task=wl.task, N=wl.pool_n, target_accuracy=0.9, chi_correlation=0.8)
    setup_s, calibration_s, generate_s, write_csv_s = [], [], [], []
    while len(setup_s) < SETUP_REPEATS or perf() - start < SETUP_MIN_S:
        calibration_s.append(speed.calibrate())
        t0 = perf()
        pop = generate_synthetic(config, POOL_SEED)
        t1 = perf()
        write_population_csv(pop, pool_csv)
        t2 = perf()
        traces = make_traces(wl.traces_n, seed)
        setup_s.append(perf() - t0)
        del pop
        generate_s.append(t1 - t0)
        write_csv_s.append(t2 - t1)
    return Inputs(pool_csv, traces, csv_true_xi(pool_csv), setup_s, calibration_s,
                  generate_s, write_csv_s)


# ---------------------------------------------------------------------------
# Output checks


def check_scores(values, n: int) -> bool:
    v = np.asarray(values)
    return v.shape == (n,) and bool(np.all(np.isfinite(v))) and bool(np.all(v >= 0))


def check_result_json(path: Path) -> bool:
    try:
        with open(path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return False
    xi = result.get("xi_hat")
    distinct = result.get("distinct_labeled")
    return (
        isinstance(xi, (int, float)) and math.isfinite(xi)
        and isinstance(distinct, int) and distinct <= RUN_BUDGET
    )


def read_grid(out: Path, reps: int, true_xi: float):
    """Check one eval output directory.

    Returns (rows read, failed runs, {technique: [xi_hat of rows that passed]}).
    """
    expected = len(EXPECTED_CELLS) * reps
    try:
        with open(out / "raw.csv", newline="") as fh:
            raw = list(csv.DictReader(fh))
        with open(out / "summary.csv", newline="") as fh:
            cells = {(r["technique"], r["aux"], int(r["budget"])) for r in csv.DictReader(fh)}
        with open(out / "manifest.json") as fh:
            manifest_xi = json.load(fh)["true_xi"]
    except (OSError, ValueError, KeyError):
        return 0, expected, {}
    if not math.isclose(manifest_xi, true_xi, rel_tol=0, abs_tol=1e-9):
        return len(raw), expected, {}

    good = {}
    per_cell = {}
    for r in raw:
        try:
            key = (r["technique"], r["aux"], int(r["budget"]))
            xi = float(r["xi_hat"])
            ok = key in EXPECTED_CELLS and math.isfinite(xi) and int(r["distinct"]) <= key[2]
        except (KeyError, ValueError):
            continue
        if ok and key in cells:
            per_cell[key] = per_cell.get(key, 0) + 1
            good.setdefault(key[0], []).append(xi)
    passed = sum(min(per_cell.get(key, 0), reps) for key in EXPECTED_CELLS)
    return len(raw), expected - passed, good


def bias_failures(estimates: dict, true_xi: float) -> int:
    """Runs of unbiased techniques whose pooled mean misses the truth by > 5 SE."""
    failed = 0
    for t in UNBIASED:
        v = np.asarray(estimates.get(t, []))
        if v.size < MIN_BIAS_SAMPLES:
            continue
        se = v.std(ddof=1) / math.sqrt(v.size)
        if abs(v.mean() - true_xi) > BIAS_SE * se + 1e-12:
            failed += v.size
    return failed


# ---------------------------------------------------------------------------
# The measured session


class Session:
    """One measured phase: the operations it ran, their wall times, the failure counts.

    An operation is one score pass, one ``run`` command or one grid pass; the
    ``run`` commands cycle through the techniques.
    """

    def __init__(self, wl: Workload, inputs: Inputs, seed: int, index: int, tracer, work: Path):
        self.wl = wl
        self.index = index  # sessions of one run draw different command seeds
        self.inputs = inputs
        self.seed = seed
        self.tracer = tracer
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.spent = dict.fromkeys(STAGES, 0.0)  # wall seconds per stage
        self.score_s = []  # wall seconds per score pass
        self.estimate = {t: [] for t in TECHNIQUES}  # wall seconds per run command
        self.grid_s = []  # wall seconds per grid pass
        self.grid_rows = []
        self.grid_estimates = {}
        self.commands = 0  # run commands so far
        self.ops = []  # [stage, technique or None, wall seconds] per operation, in order

    def samples(self) -> dict:
        """Every timing of the session, for the record."""
        return {"ops": self.ops, "grid_rows": self.grid_rows}

    def next_technique(self) -> str:
        return TECHNIQUES[self.commands % len(TECHNIQUES)]

    def predicted(self, stage: str) -> float:
        """Seconds the stage's next operation should take: its last time, 0 if none yet."""
        last = {"score": self.score_s, "estimate": self.estimate[self.next_technique()],
                "grid": self.grid_s}[stage]
        return last[-1] if last else 0.0

    def uncovered(self):
        """The next stage of the first pass, which gives every metric a sample:
        a score pass, half the techniques, a grid pass, the other half.  None
        once it is done."""
        if not self.score_s:
            return "score"
        if self.commands < len(TECHNIQUES) // 2:
            return "estimate"
        if not self.grid_s:
            return "grid"
        if self.commands < len(TECHNIQUES):
            return "estimate"
        return None

    def run(self, stage: str):
        op = {"score": self.score_pass, "estimate": self.run_command, "grid": self.grid_pass}
        technique = self.next_technique() if stage == "estimate" else None
        with self.tracer.installed():
            t0 = perf()
            op[stage]()
            wall = perf() - t0
        self.spent[stage] += wall
        self.ops.append([stage, technique, wall])

    def _cli(self, argv, command):
        sink = io.StringIO()
        with self.tracer.span("cli.main", command=command) as root:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = perf()
                try:
                    rc = opsample.cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    rc = exc.code if isinstance(exc.code, int) else 1
                wall = perf() - t0
        return rc, wall, root

    def score_pass(self):
        traces = self.inputs.traces
        n = traces.matrix.shape[0]
        total = 0.0
        for name, score in (("dsa", compute_dsa), ("lsa", compute_lsa)):
            self.attempted += 1
            t0 = perf()
            try:
                with self.tracer.span(f"auxvar.{name}", peak_memory=True):
                    chi = score(traces)
            except Exception:  # noqa: BLE001 - a failed scoring call is counted
                self.failed += 1
                continue
            finally:
                total += perf() - t0
            if not check_scores(chi.values, n):
                self.failed += 1
        self.score_s.append(total)

    def run_command(self):
        t = self.next_technique()
        k, i = divmod(self.commands, len(TECHNIQUES))
        self.commands += 1
        out = self.work / "run"
        argv = [
            "run", "--population", str(self.inputs.pool_csv), "--technique", t,
            "--budget", str(RUN_BUDGET), "--seed", str(derive(self.seed, self.index, 1, k, i)),
            "--out", str(out),
        ]
        if t not in NO_AUX:
            argv += ["--aux", "chi"]
        result = out / f"result_{t}.json"
        if result.exists():
            result.unlink()
        self.attempted += 1
        rc, wall, _ = self._cli(argv, "run")
        self.estimate[t].append(wall)
        if rc != 0 or not check_result_json(result):
            self.failed += 1

    def grid_pass(self):
        out = self.work / "grid"
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "eval", "--population", str(self.inputs.pool_csv),
            "--techniques", ",".join(TECHNIQUES), "--aux", "none,chi",
            "--budgets", ",".join(map(str, BUDGETS)), "--reps", str(self.wl.reps),
            "--seed", str(derive(self.seed, self.index, 2, len(self.grid_s))),
            "--jobs", str(self.wl.jobs), "--out", str(out),
        ]
        rc, wall, root = self._cli(argv, "eval")
        self.tracer.collect_workers(root)
        rows, failed, good = read_grid(out, self.wl.reps, self.inputs.true_xi)
        expected = len(EXPECTED_CELLS) * self.wl.reps
        self.attempted += expected
        self.failed += expected if rc != 0 else failed
        for t, values in good.items():
            self.grid_estimates.setdefault(t, []).extend(values)
        self.grid_s.append(wall)
        self.grid_rows.append(rows)


def run_sessions(sessions, seconds: float) -> list:
    """Run operations until the next one would end after ``seconds``.

    The first session picks each operation: after a first pass that gives
    every metric a sample (run whatever the time), the stage furthest below
    its share of the measured time whose next operation still fits.  Every
    session runs that operation, first and last in turn, so a traced session
    repeats the untraced one operation for operation.  Interleaving the stages
    spreads every metric's samples over the whole run.  A calibration task
    runs before every operation; returns its times.
    """
    lead = sessions[0]
    calibration_s = []
    shares = lead.wl.shares
    deadline = perf() + seconds
    k = 0
    while True:
        left = deadline - perf()
        order = sorted(STAGES, key=lambda st: lead.spent[st] / shares[st])
        fits = [st for st in order if sum(s.predicted(st) for s in sessions) <= left]
        stage = lead.uncovered() or (fits[0] if fits else None)
        if stage is None:
            break
        calibration_s.append(speed.calibrate())
        for session in sessions if k % 2 == 0 else sessions[::-1]:
            session.run(stage)
        k += 1
    for session in sessions:
        session.failed += bias_failures(session.grid_estimates, session.inputs.true_xi)
    return calibration_s


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def end_to_end(session: Session, inputs: Inputs, calibration_s: list) -> dict:
    """End-to-end metrics from whole-run totals and means.

    CLI times are scaled to reference speed by the run's mean calibration,
    each set-up by the calibration just before it; scores stay wall time.
    """
    scale = speed.REF_S / statistics.fmean(calibration_s)  # reference seconds per wall second
    per_technique = [scale * statistics.fmean(v) for v in session.estimate.values()]
    setups = zip(inputs.setup_s, inputs.setup_calibration_s)
    return {
        "setup_s": statistics.median(speed.REF_S * s / c for s, c in setups),
        "grid_runs_per_s": sum(session.grid_rows) / (scale * sum(session.grid_s)),
        "time_to_estimate_s": statistics.fmean(per_technique),
        "time_to_estimate_max_s": max(per_technique),
        "score_s": statistics.fmean(session.score_s),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - session.failed / session.attempted,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "grid_runs_per_s": "1/s",
    "time_to_estimate_s": "s",
    "time_to_estimate_max_s": "s",
    "score_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
