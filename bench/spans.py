"""In-memory tracing for the benchmark, and the per-layer metrics built from it.

The tracer wraps opsample's public names where their callers look them up:
module globals such as ``opsample.harness.run_technique`` and methods such
as ``RandomStream.integers``.  Each wrapped call becomes a span (name,
start, end, parent, attributes) or, for the hot draw and reveal calls, a
counter on the enclosing technique-run span.  A name that no longer exists
is recorded as absent and the metrics built on it are reported with value
``None``; the run itself goes on.  Spans stay in memory until the run ends.

Cells that ``run_experiment`` hands to worker processes are traced in the
worker (the wrappers are inherited when the pool forks) and shipped back as
one JSON line per cell in ``worker_dir``; :meth:`Tracer.collect_workers`
merges them under the eval command that caused them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

perf = time.perf_counter

TECHNIQUES = ("srs", "sups", "rhcs", "ces", "deepest", "ssrs", "gbs", "twoups")

#: (dotted name to wrap, kind of wrapper, group).  A metric is absent when a
#: group it reads has a name that could not be wrapped.
TARGETS = (
    ("opsample.cli.load_population", "population.load_csv", "load"),
    ("opsample.cli.run_experiment", "harness.run_experiment", "experiment"),
    ("opsample.cli.run_technique", "run", "run"),
    ("opsample.harness.run_technique", "run", "run"),
    ("opsample.harness.kmeans_1d", "partition.kmeans", "kmeans"),
    ("opsample.techniques.kmeans_1d", "partition.kmeans", "kmeans"),
    ("opsample.techniques.neyman_allocation", "partition.neyman", "neyman"),
    ("opsample.harness._execute_cell_worker", "worker", "worker"),
    ("opsample.harness.EvalReport.write_summary_csv", "harness.write_outputs", "write"),
    ("opsample.harness.EvalReport.write_raw_csv", "harness.write_outputs", "write"),
    ("opsample.harness.EvalReport.write_manifest_json", "harness.write_outputs", "write"),
    ("opsample.draw.RandomStream.integers", "rng", "rng"),
    ("opsample.draw.RandomStream.random", "rng", "rng"),
    ("opsample.draw.RandomStream.permutation", "rng", "rng"),
    ("opsample.draw.RandomStream.standard_normal", "rng", "rng"),
    ("opsample.population.LabelingOracle.reveal", "reveal", "reveal"),
    ("opsample.population.LabelingOracle.reveal_many", "reveal", "reveal"),
)


def _resolve(dotted):
    """(owner, attribute) for a dotted name, or None when any part is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
        if owner is not None and callable(getattr(owner, parts[-1], None)):
            return owner, parts[-1]
        return None
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "attrs", "child_s")

    def __init__(self, name, parent, attrs):
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.attrs = attrs
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        """Duration minus the part covered by direct child spans."""
        return self.duration - self.child_s


class NullTracer:
    """Stand-in used for untraced runs: every hook is a no-op."""

    def span(self, name, peak_memory=False, **attrs):
        return nullcontext()

    def collect_workers(self, root):
        pass

    def installed(self):
        return nullcontext()


class Tracer:
    def __init__(self, worker_dir: Path):
        self.spans = []
        self.absent_groups = set()
        self.absent_names = []
        self.population = None  # last population the CLI loaded
        self.worker_dir = Path(worker_dir)
        self.pid = os.getpid()
        self._stack = []
        self._run = None  # innermost technique-run span: draw/reveal counts go here
        self._undo = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name, peak_memory=False, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, attrs)
        self.spans.append(s)
        self._stack.append(s)
        if peak_memory:
            tracemalloc.start()
        s.start = perf()
        try:
            yield s
        finally:
            s.end = perf()
            if peak_memory:
                s.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    # -- wrappers ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the target names for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        self.absent_names, self.absent_groups = [], set()
        for dotted, kind, group in TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.absent_names.append(dotted)
                self.absent_groups.add(group)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            if kind == "run":
                wrapper = self._technique_run(original)
            elif kind in ("rng", "reveal"):
                wrapper = self._counted(original, kind)
            elif kind == "worker":
                wrapper = self._cell_worker(original)
            elif kind == "population.load_csv":
                wrapper = self._timed(original, kind, self._note_population)
            else:
                wrapper = self._timed(original, kind)
            setattr(owner, attr, functools.wraps(original)(wrapper))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _note_population(self, span, result):
        self.population = result
        span.attrs["records"] = getattr(result, "N", None)

    def _timed(self, original, name, note=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if note is not None:
                    note(s, result)
            return result

        return wrapper

    def _technique_run(self, original):
        def wrapper(*args, **kwargs):
            config = args[2] if len(args) > 2 else kwargs.get("config")
            attrs = dict(technique=getattr(config, "technique", "unknown"),
                         rng_calls=0, rng_s=0.0, reveal_calls=0, reveal_s=0.0)
            outer = self._run
            with self.span("techniques.run", **attrs) as s:
                self._run = s
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._run = outer
                s.attrs["labels"] = getattr(result, "distinct_labeled", None)
            return result

        return wrapper

    def _counted(self, original, kind):
        calls, secs = kind + "_calls", kind + "_s"

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                run = self._run
                if run is not None:
                    run.attrs[calls] += 1
                    run.attrs[secs] += perf() - t0

        return wrapper

    def _cell_worker(self, original):
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return original(*args, **kwargs)
            # A forked worker: drop the parent's spans it inherited.
            self.spans, self._stack, self._run = [], [], None
            try:
                return original(*args, **kwargs)
            finally:
                index = {id(s): i for i, s in enumerate(self.spans)}
                batch = [
                    [s.name, s.start, s.end, index.get(id(s.parent)), s.child_s, s.attrs]
                    for s in self.spans
                ]
                with open(self.worker_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
                    fh.write(json.dumps(batch) + "\n")
                self.spans = []

        return wrapper

    def collect_workers(self, root):
        """Merge span batches written by worker processes under ``root``."""
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    batch = []
                    for name, start, end, parent, child_s, attrs in json.loads(line):
                        s = Span(name, batch[parent] if parent is not None else None, attrs)
                        s.root = root
                        s.start, s.end, s.child_s = start, end, child_s
                        batch.append(s)
                    self.spans.extend(batch)
            path.unlink()

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)), "root": index.get(id(s.root)),
             "attrs": s.attrs}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"absent": self.absent_names, "spans": rows}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "population.load_csv_s": "s",
        "population.load_records_per_s": "1/s",
        "population.generate_s": "s",
        "population.write_csv_s": "s",
        "population.pickle_bytes": "bytes",
        "population.reveal_s": "s",
    }
    units.update({f"population.reveal_calls_per_run.{t}": "count" for t in TECHNIQUES})
    units["draw.rng_s"] = "s"
    units.update({f"draw.rng_calls_per_run.{t}": "count" for t in TECHNIQUES})
    units.update({
        "partition.kmeans_s": "s",
        "partition.kmeans_calls": "count",
        "partition.neyman_s": "s",
        "partition.neyman_calls": "count",
    })
    for t in TECHNIQUES:
        units.update({
            f"techniques.{t}.run_ms_p50": "ms",
            f"techniques.{t}.run_ms_tail": "ms",
            f"techniques.{t}.run_ms_tail_pct": "%",
            f"techniques.{t}.runs": "count",
            f"techniques.{t}.us_per_label": "us",
        })
    units.update({
        "auxvar.dsa_s": "s",
        "auxvar.lsa_s": "s",
        "auxvar.dsa_peak_mb": "MB",
        "auxvar.lsa_peak_mb": "MB",
        "harness.run_experiment_s": "s",
        "harness.self_s": "s",
        "harness.write_outputs_s": "s",
        "cli.self_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def _median(values):
    return statistics.median(values) if values else None


def tail(values):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists: (None, None).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer, extra, jobs):
    """Per-layer metric values from the tracer's spans.

    ``extra`` holds what the spans cannot give: setup timings and the trace
    overhead.  A value is ``None`` when the layer it reads could not be
    wrapped or never ran.
    """
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    runs = by_name.get("techniques.run", [])
    cli = by_name.get("cli.main", [])
    evals = [s for s in cli if s.attrs.get("command") == "eval"]
    run_cmds = [s for s in cli if s.attrs.get("command") == "run"]
    loads = by_name.get("population.load_csv", [])

    def per_eval(name):
        if not evals:
            return None
        roots = {id(s) for s in evals}
        calls = sum(1 for s in by_name.get(name, []) if id(s.root) in roots)
        return calls / len(evals)

    def under_eval(name):
        """Per eval command: summed duration of ``name`` spans directly below it."""
        totals = {id(s): 0.0 for s in evals}
        for s in by_name.get(name, []):
            if s.root is not None and id(s.root) in totals:
                totals[id(s.root)] += s.duration
        return _median(list(totals.values()))

    values = {
        "population.load_csv_s": _median([s.duration for s in loads]),
        "population.load_records_per_s": (
            sum(s.attrs.get("records") or 0 for s in loads) / sum(s.duration for s in loads)
            if loads else None
        ),
        "population.generate_s": _median(extra["generate_s"]),
        "population.write_csv_s": _median(extra["write_csv_s"]),
        "population.pickle_bytes": (
            len(pickle.dumps(tracer.population)) if tracer.population is not None else None
        ),
        "population.reveal_s": (
            sum(s.attrs["reveal_s"] for s in runs) / len(runs) if runs else None
        ),
        "draw.rng_s": sum(s.attrs["rng_s"] for s in runs) / len(runs) if runs else None,
        "partition.kmeans_s": _median([s.duration for s in by_name.get("partition.kmeans", [])]),
        "partition.kmeans_calls": per_eval("partition.kmeans"),
        "partition.neyman_s": _median([s.duration for s in by_name.get("partition.neyman", [])]),
        "partition.neyman_calls": per_eval("partition.neyman"),
        "auxvar.dsa_s": _median([s.duration for s in by_name.get("auxvar.dsa", [])]),
        "auxvar.lsa_s": _median([s.duration for s in by_name.get("auxvar.lsa", [])]),
        "auxvar.dsa_peak_mb": _median([s.attrs["peak_mb"] for s in by_name.get("auxvar.dsa", [])]),
        "auxvar.lsa_peak_mb": _median([s.attrs["peak_mb"] for s in by_name.get("auxvar.lsa", [])]),
        "harness.run_experiment_s": _median(
            [s.duration for s in by_name.get("harness.run_experiment", [])]
        ),
        "harness.self_s": _median([s.self_s for s in by_name.get("harness.run_experiment", [])]),
        "harness.write_outputs_s": under_eval("harness.write_outputs"),
        "cli.self_s": _median([s.self_s for s in run_cmds]),
        "trace.overhead_s": extra["overhead_s"],
    }
    for t in TECHNIQUES:
        mine = [s for s in runs if s.attrs["technique"] == t]
        ms = [1e3 * s.duration for s in mine]
        labels = sum(s.attrs.get("labels") or 0 for s in mine)
        tail_ms, tail_pct = tail(ms)
        values.update({
            f"population.reveal_calls_per_run.{t}": (
                sum(s.attrs["reveal_calls"] for s in mine) / len(mine) if mine else None
            ),
            f"draw.rng_calls_per_run.{t}": (
                sum(s.attrs["rng_calls"] for s in mine) / len(mine) if mine else None
            ),
            f"techniques.{t}.run_ms_p50": _median(ms),
            f"techniques.{t}.run_ms_tail": tail_ms,
            f"techniques.{t}.run_ms_tail_pct": tail_pct,
            f"techniques.{t}.runs": len(mine) or None,
            f"techniques.{t}.us_per_label": (
                1e6 * sum(s.duration for s in mine) / labels if labels else None
            ),
        })

    # A metric is absent when a group it reads has a name that could not be wrapped.
    needs = {
        "population.load": ("load",),
        "population.pickle": ("load",),
        "population.reveal": ("reveal", "run"),
        "draw.": ("rng", "run"),
        "partition.kmeans": ("kmeans",),
        "partition.neyman": ("neyman",),
        "techniques.": ("run",),
        "harness.run_experiment": ("experiment",),
        "harness.self": ("experiment", "run", "kmeans"),
        "harness.write": ("write",),
        "cli.": ("load", "run"),
    }
    if jobs > 1:  # per-eval counts include the cells run by workers
        needs["partition.kmeans_calls"] = ("kmeans", "worker")
        needs["partition.neyman_calls"] = ("neyman", "worker")
    for name in values:
        for prefix, groups in needs.items():
            if name.startswith(prefix) and tracer.absent_groups.intersection(groups):
                values[name] = None
    return values
