"""Run one opsample benchmark workload and print its metrics.

    python3 bench/run.py --workload grid --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs every operation untraced
and traced, in turn, and reports the per-layer metrics.  ``--workload all`` runs every workload untraced, each in its own
process, and prints every end-to-end metric with its unit.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.  Results, with the
environment they were measured in, are also written to ``bench/out/``.
"""

from __future__ import annotations

import os

LOAD_AVG_1M = os.getloadavg()[0]  # taken before this process adds any load
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import opsample from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "opsample" / "__init__.py").is_file():
        fail(f"no program at {SRC / 'opsample'}; nothing to measure")
    sys.path.insert(0, str(SRC))
    import opsample

    if Path(opsample.__file__).resolve().parent != (SRC / "opsample").resolve():
        fail(f"imported opsample from {opsample.__file__}, not from {SRC}")


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "load_avg_1m": LOAD_AVG_1M,
    }


def run_one(args):
    """(result line, raw samples) of one workload run."""
    import workloads as wls
    from spans import NullTracer, Tracer, layer_metrics, per_layer_units

    wl = wls.WORKLOADS[args.workload]
    if args.size == "tiny":
        wl = wls.tiny(wl)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{wl.name}-") as tmp:
        work = Path(tmp)
        inputs = wls.set_up(wl, args.seed, work)
        sessions = [wls.Session(wl, inputs, args.seed, 0, NullTracer(), work)]
        if args.trace:
            tracer = Tracer(work)
            sessions.append(wls.Session(wl, inputs, args.seed, 1, tracer, work))
        calibration_s = wls.run_sessions(sessions, args.seconds)
        if not args.trace:
            values = wls.end_to_end(sessions[0], inputs, calibration_s)
            units = wls.END_TO_END_UNITS
        else:
            tracer.dump(OUT / f"spans-{wl.name}-seed{args.seed}.json")
            untraced, traced = sessions
            extra = {
                "generate_s": inputs.generate_s,
                "write_csv_s": inputs.write_csv_s,
                "overhead_s": sum(traced.spent.values()) - sum(untraced.spent.values()),
            }
            values = layer_metrics(tracer, extra, wl.jobs)
            units = per_layer_units()
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    samples = {"setup_s": inputs.setup_s, "setup_calibration_s": inputs.setup_calibration_s,
               "calibration_s": calibration_s,
               "sessions": [s.samples() for s in sessions]}
    return result, samples


def run_all(args) -> int:
    """Every workload untraced, each in its own process; a table of metrics."""
    import workloads as wls

    status = 0
    for name in wls.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<24} {m['value']:>14.6g} {m['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for a smoke test")
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    import workloads as wls

    if args.workload not in wls.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(wls.WORKLOADS)}")
    result, samples = run_one(args)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env, "result": result,
              "samples": samples}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
