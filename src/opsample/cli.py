"""Batch command-line front end.

Subcommands: gen (synthetic populations), run (one technique once),
eval (Monte Carlo grid), oracle (exact expectation on tiny populations),
report (plot-ready CSVs from raw rows).  A config flag sets the field of
the command's config dataclass that it is named after, and a flag left out
takes the dataclass's default; eval reads the same keys from a config file,
and flags win on conflict.  Errors are emitted as JSON on stderr with a
nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import asdict, fields

from .draw import RandomStream
from .harness import (
    EvalConfig,
    enumerate_expectation,
    run_experiment,
    summarize,
)
from .population import (
    CLASSIFICATION,
    REGRESSION,
    LabelingOracle,
    SyntheticConfig,
    generate_synthetic,
    load_population,
    true_accuracy,
    write_population_csv,
)
from .techniques import TECHNIQUES, Knobs, TechniqueConfig, run_technique


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


def _config(cls, args, **base):
    """``cls`` from ``base`` and the set flags named after its fields: flags win.

    Keys of ``base`` that name no field of ``cls`` are refused.
    """
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(base) - names)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    flags = {key: value for key, value in vars(args).items() if key in names and value is not None}
    return cls(**{**base, **flags})


def cmd_gen(args) -> int:
    config = _config(SyntheticConfig, args)
    pop = generate_synthetic(config, args.seed)
    out = _out_dir(args)
    csv_path = os.path.join(out, args.name + ".csv")
    write_population_csv(pop, csv_path)
    manifest = {
        "config": asdict(config),
        "seed": args.seed,
        "realized_accuracy": true_accuracy(pop),
        "population_csv": os.path.basename(csv_path),
    }
    with open(os.path.join(out, args.name + ".manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} (N={pop.N}, realized accuracy {manifest['realized_accuracy']:.4f})")
    return 0


def cmd_run(args) -> int:
    pop = load_population(args.population)
    tc = _config(TechniqueConfig, args)
    result = run_technique(pop, LabelingOracle(pop), tc, RandomStream(args.seed))
    print(f"xi_hat = {result.xi_hat:.6f}")
    print(f"distinct labels used = {result.distinct_labeled}")
    print(f"failures exposed = {result.failures}")
    if "allocation" in result.knobs:
        print(f"allocation = {result.knobs['allocation']}")
    out = _out_dir(args)
    path = os.path.join(out, f"result_{args.technique}.json")
    with open(path, "w") as fh:
        fh.write(result.to_json(include_trace=args.trace))
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("the config file must hold a JSON object")
    file_pop = file_cfg.pop("population", None)  # the one key that is no EvalConfig field
    config = _config(EvalConfig, args, **file_cfg)
    pop_path = args.population or file_pop
    if not pop_path:
        raise ValueError("eval needs --population or a population key in the config file")
    pop = load_population(pop_path)
    report = run_experiment(pop, config)
    if not report.raw_rows:
        cells = ["{technique}/{aux}/{budget}: {reason}".format(**s) for s in report.skipped]
        raise ValueError("every cell of the grid is skipped: " + "; ".join(cells))
    out = _out_dir(args)
    report.write_summary_csv(os.path.join(out, "summary.csv"))
    report.write_raw_csv(os.path.join(out, "raw.csv"))
    with open(pop_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    # The manifest must be able to reproduce this run byte-for-byte, and names its input.
    report.write_manifest_json(
        os.path.join(out, "manifest.json"), population=os.path.abspath(pop_path),
        population_sha256=digest, population_N=pop.N, population_task=pop.task,
    )
    print(f"wrote {out}/summary.csv, {out}/raw.csv, {out}/manifest.json")
    if report.skipped:
        print(f"skipped {len(report.skipped)} incompatible cell(s)")
    return 0


def cmd_oracle(args) -> int:
    pop = load_population(args.population)
    tc = _config(TechniqueConfig, args)
    expectation = enumerate_expectation(pop, tc)
    truth = 1.0 - true_accuracy(pop)  # theta or Delta
    gap = abs(expectation - truth)
    print(f"exact E[estimator] = {expectation!r}")
    print(f"true value         = {truth!r}")
    print(f"absolute gap       = {gap!r}")
    return 0


def cmd_report(args) -> int:
    with open(args.raw, newline="") as fh:
        reader = csv.DictReader(fh)
        offset_cols = [c for c in reader.fieldnames or [] if c.startswith("n_offset_ge_")]
        rows = [
            {
                "technique": r["technique"],
                "aux": r["aux"],
                "budget": int(r["budget"]),
                "xi_hat": float(r["xi_hat"]),
                "failures": float(r["failures"]),
                "distinct": float(r["distinct"]),
                "offset_counts": [float(r[c]) for c in offset_cols] if offset_cols else None,
            }
            for r in reader
        ]
    if not rows:
        raise ValueError("empty raw file")
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    # Rows of another grid would be scored against this manifest's true_xi.
    reps = manifest["config"]["repetitions"]
    expected = {(c["technique"], c["aux"] or "", c["budget"]): reps for c in manifest["cells"]}
    counts = Counter((r["technique"], r["aux"], r["budget"]) for r in rows)
    for cell in [*expected, *counts]:
        want = expected.get(cell, 0)
        if counts[cell] != want:
            name = "/".join(str(x or "none") for x in cell)
            raise ValueError(f"{counts[cell]} raw rows of cell {name}, not the manifest's {want}")
    cells = sorted(
        summarize(rows, manifest["true_xi"]), key=lambda c: (c.technique, c.aux, c.budget)
    )

    out = _out_dir(args)
    with open(os.path.join(out, "rmse_vs_budget.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["technique", "aux", "budget", "rmse", "mean_failures"])
        for c in cells:
            writer.writerow([c.technique, c.aux, c.budget, repr(c.rmse), repr(c.mean_failures)])

    if offset_cols:
        with open(os.path.join(out, "offset_histogram.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["technique", "aux", "budget", "threshold", "mean_count"])
            for c in cells:
                for col, mean in zip(offset_cols, c.mean_offset_counts):
                    writer.writerow([c.technique, c.aux, c.budget, col.split("_")[-1], repr(mean)])
    print(f"wrote plot-ready CSVs to {out}")
    return 0


def _add_knob_flags(p):
    """``--<name>`` for each field of :class:`Knobs`: run, oracle and eval take the same knobs."""
    for f in fields(Knobs):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))


def _add_technique_flags(p):
    """The population, technique and knob flags that run and oracle share."""
    p.add_argument("--population", required=True)
    p.add_argument("--technique", choices=TECHNIQUES, required=True)
    p.add_argument("--aux")
    p.add_argument("--budget", type=int)
    _add_knob_flags(p)


def build_parser() -> argparse.ArgumentParser:
    """The subcommands' parsers.

    A config flag's dest is the name of the field it sets, and it defaults
    to None so that the config's dataclass gives the default.
    """
    parser = argparse.ArgumentParser(
        prog="opsample",
        description="Budgeted sampling techniques for estimating model operational accuracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic population")
    p.add_argument("--task", choices=[CLASSIFICATION, REGRESSION])
    p.add_argument("--n", dest="N", type=int)
    p.add_argument("--accuracy", dest="target_accuracy", type=float)
    p.add_argument("--rho", dest="chi_correlation", type=float)
    p.add_argument("--offset-scale", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="population")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one technique once")
    _add_technique_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="run a Monte Carlo experiment grid")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--population", default=None)
    p.add_argument("--techniques", type=lambda s: s.split(","))
    p.add_argument(
        "--aux", type=lambda s: [None if x in ("", "none") else x for x in s.split(",")]
    )
    p.add_argument("--budgets", type=_int_list)
    p.add_argument("--reps", dest="repetitions", type=int)
    p.add_argument("--seed", dest="master_seed", type=int)
    p.add_argument("--thresholds", dest="offset_thresholds", type=_float_list)
    _add_knob_flags(p)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="exact estimator expectation on a tiny population")
    _add_technique_flags(p)
    # Enumeration is for tiny populations, so the oracle's budget and k are small.
    p.set_defaults(func=cmd_oracle, budget=2, k=2)

    p = sub.add_parser("report", help="plot-ready CSVs from raw per-repetition rows")
    p.add_argument("--raw", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
