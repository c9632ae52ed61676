"""Batch command-line front end.

Subcommands: gen (synthetic populations), run (one technique once),
eval (Monte Carlo grid), oracle (exact expectation on tiny populations),
report (plot-ready CSVs from raw rows).  Flags mirror config-file keys
one-to-one; flags win on conflict.  Errors are emitted as JSON on stderr
with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields

from .draw import RandomStream
from .harness import (
    CLASSIFICATION_ONLY_AUX,
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
from .techniques import TECHNIQUES, TechniqueConfig, run_technique


def _out_dir(args) -> str:
    out = args.out or os.environ.get("OPSAMPLE_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


def _technique_config(args, **extra) -> TechniqueConfig:
    """The TechniqueConfig of the subcommand's flags that are named after its fields."""
    names = {f.name for f in fields(TechniqueConfig)}
    knobs = {name: value for name, value in vars(args).items() if name in names}
    return TechniqueConfig(**knobs, **extra)


def cmd_gen(args) -> int:
    config = SyntheticConfig(
        task=args.task,
        N=args.n,
        target_accuracy=args.accuracy,
        chi_correlation=args.rho,
        offset_scale=args.offset_scale,
    )
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
    tc = _technique_config(args)
    if args.aux is not None and pop.task == REGRESSION and args.aux in CLASSIFICATION_ONLY_AUX:
        raise ValueError(f"auxiliary variable {args.aux!r} is classification-only")
    oracle = LabelingOracle(pop)
    result = run_technique(pop, oracle, tc, RandomStream(args.seed))
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


def _eval_config_from(args) -> tuple[EvalConfig, dict]:
    """The grid from the config file and the flags: flags win, EvalConfig's defaults fill in."""
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    kwargs = {f.name: file_cfg[f.name] for f in fields(EvalConfig) if f.name in file_cfg}
    flags = {
        "techniques": args.techniques,
        "aux": args.aux,
        "budgets": args.budgets,
        "repetitions": args.reps,
        "master_seed": args.seed,
        "offset_thresholds": args.thresholds,
        "failure_threshold": args.failure_threshold,
        "k": args.k,
        "jobs": args.jobs,
    }
    kwargs.update((key, value) for key, value in flags.items() if value is not None)
    return EvalConfig(**kwargs), file_cfg


def cmd_eval(args) -> int:
    config, file_cfg = _eval_config_from(args)
    pop_path = args.population or file_cfg.get("population")
    if not pop_path:
        raise ValueError("eval needs --population or a population key in the config file")
    pop = load_population(pop_path)
    report = run_experiment(pop, config)
    out = _out_dir(args)
    report.write_summary_csv(os.path.join(out, "summary.csv"))
    report.write_raw_csv(os.path.join(out, "raw.csv"))
    # The manifest must be able to reproduce this run byte-for-byte.
    report.write_manifest_json(
        os.path.join(out, "manifest.json"), population=os.path.abspath(pop_path)
    )
    print(f"wrote {out}/summary.csv, {out}/raw.csv, {out}/manifest.json")
    if report.skipped:
        print(f"skipped {len(report.skipped)} incompatible cell(s)")
    return 0


def cmd_oracle(args) -> int:
    pop = load_population(args.population)
    tc = _technique_config(args)
    expectation = enumerate_expectation(pop, tc, args.budget)
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


def _add_technique_flags(p, budget: int, k: int):
    """The population and technique flags that run and oracle share."""
    p.add_argument("--population", required=True)
    p.add_argument("--technique", choices=TECHNIQUES, required=True)
    p.add_argument("--aux", default=None)
    p.add_argument("--budget", type=int, default=budget)
    p.add_argument("--k", type=int, default=k)
    p.add_argument("--r", type=float, default=0.8)
    p.add_argument("--threshold-quantile", type=float, default=0.7)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsample",
        description="Budgeted sampling techniques for estimating model operational accuracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic population")
    p.add_argument("--task", choices=[CLASSIFICATION, REGRESSION], default=CLASSIFICATION)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--accuracy", type=float, default=0.9)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--offset-scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="population")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one technique once")
    _add_technique_flags(p, budget=200, k=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ces-initial", type=int, default=30)
    p.add_argument("--ces-group", type=int, default=5)
    p.add_argument("--ces-candidates", type=int, default=300)
    p.add_argument("--ces-bins", type=int, default=10)
    p.add_argument("--failure-threshold", type=float, default=12.5)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="run a Monte Carlo experiment grid")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--population", default=None)
    p.add_argument("--techniques", type=lambda s: s.split(","), default=None)
    p.add_argument(
        "--aux",
        type=lambda s: [None if x in ("", "none") else x for x in s.split(",")],
        default=None,
    )
    p.add_argument("--budgets", type=_int_list, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--thresholds", type=_float_list, default=None)
    p.add_argument("--failure-threshold", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="exact estimator expectation on a tiny population")
    _add_technique_flags(p, budget=2, k=2)
    p.set_defaults(func=cmd_oracle)

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
