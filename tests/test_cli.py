"""End-to-end tests of the command-line front end via main(argv)."""

import argparse
import csv
import hashlib
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from conftest import make_classification, make_regression

from opsample import harness
from opsample.cli import build_parser, main
from opsample.harness import EvalConfig
from opsample.population import (
    CLASSIFICATION,
    REGRESSION,
    Population,
    SyntheticConfig,
    generate_synthetic,
    load_population,
    write_population_csv,
)
from opsample.techniques import TECHNIQUES, Knobs, TechniqueConfig


@pytest.fixture
def tiny_csv(tmp_path):
    rng = np.random.default_rng(0)
    pop = make_classification((rng.random(40) < 0.25).astype(int), rng.random(40))
    path = tmp_path / "tiny.csv"
    write_population_csv(pop, path)
    return str(path)


@pytest.fixture
def micro_csv(tmp_path):
    pop = make_classification([1, 0, 0], [2.0, 1.0, 1.0])
    path = tmp_path / "micro.csv"
    write_population_csv(pop, path)
    return str(path)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "gen"
    rc = main(
        ["gen", "--n", "400", "--accuracy", "0.85", "--rho", "0.5",
         "--seed", "3", "--name", "pop", "--out", str(out)]
    )
    assert rc == 0
    assert "realized accuracy" in capsys.readouterr().out
    pop = load_population(str(out / "pop.csv"))
    assert pop.N == 400
    manifest = json.loads((out / "pop.manifest.json").read_text())
    assert manifest["config"]["target_accuracy"] == 0.85
    assert abs(manifest["realized_accuracy"] - 0.85) <= 1 / np.sqrt(400) + 1e-12


def test_gen_rejects_degenerate_accuracy(tmp_path, capsys):
    rc = main(["gen", "--n", "50", "--accuracy", "1.0", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"


def test_run_srs(tiny_csv, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["run", "--population", tiny_csv, "--technique", "srs",
         "--budget", "10", "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "xi_hat" in text and "failures exposed" in text
    payload = json.loads((out / "result_srs.json").read_text())
    assert payload["technique"] == "srs"
    assert len(payload["selected_ids"]) == 10


def test_run_ssrs_prints_allocation(tiny_csv, tmp_path, capsys):
    rc = main(
        ["run", "--population", tiny_csv, "--technique", "ssrs", "--aux", "chi",
         "--budget", "20", "--k", "4", "--out", str(tmp_path / "ssrs")]
    )
    assert rc == 0
    text = capsys.readouterr().out
    line = next(l for l in text.splitlines() if l.startswith("allocation"))
    alloc = json.loads(line.split("=", 1)[1])
    assert sum(alloc) == 20


def test_run_chi_technique_without_aux_fails(tiny_csv, tmp_path, capsys):
    rc = main(
        ["run", "--population", tiny_csv, "--technique", "sups",
         "--budget", "5", "--out", str(tmp_path)]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "auxiliary" in err["error"]


def test_run_refuses_negative_aux(tmp_path, capsys):
    path = tmp_path / "negative.csv"
    path.write_text("id,true_label,predicted_label,score\n0,1,0,0.5\n1,0,0,-0.25\n")
    rc = main(
        ["run", "--population", str(path), "--technique", "sups", "--aux", "score",
         "--budget", "2", "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "auxiliary values must be nonnegative" in json.loads(capsys.readouterr().err)["error"]


def test_run_refuses_ragged_json_rows(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps([
        {"id": 0, "true_label": 1, "predicted_label": 0, "chi": 0.5},
        {"id": 1, "true_label": 0, "predicted_label": 0},
    ]))
    rc = main(
        ["run", "--population", str(path), "--technique", "sups", "--aux", "chi",
         "--budget", "2", "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["type"], err["error"]) == (
        "ValueError", "row 1 has other keys than row 0: missing ['chi'], extra []"
    )


def test_run_refuses_classification_only_aux_on_regression(tmp_path, capsys):
    pop = Population(REGRESSION, [0, 1], [0.5, 0.0], [0.0, 0.25], aux={"confidence": [0.9, 0.2]})
    path = tmp_path / "reg.csv"
    write_population_csv(pop, path)
    rc = main(
        ["run", "--population", str(path), "--technique", "sups", "--aux", "confidence",
         "--budget", "2", "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "auxiliary variable 'confidence' is classification-only"


def test_oracle_refuses_classification_only_aux_on_regression(tmp_path, capsys):
    # run's refusal is the test above; both come from run_technique.
    pop = Population(
        REGRESSION, np.arange(8), np.zeros(8), np.linspace(0.0, 14.0, 8),
        aux={"confidence": np.linspace(0.9, 0.2, 8)},
    )
    path = tmp_path / "reg8.csv"
    write_population_csv(pop, path)
    rc = main(
        ["oracle", "--population", str(path), "--technique", "sups", "--aux", "confidence",
         "--budget", "2"]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "auxiliary variable 'confidence' is classification-only"


def test_run_trace_flag_writes_the_trace(tiny_csv, tmp_path):
    argv = ["run", "--population", tiny_csv, "--technique", "sups", "--aux", "chi",
            "--budget", "6", "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert main(argv + ["--trace", "--out", str(tmp_path / "traced")]) == 0
    plain = json.loads((tmp_path / "plain" / "result_sups.json").read_text())
    traced = json.loads((tmp_path / "traced" / "result_sups.json").read_text())
    assert "trace" not in plain
    trace = traced.pop("trace")
    assert traced == plain
    assert [e["step"] for e in trace] == list(range(6))
    assert [e["id"] for e in trace] == plain["selected_ids"]
    assert all(e["scheme"] == "pps-wr" and 0.0 < e["probability"] <= 1.0 for e in trace)


def test_eval_flags_and_outputs(tiny_csv, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", tiny_csv, "--techniques", "srs,sups",
         "--aux", "none,chi", "--budgets", "5,10", "--reps", "3",
         "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert {(r["technique"], r["aux"], r["budget"]) for r in summary} == {
        ("srs", "", "5"), ("srs", "", "10"), ("sups", "chi", "5"), ("sups", "chi", "10"),
    }
    with open(out / "raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    assert len(raw) == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 7
    assert manifest["population"] == tiny_csv
    with open(tiny_csv, "rb") as fh:
        assert manifest["population_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert (manifest["population_N"], manifest["population_task"]) == (40, CLASSIFICATION)


def test_eval_config_file_with_flag_override(tiny_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "population": tiny_csv,
        "techniques": ["srs"],
        "aux": [None],
        "budgets": [5],
        "repetitions": 2,
        "master_seed": 1,
    }))
    out = tmp_path / "evalcfg"
    rc = main(["eval", "--config", str(cfg), "--reps", "4", "--out", str(out)])
    assert rc == 0
    with open(out / "raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    assert len(raw) == 4  # flag wins over the file's repetitions=2


def test_eval_unset_keys_take_eval_config_defaults(tiny_csv, tmp_path):
    out = tmp_path / "defaults"
    rc = main(["eval", "--population", tiny_csv, "--budgets", "5", "--reps", "2",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == asdict(EvalConfig(budgets=[5], repetitions=2))


def test_eval_refuses_unknown_config_keys(tiny_csv, tmp_path, capsys):
    # Misspelt keys used to be dropped, and the grid ran the default budgets.
    cfg = tmp_path / "cfg.json"
    # technique_overrides and partition_seed are gone, and trace is a flag of run:
    # the grid runs every cell at its own knobs and writes no traces.
    cfg.write_text(json.dumps({
        "techniques": ["srs"], "budget": [7], "repetition": 2,
        "technique_overrides": {"ssrs": {"k": 3}}, "partition_seed": 4, "trace": True,
    }))
    rc = main(["eval", "--config", str(cfg), "--population", tiny_csv, "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == (
        "unknown EvalConfig keys: ['budget', 'partition_seed', 'repetition', "
        "'technique_overrides', 'trace']"
    )
    assert not (tmp_path / "raw.csv").exists()


def test_eval_refuses_a_config_file_that_is_no_object(tiny_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"techniques": ["srs"]}]))
    rc = main(["eval", "--config", str(cfg), "--population", tiny_csv, "--out", str(tmp_path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "the config file must hold a JSON object"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("techniques", "srs", "techniques must be a list"),
        ("aux", "chi", "aux must be a list"),
        ("budgets", 5, "budgets must be a list"),
        ("budgets", ["5"], "budgets must hold integers"),
        ("budgets", [True], "budgets must hold integers"),
        ("offset_thresholds", ["a"], "offset_thresholds must hold numbers"),
    ],
)
def test_eval_refuses_config_values_of_the_wrong_type(tiny_csv, tmp_path, capsys, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    rc = main(["eval", "--config", str(cfg), "--population", tiny_csv, "--out", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {"error": message, "type": "ValueError"}
    assert not out.exists()


def test_eval_requires_population(tmp_path, capsys):
    rc = main(["eval", "--techniques", "srs", "--out", str(tmp_path)])
    assert rc == 1
    assert "population" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--techniques", "srs,bogus"], "unknown technique 'bogus'"),
        (["eval", "--techniques", "srs", "--thresholds", "1,nan"],
         "offset thresholds must be finite"),
        (["eval", "--techniques", "srs", "--failure-threshold", "nan"],
         "failure_threshold must be finite"),
        (["run", "--technique", "srs", "--failure-threshold", "nan"],
         "failure_threshold must be finite"),
        (["run", "--technique", "srs", "--failure-threshold", "inf"],
         "failure_threshold must be finite"),
        (["eval", "--techniques", "srs", "--budgets", ""], "budgets must not be empty"),
    ],
)
def test_unknown_techniques_and_non_finite_thresholds_are_refused(tmp_path, capsys, argv, message):
    path = tmp_path / "pool.csv"
    pop = make_regression(np.linspace(0.0, 0.9, 30), np.linspace(0.1, 1.0, 30))
    write_population_csv(pop, path)
    out = tmp_path / "out"
    assert main([*argv, "--population", str(path), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": message, "type": "ValueError"}
    assert not out.exists()


def test_eval_refuses_a_grid_whose_every_cell_is_skipped(tiny_csv, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", tiny_csv, "--techniques", "srs", "--aux", "chi",
         "--budgets", "5,10", "--out", str(out)]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    reason = "technique does not use an auxiliary variable"
    assert err["error"] == (
        f"every cell of the grid is skipped: srs/chi/5: {reason}; srs/chi/10: {reason}"
    )
    assert not out.exists()


def test_eval_skips_a_cell_whose_budget_exceeds_the_pool(tmp_path, capsys):
    path = tmp_path / "pool.csv"
    write_population_csv(generate_synthetic(SyntheticConfig(N=300), seed=0), path)
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", str(path), "--techniques", "srs,rhcs", "--aux", "none,chi",
         "--budgets", "50,400", "--reps", "2", "--out", str(out)]
    )
    assert rc == 0
    assert "skipped 5 incompatible cell(s)" in capsys.readouterr().out
    skipped = json.loads((out / "manifest.json").read_text())["skipped"]
    assert {
        "technique": "rhcs", "aux": "chi", "budget": 400,
        "reason": "budget 400 exceeds population size 300",
    } in skipped
    with open(out / "summary.csv", newline="") as fh:
        cells = [(r["technique"], r["aux"], r["budget"]) for r in csv.DictReader(fh)]
    assert cells == [("rhcs", "chi", "50"), ("srs", "", "50"), ("srs", "", "400")]


def test_eval_skips_ces_cells_below_the_initial_set(tmp_path, capsys):
    path = tmp_path / "pool.csv"
    write_population_csv(generate_synthetic(SyntheticConfig(N=300), seed=0), path)
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", str(path), "--techniques", "srs,ces", "--aux", "none",
         "--budgets", "5,50", "--reps", "2", "--out", str(out)]
    )
    assert rc == 0
    assert "skipped 1 incompatible cell(s)" in capsys.readouterr().out
    skipped = json.loads((out / "manifest.json").read_text())["skipped"]
    assert skipped == [{
        "technique": "ces", "aux": None, "budget": 5,
        "reason": "CES budget must cover the initial set",
    }]
    with open(out / "summary.csv", newline="") as fh:
        cells = [(r["technique"], r["aux"], r["budget"]) for r in csv.DictReader(fh)]
    assert cells == [("ces", "", "50"), ("srs", "", "5"), ("srs", "", "50")]


@pytest.mark.parametrize(
    "extra, reason",
    [
        ("neg", "auxiliary values must be nonnegative"),
        (None, "CES needs feature columns or at least one auxiliary variable"),
    ],
)
def test_eval_skips_ces_on_the_aux_columns_it_would_stack(tmp_path, capsys, extra, reason):
    # Without features or --aux, ces stacks every aux column: here one with a
    # negative value, or none at all once chi is dropped.
    path = tmp_path / "pool.csv"
    write_population_csv(generate_synthetic(SyntheticConfig(N=300), seed=0), path)
    with open(path, newline="") as fh:
        rows = [row[:3] for row in csv.reader(fh)]
    if extra is not None:
        rows[0].append(extra)
        for i, row in enumerate(rows[1:]):
            row.append("-0.5" if i == 7 else "0.25")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", str(path), "--techniques", "srs,ces", "--aux", "none",
         "--budgets", "50", "--reps", "2", "--out", str(out)]
    )
    assert rc == 0
    skipped = json.loads((out / "manifest.json").read_text())["skipped"]
    assert skipped == [{"technique": "ces", "aux": None, "budget": 50, "reason": reason}]
    with open(out / "summary.csv", newline="") as fh:
        cells = [(r["technique"], r["aux"], r["budget"]) for r in csv.DictReader(fh)]
    assert cells == [("srs", "", "50")]


def test_run_refuses_a_ces_budget_below_the_initial_set(tmp_path, capsys):
    path = tmp_path / "pool.csv"
    write_population_csv(generate_synthetic(SyntheticConfig(N=300), seed=0), path)
    rc = main(
        ["run", "--population", str(path), "--technique", "ces", "--budget", "5",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "CES budget must cover the initial set"
    assert not (tmp_path / "out").exists()


def test_eval_skips_the_cells_of_a_negative_aux_column(tmp_path, capsys):
    path = tmp_path / "pool.csv"
    write_population_csv(generate_synthetic(SyntheticConfig(N=300), seed=0), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[0].append("neg")
    for i, row in enumerate(rows[1:]):
        row.append("-0.5" if i == 7 else "0.25")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", str(path), "--techniques", "srs,sups", "--aux", "none,neg",
         "--budgets", "5,50", "--reps", "2", "--out", str(out)]
    )
    assert rc == 0
    skipped = json.loads((out / "manifest.json").read_text())["skipped"]
    reason = "auxiliary values must be nonnegative"
    assert [s for s in skipped if s["technique"] == "sups" and s["aux"] == "neg"] == [
        {"technique": "sups", "aux": "neg", "budget": b, "reason": reason} for b in (5, 50)
    ]
    with open(out / "summary.csv", newline="") as fh:
        cells = [(r["technique"], r["aux"], r["budget"]) for r in csv.DictReader(fh)]
    assert cells == [("srs", "", "5"), ("srs", "", "50")]


def test_eval_skips_the_weighted_cells_of_an_all_zero_aux_column(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pop = Population(CLASSIFICATION, np.arange(200), (rng.random(200) < 0.2).astype(int),
                     np.zeros(200, int), aux={"chi": rng.random(200), "zero": np.zeros(200)})
    path = tmp_path / "pool.csv"
    write_population_csv(pop, path)
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", str(path), "--techniques", "srs,sups,rhcs,deepest,twoups,ssrs,gbs",
         "--aux", "chi,zero", "--budgets", "10,20", "--reps", "3", "--out", str(out)]
    )
    assert rc == 0
    skipped = json.loads((out / "manifest.json").read_text())["skipped"]
    assert [s for s in skipped if s["aux"] == "zero" and s["technique"] != "srs"] == [
        {"technique": t, "aux": "zero", "budget": b,
         "reason": f"auxiliary variable 'zero' is all-zero, and {t} draws by it"}
        for t in ("sups", "rhcs", "deepest", "twoups") for b in (10, 20)
    ]
    with open(out / "summary.csv", newline="") as fh:
        cells = {(r["technique"], r["aux"]) for r in csv.DictReader(fh)}
    assert {("ssrs", "zero"), ("gbs", "zero"), ("sups", "chi"), ("twoups", "chi")} <= cells
    assert (out / "raw.csv").exists()


def test_eval_rerun_is_byte_identical(tiny_csv, tmp_path):
    args = ["eval", "--population", tiny_csv, "--techniques", "srs,ssrs",
            "--aux", "none,chi", "--budgets", "5,10", "--reps", "3",
            "--seed", "5", "--k", "3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("summary.csv", "raw.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_reproduces_every_eval_row(tmp_path):
    # A stratified row's map depends on the scores and k alone, so `run` with
    # a row's technique, aux, budget and seed rebuilds the row's grid cell.
    path = tmp_path / "pool.csv"
    write_population_csv(generate_synthetic(SyntheticConfig(N=300), seed=4), path)
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--population", str(path), "--techniques", ",".join(TECHNIQUES),
         "--aux", "none,chi", "--budgets", "40", "--reps", "2", "--seed", "0",
         "--out", str(out)]
    )
    assert rc == 0
    with open(out / "raw.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({row["technique"] for row in rows}) == sorted(TECHNIQUES)
    for i, row in enumerate(rows):
        aux = ["--aux", row["aux"]] if row["aux"] else []
        run_out = tmp_path / f"run{i}"
        rc = main(
            ["run", "--population", str(path), "--technique", row["technique"], *aux,
             "--budget", row["budget"], "--seed", row["seed"], "--out", str(run_out)]
        )
        assert rc == 0
        result = json.loads((run_out / f"result_{row['technique']}.json").read_text())
        assert (row["xi_hat"], row["failures"], row["distinct"]) == (
            repr(result["xi_hat"]), str(result["failures"]), str(result["distinct_labeled"])
        ), row


def test_oracle_exact_expectation(micro_csv, capsys):
    rc = main(
        ["oracle", "--population", micro_csv, "--technique", "sups",
         "--aux", "chi", "--budget", "1"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    exact = float(lines[0].split("=")[1])
    gap = float(lines[2].split("=")[1])
    assert exact == pytest.approx(1 / 3, abs=1e-12)
    assert gap < 1e-12


def test_oracle_enumerates_ces_at_small_knobs(micro_csv, capsys):
    # 3 initial draws, then 2 one-record candidates among the 2 records left: 12 paths.
    rc = main(
        ["oracle", "--population", micro_csv, "--technique", "ces", "--aux", "chi",
         "--ces-initial", "1", "--ces-candidates", "2", "--ces-group", "1", "--ces-bins", "2"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # ces's plain mean is biased: 1/4 against the truth 1/3.
    assert float(lines[0].split("=")[1]) == pytest.approx(0.25, abs=1e-12)
    assert float(lines[1].split("=")[1]) == pytest.approx(1 / 3, abs=1e-12)


def test_oracle_refuses_intractable_ces_before_any_path(micro_csv, capsys, monkeypatch):
    # The default 300 candidates give 3 * 2**300 paths at the default budget 2.
    runs = []
    monkeypatch.setattr(harness, "run_technique", lambda *args: runs.append(args))
    rc = main(
        ["oracle", "--population", micro_csv, "--technique", "ces", "--aux", "chi",
         "--ces-initial", "1"]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["type"], err["error"]) == ("IntractableError", "ces has more than 100000 sample paths")
    assert runs == []


def test_oracle_enumerates_gbs(micro_csv, capsys):
    rc = main(
        ["oracle", "--population", micro_csv, "--technique", "gbs",
         "--aux", "chi", "--budget", "2"]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("exact E[estimator] = ")


def test_report_round_trip(tiny_csv, tmp_path):
    out = tmp_path / "eval"
    main(
        ["eval", "--population", tiny_csv, "--techniques", "srs,sups,ssrs",
         "--aux", "none,chi", "--budgets", "5,10", "--reps", "30",
         "--seed", "2", "--out", str(out)]
    )
    rep = tmp_path / "report"
    rc = main(
        ["report", "--raw", str(out / "raw.csv"),
         "--manifest", str(out / "manifest.json"), "--out", str(rep)]
    )
    assert rc == 0
    with open(rep / "rmse_vs_budget.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted((r["technique"], r["aux"], r["budget"]) for r in rows) == sorted(
        [("srs", "", b) for b in ("5", "10")]
        + [(t, "chi", b) for t in ("sups", "ssrs") for b in ("5", "10")]
    )
    # RMSE recomputed from raw rows must match the summary file exactly.
    with open(out / "summary.csv", newline="") as fh:
        summary = {(r["technique"], r["aux"], r["budget"]): r["rmse"] for r in csv.DictReader(fh)}
    for r in rows:
        assert r["rmse"] == summary[(r["technique"], r["aux"], r["budget"])]


def test_report_writes_the_offset_histogram_of_a_regression_grid(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "reg.csv"
    write_population_csv(make_regression(rng.random(30), rng.random(30) + 0.1), path)
    out, rep = tmp_path / "eval", tmp_path / "report"
    assert main(
        ["eval", "--population", str(path), "--techniques", "srs", "--budgets", "5,10",
         "--reps", "4", "--thresholds", "0,0.5", "--out", str(out)]
    ) == 0
    assert main(
        ["report", "--raw", str(out / "raw.csv"),
         "--manifest", str(out / "manifest.json"), "--out", str(rep)]
    ) == 0
    with open(rep / "offset_histogram.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    assert [(r["budget"], r["threshold"]) for r in rows] == [
        ("5", "0.0"), ("5", "0.5"), ("10", "0.0"), ("10", "0.5")
    ]
    for r in rows:
        column = f"n_offset_ge_{r['threshold']}"
        counts = [float(x[column]) for x in raw if x["budget"] == r["budget"]]
        assert float(r["mean_count"]) == np.mean(counts)


def test_every_config_flag_names_a_field_and_defaults_to_none():
    # Each command builds its config from the flags named after the config's
    # fields, so a flag that names no field would be silently dropped.
    builds = {
        "gen": SyntheticConfig, "run": TechniqueConfig,
        "oracle": TechniqueConfig, "eval": EvalConfig,
    }
    other = {"help", "name", "out", "trace", "population", "config"}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, cls in builds.items():
        parser = sub.choices[command]
        names = {f.name for f in fields(cls)}
        allowed = other | ({"seed"} if command in ("gen", "run") else set())
        for action in parser._actions:
            assert action.dest in names or action.dest in allowed, (command, action.dest)
            if action.dest in names:
                # The dataclass owns the default; the oracle's tiny populations
                # take a budget and k of 2.
                small = command == "oracle" and action.dest in ("budget", "k")
                assert parser.get_default(action.dest) == (2 if small else None), (
                    command, action.dest
                )


def test_run_oracle_and_eval_take_every_knob_as_a_flag():
    # One knob vocabulary: a grid takes every knob a run takes, by the same flag.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "oracle", "eval"):
        options = {
            option: action.dest
            for action in sub.choices[command]._actions
            for option in action.option_strings
        }
        for f in fields(Knobs):
            flag = "--" + f.name.replace("_", "-")
            assert options.get(flag) == f.name, (command, flag)


def _eval_for_report(population, out, seed):
    assert main(
        ["eval", "--population", population, "--techniques", "srs,ssrs", "--aux", "none,chi",
         "--budgets", "5,8", "--reps", "3", "--seed", str(seed), "--out", str(out)]
    ) == 0


def test_report_refuses_a_truncated_raw_file(tiny_csv, tmp_path, capsys):
    out = tmp_path / "eval"
    _eval_for_report(tiny_csv, out, 1)
    raw = out / "raw.csv"
    lines = raw.read_text().splitlines(keepends=True)
    raw.write_text("".join(lines[:-1]))  # drops the last ssrs/chi/8 repetition
    rc = main(["report", "--raw", str(raw), "--manifest", str(out / "manifest.json"),
               "--out", str(tmp_path / "report")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "2 raw rows of cell ssrs/chi/8, not the manifest's 3"
    assert not (tmp_path / "report").exists()


def test_report_refuses_raw_rows_of_another_grid(tiny_csv, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _eval_for_report(tiny_csv, a, 1)
    assert main(
        ["eval", "--population", tiny_csv, "--techniques", "srs", "--budgets", "5,10",
         "--reps", "3", "--seed", "1", "--out", str(b)]
    ) == 0
    rc = main(["report", "--raw", str(a / "raw.csv"), "--manifest", str(b / "manifest.json"),
               "--out", str(tmp_path / "report")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "0 raw rows of cell srs/none/10, not the manifest's 3"


def test_report_refuses_an_empty_raw_file(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("technique,aux,budget,repetition,seed,xi_hat,failures,distinct\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"true_xi": 0.9}\n')
    rc = main(["report", "--raw", str(raw), "--manifest", str(manifest), "--out", str(tmp_path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "empty raw file"
