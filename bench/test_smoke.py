"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd, *args):
    cmd = [sys.executable, *BENCH["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert isinstance(metric["value"], (int, float)), spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_missing_wrapped_name_marks_its_metrics_absent(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import opsample.techniques
    from spans import Tracer, layer_metrics, per_layer_units

    monkeypatch.delattr(opsample.techniques, "neyman_allocation")
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        values = layer_metrics(tracer, {"generate_s": [1.0], "write_csv_s": [1.0],
                                        "overhead_s": 0.0}, jobs=1)
    finally:
        tracer.uninstall()
    assert tracer.absent_names == ["opsample.techniques.neyman_allocation"]
    assert set(values) == set(per_layer_units())
    assert values["partition.neyman_s"] is None
    assert values["partition.neyman_calls"] is None
    assert values["population.generate_s"] == 1.0
    assert not hasattr(opsample.techniques.kmeans_1d, "__wrapped__")
