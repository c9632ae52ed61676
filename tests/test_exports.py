"""Every name a module exports or the benchmark wraps must exist.

A deletion or a move then cannot leave a stale export or an unwrapped benchmark name.
"""

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import opsample

MODULES = sorted(m.name for m in pkgutil.iter_modules(opsample.__path__))


def test_every_module_is_found():
    assert {"auxvar", "cli", "draw", "harness", "partition", "population", "techniques"} <= set(
        MODULES
    )


def test_bench_span_targets_resolve():
    # The benchmark's tracer wraps these names; one that moved would leave
    # its per-layer metrics without a value.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    assert [name for name, _, _ in spans.TARGETS if spans._resolve(name) is None] == []


def test_the_cli_does_not_import_scipy():
    # scipy is a test dependency only; importing it costs every command about 0.35 s.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, opsample.cli; print(sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "'opsample.cli'" in proc.stdout and "'scipy'" not in proc.stdout


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # A star import looks up every name in __all__ and raises on a missing one.
    exec(f"from opsample.{module} import *", {})
