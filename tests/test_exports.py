"""Every name a module exports or the benchmark wraps must exist.

A deletion or a move then cannot leave a stale export or an unwrapped benchmark name.
"""

import importlib.util
import pkgutil
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


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # A star import looks up every name in __all__ and raises on a missing one.
    exec(f"from opsample.{module} import *", {})
