"""Every name a module exports must exist, so a deletion cannot leave a stale export."""

import pkgutil

import pytest

import opsample

MODULES = sorted(m.name for m in pkgutil.iter_modules(opsample.__path__))


def test_every_module_is_found():
    assert {"auxvar", "cli", "draw", "harness", "partition", "population", "techniques"} <= set(
        MODULES
    )


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # A star import looks up every name in __all__ and raises on a missing one.
    exec(f"from opsample.{module} import *", {})
