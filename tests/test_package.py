"""Package-wide checks of the modules' public names."""

import importlib
import pkgutil

import pytest

import finslergp

MODULES = sorted(info.name for info in pkgutil.iter_modules(finslergp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # tools that walk __all__ (the benchmark's tracer among them) skip a
    # stale name silently, so a name left behind by a removal shows here
    mod = importlib.import_module(f"finslergp.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
