"""Package-wide checks of the modules' public names."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


@pytest.mark.parametrize("name", ["metric", "measure", "geodesic", "experiments", "fields", "cli"])
def test_modules_that_fit_nothing_leave_gp_unloaded(name):
    # the norms take a Jacobian posterior, whatever produced it: in a fresh
    # interpreter, importing these modules loads neither gp nor scipy
    code = (f"import sys, finslergp.{name}; "
            "print(sorted(m for m in sys.modules if m == 'finslergp.gp' or m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(finslergp.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
