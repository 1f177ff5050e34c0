"""The names the benchmark's tracer reads from the package.

`benchmark/tracing.py` wraps every function each traced module lists in
`__all__`, and rebinds `period.brentq` to count root-solver evaluations.
A name removed from a module but left in its `__all__`, a `brentq` name
that is gone from `period`, or a rebinding that `uninstall` does not
undo breaks a traced benchmark run; these tests catch it in the suite.
The package republishes exactly the modules' names, each as the
module's own object, and importing it loads no scipy.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import warpcsc

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_tracing_under_test", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("short", _tracing().MODULES)
def test_every_exported_name_resolves(short):
    module = importlib.import_module(f"warpcsc.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _package_bindings():
    """Every name each loaded warpcsc module binds, with its object."""
    return {
        (modname, attr): value
        for modname, module in list(sys.modules.items())
        if modname == "warpcsc" or modname.startswith("warpcsc.")
        for attr, value in vars(module).items()
    }


def test_the_tracer_restores_every_name_it_rebinds():
    tracing = _tracing()
    for short in tracing.MODULES:
        importlib.import_module(f"warpcsc.{short}")
    before = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rebound = {(module.__name__, attr) for module, attr, _ in tracer._rebound}
        assert ("warpcsc.period", "brentq") in rebound
        assert ("warpcsc.solver", "solve_period") in rebound
        assert all(_package_bindings()[key] is not before[key] for key in rebound)
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


PUBLIC_MODULES = ("model", "integrator", "period", "solver", "geometry", "bifurcation", "errors")


def test_the_package_republishes_each_modules_names_once():
    modules = [importlib.import_module(f"warpcsc.{short}") for short in PUBLIC_MODULES]
    published = {"__version__"}.union(*(module.__all__ for module in modules))
    assert set(warpcsc.__all__) == published
    assert len(warpcsc.__all__) == len(published)
    for module in modules:
        for name in module.__all__:
            assert getattr(warpcsc, name) is getattr(module, name), name


def test_package_import_loads_no_scipy():
    probe = (
        "import sys, warpcsc, warpcsc.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
