"""The names the benchmark's tracer reads from the package.

`benchmark/tracing.py` wraps every function each traced module lists in
`__all__`, and rebinds `period.brentq` to count root-solver evaluations.
A name removed from a module but left in its `__all__`, or a `brentq`
that is no longer the package's own, breaks a traced benchmark run;
these tests catch it in the suite.  The package republishes exactly the
modules' names, each as the module's own object.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import warpcsc
import warpcsc._brent
import warpcsc.period

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _traced_modules():
    spec = importlib.util.spec_from_file_location("_tracing_under_test", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.MODULES


@pytest.mark.parametrize("short", _traced_modules())
def test_every_exported_name_resolves(short):
    module = importlib.import_module(f"warpcsc.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_period_binds_the_package_root_solver():
    assert warpcsc.period.brentq is warpcsc._brent.brentq


PUBLIC_MODULES = ("model", "integrator", "period", "solver", "geometry", "bifurcation", "errors")


def test_the_package_republishes_each_modules_names_once():
    modules = [importlib.import_module(f"warpcsc.{short}") for short in PUBLIC_MODULES]
    published = {"__version__"}.union(*(module.__all__ for module in modules))
    assert set(warpcsc.__all__) == published
    assert len(warpcsc.__all__) == len(published)
    for module in modules:
        for name in module.__all__:
            assert getattr(warpcsc, name) is getattr(module, name), name
