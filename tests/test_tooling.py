"""The names the benchmark's tracer reads from the package.

`benchmark/tracing.py` wraps every function each traced module lists in
`__all__`, and rebinds `period.brentq` to count root-solver evaluations.
A name removed from a module but left in its `__all__`, a `brentq` name
that is gone from `period`, or a rebinding that `uninstall` does not
undo breaks a traced benchmark run; these tests catch it in the suite.
The package republishes exactly the modules' names, each as the
module's own object, and importing it loads no scipy.  Every default
kernel tolerance, of a published function or of the command line, is
`period.KERNEL_RTOL`.  Every package name README quotes resolves, and so
does every constant a module docstring quotes.
"""

import argparse
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import warpcsc
from warpcsc.cli import build_parser
from warpcsc.period import KERNEL_RTOL

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


def test_every_default_tolerance_is_the_kernel_rtol():
    """A second default would build a second period curve per n, whose
    orbits differ from the first's in their last bits."""
    defaults = {}
    for name in warpcsc.__all__:
        function = getattr(warpcsc, name)
        if inspect.isfunction(function):
            for param in inspect.signature(function).parameters.values():
                if param.name in ("rtol", "quad_rtol") and param.default is not param.empty:
                    defaults[f"{name}({param.name}=)"] = param.default
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for command, parser in commands.items():
        for action in parser._actions:
            if "--rtol" in action.option_strings:
                defaults[f"{command} --rtol"] = action.default
    assert sorted(defaults) == [
        "bifurcate --rtol", "period --rtol", "period_curve(rtol=)", "period_quadrature(rtol=)",
        "period_scan(rtol=)", "scan_branches(quad_rtol=)", "solve --rtol",
        "solve_period(quad_rtol=)",
    ]
    assert [key for key, value in defaults.items() if value is not KERNEL_RTOL] == []


MODULES = (*PUBLIC_MODULES, "cli")


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(f"warpcsc.{module}")
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_resolve():
    """Every `module.name` README quotes, with module one of the package's
    modules, and every bare `_private` name is still in the package, so
    README names no helper that has gone."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    pattern = re.compile(rf"\b({'|'.join(MODULES)})\.(\w+(?:\.\w+)*)")
    dotted = {match.groups() for span in spans for match in pattern.finditer(span)}
    private = {span for span in spans if re.fullmatch(r"_\w+(?:\.\w+)*", span)}
    assert dotted and private
    missing = [f"{module}.{name}" for module, name in sorted(dotted)
               if not _resolves(module, name)]
    missing += [name for name in sorted(private)
                if not any(_resolves(module, name) for module in MODULES)]
    assert missing == []


def test_module_docstring_constants_resolve():
    """Every ALL_CAPS name with an underscore that a module docstring
    quotes, such as BAND_CLAMP, is bound in some package module, so no
    docstring names a constant that has gone."""
    modules = [warpcsc, *(importlib.import_module(f"warpcsc.{module}") for module in MODULES)]
    pattern = re.compile(r"\b[A-Z][A-Z0-9]*_[A-Z0-9_]*[A-Z0-9]\b")
    quoted = {(module.__name__, name) for module in modules
              for name in pattern.findall(module.__doc__ or "")}
    assert quoted
    missing = [f"{module}: {name}" for module, name in sorted(quoted)
               if not any(hasattr(other, name) for other in modules)]
    assert missing == []
