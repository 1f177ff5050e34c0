"""The names the benchmark's tracer reads from the package.

`benchmark/tracing.py` wraps every function each traced module lists in
`__all__`, and rebinds `period.brentq` to count root-solver evaluations.
A name removed from a module but left in its `__all__`, a `brentq` name
that is gone from `period`, or a rebinding that `uninstall` does not
undo breaks a traced benchmark run; these tests catch it in the suite.
The package republishes exactly the modules' names, each as the
module's own object, and importing it loads its own modules and no
dataclasses, scipy or mpmath.  Every default
kernel tolerance, of a published function or of the command line, is
`period.KERNEL_RTOL`.  Every package name README quotes resolves, and so
does every constant a module docstring quotes and every name any
docstring quotes in backticks.  A traced solve and
verify time each of verify's checks, and a failing hypothesis test
fails like any other.  The `test` extra names every third-party module
the tests import.
"""

import argparse
import ast
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
from warpcsc import cli
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


def test_a_traced_solve_and_verify_time_every_check(tmp_path, capsys):
    """solve and verify each run the three public checks, so the
    benchmark's per-layer metrics for them read above 0."""
    tracing = _tracing()
    T = 1.05 * warpcsc.derive_constants(warpcsc.ModelParams(5, 2.0, 2.0)).T0
    doc, trace = tmp_path / "profile.json", tmp_path / "trace.npz"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = (cli.main(["solve", "--n", "5", "--R", "2", "--Rt", "2", "--period", repr(T),
                           "--out", str(doc)]),
                 cli.main(["verify", "--in", str(doc)]))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == (0, 0)
    tracer.save(str(trace))
    table = tracing.span_table(str(trace))
    metrics = tracing.layer_metrics(table)
    for metric, span in (("geometry.curvature_audit.s", "geometry.curvature_audit"),
                         ("geometry.conformal.s", "geometry.conformal_field_check"),
                         ("solver.audit.s", "solver.audit_profile")):
        assert metrics[metric] > 0.0, metric
        assert table[span]["calls"] == 2.0, span


def test_a_failing_hypothesis_test_fails_without_an_internal_error(tmp_path):
    """With warnings as errors, hypothesis's report of a failure must
    not turn a warning of a library it imports into an INTERNALERROR."""
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_probe(x):\n"
        "    assert x < 5\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output
    assert "1 failed" in output


def test_the_package_republishes_each_modules_names_once():
    modules = [importlib.import_module(f"warpcsc.{short}") for short in PUBLIC_MODULES]
    published = {"__version__"}.union(*(module.__all__ for module in modules))
    assert set(warpcsc.__all__) == published
    assert len(warpcsc.__all__) == len(published)
    for module in modules:
        for name in module.__all__:
            assert getattr(warpcsc, name) is getattr(module, name), name


def _loaded_by_package_import(*roots: str) -> list[str]:
    """The modules under these top-level names that `import warpcsc,
    warpcsc.cli` loads in a fresh interpreter, sorted."""
    probe = (
        "import sys, warpcsc, warpcsc.cli\n"
        f"print(*sorted(m for m in sys.modules if m.partition('.')[0] in {roots!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_package_import_loads_no_scipy():
    assert _loaded_by_package_import("scipy") == []


def test_package_import_loads_its_modules_and_no_dataclasses():
    """The records are named tuples, so no module builds dataclass
    methods at import, and the import loads no scipy or mpmath either:
    exactly the package's own modules among these names."""
    own = sorted(["warpcsc", "warpcsc.cli", *(f"warpcsc.{m}" for m in PUBLIC_MODULES)])
    assert _loaded_by_package_import("warpcsc", "dataclasses", "scipy", "mpmath") == own


def test_the_test_extra_names_every_module_the_tests_import():
    """Installing the package with its `test` extra installs every
    third-party module a test imports, not only as another's dependency."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", spec).group()
                for spec in [*project["dependencies"], *project["optional-dependencies"]["test"]]}
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"warpcsc", "conftest"}
    assert third_party <= declared, sorted(third_party - declared)


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


def _quoted_names(text: str) -> set[str]:
    """The names text quotes in backticks: each `module.name`, module
    being one of the package's modules, and each bare `_private` name."""
    spans = re.findall(r"`([^`]+)`", text)
    pattern = re.compile(rf"\b({'|'.join(MODULES)})\.(\w+(?:\.\w+)*)")
    names = {".".join(match.groups()) for span in spans for match in pattern.finditer(span)}
    return names | {span for span in spans if re.fullmatch(r"_\w+(?:\.\w+)*", span)}


def _unresolved(names) -> list[str]:
    """The names the package no longer binds: module.name in its module,
    a bare name in any module."""
    def bound(name):
        head, _, rest = name.partition(".")
        if head in MODULES and rest:
            return _resolves(head, rest)
        return any(_resolves(module, name) for module in MODULES)
    return [name for name in sorted(names) if not bound(name)]


def test_readme_names_resolve():
    """Every `module.name` README quotes, with module one of the package's
    modules, and every bare `_private` name is still in the package, so
    README names no helper that has gone."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = _quoted_names(text)
    assert {name.startswith("_") for name in names} == {True, False}
    assert _unresolved(names) == []


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


def test_docstring_names_resolve():
    """Every name a module, class or function docstring quotes in
    backticks, `period._fit_matrix` or `_ChebSeries.root`, is still in
    the package, so no docstring names a helper that has gone."""
    quoted = set()
    for path in sorted((ROOT / "src" / "warpcsc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                quoted |= {(path.stem, name)
                           for name in _quoted_names(ast.get_docstring(node) or "")}
    assert quoted
    missing = [f"{where}: {name}" for where, name in sorted(quoted)
               if _unresolved([name])]
    assert missing == []
