"""The in-package Brent solver against scipy's `brentq` as an oracle.

`warpcsc._brent.brentq` is a port of scipy's C code, so on every input
it must return the same root bits after the same number of function
evaluations, and fail where scipy fails (with the toolkit's own types).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from warpcsc import BudgetExceeded, DomainError, ToolkitError
from warpcsc._brent import brentq

ROOT = Path(__file__).resolve().parents[1]

# (xtol, rtol) pairs: a loose rtol, the one crossing refinement passes,
# and scipy's default rtol
TOLERANCES = [
    pytest.param({"xtol": 1e-300, "rtol": 1e-13}, id="turning"),
    pytest.param({"xtol": 1e-300, "rtol": 8.9e-16}, id="crossing"),
    pytest.param({"xtol": 1e-300}, id="default-rtol"),
]


def outcome(solver, f, a, b, **kw):
    """(kind, root bits or error kind, evaluations) of one solve."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return f(x)

    try:
        root = solver(counted, a, b, **kw)
    except ValueError:
        return "error", "domain", calls[0]
    except (RuntimeError, BudgetExceeded):
        return "error", "budget", calls[0]
    return "root", float(root).hex(), calls[0]


def assert_same(f, a, b, **kw):
    ours = outcome(brentq, f, a, b, **kw)
    assert ours == outcome(scipy_brentq, f, a, b, **kw)
    return ours


SMOOTH = {
    "cubic": lambda p, q: lambda x: ((p * x + q) * x - 1.0) * x,
    "sine": lambda p, q: lambda x: math.sin(p * x + q),
    "expm1": lambda p, q: lambda x: math.expm1(p * x) + q * x,
    "tanh": lambda p, q: lambda x: math.tanh(p * x) + q * x**3,
    # a root of multiplicity 3, 5 or 7, where Brent crawls by short steps
    "multiple": lambda p, q: lambda x: (1.0 + q * q) * x ** (3 + 2 * (int(abs(p)) % 3)),
}


@pytest.mark.parametrize("tols", TOLERANCES)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(SMOOTH)),
    p=st.floats(-5.0, 5.0),
    q=st.floats(-5.0, 5.0),
    a=st.floats(-10.0, 10.0),
    width=st.floats(1e-9, 20.0),
    t=st.floats(0.0, 1.0),
    decade=st.integers(-200, 200),
)
def test_same_root_bits_and_evaluations_as_scipy(tols, family, p, q, a, width, t, decade):
    g = SMOOTH[family](p, q)
    b = a + width
    root = a + t * width
    level = g(0.0)
    scale = 10.0**decade

    def f(x):
        return scale * (g(x - root) - level)

    assert_same(f, a, b, **tols)
    assert_same(f, b, a, **tols)


@pytest.mark.parametrize("tols", TOLERANCES)
def test_root_at_an_endpoint_is_returned_after_two_evaluations(tols):
    assert assert_same(lambda x: x - 0.25, 0.25, 1.0, **tols) == ("root", (0.25).hex(), 2)
    assert assert_same(lambda x: x - 1.0, 0.25, 1.0, **tols) == ("root", (1.0).hex(), 2)


@pytest.mark.parametrize("tols", TOLERANCES)
def test_exact_zero_reached_mid_run_stops_there(tols):
    # the first step (a bisection) lands on 0.5 exactly
    assert assert_same(lambda x: x - 0.5, 0.0, 1.0, **tols) == ("root", (0.5).hex(), 3)


@pytest.mark.parametrize("tols", TOLERANCES)
def test_zero_extrapolation_denominator_bisects(tols):
    # dblk * dpre * (fblk - fpre) underflows to zero on several steps;
    # Python would raise ZeroDivisionError, C compares inf/nan and bisects
    kind, _, evals = assert_same(lambda x: 1e-200 * (x**3 - 0.3), 0.0, 1.0, **tols)
    assert kind == "root"
    assert evals == 22


@pytest.mark.parametrize("tols", TOLERANCES)
def test_signs_are_read_from_sign_bits_where_products_underflow(tols):
    # f(0) * f(1) = -2.1e-401 underflows to -0.0
    assert assert_same(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0, **tols)[0] == "root"
    assert assert_same(lambda x: -1e-200 * math.sin(3.0 * x - 1.0), 0.0, 1.0, **tols)[0] == "root"
    # and a same-sign bracket is refused although the product is +0.0
    assert assert_same(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0, **tols) == ("error", "domain", 2)


def test_same_sign_bracket_raises_domain_error():
    with pytest.raises(DomainError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    assert issubclass(DomainError, ValueError)


def test_nan_value_raises_domain_error():
    with pytest.raises(DomainError, match="NaN"):
        brentq(lambda x: math.nan, 0.0, 1.0)
    # a NaN met mid-run, after a valid bracket
    assert assert_same(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0) == (
        "error", "domain", 3,
    )


def test_bad_tolerances_raise_domain_error():
    with pytest.raises(DomainError, match="xtol"):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(DomainError, match="rtol"):
        brentq(lambda x: x, -1.0, 1.0, rtol=1e-16)


def test_exhausted_iterations_raise_budget_exceeded():
    # reaching x = 1 from a bracket of width 1e300 takes about 1000 bisections
    def step(x):
        return -1.0 if x < 1.0 else 1.0

    with pytest.raises(BudgetExceeded, match="maxiter = 100") as info:
        brentq(step, 0.0, 1e300, xtol=1e-300)
    assert isinstance(info.value, ToolkitError)
    assert not isinstance(info.value, RuntimeError)
    assert assert_same(step, 0.0, 1e300, xtol=1e-300) == ("error", "budget", 102)


def test_package_import_loads_no_scipy():
    probe = (
        "import sys, warpcsc, warpcsc.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print(warpcsc.integrator.brentq is warpcsc._brent.brentq)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "True"]
