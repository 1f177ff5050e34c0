"""Curvature recovery and convention checks from warp samples alone."""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcsc import (
    DomainError,
    ModelParams,
    NonPositiveWarp,
    TooFewSamples,
    conformal_field_check,
    curvature_audit,
    derive_constants,
    periodic_fd_derivatives,
)
from warpcsc.geometry import uniform_closed_count


@dataclass
class _Loop:
    """Minimal stand-in with the attribute surface the geometry routines read."""

    params: ModelParams
    T: float
    t: np.ndarray
    f: np.ndarray
    fp: np.ndarray


def _harmonic_loop(amplitude_ratio: float, m: int = 512) -> _Loop:
    """Exact n=4 solution sampled on a closed uniform grid.

    For n=4 the reduced oscillator is linear, so x(t) = x* + A sin(w t)
    solves it exactly and f = sqrt(x) is an exact constant-curvature
    warp; the only error the audit can see is its own differencing.
    """
    params = ModelParams(4, 2.0, 2.0)
    k = derive_constants(params)
    A = amplitude_ratio * k.x_star
    t = np.linspace(0.0, k.T0, m + 1)
    x = k.x_star + A * np.sin(k.omega * t)
    v = A * k.omega * np.cos(k.omega * t)
    f = np.sqrt(x)
    fp = 0.5 * v / np.sqrt(x)
    return _Loop(params=params, T=k.T0, t=t, f=f, fp=fp)


def test_fd_derivatives_reproduce_trig():
    m = 64
    theta = 2.0 * math.pi * np.arange(m) / m
    h = 2.0 * math.pi / m
    d1, d2 = periodic_fd_derivatives(np.sin(theta), h)
    # 4th-order truncation: |err| ~ h^4/30 = 3.1e-6 at this resolution
    assert np.max(np.abs(d1 - np.cos(theta))) < 4e-6
    assert np.max(np.abs(d2 + np.sin(theta))) < 2e-5


def test_fd_derivatives_are_fourth_order():
    errs = []
    for m in (64, 128):
        theta = 2.0 * math.pi * np.arange(m) / m
        d1, _ = periodic_fd_derivatives(np.sin(theta), 2.0 * math.pi / m)
        errs.append(np.max(np.abs(d1 - np.cos(theta))))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_fd_derivatives_validation():
    with pytest.raises(DomainError):
        periodic_fd_derivatives(np.ones(4), 0.1)
    with pytest.raises(DomainError):
        periodic_fd_derivatives(np.ones(16), -1.0)


def _rolled_fd_derivatives(values, h):
    """The stencils on four np.roll copies of the loop: the reference formula."""
    g = np.asarray(values, dtype=float)
    p1, p2, m1, m2 = np.roll(g, -1), np.roll(g, -2), np.roll(g, 1), np.roll(g, 2)
    d1 = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
    d2 = (-p2 + 16.0 * p1 - 30.0 * g + 16.0 * m1 - m2) / (12.0 * h * h)
    return d1, d2


@settings(max_examples=300, deadline=None)
@given(m=st.integers(5, 600), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-6, 1e6), h=st.floats(1e-4, 10.0))
def test_fd_derivatives_match_the_rolled_stencils_bit_for_bit(m, seed, scale, h):
    values = scale * (1.0 + np.random.default_rng(seed).standard_normal(m))
    for got, want in zip(periodic_fd_derivatives(values, h), _rolled_fd_derivatives(values, h)):
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_uniform_closed_count_accepts_closed_loop():
    t = np.linspace(0.0, 3.0, 65)
    assert uniform_closed_count(t, 3.0, 16) == 64


def test_uniform_closed_count_rejects_bad_layouts():
    with pytest.raises(TooFewSamples):
        uniform_closed_count(np.linspace(0.0, 1.0, 8), 1.0, 16)
    with pytest.raises(DomainError):
        uniform_closed_count(np.linspace(0.0, 0.9, 65), 1.0, 16)
    jitter = np.linspace(0.0, 1.0, 65)
    jitter[10] += 0.01
    with pytest.raises(DomainError):
        uniform_closed_count(jitter, 1.0, 16)


def test_curvature_audit_refuses_samples_shifted_off_zero():
    # uniform, one period long, but starting at T/1000 rather than at 0
    loop = _harmonic_loop(0.1)
    loop.t = loop.t + 1e-3 * loop.T
    with pytest.raises(DomainError, match=r"^samples must span exactly \[0, T\] endpoint "
                                          r"included$"):
        curvature_audit(loop)


def test_curvature_audit_on_exact_harmonic_profile():
    loop = _harmonic_loop(0.3)
    report = curvature_audit(loop)
    assert report.passed
    assert report.max_dev < 1e-6 * loop.params.Rt
    assert report.values.shape == loop.f.shape
    assert report.values[0] == report.values[-1]
    assert report.tol_abs == pytest.approx(1e-4 * loop.params.Rt)


def test_curvature_audit_error_shrinks_with_resolution():
    coarse = curvature_audit(_harmonic_loop(0.45, m=128)).max_dev
    fine = curvature_audit(_harmonic_loop(0.45, m=256)).max_dev
    assert fine < coarse / 8.0


def test_curvature_audit_flags_detuned_curvature():
    """Samples of a different target curvature are caught immediately."""
    loop = _harmonic_loop(0.3)
    wrong = _Loop(
        params=ModelParams(4, 2.0, 2.1),  # claim Rt = 2.1, data solves 2.0
        T=loop.T,
        t=loop.t,
        f=loop.f,
        fp=loop.fp,
    )
    report = curvature_audit(wrong)
    assert not report.passed
    assert report.max_dev > 0.05


def test_curvature_audit_on_solved_profiles(profile3, profile5):
    for prof in (profile3, profile5):
        report = curvature_audit(prof)
        assert report.passed, f"max_dev={report.max_dev}"


def test_curvature_audit_rejects_nonpositive_warp(profile3):
    loop = _harmonic_loop(0.3)
    bad = _Loop(loop.params, loop.T, loop.t, loop.f.copy(), loop.fp)
    bad.f[5] = 0.0
    with pytest.raises(NonPositiveWarp):
        curvature_audit(bad)


def test_curvature_audit_needs_enough_samples():
    with pytest.raises(TooFewSamples):
        curvature_audit(_harmonic_loop(0.3, m=32))


def test_conformal_check_prefers_squared_fiber(profile3):
    """The fiber must enter the metric through f^2 for nonconstant warps."""
    check = conformal_field_check(profile3)
    assert check.squared_convention_ok
    assert not check.linear_convention_ok
    assert check.sup_fiber_lin > 1e3 * check.sup_fiber_sq
    # the stored derivative column is the derivative of the f column
    assert check.sup_tt < 1e-5


def test_conformal_check_on_a_constant_warp_gives_python_scalars():
    # both sups vanish, so the reference is finfo.tiny; the flags and the
    # reference must still be Python scalars that json can write
    params = ModelParams(5, 2.0, 2.0)
    k = derive_constants(params)
    t = np.linspace(0.0, k.T0, 129)
    loop = _Loop(params, k.T0, t, np.full_like(t, k.f_star), np.zeros_like(t))
    check = conformal_field_check(loop)
    assert type(check.squared_convention_ok) is bool and check.squared_convention_ok
    assert type(check.linear_convention_ok) is bool and check.linear_convention_ok
    assert type(check.reference) is float
    assert json.loads(json.dumps(asdict(check)))["reference"] == np.finfo(float).tiny


def test_conformal_check_on_analytic_profile():
    check = conformal_field_check(_harmonic_loop(0.25))
    assert check.squared_convention_ok
    assert not check.linear_convention_ok
    # linear-convention residual is |f f'| pointwise, far from zero here
    loop = _harmonic_loop(0.25)
    expected = np.max(np.abs(loop.f * loop.fp))
    assert check.sup_fiber_lin == pytest.approx(expected, rel=1e-2)
