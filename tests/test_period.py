"""Turning points, the period kernel, energy scans and the period curve."""

import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from scipy.optimize import brentq
from scipy.special import elliprf, elliprj

import warpcsc.period as period_mod
from warpcsc.bifurcation import QUAD_RTOL
from warpcsc import (
    DomainError,
    EnergyOutOfBand,
    ModelParams,
    QuadratureNonConvergence,
    curvature_residual,
    derive_constants,
    energy_grid,
    period_curve,
    period_quadrature,
    period_scan,
    potential,
    potential_above_min,
    turning_points,
)

# mpmath (dps=40) references, 17 significant digits.
FROZEN_ORBITS = [
    # (n, R, Rt, c, a, b, T)
    (3, 2.0, 2.0, -0.225, 0.091313656401387648, 2.0652376254858012, 5.8985046008834841),
    (5, 2.6, 1.1, -0.63971489931227987, 1.3062510383884438, 4.4911203643815935, 12.096238216042459),
    (6, 2.0, 2.0, -0.015, 0.086640187350716299, 1.7951770649490951, 10.69979269117666),
]

# T/T0 near the contact energy approaches sqrt(n)/2; two stations on the way
FROZEN_CONTACT_RATIO = {
    3: (0.86686807301809501, 0.866026979389022),
    5: (1.1007796204263442, 1.116282907604029),
    6: (1.1737739764223567, 1.2155842463464136),
}

# T/T0 for n=3, R=Rt=2 at s = 1e-6; the limit value is 1
FROZEN_SMALL_AMPLITUDE_RATIO = 0.99999994444441744


@pytest.mark.parametrize("case", FROZEN_ORBITS, ids=lambda c: f"n{c[0]}")
def test_turning_points_match_reference(case):
    n, R, Rt, c, a_ref, b_ref, _ = case
    params = ModelParams(n, R, Rt)
    a, b = turning_points(c, params)
    assert a == pytest.approx(a_ref, rel=1e-13)
    assert b == pytest.approx(b_ref, rel=1e-13)
    # polished roots put the potential on the energy level to roundoff
    depth = abs(derive_constants(params).c_min)
    assert abs(potential(a, params) - c) < 1e-13 * depth
    assert abs(potential(b, params) - c) < 1e-13 * depth


@pytest.mark.parametrize("case", FROZEN_ORBITS, ids=lambda c: f"n{c[0]}")
def test_period_quadrature_matches_reference(case):
    n, R, Rt, c, a_ref, b_ref, T_ref = case
    params = ModelParams(n, R, Rt)
    spec = period_quadrature(c, params)
    assert spec.T == pytest.approx(T_ref, rel=5e-13)
    assert spec.a == pytest.approx(a_ref, rel=1e-13)
    assert spec.b == pytest.approx(b_ref, rel=1e-13)
    assert spec.c == c
    assert spec.amplitude == pytest.approx(b_ref - a_ref, rel=1e-12)


def test_turning_points_bracket_rest_point_and_level_set():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        params = ModelParams(n, float(rng.uniform(0.2, 8.0)), float(rng.uniform(0.2, 8.0)))
        k = derive_constants(params)
        s = float(rng.uniform(1e-6, 1.0 - 1e-6))
        c = k.c_min + s * abs(k.c_min)
        a, b = turning_points(c, params)
        assert 0.0 < a < k.x_star < b
        e_above = c - k.c_min
        assert potential_above_min(a, params) == pytest.approx(e_above, rel=1e-10)
        assert potential_above_min(b, params) == pytest.approx(e_above, rel=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12, 20, 30])
def test_turning_points_match_a_scipy_brentq_oracle(n):
    # scipy's Brent solver on the model's public evaluators, to its
    # tightest rtol: the offset potential on the lower half of the band,
    # the potential itself on the upper half
    params = ModelParams(n, 2.6, 1.1)
    k = derive_constants(params)
    depth = abs(k.c_min)
    for s in (1e-9, 1e-6, 1e-3, 0.3, 0.5, 0.7, 0.999, 1.0 - 1e-6, 1.0 - 1e-9):
        c = k.c_min + s * depth
        if s <= 0.5:
            gap = lambda x: potential_above_min(x, params) - (c - k.c_min)
        else:
            gap = lambda x: potential(x, params) - c
        # the offset's log1p needs x > 0 well clear of 0; a is not small there
        lo = (1e-6 if s <= 0.5 else 1e-200) * k.x_star
        a_ref = brentq(gap, lo, k.x_star, xtol=1e-300, rtol=8.9e-16)
        b_ref = brentq(gap, k.x_star, 3.0 * k.x_star, xtol=1e-300, rtol=8.9e-16)
        a, b = turning_points(c, params)
        assert a == pytest.approx(a_ref, rel=1e-13), f"s = {s}"
        assert b == pytest.approx(b_ref, rel=1e-13), f"s = {s}"


@pytest.mark.parametrize("R, Rt", [(2.0, 2.0), (2.6, 1.1), (0.3, 7.0)])
def test_isochronous_turning_points_match_the_closed_form(R, Rt):
    # for n = 4 the potential is A (x - x_star)^2 + c_min, so the turning
    # points are x_star (1 -+ sqrt(s)); the inner one is written through
    # 1 - s = -c/|c_min| to keep its digits near contact
    params = ModelParams(4, R, Rt)
    k = derive_constants(params)
    depth = abs(k.c_min)
    grid = np.concatenate([np.geomspace(1e-9, 0.5, 9), 1.0 - np.geomspace(0.5, 1e-9, 9)[1:]])
    for c in k.c_min + grid * depth:
        root = 1.0 + math.sqrt((c - k.c_min) / depth)
        a, b = turning_points(c, params)
        assert a == pytest.approx(k.x_star * (-c / depth) / root, rel=1e-14, abs=0.0), f"c = {c}"
        assert b == pytest.approx(k.x_star * root, rel=1e-14, abs=0.0), f"c = {c}"


@pytest.mark.parametrize("n", range(3, 31))
def test_inner_turning_point_keeps_the_digits_of_a_small_energy(n):
    # on the upper half of the band the level is c itself, not c - c_min,
    # so the residual stays small relative to |c| even as c -> 0
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    for s in (0.6, 0.9, 1.0 - 1e-4, 1.0 - 1e-7, 1.0 - 1e-9):
        c = k.c_min + s * abs(k.c_min)
        a, _ = turning_points(c, params)
        assert abs(potential(a, params) - c) <= 1e-13 * abs(c), f"s = {s}"


def test_a_turning_point_solve_that_cannot_settle_fails_alone(monkeypatch, p5, k5):
    # three Newton steps settle both turning points near the band ends,
    # but not the inner one in mid-band
    grid = [k5.c_min + s * abs(k5.c_min) for s in (1e-9, 0.5, 1.0 - 1e-9)]
    full = period_scan(grid, p5)
    monkeypatch.setattr(period_mod, "NEWTON_STEPS", 3)
    scan = period_scan(grid, p5)
    assert scan.entries[0] == full.entries[0] and scan.entries[2] == full.entries[2]
    assert scan.entries[1] is None
    [(idx, err)] = scan.failures
    assert idx == 1 and isinstance(err, QuadratureNonConvergence)
    assert "inner turning point did not settle in 3 Newton steps" in str(err)
    with pytest.raises(QuadratureNonConvergence, match="did not settle in 3 Newton steps"):
        turning_points(grid[1], p5)


def test_small_amplitude_period_approaches_threshold(p3, k3):
    s = 1e-6
    spec = period_quadrature(k3.c_min + s * abs(k3.c_min), p3)
    assert spec.T / k3.T0 == pytest.approx(FROZEN_SMALL_AMPLITUDE_RATIO, rel=1e-13)
    # leading correction is quadratic in amplitude: ratio - 1 = -s/18 + O(s^2)
    assert (spec.T / k3.T0 - 1.0) == pytest.approx(-s / 18.0, rel=1e-3)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_contact_limit_ratio(n):
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    ref_near, ref_nearer = FROZEN_CONTACT_RATIO[n]
    near = period_quadrature(k.c_min + 0.999 * abs(k.c_min), params).T / k.T0
    nearer = period_quadrature(k.c_min + 0.999999 * abs(k.c_min), params).T / k.T0
    assert near == pytest.approx(ref_near, rel=1e-12)
    assert nearer == pytest.approx(ref_nearer, rel=1e-12)
    # the band ends at sqrt(n)/2 in units of T0, approached monotonically
    edge = math.sqrt(n) / 2.0
    assert abs(nearer - edge) < abs(near - edge)
    assert abs(nearer - edge) < 2e-2 * edge


def test_period_monotone_decreasing_for_n3(p3):
    grid = energy_grid(p3, 12, mode="log", s_lo=1e-6, s_hi=1e-4)
    periods = [period_quadrature(c, p3).T for c in grid]
    assert all(t1 > t2 for t1, t2 in zip(periods, periods[1:]))


@pytest.mark.parametrize("n", [5, 6])
def test_period_monotone_increasing_for_large_n(n):
    params = ModelParams(n, 2.0, 2.0)
    grid = energy_grid(params, 12, mode="log", s_lo=1e-6, s_hi=1e-4)
    periods = [period_quadrature(c, params).T for c in grid]
    assert all(t1 < t2 for t1, t2 in zip(periods, periods[1:]))


def test_n4_period_is_isochronous(p4, k4):
    grid = energy_grid(p4, 20, mode="symlog", s_lo=1e-9, s_hi=1e-6)
    for c in grid:
        spec = period_quadrature(c, p4)
        assert spec.T == pytest.approx(k4.T0, rel=1e-12)


def test_band_edges_rejected(p3, k3):
    for c in (k3.c_min, 0.0, 0.2, k3.c_min - 1.0):
        with pytest.raises(EnergyOutOfBand):
            period_quadrature(c, p3)
        with pytest.raises(EnergyOutOfBand):
            turning_points(c, p3)


def test_energy_grid_spans_requested_clamps(p3, k3):
    depth = abs(k3.c_min)
    grid = energy_grid(p3, 9, mode="log", s_lo=1e-6, s_hi=1e-3)
    s = (grid - k3.c_min) / depth
    assert s[0] == pytest.approx(1e-6, rel=1e-9)
    assert s[-1] == pytest.approx(1.0 - 1e-3, rel=1e-9)
    assert np.all(np.diff(s) > 0.0)

    sym = energy_grid(p3, 11, mode="symlog", s_lo=1e-8, s_hi=1e-8)
    ss = (sym - k3.c_min) / depth
    assert ss[0] == pytest.approx(1e-8, rel=1e-6)
    assert ss[-1] == pytest.approx(1.0 - 1e-8, rel=1e-9)
    assert np.all(np.diff(ss) > 0.0)


def test_energy_grid_validation(p3):
    with pytest.raises(DomainError):
        energy_grid(p3, 1)
    with pytest.raises(DomainError):
        energy_grid(p3, 5, s_lo=0.0)
    with pytest.raises(DomainError):
        energy_grid(p3, 5, mode="linear")


def test_scan_preserves_grid_order_and_reports_failures(p3):
    grid = energy_grid(p3, 8, mode="log", s_lo=1e-4, s_hi=1e-3)
    scan = period_scan(grid, p3)
    assert len(scan.entries) == len(grid)
    assert scan.failures == ()
    for c, spec in zip(grid, scan.entries):
        assert spec.c == pytest.approx(float(c), rel=1e-15)


def test_scan_continues_past_a_failed_point(p3, k3):
    grid = list(energy_grid(p3, 6, mode="log", s_lo=1e-4, s_hi=1e-3))
    grid[2] = k3.c_min - 1.0
    scan = period_scan(grid, p3)
    assert scan.entries[2] is None
    assert len(scan.failures) == 1
    idx, err = scan.failures[0]
    assert idx == 2
    assert isinstance(err, EnergyOutOfBand)
    for i, (c, spec) in enumerate(zip(grid, scan.entries)):
        if i != 2:
            assert spec.c == pytest.approx(float(c), rel=1e-15)


def test_scan_raises_programming_errors(monkeypatch, p3):
    # only a ToolkitError is a failed point; anything else is a fault,
    # from the turning-point solve or from the kernel
    for name in ("_inner_root", "_period_kernel"):
        def broken(*args):
            raise TypeError(f"broken {name}")

        with monkeypatch.context() as patch:
            patch.setattr(period_mod, name, broken)
            with pytest.raises(TypeError, match=f"broken {name}"):
                period_scan(list(energy_grid(p3, 4)), p3)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_scan_matches_single_quadratures_bit_for_bit(n, kernel_calls):
    params = ModelParams(n, 2.0, 2.0)
    # the grid of the benchmark's route questions
    grid = energy_grid(params, 50, mode="symlog", s_lo=1e-9, s_hi=1e-4)
    scan = period_scan(grid, params)
    # one kernel call takes every orbit of the scan
    assert kernel_calls == [50]
    assert scan.failures == ()
    assert scan.entries == tuple(period_quadrature(c, params) for c in grid)


def test_scan_isolates_points_the_kernel_cannot_certify(monkeypatch):
    params = ModelParams(12, 2.0, 2.0)
    grid = energy_grid(params, 12, mode="symlog")
    full = period_scan(grid, params)
    # at h = 1/16 the kernel certifies the nine points nearest the well bottom
    monkeypatch.setattr(period_mod, "TS_LAST_LEVEL", 4)
    scan = period_scan(grid, params)
    assert scan.entries[:9] == full.entries[:9]
    assert scan.entries[9:] == (None,) * 3
    assert [idx for idx, _ in scan.failures] == [9, 10, 11]
    for idx, err in scan.failures:
        assert isinstance(err, QuadratureNonConvergence)
        assert "did not meet rtol = 1e-10 by its finest level, h = 2^-4" in str(err)
        # the same text a single quadrature raises
        with pytest.raises(QuadratureNonConvergence) as single:
            period_quadrature(grid[idx], params)
        assert str(single.value) == str(err)


def test_scan_keeps_the_index_of_an_out_of_band_point(p5, k5, kernel_calls):
    grid = list(energy_grid(p5, 7, mode="symlog", s_lo=1e-6, s_hi=1e-4))
    grid[0], grid[4] = k5.c_min - 1.0, 1.0
    scan = period_scan(grid, p5)
    assert kernel_calls == [5]
    assert [idx for idx, _ in scan.failures] == [0, 4]
    assert all(isinstance(err, EnergyOutOfBand) for _, err in scan.failures)
    for idx, spec in enumerate(scan.entries):
        assert spec == (None if idx in (0, 4) else period_quadrature(grid[idx], p5))


def test_table_inversion_recovers_energy(p3, k3):
    tau = FROZEN_ORBITS[0][6]
    orbit = period_curve(3, 1e-10).orbits([tau], p3)[0]
    assert orbit.c == pytest.approx(-0.225, abs=1e-9 * abs(k3.c_min))


def test_table_inversion_outside_band_is_empty(p3, k3):
    curve = period_curve(3, 1e-10)
    assert curve.orbits([1.5 * k3.T0, 0.5 * k3.T0], p3) == (None, None)


def test_quadrature_nonconvergence_surfaces(p3):
    with pytest.raises(QuadratureNonConvergence):
        period_quadrature(-0.225, p3, rtol=1e-16)


@pytest.mark.parametrize("n", [5, 6, 12])
def test_small_amplitude_slope_matches_closed_form(n):
    # anharmonic correction T/T0 - 1 = kappa_n * s + O(s^2)
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    kappa = (n - 4) * (n - 1) / (12.0 * n * (n - 2))
    s = 1e-4
    T = period_quadrature(k.c_min + s * abs(k.c_min), params).T
    assert (T / k.T0 - 1.0) / s == pytest.approx(kappa, rel=1e-3)


@pytest.mark.parametrize("n", [3, 5, 6, 12])
def test_table_periods_lie_in_closed_form_band(n):
    # orbit periods run from T0 at the well bottom to sqrt(n)/2 * T0 at contact
    params = ModelParams(n, 2.0, 2.0)
    T0 = derive_constants(params).T0
    lo, hi = sorted((T0, math.sqrt(n) / 2.0 * T0))
    scan = period_scan(energy_grid(params, 192, mode="symlog"), params)
    assert scan.failures == ()
    ts = np.array([spec.T for spec in scan.entries])
    assert np.all(ts > lo)
    assert np.all(ts < hi)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 10, 12, 20])
def test_period_monotone_by_chicone_criterion(n):
    """(G/g^2)'' has one sign on the whole well, exactly.

    Chicone (J. Differential Equations 69, 1987): for x'' + g(x) = 0
    with G the potential above its minimum, a convex G/g^2 makes the
    period increase with the energy.  With x_star = 1 and x = y^n, g and
    G are polynomials in y up to a power, so the second x-derivative is
    a rational function of y whose numerator and denominator sympy
    shows to have no positive root: the sign at y = 1 holds for every
    y > 0.  It is -1 (concave) for n = 3 and +1 (convex) otherwise.
    """
    y = sp.symbols("y", positive=True)
    # force and offset potential for x_star = 1, up to a positive factor
    g = y**n - y ** (n - 4)
    G = (y ** (2 * n) / 2 - sp.Rational(n, 2 * (n - 2)) * y ** (2 * n - 4)
         + sp.Rational(1, n - 2))

    def d_dx(expr):
        return sp.diff(expr, y) / (n * y ** (n - 1))

    num, den = sp.fraction(sp.cancel(d_dx(d_dx(G / g**2))))
    for poly in (num, den):
        assert not [r for r in sp.real_roots(sp.Poly(poly, y)) if r > 0]
    assert sp.sign(num.subs(y, 1) / den.subs(y, 1)) == (-1 if n == 3 else 1)


def test_polish_that_cannot_settle_raises(monkeypatch, p3):
    curve = period_curve(3, 1e-10)  # built before the kernel is skewed
    real_kernel = period_mod._period_kernel

    def skewed_kernel(*args):
        periods = real_kernel(*args)
        return periods._replace(ratio=periods.ratio * (1.0 + 1e-6))

    monkeypatch.setattr(period_mod, "MAX_POLISH_STEPS", 1)
    monkeypatch.setattr(period_mod, "_period_kernel", skewed_kernel)
    with pytest.raises(QuadratureNonConvergence, match="did not settle in 1 steps"):
        curve.orbits([FROZEN_ORBITS[0][6]], p3)


@pytest.mark.parametrize("n", [3, 8])
def test_polish_lands_orbits_on_a_skewed_kernel(monkeypatch, kernel_calls, n):
    # the curve misses the skewed kernel by 1e-7: every orbit needs a polish
    rtol = 1e-10
    curve = period_curve(n, rtol)  # built before the kernel is skewed
    params = ModelParams(n, 2.0, 2.0)
    lo, hi = curve.band
    taus = [float(r) * derive_constants(params).T0 for r in np.linspace(lo, hi, 9)[1:-1]]
    real_kernel = period_mod._period_kernel

    def skewed_kernel(*args):
        periods = real_kernel(*args)
        return periods._replace(ratio=periods.ratio * (1.0 + 1e-7))

    monkeypatch.setattr(period_mod, "_period_kernel", skewed_kernel)
    singles = [curve.orbits([tau], params)[0] for tau in taus]
    kernel_calls.clear()
    assert curve.orbits(taus, params) == tuple(singles)
    assert 2 <= len(kernel_calls) <= 4, kernel_calls
    for orbit, tau in zip(singles, taus):
        assert abs(orbit.T / tau - 1.0) <= 10.0 * rtol


def _held_out(curve, per_piece=13):
    """u points of every piece that are neither nodes nor the build's checks."""
    us = []
    for piece in curve.pieces:
        for x in np.linspace(-1.0, 1.0, per_piece + 2)[1:-1] + 0.037:
            v = 0.5 * (piece.lo + piece.hi) + 0.5 * (piece.hi - piece.lo) * x
            us.append(math.exp(v) if piece.log else v)
    return [u for u in us if curve.u_lo <= u <= curve.u_hi]


def _quadrature_ratio(n, u, rtol):
    # the orbit at u on the canonical parameters, where T0 = 2 pi
    params = ModelParams(n, n - 1.0, n - 1.0)
    k = derive_constants(params)
    c = potential(u ** (n / 2.0), params)
    return period_quadrature(c, params, rtol=rtol).T / k.T0


@pytest.mark.parametrize("n", [3, 5, 6])
def test_period_curve_matches_quadrature(n):
    curve = period_curve(n, QUAD_RTOL)
    assert curve.quadratures == 96
    assert curve.err_est <= QUAD_RTOL
    for u in _held_out(curve):
        ref = _quadrature_ratio(n, u, 1e-11)
        assert abs(curve.ratio(u) / ref - 1.0) <= QUAD_RTOL, f"u = {u}"


@pytest.mark.parametrize("n", [8, 12, 20])
def test_period_curve_error_estimate_and_polish_near_contact(n, kernel_calls):
    rtol = 1e-10
    curve = period_curve(n, rtol)
    worst = max(
        abs(curve.ratio(u) / _quadrature_ratio(n, u, 1e-11) - 1.0) for u in _held_out(curve)
    )
    assert worst <= curve.err_est

    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    lo, hi = curve.band
    for ratio in np.linspace(lo, hi, 14)[1:-1]:
        tau = float(ratio) * k.T0
        kernel_calls.clear()
        orbit = curve.orbits([tau], params)[0]
        # the kernel confirms every orbit, and a polish starts next to the root
        assert 1 <= len(kernel_calls) <= 4
        T = period_quadrature(orbit.c, params, rtol=rtol).T
        assert abs(T / tau - 1.0) <= 10.0 * rtol, f"tau = {ratio} T0"


def _crowding_the_contact_end(curve, T0, count=25):
    """count periods inside the curve's band, crowding its contact end."""
    lo, hi = curve.band
    ratios = hi - np.linspace(0.0, 1.0, count + 2)[1:-1] ** 3 * (hi - lo)
    return [float(ratio) * T0 for ratio in ratios]


@pytest.mark.parametrize("n", [8, 12, 20])
def test_confirmed_orbits_crowding_the_contact_end_land_on_tau(n, kernel_calls):
    # The quadrature in x used to jump near contact, and an orbit energy
    # written as c_min + offset moved in steps of about 1e-16: confirmed
    # orbits there landed up to 5.2e-9 (n = 12) and 3.8e-8 (n = 20) off
    # tau after up to 26 quadratures.  Fixed by u, confirmed by the
    # kernel at u, they land within 10 rtol in at most 4 kernel calls.
    rtol = 1e-10
    curve = period_curve(n, rtol)
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    for tau in _crowding_the_contact_end(curve, k.T0):
        kernel_calls.clear()
        orbit = curve.orbits([tau], params)[0]
        assert 1 <= len(kernel_calls) <= 4
        assert abs(orbit.T / tau - 1.0) <= 10.0 * rtol, f"tau = {tau / k.T0} T0"
        # the energy the orbit reports carries that period too
        T = period_quadrature(orbit.c, params, rtol=rtol).T
        assert abs(T / tau - 1.0) <= 10.0 * rtol, f"tau = {tau / k.T0} T0"


@pytest.mark.parametrize("n", [8, 12, 20])
def test_a_batch_of_orbits_matches_single_calls_bit_for_bit(n, kernel_calls):
    rtol = 1e-10
    curve = period_curve(n, rtol)
    params = ModelParams(n, 2.0, 2.0)
    taus = _crowding_the_contact_end(curve, derive_constants(params).T0)
    singles = [curve.orbits([tau], params)[0] for tau in taus]
    kernel_calls.clear()
    batch = curve.orbits(taus, params)
    assert batch == tuple(singles)
    # the whole batch lands in at most 4 kernel calls, the first on all of it
    assert 1 <= len(kernel_calls) <= 4 and kernel_calls[0] == len(taus)
    for orbit, tau in zip(batch, taus):
        assert abs(orbit.T / tau - 1.0) <= 10.0 * rtol
        assert orbit.nodes > 0 and 0.0 < orbit.err_est <= rtol


def test_period_curve_is_built_once_per_key(monkeypatch, kernel_calls):
    # the build runs no period_quadrature: calling one would raise TypeError
    monkeypatch.setattr(period_mod, "period_quadrature", None)
    # a key no other test uses, so its curve is not cached yet
    first = period_curve(7, 3e-10)
    # one kernel call per piece
    assert len(kernel_calls) == len(first.pieces) == 2
    assert sum(kernel_calls) == first.quadratures == 96
    assert period_curve(7.0, 3e-10) is first
    assert sum(kernel_calls) == 96


def test_period_curve_refuses_non_monotone_nodes(monkeypatch):
    def wobbly_kernel(u, n, rtol):
        # T/T0 of the old stub, 1 + 0.1 sin(40 a), with a = u^(n/2)
        ratio = 1.0 + 0.1 * np.sin(40.0 * u ** (n / 2.0))
        return period_mod._Periods(ratio, np.ones_like(u), np.zeros_like(u),
                                   np.ones(u.shape, dtype=int))

    monkeypatch.setattr(period_mod, "_period_kernel", wobbly_kernel)
    with pytest.raises(QuadratureNonConvergence, match="not strictly monotone"):
        period_curve(9, 3e-10)


def test_isochronous_period_curve_is_flat_and_free(monkeypatch, p4, k4):
    # n = 4 runs no kernel and no quadrature: calling one would raise TypeError
    monkeypatch.setattr(period_mod, "_period_kernel", None)
    monkeypatch.setattr(period_mod, "period_quadrature", None)
    curve = period_curve(4, 2e-10)
    assert curve.band == (1.0, 1.0)
    assert curve.quadratures == 0 and curve.err_est == 0.0 and curve.nodes == 0
    assert curve.orbits([1.01 * k4.T0], p4) == (None,)


def _carlson_period(n, R, Rt, c):
    """Orbit period at energy c from Carlson's R_F and R_J, for n = 3, 6, 8.

    Shares no code with the package.  In warp coordinates
    T = sqrt(2) (n/2) integral f^(n/2-1) df / sqrt(c + B f^(n-2) - A f^n).
    With y = f (n = 3, numerator and denominator times sqrt(f)) or
    y = f^2 (n = 6, 8) this is pref * integral y dy / sqrt(Q(y)) between
    the two positive roots y1 < y2 of a quartic
    Q = A (y - y1)(y2 - y)(y - r3)(y - r4).  The substitution
    y = y2 - (y2 - y1)/(1 + t) maps [y1, y2] onto [0, inf) and gives

        integral = (2 y2 R_F(0, x3, x4) - (2/3)(y2 - y1) R_J(0, x3, x4, 1))
                   / sqrt(A (y2 - r3)(y2 - r4)),   x_i = (y1 - r_i)/(y2 - r_i),

    where r3, r4 are real (n = 3, 6: zero and a negative root) or a
    complex pair (n = 8).  The roots come from numpy and are polished by
    Newton at 40 digits on the exact polynomial, which keeps the two
    close roots of a small orbit apart.
    """
    A = n * Rt / (8.0 * (n - 1.0))
    B = n * R / (4.0 * (n - 1.0)) / (2.0 - 4.0 / n)
    poly, pref = {
        3: ([-A, 0.0, B, c, 0.0], 1.5 * math.sqrt(2.0)),
        6: ([-A, B, 0.0, c, 0.0], 1.5 * math.sqrt(2.0)),
        8: ([-A, B, 0.0, 0.0, c], 2.0 * math.sqrt(2.0)),
    }[n]

    def polish(root):
        with mp.workdps(40):
            coeffs = [mp.mpf(v) for v in poly]
            slope = [k * v for k, v in zip(range(4, 0, -1), coeffs)]
            y = mp.mpf(float(root))
            for _ in range(12):
                y -= mp.polyval(coeffs, y) / mp.polyval(slope, y)
            return float(y)

    roots = np.roots(poly)
    real = np.sort(roots[np.abs(roots.imag) <= 1e-12 * np.abs(roots)].real)
    y1, y2 = polish(real[-2]), polish(real[-1])
    if n == 8:
        r3, r4 = roots[np.abs(roots.imag) > 1e-12 * np.abs(roots)]
    else:
        r3, r4 = 0.0, polish(real[0])
    x3 = (y1 - r3) / (y2 - r3)
    x4 = (y1 - r4) / (y2 - r4)
    integral = (2.0 * y2 * elliprf(0.0, x3, x4)
                - (2.0 / 3.0) * (y2 - y1) * elliprj(0.0, x3, x4, 1.0))
    return pref * float(np.real(integral / np.sqrt(A * (y2 - r3) * (y2 - r4))))


@pytest.mark.parametrize("case", [c for c in FROZEN_ORBITS if c[0] in (3, 6)],
                         ids=lambda c: f"n{c[0]}")
def test_carlson_oracle_matches_frozen_reference(case):
    n, R, Rt, c, _, _, T_ref = case
    assert _carlson_period(n, R, Rt, c) == pytest.approx(T_ref, rel=1e-14)


@pytest.mark.parametrize("n", [3, 6, 8])
def test_periods_match_carlson_oracle_over_the_clamped_band(n):
    rtol = 1e-10
    params = ModelParams(n, 2.0, 2.0)
    for c in energy_grid(params, 40, mode="symlog"):
        T = period_quadrature(float(c), params, rtol=rtol).T
        assert abs(T / _carlson_period(n, 2.0, 2.0, float(c)) - 1.0) <= 1e-12, f"c = {c}"
    # the curve's node periods, on the canonical parameters
    curve = period_curve(n, rtol)
    canon = n - 1.0
    A = n / 8.0
    B = n / 4.0 / (2.0 - 4.0 / n)
    for piece in curve.pieces:
        size = len(piece.coeffs)
        for x in np.cos(math.pi * (np.arange(size) + 0.5) / size):
            v = 0.5 * (piece.lo + piece.hi) + 0.5 * (piece.hi - piece.lo) * x
            u = math.exp(v) if piece.log else v
            a = u ** (n / 2.0)
            c = A * a**2 - B * a ** (2.0 - 4.0 / n)
            ref = _carlson_period(n, canon, canon, c) / (2.0 * math.pi)
            assert abs(curve.ratio(u) / ref - 1.0) <= 1e-12, f"u = {u}"


@pytest.mark.parametrize("n", [3, 5, 6, 8])
def test_contact_end_approaches_the_spherical_suspension(n):
    """f = alpha |sin(beta t)| solves the curvature equation exactly, with
    beta = sqrt(Rt/(n(n-1))) and alpha = f_star sqrt(n/(n-2)); its period
    pi/beta is sqrt(n)/2 T0.  Orbits dipping to u -> 0 approach it."""
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    beta = math.sqrt(params.Rt / (n * (n - 1.0)))
    alpha = k.f_star * math.sqrt(n / (n - 2.0))
    t = np.linspace(0.1, 3.0, 7) / beta
    residual = curvature_residual(alpha * np.sin(beta * t), alpha * beta * np.cos(beta * t),
                                  -alpha * beta**2 * np.sin(beta * t), params)
    assert np.max(np.abs(residual)) <= 1e-13 * params.R
    assert math.pi / beta == pytest.approx(math.sqrt(n) / 2.0 * k.T0, rel=1e-15)

    curve = period_curve(n, 1e-10)
    us = np.geomspace(0.5, curve.u_lo, 16)
    period_gap = [abs(curve.ratio(u) * k.T0 - math.pi / beta) for u in us]
    f_max_gap = np.abs(period_mod._period_kernel(us, n, 1e-10).f_max * k.f_star - alpha)
    assert all(g2 < g1 for g1, g2 in zip(period_gap, period_gap[1:]))
    assert all(g2 < g1 for g1, g2 in zip(f_max_gap, f_max_gap[1:]))


def test_orbits_report_their_nodes_and_error_estimate(p3):
    rtol = 1e-10
    spec = period_quadrature(FROZEN_ORBITS[0][3], p3, rtol=rtol)
    assert spec.nodes > 0 and 0.0 < spec.err_est <= rtol
    curve = period_curve(3, rtol)
    assert curve.nodes > curve.quadratures > 0
    tau = FROZEN_ORBITS[0][6]
    taus = [0.99 * tau, tau, 1.01 * tau]
    # every orbit carries the kernel's T, nodes and err_est
    for orbit, want in zip(curve.orbits(taus, p3), taus):
        assert orbit.nodes > 0 and 0.0 < orbit.err_est <= rtol
        assert abs(orbit.T / want - 1.0) <= 10.0 * rtol
