"""Turning points, the period kernel, energy scans and the period curve."""

import inspect
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebder, chebval
from scipy.optimize import brentq
from scipy.special import elliprf, elliprj

import warpcsc.period as period_mod
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
    scan_branches,
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
    # two Halley steps settle both turning points near the band ends,
    # but not the inner one in mid-band
    grid = [k5.c_min + s * abs(k5.c_min) for s in (1e-9, 0.5, 1.0 - 1e-9)]
    full = period_scan(grid, p5)
    monkeypatch.setattr(period_mod, "NEWTON_STEPS", 2)
    scan = period_scan(grid, p5)
    assert scan.entries[0] == full.entries[0] and scan.entries[2] == full.entries[2]
    assert scan.entries[1] is None
    [(idx, err)] = scan.failures
    assert idx == 1 and isinstance(err, QuadratureNonConvergence)
    assert "inner turning point did not settle in 2 Newton steps" in str(err)
    with pytest.raises(QuadratureNonConvergence, match="did not settle in 2 Newton steps"):
        turning_points(grid[1], p5)


def _halley_outer_root(u, n):
    """v by the bracketed Halley steps `_outer_root` takes above n = 4."""
    start = np.minimum(2.0 - u, math.sqrt(n / (n - 2.0)))
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat slope next to u = 1
        v, stuck = period_mod._bracketed_newton(
            lambda g: (period_mod._rise(1.0, g - 1.0, n), *period_mod._w_derivatives(g, n)),
            period_mod._rise(1.0, u - 1.0, n), start.copy(), lo=1.0, hi=start, rising=True,
            floor=0.0, scale=0.0)
    assert not stuck.size
    return v


def _ulps(a, b):
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


@pytest.mark.parametrize("n", [3, 4])
def test_the_quadratic_outer_turning_points_match_the_halley_solve(monkeypatch, n):
    """n = 3 and 4 take v in closed form and run no Halley step.  Over
    u in [1e-12, 1) it is within 1 ulp of the root in 40 digits, and
    within 3 ulps of the Halley solve, which strays up to 2 ulps from it
    (at u = 0.00507 for n = 3)."""
    rng = np.random.default_rng(35)
    u = np.concatenate([np.exp(rng.uniform(math.log(1e-12), 0.0, 20000)),
                        1.0 - np.exp(rng.uniform(math.log(1e-16), math.log(0.5), 20000))])
    u = u[u < 1.0]
    want = _halley_outer_root(u, n)
    monkeypatch.setattr(period_mod, "_bracketed_newton", None)
    got = period_mod._outer_root(u, n)
    assert _ulps(got, want).max() <= 3.0
    with mp.workdps(40):
        exact = [float((mp.sqrt(12 - 3 * mp.mpf(x) ** 2) - x) / 2 if n == 3
                       else mp.sqrt(2 - mp.mpf(x) ** 2)) for x in u[::100]]
    assert _ulps(got[::100], np.array(exact)).max() <= 1.0


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 1000), r=st.floats(1e-6, 1.0 - 1e-10))
def test_the_turning_points_of_a_ratio_match_the_outer_root(n, r):
    """(u, v) from r = u/v in closed form: v is `_outer_root` at u within
    4 ulps, wherever u^n is a normal float."""
    u, v = period_mod._ratio_turning_points(np.array([r]), n)
    assume(u[0] ** n >= np.finfo(float).tiny)
    assert u[0] == r * v[0]
    assert _ulps(v, period_mod._outer_root(u, n)).max() <= 4.0


@pytest.mark.parametrize("n", [3, 4, 5, 12, 1000])
def test_the_turning_points_of_a_ratio_reach_their_limits(n):
    """r -> 0 is contact, v -> sqrt(n/(n-2)); r -> 1 is the well bottom,
    where v - 1 -> (1 - r)/2, and r = 1 gives u = v = 1 exactly."""
    u, v = period_mod._ratio_turning_points(np.array([1e-300, 1e-20, 1.0 - 1e-9, 1.0]), n)
    assert _ulps(v[:2], math.sqrt(n / (n - 2.0))).max() <= 1.0
    assert v[2] - 1.0 == pytest.approx(0.5e-9, rel=1e-6)
    assert 1.0 - u[2] == pytest.approx(0.5e-9, rel=1e-6)
    assert u[3] == 1.0 and v[3] == 1.0


@pytest.fixture
def root_passes(monkeypatch):
    """Count the passes of `_bracketed_newton`, and record each
    `_outer_root` call as (orbits, passes it took); returns ([passes], calls)."""
    passes, calls = [0], []
    real_newton, real_outer = period_mod._bracketed_newton, period_mod._outer_root

    def counting_newton(curve, *args, **kwargs):
        def counted(x):
            passes[0] += 1
            return curve(x)
        return real_newton(counted, *args, **kwargs)

    def recording_outer(u, n):
        before = passes[0]
        v = real_outer(u, n)
        calls.append((np.size(u), passes[0] - before))
        return v

    monkeypatch.setattr(period_mod, "_bracketed_newton", counting_newton)
    monkeypatch.setattr(period_mod, "_outer_root", recording_outer)
    return passes, calls


@pytest.mark.parametrize("n", [3, 4, 5, 6, 12, 30])
def test_a_curve_solves_v_at_its_band_ends_only(monkeypatch, root_passes, n):
    """A fresh build solves v for its two band ends alone, and n = 3 for
    its hand-over orbit too, with Halley steps only where v has no closed
    form, n >= 5; `orbits` never solves v: every node and every inverted
    orbit takes both turning points from its key r = u/v."""
    monkeypatch.setattr(period_mod, "_cached_curve", period_mod._cached_curve.__wrapped__)
    _, calls = root_passes
    curve = period_curve(n, 1e-10)
    assert [orbits for orbits, passes in calls if passes] == ([2] if n >= 5 else [])
    assert sum(orbits for orbits, _ in calls) == (3 if n == 3 else 2)
    calls.clear()
    params = ModelParams(n, 2.0, 2.0)
    lo, hi = curve.band
    taus = np.linspace(lo, hi, 40) * derive_constants(params).T0
    assert None not in curve.orbits(list(taus), params)
    assert calls == []


@pytest.mark.parametrize("n", [3, 4, 5, 6, 12, 30])
def test_every_curve_is_keyed_by_the_ratio_of_its_band_ends(n):
    """A curve's keys are u/v of the orbits at its band ends."""
    curve = period_curve(n)
    ends = np.array([curve.u_lo, curve.u_hi])
    assert curve.keys == tuple((ends / period_mod._outer_root(ends, n)).tolist())


def test_n3_hands_over_at_the_orbit_of_the_contact_split():
    """n = 3's log-r contact piece hands over to its sqrt-r piece at the
    orbit u = CONTACT_SPLIT, within 4 ulps."""
    upper = period_curve(3).pieces[1]
    u = period_mod._ratio_turning_points(np.array([upper.start]), 3)[0][0]
    assert abs(u - period_mod.CONTACT_SPLIT) <= 4.0 * np.spacing(period_mod.CONTACT_SPLIT)


@pytest.mark.parametrize("n, R, Rt, budget", [(6, 1.0, 3.0, 5), (3, 8.0, 8.0, 6)])
def test_a_cold_diagram_takes_few_root_passes(monkeypatch, root_passes, n, R, Rt, budget):
    """A diagram on a fresh curve, counted in passes of `_bracketed_newton`
    over all its solves: the band ends, their v (n >= 5) and one inversion
    of every row.  Measured 4 at (6, 1, 3) and 5 at (3, 8, 8), where
    Halley steps stopped on Newton's error and every curve node solved v
    took 14 and 13."""
    monkeypatch.setattr(period_mod, "_cached_curve", period_mod._cached_curve.__wrapped__)
    passes, _ = root_passes
    params = ModelParams(n, R, Rt)
    diagram = scan_branches(3.5 * derive_constants(params).T0, params, 400)
    assert diagram.rows
    assert passes[0] <= budget


@pytest.mark.parametrize("n", [3, 5, 12])
def test_an_outer_turning_point_that_cannot_settle_fails_alone(monkeypatch, n):
    params = ModelParams(n, 2.0, 2.0)
    # Halley steps settle most outer turning points in three passes: the
    # finer grid holds energies whose inner one settles first.  n = 3
    # takes v in closed form, so only its inner turning points can fail
    grid = energy_grid(params, 41, mode="symlog", s_lo=1e-9, s_hi=1e-9)
    full = period_scan(grid, params)
    outer = []
    for steps in (1, 2, 3):
        monkeypatch.setattr(period_mod, "NEWTON_STEPS", steps)
        scan = period_scan(grid, params)
        failed = dict(scan.failures)
        for idx, (entry, settled) in enumerate(zip(scan.entries, full.entries)):
            if idx not in failed:
                assert entry == settled
                continue
            assert entry is None
            err = failed[idx]
            assert isinstance(err, QuadratureNonConvergence)
            assert re.match(f"(inner|outer) turning point did not settle in {steps} Newton steps",
                            str(err)), str(err)
            if str(err).startswith("outer"):
                outer.append(idx)
                # a single quadrature raises the same text; the kernel
                # accepts no orbit whose f_max did not settle
                with pytest.raises(QuadratureNonConvergence) as single:
                    period_quadrature(grid[idx], params)
                assert str(single.value) == str(err)
    assert bool(outer) == (n >= 5)


def test_turning_points_name_an_outer_turning_point_that_cannot_settle(monkeypatch, p5):
    # two Halley steps leave some outer turning points of the grid moving
    grid = energy_grid(p5, 41, mode="symlog", s_lo=1e-9, s_hi=1e-9)
    monkeypatch.setattr(period_mod, "NEWTON_STEPS", 2)
    outer = [(idx, str(err)) for idx, err in period_scan(grid, p5).failures
             if str(err).startswith("outer")]
    assert outer
    for idx, message in outer:
        with pytest.raises(QuadratureNonConvergence) as raised:
            turning_points(grid[idx], p5)
        assert str(raised.value) == message
        assert re.fullmatch(r"outer turning point did not settle in 2 Newton steps for "
                            r"n = 5 at u = 0\.\d+(e-\d+)?", message), message


@pytest.mark.parametrize("n", [3, 5, 12])
def test_a_scan_fails_exactly_the_orbits_whose_outer_turning_point_is_unsettled(monkeypatch, n):
    """With `_outer_root` made to leave every third orbit's v unsettled
    (NaN), the scan fails exactly those energies, each with the text that
    names its u, and keeps every other entry's bits; `turning_points` and
    `period_quadrature` raise the same text for each of them."""
    params = ModelParams(n, 2.0, 2.0)
    grid = energy_grid(params, 30, mode="symlog")
    full = period_scan(grid, params)
    assert not full.failures
    want = {j: f"outer turning point did not settle in {period_mod.NEWTON_STEPS} Newton steps "
               f"for n = {n} at u = {full.entries[j].u}" for j in range(0, len(grid), 3)}
    unsettled = [full.entries[j].u for j in want]
    real_outer_root = period_mod._outer_root

    def unsettling_outer_root(u, n):
        return np.where(np.isin(u, unsettled), np.nan, real_outer_root(u, n))

    monkeypatch.setattr(period_mod, "_outer_root", unsettling_outer_root)
    scan = period_scan(grid, params)
    assert [j for j, _ in scan.failures] == sorted(want)
    for j, err in scan.failures:
        assert type(err) is QuadratureNonConvergence and str(err) == want[j]
        for route in (turning_points, period_quadrature):
            with pytest.raises(QuadratureNonConvergence) as raised:
                route(grid[j], params)
            assert str(raised.value) == want[j]
    for j, (entry, settled) in enumerate(zip(scan.entries, full.entries)):
        assert entry == (None if j in want else settled)


@pytest.mark.parametrize("n", [3, 5, 12])
def test_a_curve_whose_band_ends_cannot_settle_raises_typed(monkeypatch, n):
    """With no Halley steps no band end settles, and with one n = 12's
    contact end does not: the build raises the inner solve's own
    QuadratureNonConvergence, where it used to unpack the short list of
    the ends settled into a bare ValueError.  A curve built before the
    budget shrank refuses a u whose v does not settle, where `ratio`
    gave NaN; n = 3 takes v in closed form and keeps its value."""
    monkeypatch.setattr(period_mod, "_cached_curve", period_mod._cached_curve.__wrapped__)
    curve = period_curve(n)
    settled = curve.ratio(0.5)
    for steps in (0, 1) if n == 12 else (0,):
        monkeypatch.setattr(period_mod, "NEWTON_STEPS", steps)
        with pytest.raises(QuadratureNonConvergence,
                           match=f"^inner turning point did not settle in {steps} Newton steps"):
            period_curve(n)
        if n == 3:
            assert curve.ratio(0.5) == settled
            continue
        with pytest.raises(QuadratureNonConvergence,
                           match=f"^outer turning point did not settle in {steps} Newton steps "
                                 f"for n = {n} at u = 0.5$"):
            curve.ratio(0.5)
        with pytest.raises(QuadratureNonConvergence, match="outer turning point"):
            curve.ratio(np.array([[curve.u_hi, 0.5]]))


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


def test_an_inversion_that_misses_its_period_raises(monkeypatch, p3):
    # the curve misses the skewed kernel by 1e-6, far past 10 rtol: nothing
    # is polished, and the message names the miss and the knob
    curve = period_curve(3, 1e-10)  # built before the kernel is skewed
    real_kernel = period_mod._period_kernel

    def skewed_kernel(*args):
        periods = real_kernel(*args)
        return periods._replace(ratio=periods.ratio * (1.0 + 1e-6))

    monkeypatch.setattr(period_mod, "_period_kernel", skewed_kernel)
    tau = FROZEN_ORBITS[0][6]
    with pytest.raises(QuadratureNonConvergence) as raised:
        curve.orbits([tau], p3)
    message = str(raised.value)
    assert f"tau/T0 = {tau / derive_constants(p3).T0}" in message
    assert "by 1e-06" in message
    assert "rtol = 1e-10" in message
    assert message.endswith("loosen --rtol")


def _held_out(curve, per_piece=13):
    """u points of every piece that are not its nodes (each piece is keyed
    by r = u/v)."""
    us = []
    for piece in curve.pieces:
        x = np.linspace(-1.0, 1.0, per_piece + 2)[1:-1] + 0.037
        us += period_mod._ratio_turning_points(piece.y_of(x), curve.n)[0].tolist()
    return [u for u in us if curve.u_lo <= u <= curve.u_hi]


def _quadrature_ratio(n, u, rtol):
    # the orbit at u on the canonical parameters, where T0 = 2 pi
    params = ModelParams(n, n - 1.0, n - 1.0)
    k = derive_constants(params)
    c = potential(u ** (n / 2.0), params)
    return period_quadrature(c, params, rtol=rtol).T / k.T0


@pytest.mark.parametrize("n", [3, 5, 6, 8, 12, 20])
def test_period_curve_matches_quadrature(n):
    curve = period_curve(n)
    # n = 3 adds its contact piece in log r to the upper piece in sqrt r
    assert curve.quadratures == (88 if n == 3 else 56)
    for u in _held_out(curve):
        ref = _quadrature_ratio(n, u, 1e-11)
        assert abs(curve.ratio(u) / ref - 1.0) <= period_mod.KERNEL_RTOL, f"u = {u}"


@pytest.mark.parametrize("n", [3, 5, 12])
def test_a_curve_refuses_a_u_outside_its_band(monkeypatch, n):
    """ratio(u) outside [u_lo, u_hi], NaN included, raises DomainError
    naming u and the band, before any solve; in the band, the ends
    included, it is the piece's value at u/v, alone or in a batch."""
    curve = period_curve(n)
    inside = [curve.u_lo, curve.u_hi, math.sqrt(curve.u_lo * curve.u_hi)]
    alone = [curve.ratio(u) for u in inside]
    assert np.array(alone).tobytes() == curve.ratio(inside).tobytes()
    u = np.array(inside)
    assert curve.ratio(u).tobytes() == curve._at(u / period_mod._outer_root(u, n)).tobytes()

    def no_solve(u, n):
        raise AssertionError("solved v for a u outside the band")

    monkeypatch.setattr(period_mod, "_outer_root", no_solve)
    outside = [curve.u_lo / 2.0, np.nextafter(curve.u_lo, 0.0), np.nextafter(curve.u_hi, 2.0),
               1.2, 0.0, -0.5, math.nan]
    if 1e-9 < curve.u_lo:
        outside.append(1e-9)
    band = f"[{curve.u_lo}, {curve.u_hi}]"
    for u in outside:
        with pytest.raises(DomainError, match=re.escape(f"u = {u} outside")) as raised:
            curve.ratio(u)
        assert band in str(raised.value)
        with pytest.raises(DomainError, match=re.escape(f"u = {u} outside")):
            curve.ratio([*inside, u])


@pytest.mark.parametrize("n", [8, 12, 20])
def test_period_curve_error_estimate_and_polish_near_contact(n, kernel_calls):
    rtol = 1e-10
    curve = period_curve(n, rtol)
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    lo, hi = curve.band
    for ratio in np.linspace(lo, hi, 14)[1:-1]:
        tau = float(ratio) * k.T0
        kernel_calls.clear()
        orbit = curve.orbits([tau], params)[0]
        # one kernel call confirms the orbit, and nothing is polished
        assert kernel_calls == [1]
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
    # kernel at u, they land within 10 rtol in one kernel call.
    rtol = 1e-10
    curve = period_curve(n, rtol)
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    for tau in _crowding_the_contact_end(curve, k.T0):
        kernel_calls.clear()
        orbit = curve.orbits([tau], params)[0]
        assert kernel_calls == [1]
        assert abs(orbit.T / tau - 1.0) <= 10.0 * rtol, f"tau = {tau / k.T0} T0"
        # the energy the orbit reports carries that period too
        T = period_quadrature(orbit.c, params, rtol=rtol).T
        assert abs(T / tau - 1.0) <= 10.0 * rtol, f"tau = {tau / k.T0} T0"


@pytest.mark.parametrize("n", [3, 5, 8, 12, 20, 30])
def test_a_batch_of_orbits_matches_single_calls_bit_for_bit(n, kernel_calls):
    rtol = 1e-10
    curve = period_curve(n, rtol)
    params = ModelParams(n, 2.0, 2.0)
    taus = _crowding_the_contact_end(curve, derive_constants(params).T0)
    singles = [curve.orbits([tau], params)[0] for tau in taus]
    kernel_calls.clear()
    batch = curve.orbits(taus, params)
    assert batch == tuple(singles)
    # one kernel call confirms the whole batch
    assert kernel_calls == [len(taus)]
    for orbit, tau in zip(batch, taus):
        assert abs(orbit.T / tau - 1.0) <= 10.0 * rtol
        assert orbit.nodes > 0 and 0.0 < orbit.err_est <= rtol


def test_period_curve_is_built_once_per_key(monkeypatch, kernel_calls):
    # the build runs no period_quadrature: calling one would raise TypeError
    monkeypatch.setattr(period_mod, "period_quadrature", None)
    # a key no other test uses, so its curve is not cached yet
    first = period_curve(3, 3e-10)
    # one kernel call takes the nodes of both pieces
    assert len(first.pieces) == 2
    assert kernel_calls == [88] and first.quadratures == 88
    assert period_curve(3.0, 3e-10) is first
    assert kernel_calls == [88]


@pytest.mark.parametrize("side", ["contact", "upper"])
def test_a_period_inverts_on_its_own_piece_only(monkeypatch, side):
    # a fresh two-piece curve, built outside the per-process cache
    curve = period_mod._cached_curve.__wrapped__(ModelParams(3, 2.0, 2.0), 1e-10)
    contact, upper = curve.pieces
    mine = contact if side == "contact" else upper
    u = 0.01 if side == "contact" else 0.5
    entered = []
    real_root = period_mod._ChebSeries.root

    def recording_root(self, target, a, b):
        entered.append(self)
        return real_root(self, target, a, b)

    monkeypatch.setattr(period_mod._ChebSeries, "root", recording_root)
    orbit = curve.orbits([float(curve.ratio(u)) * 2.0 * math.pi], ModelParams(3, 2.0, 2.0))[0]
    assert entered == [mine]
    # the other piece built no inversion table either
    other = upper if mine is contact else contact
    assert "table" in vars(mine) and "table" not in vars(other)
    assert orbit.u == pytest.approx(u, rel=1e-8)


def test_period_curve_refuses_non_monotone_nodes(monkeypatch):
    def wobbly_kernel(u, n, rtol, v):
        # T/T0 of the old stub, 1 + 0.1 sin(40 a), with a = u^(n/2)
        ratio = 1.0 + 0.1 * np.sin(40.0 * u ** (n / 2.0))
        return period_mod._Periods(ratio, np.zeros_like(u), np.ones(u.shape, dtype=int))

    monkeypatch.setattr(period_mod, "_period_kernel", wobbly_kernel)
    with pytest.raises(QuadratureNonConvergence, match="not strictly monotone"):
        period_curve(9, 3e-10)


def test_isochronous_period_curve_is_flat_and_free(monkeypatch, p4, k4):
    # n = 4 runs no kernel and no quadrature: calling one would raise TypeError
    monkeypatch.setattr(period_mod, "_period_kernel", None)
    monkeypatch.setattr(period_mod, "period_quadrature", None)
    curve = period_curve(4, 2e-10)
    assert curve.band == (1.0, 1.0)
    assert curve.quadratures == 0 and curve.nodes == 0
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
            # every piece keys its nodes by r = u/v
            u = float(period_mod._ratio_turning_points(np.array([piece.y_of(x)]), n)[0][0])
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
    f_max_gap = np.abs(period_mod._outer_root(us, n) * k.f_star - alpha)
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


@pytest.mark.parametrize("n", [3, 5, 12])
def test_every_orbit_carries_the_u_its_period_came_from(n):
    """The kernel at an orbit's u and v gives back its T bit for bit, on every route."""
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    rtol = 1e-10
    grid = energy_grid(params, 8, mode="symlog")
    scanned = [spec for spec in period_scan(grid, params, rtol=rtol).entries if spec is not None]
    single = [period_quadrature(grid[3], params, rtol=rtol)]
    curve = period_curve(n, rtol)
    lo, hi = curve.band
    taus = [(lo + (hi - lo) * w) * k.T0 for w in (0.01, 0.3, 0.7, 0.99)]
    inverted = list(curve.orbits(taus, params))
    assert len(scanned) == 8 and None not in inverted
    for spec in scanned + single + inverted:
        periods = period_mod._period_kernel(np.array([spec.u]), n, rtol, np.array([spec.v]))
        assert float(periods.ratio[0]) * k.T0 == spec.T


@pytest.mark.parametrize("n", [3, 5, 12, 30])
def test_the_kernel_takes_both_turning_points_and_solves_neither(monkeypatch, n):
    """`_period_kernel` and `_certified` take v from their caller, with no
    default: with `_outer_root` made to raise, both give a scan's T, nodes
    and err_est from its orbits' u and v bit for bit, and the arrays of
    the per-half-orbit loop."""
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    rtol = 1e-10
    specs = period_scan(energy_grid(params, 24, mode="symlog"), params, rtol=rtol).entries
    assert None not in specs
    u, v = np.array([[spec.u, spec.v] for spec in specs]).T
    want = _kernel_by_half_orbits(u, n, rtol, v)

    def no_solve(u, n):
        raise AssertionError("the kernel solved v")

    monkeypatch.setattr(period_mod, "_outer_root", no_solve)
    assert period_mod._Periods._fields == ("ratio", "err_est", "nodes")
    for kernel in (period_mod._period_kernel, period_mod._certified):
        assert inspect.signature(kernel).parameters["v"].default is inspect.Parameter.empty
        got = kernel(u, n, rtol, v)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (got.ratio * k.T0).tolist() == [spec.T for spec in specs]
        assert got.nodes.tolist() == [spec.nodes for spec in specs]
        assert got.err_est.tolist() == [spec.err_est for spec in specs]



def _mp_digits(u, n):
    """Digits for `_mp_gap_factor` that absorb the cancellation of its
    difference near contact, where p(u) ~ u^(n-3) and its terms ~ 1."""
    return 30 + math.ceil((n - 3) * max(0.0, -math.log10(u)))


def _mp_gap_factor(u, n, fractions):
    """v of the orbit at u and p = w[u, v, g] at g = u + (v - u) s for each
    s of fractions, in mpmath at its working precision: v by bracketed
    root finding on w(v) = w(u), p = a h_(n-2)(u, v, g) - h_(n-4)(u, v, g)
    summed directly."""
    a = mp.mpf(n - 2) / n
    U = mp.mpf(u)
    wu = a * U**n - U ** (n - 2)
    V = mp.findroot(lambda g: a * g**n - g ** (n - 2) - wu, (mp.mpf(1), mp.sqrt(1 / a)),
                    solver="illinois")
    values = []
    for s in fractions:
        g = U + (V - U) * s
        h2, power, h3, h = mp.mpf(0), mp.mpf(1), mp.mpf(0), []
        for _ in range(n - 1):
            h2, power = V * h2 + power, power * U  # h_k(u, v)
            h3 = g * h3 + h2  # h_k(u, v, g)
            h.append(h3)
        values.append(a * h[n - 2] - (h[n - 4] if n >= 4 else 0))
    return V, values


@pytest.mark.parametrize("n, us", [(3, [1e-9, 1e-3, 0.5, 0.999999]), (4, [1e-6, 0.7]),
                                   (5, [1e-6, 0.01, 0.6]), (8, [1e-4, 0.3]),
                                   (12, [1e-3, 0.1, 0.9]), (20, [0.01, 0.3, 0.9999]),
                                   (21, [1e-6, 0.3, 0.9999]), (40, [0.2, 0.6, 0.99999]),
                                   (100, [1e-3, 0.5, 0.8, 0.999]), (1000, [0.5, 0.99])])
def test_gap_factor_keeps_its_digits_down_to_contact(n, us):
    """p = w[u, v, g] from `_gap_factor`, on the kernel's v, agrees with
    the divided difference summed at high precision across [u, v], its
    ends included.  Horner's sum, up to HORNER_DIMENSION, is within
    4 n eps; the plain coefficients a h_(m+2) - h_m would lose every digit
    of p(u) ~ u^(n-3) at contact.  The anchored gap above it is within
    4 (n (1 + |log u|) + 1/(v - u)) eps: its exponentials carry n log(g/u)
    and its two anchors, each exact for its own turning point, differ by
    the rounding of v, which weighs 1/(v - u) near the well bottom."""
    fractions = [0.0, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-9, 1.0]
    # past the middle, g is written from v with sin2 = 1 - s, exact in floats
    s = np.array(fractions)
    upper = s > 0.5
    for u in us:
        v = float(period_mod._outer_root(np.array([u]), n)[0])
        got = period_mod._gap_factor(np.where(upper, v, u), np.where(upper, u, v),
                                     np.where(upper, 1.0 - s, s), n)[1]
        with mp.workdps(_mp_digits(u, n)):
            ref = np.array([float(x) for x in _mp_gap_factor(u, n, fractions)[1]])
        if n <= period_mod.HORNER_DIMENSION:
            bound = 4.0 * n
        else:
            bound = 4.0 * (n * (1.0 - math.log(u)) + 1.0 / (v - u))
        assert np.max(np.abs(got / ref - 1.0)) <= bound * np.finfo(float).eps, u


def _mp_period_ratio(u, n):
    """T/T0 of the orbit at u in mpmath, with the change of its value
    when the rule is halved: (sqrt(n-2)/pi) times the integral of
    g^(n/2-1)/sqrt(p(g)) over theta in [-pi/2, pi/2], g = m + r sin(theta),
    a function of sin(theta) and so half a periodic integral, by the
    trapezoid rule on 256 points of the circle, against 128."""
    half = 128
    with mp.workdps(_mp_digits(u, n)):
        fractions = [(1 + mp.sin(mp.pi * (mp.mpf(k) / half - 0.5))) / 2
                     for k in range(half + 1)]
        V, p = _mp_gap_factor(u, n, fractions)
        U = mp.mpf(u)
        values = [(U + (V - U) * s) ** (mp.mpf(n) / 2 - 1) / mp.sqrt(q)
                  for s, q in zip(fractions, p)]
        fine = mp.pi / half * (sum(values) - (values[0] + values[-1]) / 2)
        coarse = 2 * mp.pi / half * (sum(values[::2]) - (values[0] + values[-1]) / 2)
        return float(mp.sqrt(n - 2) / mp.pi * fine), float(abs(fine / coarse - 1))


@pytest.mark.parametrize("n, extra", [(20, []), (30, []), (40, [0.2]), (60, []),
                                      (100, [0.5])])
def test_kernel_matches_mpmath_beyond_n_12(n, extra):
    """Five orbits across the curve's band, and two where the plain
    anchored difference from v, a v^2 expm1(n L) - expm1((n-2) L), cancels
    near contact, which put a kernel built on it 1.3e-9 off at n = 40,
    u = 0.2 (err_est 4.4e-11) and left n = 100, u = 0.5 unaccepted: at
    rtol 1e-8, 1e-10 and
    1e-12 every period lies within rtol of the high-precision one, and
    err_est understates its error by at most 10 times."""
    curve = period_curve(n)
    for u in [*np.geomspace(curve.u_lo, curve.u_hi, 5).tolist(), *extra]:
        ref, halving = _mp_period_ratio(u, n)
        assert halving <= 1e-12, u  # the reference itself has settled
        for rtol in (1e-8, 1e-10, 1e-12):
            periods = period_mod._period_kernel(np.array([u]), n, rtol,
                                                period_mod._outer_root(np.array([u]), n))
            error = abs(periods.ratio[0] / ref - 1.0)
            assert periods.nodes[0] and error <= rtol, (u, rtol)
            assert error <= 10.0 * periods.err_est[0], (u, rtol)


def _mp_tanh_sinh_ratio(u, n):
    """T/T0 of the orbit at u in 40-digit mpmath: (sqrt(n-2)/pi) times the
    integral of g^(n/2-1)/sqrt(w(u) - w(g)) over g in [u, v], by
    tanh-sinh quadrature, with v from `findroot`."""
    with mp.workdps(40):
        U, N = mp.mpf(u), mp.mpf(n)

        def w(g):
            return (N - 2) / N * g**n - g ** (n - 2)

        V = mp.findroot(lambda g: w(g) - w(U), mp.sqrt(N / (N - 2)))
        integral = mp.quad(lambda g: g ** (N / 2 - 1) / mp.sqrt(w(U) - w(g)), [U, V],
                           method="tanh-sinh")
        return float(mp.sqrt(N - 2) / mp.pi * integral)


@pytest.mark.parametrize("n", [20, 30])
def test_the_kernel_settles_near_contact_beyond_n_12(n):
    """Below the clamped band, at u = 1e-6, 1e-4 and 1e-2, the kernel
    certifies the period at rtol 1e-10 within 1e-12 of a tanh-sinh
    reference, where once its levels stalled at changes of 1e-9 (n = 30)
    and 1e-12 (n = 20)."""
    u = np.array([1e-6, 1e-4, 1e-2])
    periods = period_mod._certified(u, n, 1e-10, period_mod._outer_root(u, n))
    for j, uj in enumerate(u.tolist()):
        assert abs(periods.ratio[j] / _mp_tanh_sinh_ratio(uj, n) - 1.0) <= 1e-12, uj


def test_an_integrand_below_the_float_range_fails_typed():
    """At n = 100 and u = 1e-8, u^n underflows: the orbit fails with
    an error naming n, u and the float range, its batch-mate keeps the
    bits it has alone, and no NaN reaches the period."""
    u = np.array([1e-8, 0.5])
    v = period_mod._outer_root(u, 100)
    periods = period_mod._period_kernel(u, 100, 1e-10, v)
    alone = period_mod._period_kernel(u[1:], 100, 1e-10, v[1:])
    assert periods.nodes[0] == 0 and periods.ratio[0] == 0.0
    assert [a[1] for a in periods] == [a[0] for a in alone]
    with pytest.raises(QuadratureNonConvergence,
                       match=r"n = 100 at u = 1e-08: u\^n is below the smallest normal "
                             r"float, so the integrand leaves the float range"):
        period_mod._certified(u[::-1], 100, 1e-10, v[::-1])


@pytest.mark.parametrize("n", [21, 100, 1000])
def test_the_anchored_gap_matches_horners_sum(monkeypatch, n):
    """Above HORNER_DIMENSION the kernel takes p from the anchored gap;
    Horner's sum, forced on the same orbits across the band, gives the
    same periods within 20 n eps, and the same node counts."""
    curve = period_curve(n)
    u = np.geomspace(curve.u_lo, curve.u_hi, 9)
    v = period_mod._outer_root(u, n)
    anchored = period_mod._period_kernel(u, n, 1e-12, v)
    monkeypatch.setattr(period_mod, "HORNER_DIMENSION", n)
    horner = period_mod._period_kernel(u, n, 1e-12, v)
    assert anchored.nodes.all() and np.array_equal(anchored.nodes, horner.nodes)
    assert np.max(np.abs(anchored.ratio / horner.ratio - 1.0)) <= 20 * n * np.finfo(float).eps


@pytest.mark.parametrize("n, rtol", [(10**5, 1e-10), (10**6, 1e-10), (10**8, 1e-6)])
def test_a_large_dimension_builds_its_curve(n, rtol):
    """A node costs the same whatever n above HORNER_DIMENSION, so a
    dimension in the millions builds its period curve like a small one.
    Its band runs from T0, within rtol, at the well bottom to the contact
    end, which settles near 2.3139 T0 as n grows (2.3139 at n = 10^5,
    2.31394 at 10^8); both ends are certified by the kernel."""
    curve = period_curve(n, rtol)
    lo, hi = curve.band
    assert abs(lo - 1.0) <= 10 * rtol and 2.3138 < hi < 2.3140
    u = np.array([curve.u_lo, curve.u_hi])
    ends = period_mod._certified(u, n, rtol, period_mod._outer_root(u, n))
    assert np.allclose(ends.ratio, [hi, lo], rtol=10 * rtol, atol=0.0)


@pytest.mark.parametrize("n", [3, 5, 6, 8, 12, 20, 40, 100])
def test_the_curve_fits_the_kernel_over_its_clamped_band(n):
    """800 orbits uniform in sqrt u and 800 uniform in log u over
    [u_lo, u_hi]: the curve's T/T0 within 1e-12 of the kernel's at rtol
    1e-13.  The fit in u erred 2e-12 at n = 40 and 1.6e-11 at n = 100,
    next to the well bottom."""
    curve = period_curve(n)
    root = np.linspace(math.sqrt(curve.u_lo), math.sqrt(curve.u_hi), 800)
    u = np.clip(np.concatenate([root * root, np.geomspace(curve.u_lo, curve.u_hi, 800)]),
                curve.u_lo, curve.u_hi)
    ref = period_mod._certified(u, n, 1e-13, period_mod._outer_root(u, n)).ratio
    assert np.max(np.abs(curve.ratio(u) / ref - 1.0)) <= 1e-12


@pytest.mark.parametrize("n, rtol", [(80, 3e-13), (40, 1e-13), (100, 1e-12)])
def test_a_tight_rtol_lands_every_period_of_a_large_dimension(n, rtol):
    """248 periods across the band, one batch: every orbit lands within
    LANDING_FACTOR rtol.  The fit in u missed 12, 2 and 2 of them, next to
    the well bottom, by up to 1.1e-11, 2.1e-12 and 1.6e-11."""
    curve = period_curve(n, rtol)
    params = ModelParams(n, 2.0, 2.0)
    lo, hi = curve.band
    taus = np.linspace(lo, hi, 250)[1:-1] * derive_constants(params).T0
    orbits = curve.orbits(list(taus), params)
    assert None not in orbits
    for orbit, tau in zip(orbits, taus):
        assert abs(orbit.T / tau - 1.0) <= period_mod.LANDING_FACTOR * rtol


def _sum_cases():
    """1, 2, 3, 33 and 65 coefficients, as (N,) and (N, 2), and points x:
    scalars, 1 to 4 points with the ends, and sizes either side of FEW_POINTS."""
    rng = np.random.default_rng(18)
    few = period_mod.FEW_POINTS
    xs = [0.3, -1.0, 1.0, np.array([0.25]), np.array([-1.0, 1.0]),
          np.array([-1.0, -0.1, 0.7]), np.array([1.0, -1.0, 0.5, -0.5]),
          rng.uniform(-1.0, 1.0, few), rng.uniform(-1.0, 1.0, few + 1),
          np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, 3 * few)])]
    for degree in (1, 2, 3, 33, 65):
        for shape in ((degree,), (degree, 2)):
            coeffs = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            for j, x in enumerate(xs):
                yield pytest.param(coeffs, x, id=f"{'x'.join(map(str, shape))}-x{j}")


@pytest.mark.parametrize("coeffs, x", list(_sum_cases()))
def test_few_point_chebyshev_sums_are_numpys_bit_for_bit(coeffs, x):
    got = period_mod._chebval(x, coeffs)
    want = np.polynomial.chebyshev.chebval(x, coeffs)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_few_point_sums_run_in_python_floats(monkeypatch):
    # the threshold selects the route: numpy's chebval is never called at
    # or below it, and always called above it
    calls = []
    monkeypatch.setattr(period_mod, "chebval", lambda x, c: calls.append(np.size(x)))
    coeffs = np.arange(1.0, 34.0)
    few = period_mod.FEW_POINTS
    period_mod._chebval(np.linspace(-1.0, 1.0, few), coeffs)
    period_mod._chebval(0.5, np.stack([coeffs, coeffs], axis=1))
    assert calls == []
    period_mod._chebval(np.linspace(-1.0, 1.0, few + 1), coeffs)
    assert calls == [few + 1]


def _root_series(name):
    """A series to invert and its [a, b]: the flat n = 4 curve, a falling
    2-coefficient series on [-1, 1] and on part of it, both pieces of the
    n = 3 curve on their own spans, and a profile's t(theta) at n = 5."""
    curve = period_curve({"flat-n4": 4, "profile": 5}.get(name, 3))
    if name == "flat-n4":
        return curve.pieces[0], -1.0, 1.0
    if name.startswith("line"):
        line = period_mod._ChebSeries(-1.0, 1.0, "linear", np.array([0.3, -1.7]))
        return (line, -1.0, 1.0) if name == "line" else (line, -0.4, 0.75)
    if name == "profile":
        orbit = curve.orbits([1.05 * derive_constants(ModelParams(5, 2.0, 2.0)).T0],
                             ModelParams(5, 2.0, 2.0))[0]
        series = period_mod._orbit_samples(orbit.u, orbit.v, 5, np.zeros(1), 1.0, 1e-10)[2]
        return series, -1.0, 1.0
    contact, upper = curve.pieces
    lo, hi = (curve.keys[0], upper.start) if name == "contact" else (upper.start, curve.keys[1])
    piece = contact if name == "contact" else upper
    return piece, piece.x_of(lo), piece.x_of(hi)


@pytest.mark.parametrize("name", ["flat-n4", "line", "line-part", "contact", "upper",
                                  "profile"])
def test_series_roots_do_not_depend_on_their_batch(name):
    """The values at a and at b and 14 between, each inverted alone and in
    batches of sizes either side of FEW_POINTS and of 512: the same bits,
    every root in [a, b] and on its target to the series' roundoff."""
    series, a, b = _root_series(name)
    rng = np.random.default_rng(28)
    targets = period_mod._chebval(np.linspace(a, b, 16), series.coeffs)
    alone = np.array([series.root(targets[j:j + 1], a, b)[0] for j in range(16)])
    assert np.all((a <= alone) & (alone <= b))
    roundoff = 8.0 * np.finfo(float).eps * np.abs(series.coeffs).sum()
    assert np.all(np.abs(period_mod._chebval(alone, series.coeffs) - targets) <= roundoff)
    if name == "flat-n4":
        assert np.all(alone == a)
    few = period_mod.FEW_POINTS
    for size in (few, few + 1, 512):
        extra = period_mod._chebval(rng.uniform(a, b, size - 16), series.coeffs)
        order = rng.permutation(size)
        got = np.empty(size)
        got[order] = series.root(np.concatenate([targets, extra])[order], a, b)
        assert got[:16].tobytes() == alone.tobytes(), size


def test_the_time_map_is_the_integral_of_the_fit():
    """The series of t(theta) that `_orbit_samples` settles on, at n = 3, 5
    and 12 in mid-band and at n = 3 near contact, where it takes 512
    nodes: its x-derivative is the fit of (pi/2) dt/dtheta, to a few eps
    of the fit's size, and reproduces it at the settled nodes to the
    fit's own roundoff, which grows with the node count as the cosine
    transform's angles k phi_j do (37 and 204 eps of the size at 64 and
    512 nodes); t vanishes at the inner turning point to roundoff, and
    the half period returned is the series' value at x = 1, bit for bit."""
    eps = np.finfo(float).eps
    for n, s, degree in ((3, 0.5, 64), (5, 0.5, 64), (12, 0.5, 64), (3, 1.0 - 1e-6, 512)):
        params = ModelParams(n, 2.0, 2.0)
        k = derive_constants(params)
        orbit = period_quadrature(k.c_min + s * abs(k.c_min), params)
        _, _, series, half_period, _ = period_mod._orbit_samples(
            orbit.u, orbit.v, n, np.zeros(1), 1.0, 1e-10)
        coeffs = series.coeffs
        size = coeffs.size - 1
        assert size == degree, (n, s)
        x = np.cos(period_mod._cheb_angles(size))
        turn, other, half = period_mod._arc(x, orbit.u, orbit.v)
        rate = 0.5 * math.pi * math.sqrt(n - 2.0) * period_mod._integrand(
            turn, other, np.sin(half) ** 2, n)
        slope = chebder(coeffs)
        fit = period_mod._fit_matrix(size) @ rate
        assert np.abs(slope - fit).max() <= 4.0 * eps * np.abs(fit).sum(), (n, s)
        assert np.abs(chebval(x, slope) - rate).max() <= size * eps * np.abs(slope).sum(), (n, s)
        assert abs(chebval(-1.0, coeffs)) <= 4.0 * eps * np.abs(coeffs).sum(), (n, s)
        assert half_period == series.value(1.0) == chebval(1.0, coeffs), (n, s)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(8, 512), seed=st.integers(0, 2**32 - 1), decay=st.floats(1e-3, 2.0))
def test_the_derivative_columns_are_numpys_chebder(size, seed, decay):
    """Each derivative column matches numpy's chebder of the series, taken
    one, two and three times, within 4 eps times the sum of its
    magnitudes (the worst of 3000 scratch draws read 1.4)."""
    c = np.random.default_rng(seed).standard_normal(size) * np.exp(-decay * np.arange(size))
    columns = period_mod._ChebSeries(-1.0, 1.0, "linear", c).derivative_coeffs
    want = columns[:, 0]
    assert columns.shape[1] == 4 and np.array_equal(want, c[:want.size])
    for k in (1, 2, 3):
        want = chebder(want)
        got = columns[:want.size, k]
        assert np.all(columns[want.size:, k] == 0.0)
        assert np.abs(got - want).max() <= 4.0 * np.finfo(float).eps * np.abs(want).sum()


def _arrays(value):
    """Every ndarray a cached value holds: in tuples, named tuples such as
    a period curve included, and in a series' coefficients and cached
    tables."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, period_mod._ChebSeries):
        yield from (value.coeffs, value.derivative_coeffs, value.table)


@pytest.mark.parametrize("size", [1, 2, 33, 65])
def test_cached_trig_matrices_are_read_only(size):
    """One value serves every caller of its cache, so no caller may write
    to it.  Every lru_cache of `period`, found by its cache_info, is called
    here, so a cache added later fails this test until its values are
    checked too."""
    calls = {
        "_fit_matrix": [(size,)],
        "_seed_matrices": [(size,)],
        "_ts_level": [(period_mod.TS_FIRST_LEVEL,), (period_mod.TS_LAST_LEVEL,)],
        "_cached_curve": [(ModelParams(n, n - 1.0, n - 1.0), period_mod.KERNEL_RTOL)
                          for n in (3, 4, 5)],
    }
    caches = {name: value for name, value in vars(period_mod).items()
              if hasattr(value, "cache_info") and value.__module__ == period_mod.__name__}
    assert sorted(caches) == sorted(calls)
    line = period_mod._ChebSeries(-1.0, 1.0, "linear", np.linspace(1.0, 0.0, size))
    tables = list(_arrays(line))
    for name, cache in caches.items():
        for args in calls[name]:
            assert cache(*args) is cache(*args), name
            found = list(_arrays(cache(*args)))
            tables += found
            if name == "_cached_curve":
                for piece in cache(*args).pieces:
                    for array in (piece.coeffs, piece.derivative_coeffs, piece.table):
                        assert any(array is item for item in found), args
    assert len(tables) > 20
    for matrix in tables:
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0] = 1.0


def test_an_empty_energy_grid_is_refused(p5):
    with pytest.raises(DomainError, match="^energy grid must be non-empty$"):
        period_scan([], p5)


def test_a_period_curve_refuses_parameters_of_another_dimension(k5):
    with pytest.raises(DomainError, match="^period curve of n = 5 asked for n = 6$"):
        period_curve(5).orbits([1.05 * k5.T0], ModelParams(6, 2.0, 2.0))


def test_a_series_inversion_that_cannot_settle_raises(monkeypatch):
    piece = period_curve(5).pieces[0]
    target = period_mod._chebval(np.array([0.25]), piece.coeffs)
    monkeypatch.setattr(period_mod, "NEWTON_STEPS", 0)
    with pytest.raises(QuadratureNonConvergence,
                       match="^Chebyshev series inversion did not settle in 0 Newton steps$"):
        piece.root(target, -1.0, 1.0)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 20, 30])
def test_rise_series_coefficients_are_the_inline_expression(n):
    # the reference recomputes each coefficient per call, as _rise once did
    inline = [(n - 2.0) * (n ** (k - 1) - (n - 2.0) ** (k - 1)) / math.factorial(k)
              for k in range(period_mod.SERIES_TERMS + 1, 1, -1)]
    assert period_mod._series_coeffs(n) == tuple(inline)

    def reference(t, d):
        L = np.log1p(d / t)
        e_n = np.expm1(n * L)
        series = 0.0
        for coeff in inline:
            series = series * L + coeff
        near = (n - 2.0) / n * (t - 1.0) * (t + 1.0) * e_n + series * L * L
        far = (n - 2.0) / n * t * t * e_n - np.expm1((n - 2.0) * L)
        return t ** (n - 2.0) * np.where(np.abs(n * L) < period_mod.SERIES_SPAN, near, far)

    # d/t from -0.63 to 0.32, through both branches and d = 0
    rel = np.concatenate([-np.logspace(-12, -0.2, 40), [0.0], np.logspace(-12, -0.5, 40)])
    for t in (1.0, 0.999, 0.6, 1.2):
        assert np.array_equal(period_mod._rise(t, t * rel, n), reference(t, t * rel))


@pytest.mark.parametrize("n", [5, 6, 8])
def test_kernel_sums_only_the_orbits_still_pending(monkeypatch, n):
    """A batch across the band whose orbits accept at different levels:
    each level evaluates the nodes of the orbits not yet accepted, both
    halves of each in one `_integrand` call of 2 * pending rows, and every
    orbit gets the arrays a call of its own gives it."""
    rtol = 1e-10
    curve = period_curve(n, rtol)
    u = np.geomspace(curve.u_lo, curve.u_hi, 60)
    rows = []
    real_integrand = period_mod._integrand

    def recording_integrand(turn, *args):
        halves, orbits = np.shape(turn)[:2]
        rows.append(halves * orbits)
        return real_integrand(turn, *args)

    monkeypatch.setattr(period_mod, "_integrand", recording_integrand)
    v = period_mod._outer_root(u, n)
    batch = period_mod._period_kernel(u, n, rtol, v)
    assert batch.nodes.all()
    assert len(set(batch.nodes.tolist()) & {52, 104, 206}) >= 2
    # an orbit accepted at N nodes is summed at every level up to N
    through, pending = 0, []
    for level in range(period_mod.TS_FIRST_LEVEL, period_mod.TS_LAST_LEVEL + 1):
        through += 2 * period_mod._ts_level(level)[0].size
        if through > batch.nodes.max():
            break
        pending.append(2 * int(np.count_nonzero(batch.nodes >= through)))
    assert rows == pending
    for j in range(u.size):
        single = period_mod._period_kernel(u[j:j + 1], n, rtol, v[j:j + 1])
        for got, want in zip(batch, single):
            assert got[j] == want[0]


def _kernel_by_half_orbits(u, n, rtol, v):
    """`_period_kernel` written one half orbit at a time: each half's
    nodes from its own turning point, and the level's sines recomputed on
    every call.  It takes the integrand from `_integrand` itself, so it
    checks the stacking, chunking and summing of the kernel only; p is
    checked against mpmath by `test_gap_factor_keeps_its_digits_down_to_contact`
    and the periods by `test_kernel_matches_mpmath_beyond_n_12`."""

    def ts_level(level):
        h = 2.0**-level
        k = np.arange(int(period_mod.TS_SPAN / h) + 1)
        if level > period_mod.TS_FIRST_LEVEL:
            k = k[1::2]
        t = k * h
        e = np.exp(-math.pi * np.sinh(t))
        half = 0.5 * math.pi * e / (1.0 + e)
        weight = math.pi**2 * np.cosh(t) * e / (1.0 + e) ** 2
        if level == period_mod.TS_FIRST_LEVEL:
            weight[0] *= 0.5
        return half, weight

    live = np.arange(u.size)
    total, ratio, err_est = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    nodes = np.zeros(u.shape, dtype=int)
    previous = None
    evaluations = 0
    for level in range(period_mod.TS_FIRST_LEVEL, period_mod.TS_LAST_LEVEL + 1):
        if not live.size:
            break
        half, weight = ts_level(level)
        evaluations += 2 * half.size
        at, to = v[live, None], u[live, None]
        values = 0.0
        for turn, other in ((at, to), (to, at)):
            values = values + period_mod._integrand(turn, other, np.sin(half) ** 2, n)
        total[live] += (values * weight).sum(axis=1)
        estimate = math.sqrt(n - 2.0) / math.pi * 2.0**-level * total[live]
        if previous is not None:
            change = np.abs(estimate - previous) + np.finfo(float).eps * estimate
            accept = change <= rtol * estimate
            done = live[accept]
            ratio[done] = estimate[accept]
            err_est[done] = change[accept] / estimate[accept]
            nodes[done] = evaluations
            live, estimate = live[~accept], estimate[~accept]
        previous = estimate
    return ratio, err_est, nodes


def test_kernel_matches_the_per_half_orbit_loop_bit_for_bit():
    """Random batches of 1 to 300 orbits, log-uniform in u over the band:
    all four arrays equal the per-half-orbit loop's, bit for bit."""
    rng = np.random.default_rng(24)
    for n in (3, 5, 6, 8, 12, 20, 30):
        curve = period_curve(n, 1e-10)
        for rtol in (1e-9, 1e-10, 1e-12):
            for size in (1, int(rng.integers(2, 40)), int(rng.integers(40, 301))):
                u = np.exp(rng.uniform(math.log(curve.u_lo), math.log(curve.u_hi), size))
                v = period_mod._outer_root(u, n)
                got = period_mod._period_kernel(u, n, rtol, v)
                want = _kernel_by_half_orbits(u, n, rtol, v)
                for name, a, b in zip(got._fields, got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), (
                        n, rtol, size, name)


def test_kernel_chunks_keep_every_bit(monkeypatch):
    """A batch split into passes of KERNEL_ORBITS orbits gives the bits of one pass."""
    rng = np.random.default_rng(7)
    for n in (3, 8):
        curve = period_curve(n, 1e-10)
        u = np.exp(rng.uniform(math.log(curve.u_lo), math.log(curve.u_hi), 300))
        v = period_mod._outer_root(u, n)
        whole = period_mod._period_kernel(u, n, 1e-10, v)
        monkeypatch.setattr(period_mod, "KERNEL_ORBITS", 7)
        for a, b in zip(period_mod._period_kernel(u, n, 1e-10, v), whole):
            assert np.array_equal(a, b, equal_nan=True)
        monkeypatch.undo()


def test_scan_memory_is_bounded_by_the_kernel_chunk():
    """4e4 energies peak near 16 MB, the OrbitSpecs and one kernel pass of
    KERNEL_ORBITS orbits; in one pass the kernel alone took about 110 MB."""
    params = ModelParams(3, 2.0, 2.0)
    grid = period_mod.energy_grid(params, 40000)
    tracemalloc.start()
    try:
        scan = period_mod.period_scan(grid, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not scan.failures
    assert peak < 40e6
