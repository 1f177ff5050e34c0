"""Profile construction, period inversion and the three-route audit."""

import math
import re

import numpy as np
import pytest

from warpcsc import (
    BudgetExceeded,
    DomainError,
    EnergyOutOfBand,
    ModelParams,
    NoBracket,
    QuadratureNonConvergence,
    ThresholdViolation,
    TooFewSamples,
    audit_profile,
    curvature_audit,
    derive_constants,
    energy,
    energy_drift,
    energy_grid,
    potential,
    period_quadrature,
    profile_from_energy,
    scan_branches,
    solve_period,
    turning_points,
)
from warpcsc import period as period_mod
from warpcsc import solver as solver_mod
from warpcsc.solver import CHAIN_TOL, _sampled

# mpmath (dps=40) reference period for n=3, R=Rt=2 at c = -0.225
T_REF_N3 = 5.8985046008834841


def test_profile_layout_and_closure(profile3, p3, k3):
    prof = profile3
    m = prof.samples.shape[0]
    assert prof.samples.shape == (m, 6)
    assert prof.t[0] == 0.0
    assert prof.t[-1] == pytest.approx(prof.T, rel=1e-15)
    assert np.all(np.diff(prof.t) > 0.0)
    # wrap row repeats the launch point up to the reported closure error
    assert abs(prof.f[-1] - prof.f[0]) <= 5.0 * prof.closure_error + 1e-15
    assert prof.closure_error < 1e-8
    assert prof.residual_sup < 1e-8 * p3.R
    assert prof.root_count == 1
    assert np.all(prof.f > 0.0)


def test_profile_period_matches_quadrature_reference(p3, k3):
    prof = profile_from_energy(-0.225, p3, 128)
    assert prof.c == -0.225
    assert prof.T == pytest.approx(T_REF_N3, rel=1e-11)


def test_profile_samples_lie_on_energy_shell(profile3, p3):
    c = profile3.c
    shell = 0.5 * profile3.v**2 + potential(profile3.x, p3)
    assert np.max(np.abs(shell - c)) < 1e-9 * abs(c)


def test_profile_warp_column_consistent_with_reduced_variable(profile3, p3):
    f_expected = profile3.x ** (2.0 / p3.n)
    assert np.max(np.abs(profile3.f - f_expected)) < 1e-12


def test_profile_determinism(p3, k3):
    c = k3.c_min + 0.3 * abs(k3.c_min)
    one = profile_from_energy(c, p3, 64)
    two = profile_from_energy(c, p3, 64)
    assert np.array_equal(one.samples, two.samples)
    assert one.T == two.T


def test_sampled_rejects_a_period_that_is_not_the_orbits(p3, k3):
    """The closure guard: a T 1e-6 off the orbit's leaves an endpoint gap of 1e-6."""
    c = k3.c_min + 0.5 * abs(k3.c_min)
    direct = profile_from_energy(c, p3, 64)
    orbit = period_quadrature(c, p3)
    same = _sampled(orbit, direct.T, p3, 64, 1e-10)
    assert np.array_equal(same.samples, direct.samples)
    with pytest.raises(BudgetExceeded, match="profile failed to close up"):
        _sampled(orbit, direct.T * (1.0 + 1e-6), p3, 64, 1e-10)


def test_sampled_rejects_a_profile_whose_residual_is_off(p3, k3, monkeypatch):
    """The residual guard: a curvature residual above 1e-8 R raises."""
    orbit = period_quadrature(k3.c_min + 0.5 * abs(k3.c_min), p3)
    monkeypatch.setattr(solver_mod, "curvature_residual",
                        lambda f, fp, fpp, params: np.full(f.shape, 2.0 * CHAIN_TOL * params.R))
    with pytest.raises(BudgetExceeded, match=r"^profile residual 4e-08 exceeded 1e-8 \* R;"):
        _sampled(orbit, orbit.T, p3, 64, 1e-10)


def test_profile_rejects_rest_energy_and_tiny_sampling(p3, k3):
    with pytest.raises(EnergyOutOfBand):
        profile_from_energy(k3.c_min, p3, 64)
    with pytest.raises(EnergyOutOfBand):
        profile_from_energy(0.0, p3, 64)
    with pytest.raises(TooFewSamples):
        profile_from_energy(-0.225, p3, 8)


COUNT_CALLS = {
    "solve_period": lambda p, k, count: solve_period(1.03 * k.T0, p, count),
    "profile_from_energy": lambda p, k, count: profile_from_energy(0.5 * k.c_min, p, count),
    "scan_branches": lambda p, k, count: scan_branches(3.0 * k.T0, p, count),
    "energy_grid": lambda p, k, count: energy_grid(p, count),
    "energy_drift": lambda p, k, count: energy_drift(0.5 * k.c_min, p, 0.01, count),
}


@pytest.mark.parametrize("name, count, argument", [
    ("solve_period", 100.5, "n_samples"), ("profile_from_energy", 64.5, "n_samples"),
    ("scan_branches", 16.5, "grid_size"), ("energy_grid", 5.5, "size"),
    ("energy_drift", 10.5, "n_steps"),
])
def test_a_count_that_is_not_an_integer_is_refused(p5, k5, name, count, argument):
    """A fractional count once placed a last sample past T, or raised a
    TypeError; an integral float counts as its integer."""
    call = COUNT_CALLS[name]
    with pytest.raises(DomainError, match=f"^{argument} must be an integer, got {count}$"):
        call(p5, k5, count)
    whole = math.floor(count)
    got, want = call(p5, k5, float(whole)), call(p5, k5, whole)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    elif name == "scan_branches":
        assert (got.t_grid, got.rows) == (want.t_grid, want.rows)
    elif name == "energy_drift":
        assert got == want
    else:
        assert np.array_equal(got.samples, want.samples)


def test_audit_passes_clean_profiles(profile3, profile5):
    for prof in (profile3, profile5):
        audit = audit_profile(prof)
        assert audit.ok
        assert audit.breaches == ()
        assert audit.flagged_index is None
        assert audit.energy_sup < 1e-10


def test_audit_flags_a_corrupted_sample(profile3):
    tampered = profile3.samples.copy()
    tampered[37, 3] *= 1.01  # bend the warp column at one interior point
    prof = type(profile3)(
        params=profile3.params,
        T=profile3.T,
        c=profile3.c,
        samples=tampered,
        residual_sup=profile3.residual_sup,
        closure_error=profile3.closure_error,
    )
    audit = audit_profile(prof)
    assert not audit.ok
    assert "chain" in audit.breaches
    assert "finite_difference" in audit.breaches
    assert audit.flagged_index == 37


def test_solve_period_hits_requested_period(p5, k5, profile5):
    target = 1.05 * k5.T0
    assert profile5.T == pytest.approx(target, rel=1e-9)
    assert profile5.root_count == 1
    # the solved orbit's energy really attains that period
    assert k5.c_min < profile5.c < 0.0


def test_solve_period_n6(p6, k6):
    prof = solve_period(1.08 * k6.T0, p6, 128)
    assert prof.T == pytest.approx(1.08 * k6.T0, rel=1e-9)


def test_solve_rejects_periods_at_or_below_threshold(p3, p5, k3, k5):
    for params, consts in ((p3, k3), (p5, k5)):
        for T in (0.5 * consts.T0, consts.T0, consts.T0 * (1.0 + 1e-12)):
            with pytest.raises(ThresholdViolation):
                solve_period(T, params, 64)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_solve_refuses_a_period_that_is_not_finite(p3, T):
    with pytest.raises(DomainError, match=f"^period must be finite, got {T}$"):
        solve_period(T, p3, 64)


def test_solve_reports_unattainable_band_for_n3(p3, k3):
    """Above the threshold, single-wrap periods for n=3 do not exist.

    The attainable per-orbit band sits strictly below T0, so any request
    above T0 has no bracket; the error carries the attained band so a
    caller can see what was available.
    """
    with pytest.raises(NoBracket) as info:
        solve_period(1.5 * k3.T0, p3, 64)
    err = info.value
    assert err.t_min is not None and err.t_max is not None
    assert err.t_min < err.t_max < k3.T0 * (1.0 + 1e-6)
    assert err.t_min > 0.86 * k3.T0
    assert not (err.t_min <= 1.5 * k3.T0 <= err.t_max)


def test_solve_isochronous_dimension_never_brackets_off_grid(p4, k4):
    for ratio in (1.0001, 1.37, 2.0):
        with pytest.raises(NoBracket):
            solve_period(ratio * k4.T0, p4, 64)


def test_shallow_well_solves_and_passes_both_audits():
    # |c_min| = 5.6e-4 here; an absolute 5e-11 energy target alone left
    # the orbit open by 1.4e-8 at this period
    p = ModelParams(12, 2.0, 5.0)
    k = derive_constants(p)
    prof = solve_period(1.10 * k.T0, p)
    assert prof.closure_error < 1e-8
    assert audit_profile(prof).ok
    assert curvature_audit(prof).passed


@pytest.mark.parametrize("s", [0.99, 0.999, 0.9999, 1.0 - 1e-5, 1.0 - 1e-6])
def test_near_contact_n3_profiles_close_and_pass_the_energy_route(p3, k3, s):
    # leapfrog sampling left s = 0.99 at energy_sup 3.4e-10, and s = 0.999
    # and 0.9999 open by 3.8e-7 and 1.8e-5; a sixth-order composition
    # refused s = 1 - 1e-5 and 1 - 1e-6 as over its step budget
    prof = profile_from_energy(k3.c_min + s * abs(k3.c_min), p3)
    assert prof.closure_error < 1e-8
    audit = audit_profile(prof)
    assert "energy" not in audit.breaches
    assert audit.energy_sup <= audit.energy_tol_abs


@pytest.mark.parametrize("n", [5, 6, 8])
def test_near_contact_profiles_approach_the_spherical_suspension(n):
    """Profiles dipping to u * f_star approach alpha |sin(beta t)| as u falls.

    alpha = f_star sqrt(n/(n-2)) and beta = sqrt(Rt/(n(n-1))) give the
    suspension, whose period pi/beta is the contact end of the band.
    Profiles start at the dip, so no phase shift is fitted: measured on
    the profile's own period, f differs from the suspension by u * f_star
    at the dip and by less elsewhere, and T beta/pi - 1 halves with u.
    """
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    alpha = k.f_star * math.sqrt(n / (n - 2.0))
    beta = math.sqrt(params.Rt / (n * (n - 1.0)))
    shape_gap, period_gap = [], []
    for u in (0.3, 0.15, 0.08, 0.04):
        prof = profile_from_energy(potential(k.x_star * u ** (n / 2.0), params), params, 1025)
        gap = np.abs(prof.f - alpha * np.abs(np.sin(math.pi * prof.t / prof.T)))
        assert gap.max() <= 1.01 * u * k.f_star, f"u = {u}"
        assert int(np.argmax(gap)) in (0, len(gap) - 1), f"u = {u}"
        shape_gap.append(gap.max())
        period_gap.append(abs(prof.T * beta / math.pi - 1.0))
    assert all(g2 < g1 for g1, g2 in zip(shape_gap, shape_gap[1:]))
    assert all(g2 < g1 for g1, g2 in zip(period_gap, period_gap[1:]))


def test_profile_past_the_node_cap_raises(p3, k3, monkeypatch):
    # this orbit's fit settles at 512 nodes
    c = k3.c_min + (1.0 - 1e-6) * abs(k3.c_min)
    monkeypatch.setattr(period_mod, "MAX_PROFILE_NODES", 256)
    with pytest.raises(QuadratureNonConvergence, match="did not settle to rtol = 1e-10 by 256"):
        profile_from_energy(c, p3)


def test_a_fit_that_settles_by_chance_off_its_orbits_period_is_refused(p3, k3):
    """At s = 1 - 5e-9 the doubling stops at degree 256, where two fits
    agree to 8.5e-11, but the fit's period misses the kernel's by 1.4e-10,
    above rtol = 1e-10; s = 1 - 1e-8 and 1 - 2e-9 refuse at the node cap."""
    c = k3.c_min + (1.0 - 5e-9) * abs(k3.c_min)
    with pytest.raises(QuadratureNonConvergence,
                       match=r"^profile of n = 3 at u = \S+: the fit's period misses the orbit's "
                             r"certified period by 1\.\d+e-10 relative, above rtol = 1e-10$"):
        profile_from_energy(c, p3)


@pytest.mark.parametrize("offset, refused", [(0.5e-10, False), (2e-10, True), (-2e-10, True)])
def test_sampled_compares_the_fits_period_with_the_certified_one(p3, k3, offset, refused):
    """The fit of the orbit at s = 0.5 lands on its period to roundoff, so
    moving the certified period by more than rtol = 1e-10 refuses it."""
    orbit = period_quadrature(k3.c_min + 0.5 * abs(k3.c_min), p3)
    moved = orbit._replace(T=orbit.T * (1.0 + offset))
    if not refused:
        same = _sampled(moved, orbit.T, p3, 64, 1e-10)
        assert np.array_equal(same.samples, _sampled(orbit, orbit.T, p3, 64, 1e-10).samples)
        return
    with pytest.raises(QuadratureNonConvergence, match=r"relative, above rtol = 1e-10$") as err:
        _sampled(moved, orbit.T, p3, 64, 1e-10)
    gap = float(re.search(r"period by (\S+) relative", str(err.value)).group(1))
    assert gap == pytest.approx(2e-10, rel=1e-5)


def test_profile_force_evaluations_are_pinned(p3, k3):
    """The profile's work is its fit's degree: 64 nodes mid-band, 256 near contact."""
    p8 = ModelParams(8, 3.0, 1.0)
    assert solve_period(1.10 * derive_constants(p8).T0, p8).degree == 64
    near = profile_from_energy(k3.c_min + 0.9999 * abs(k3.c_min), p3)
    assert near.degree == 256 and near.err_est <= 1e-10


def test_profile_reports_its_steps(profile3):
    """The profile reports the fit's last doubling step: its degree and err_est."""
    # the fit starts at 32 nodes and doubles; mid-band orbits settle at 64
    assert profile3.degree == 64
    assert 0.0 < profile3.err_est <= 1e-10


def test_a_profile_equals_only_itself(profile3):
    """Samples are an array, which has no single truth value, so profiles
    compare and hash by identity, a copy with the same values included."""
    copy = profile3._replace()
    assert profile3 == profile3 and not profile3 != profile3
    assert profile3 != copy and not profile3 == copy
    assert len({profile3, copy, profile3}) == 2
    assert tuple(copy)[:3] == tuple(profile3)[:3]


@pytest.mark.parametrize("R, Rt", [(2.0, 2.0), (3.0, 1.0)])
@pytest.mark.parametrize("s", [0.1, 0.5, 1.0 - 1e-6])
def test_isochronous_profile_is_the_closed_form_cosine(R, Rt, s):
    """For n = 4 the oscillator is linear: x(t) = x_star + (a - x_star) cos(omega t)."""
    params = ModelParams(4, R, Rt)
    k = derive_constants(params)
    c = k.c_min + s * abs(k.c_min)
    prof = profile_from_energy(c, params)
    a, _ = turning_points(c, params)
    phase = k.omega * prof.t
    assert np.max(np.abs(prof.x - (k.x_star + (a - k.x_star) * np.cos(phase)))) <= 1e-13 * k.x_star
    assert np.max(np.abs(prof.v + k.omega * (a - k.x_star) * np.sin(phase))) <= 1e-13 * k.x_star


@pytest.mark.parametrize("route", ["solve_period", "profile_from_energy"])
def test_a_profile_solves_its_outer_turning_point_once(monkeypatch, p5, k5, route):
    # the sampler reads v from the confirmed orbit: an energy's scan solves
    # it once, and an inversion takes it in closed form from the curve's key
    orbit = period_mod.period_curve(5).orbits([1.04 * k5.T0], p5)[0]
    calls = []
    real_outer_root = period_mod._outer_root

    def counting_outer_root(u, n):
        calls.append(np.size(u))
        return real_outer_root(u, n)

    monkeypatch.setattr(period_mod, "_outer_root", counting_outer_root)
    if route == "solve_period":
        profile = solve_period(1.04 * k5.T0, p5, 129)
    else:
        profile = profile_from_energy(orbit.c, p5, 129)
    assert calls == ([] if route == "solve_period" else [1])
    # the orbit's closed-form v is the one a solve of its own gives, to roundoff
    assert orbit.v == pytest.approx(real_outer_root(np.array([orbit.u]), 5)[0],
                                    rel=4 * np.finfo(float).eps)
    # sample 64 of 129 sits at half the period, on the outer turning point
    assert profile.x[64] == pytest.approx(orbit.b, rel=1e-9)


def test_a_solve_makes_two_numpy_chebyshev_passes(monkeypatch, p5, k5):
    """The Clenshaw work of one solve on a fresh curve, counted as numpy
    chebval calls and their points x coefficients x columns: the seeds
    come from trig sums, and the Newton passes skip the roundoff tail."""
    monkeypatch.setattr(period_mod, "_cached_curve", period_mod._cached_curve.__wrapped__)
    work = []
    real_chebval = period_mod.chebval

    def counting_chebval(x, c):
        work.append(np.size(x) * np.size(c))
        return real_chebval(x, c)

    monkeypatch.setattr(period_mod, "chebval", counting_chebval)
    profile = solve_period(1.05 * k5.T0, p5)
    assert profile.degree == 64
    assert len(work) <= 2 and sum(work) <= 70_000, work
