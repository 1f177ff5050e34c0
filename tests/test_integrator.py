"""Leapfrog stepping, return-map periods and long-run energy behavior."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import warpcsc.integrator as integrator
import warpcsc.model as model
from warpcsc import (
    BudgetExceeded,
    DomainError,
    EnergyOutOfBand,
    ModelParams,
    PhaseState,
    PositivityViolation,
    derive_constants,
    energy,
    energy_drift,
    energy_grid,
    force,
    leapfrog_step,
    period_quadrature,
    period_return_map,
    period_scan,
)
from warpcsc.model import _force_coeffs, _potential_coeffs

# mpmath (dps=40) reference period for n=3, R=Rt=2 at c = -0.225
T_REF_N3 = 5.8985046008834841

# period_return_map at c = c_min + s |c_min| for R = Rt = 2, as the
# package computed it before its step sizing moved to the scalar
# offset potential; the sizing must keep these bits.  The n = 3 orbits
# at s = 0.9856 and 0.9954 retry twice and once; their bits come from
# the generator-driven half orbits that preceded the flat loops.
# {n: {s: T}}
FROZEN_RETURN_MAP = {
    3: {
        1e-6: 6.283184958117476,
        0.5: 6.049399545223314,
        0.9856: 5.49203855079618,
        0.9954: 5.461073706830734,
        0.9999: 5.442081066906309,
    },
    5: {1e-6: 8.885766073790878, 0.5: 9.022241048400405, 0.9999: 9.862645977430923},
    6: {1e-6: 9.934588610739711, 0.5: 10.173827356282848, 0.9999: 11.880449714814185},
}


def test_single_step_matches_hand_kdk(p3):
    x0, v0, dt = 1.2, 0.3, 0.01
    out = leapfrog_step(PhaseState(t=0.0, x=x0, v=v0), dt, p3)
    v_half = v0 - 0.5 * dt * force(x0, p3)
    x1 = x0 + dt * v_half
    v1 = v_half - 0.5 * dt * force(x1, p3)
    assert out.t == pytest.approx(dt, rel=1e-15)
    assert out.x == pytest.approx(x1, rel=1e-15)
    assert out.v == pytest.approx(v1, rel=1e-15)


def test_step_is_time_reversible(p5):
    state = PhaseState(t=0.0, x=1.4, v=-0.2)
    fwd = leapfrog_step(state, 0.01, p5)
    back = leapfrog_step(fwd, -0.01, p5)
    assert back.x == pytest.approx(state.x, abs=1e-15)
    assert back.v == pytest.approx(state.v, abs=1e-15)
    assert back.t == pytest.approx(0.0, abs=1e-18)


def test_n4_steps_follow_the_hand_formula_bit_for_bit(p4, k4):
    """For n = 4 the general force line reduces to k2 - k1 x exactly."""
    k1, k2, _ = _force_coeffs(p4)
    dt = k4.T0 / 64.0
    half = 0.5 * dt
    x, v = 1.3 * k4.x_star, 0.1
    state = PhaseState(t=0.0, x=x, v=v)
    for _ in range(1000):
        state = leapfrog_step(state, dt, p4)
        vh = v + half * (k2 - k1 * x)
        x = x + dt * vh
        v = vh + half * (k2 - k1 * x)
        assert (state.x, state.v) == (x, v)


def test_drift_of_odd_run_matches_stepwise_reference_bit_for_bit(p3, k3):
    """The halves of a 7-step run are 3 and 4 steps of the same kernel."""
    c = k3.c_min + 0.5 * abs(k3.c_min)
    dt, n_steps = k3.T0 / 100.0, 7
    rep = energy_drift(c, p3, dt, n_steps)

    A, Bq, q = _potential_coeffs(p3)
    state = PhaseState(t=0.0, x=k3.x_star, v=math.sqrt(2.0 * (c - k3.c_min)))
    e0 = 0.5 * state.v * state.v + A * state.x * state.x - Bq * state.x**q
    energies = []
    for _ in range(n_steps):
        state = leapfrog_step(state, dt, p3)
        energies.append(0.5 * state.v * state.v + A * state.x * state.x - Bq * state.x**q)
    halfway = n_steps // 2
    sum_first = sum_second = 0.0
    for ei in energies[:halfway]:
        sum_first += ei
    for ei in energies[halfway:]:
        sum_second += ei
    secular = abs(sum_second / (n_steps - halfway) - sum_first / halfway)
    max_dev = max(abs(ei - e0) for ei in energies)
    assert rep.max_rel == max_dev / rep.scale
    assert rep.secular_rel == secular / rep.scale
    assert rep.n_steps == n_steps


def _energy_of(params):
    A, Bq, q = _potential_coeffs(params)
    return lambda x, v: 0.5 * v * v + A * x * x - Bq * x**q


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_drift_of_long_odd_run_matches_stepwise_reference_bit_for_bit(n):
    """4097 steps split 2048 + 2049; for n = 4 the force line has e = 0."""
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    c = k.c_min + 0.5 * abs(k.c_min)
    dt, n_steps = k.T0 / 100.0, 4097
    rep = energy_drift(c, params, dt, n_steps)

    energy_of = _energy_of(params)
    state = PhaseState(t=0.0, x=k.x_star, v=math.sqrt(2.0 * (c - k.c_min)))
    e0 = energy_of(state.x, state.v)
    energies = []
    for _ in range(n_steps):
        state = leapfrog_step(state, dt, params)
        energies.append(energy_of(state.x, state.v))
    halfway = n_steps // 2
    sum_first = sum_second = 0.0
    for ei in energies[:halfway]:
        sum_first += ei
    for ei in energies[halfway:]:
        sum_second += ei
    secular = abs(sum_second / (n_steps - halfway) - sum_first / halfway)
    max_dev = max(abs(ei - e0) for ei in energies)
    assert rep.max_rel == max_dev / rep.scale
    assert rep.secular_rel == secular / rep.scale
    assert rep.n_steps == n_steps


def test_drift_positivity_error_matches_the_step(p3, k3):
    c = k3.c_min + 0.9 * abs(k3.c_min)
    dt = k3.T0 / 8
    state = PhaseState(t=0.0, x=k3.x_star, v=math.sqrt(2.0 * (c - k3.c_min)))
    with pytest.raises(PositivityViolation) as ref:
        for _ in range(100):
            state = leapfrog_step(state, dt, p3)
    with pytest.raises(PositivityViolation) as info:
        energy_drift(c, p3, dt, 100)
    assert str(info.value) == str(ref.value)


def test_energy_wander_scales_quadratically_in_dt(p3, k3):
    c = k3.c_min + 0.5 * abs(k3.c_min)
    coarse = energy_drift(c, p3, k3.T0 / 100.0, 50_000)
    fine = energy_drift(c, p3, k3.T0 / 200.0, 100_000)
    ratio = coarse.max_rel / fine.max_rel
    assert 3.2 < ratio < 4.8


def test_secular_drift_far_below_pointwise_wander(p3, k3):
    c = k3.c_min + 0.5 * abs(k3.c_min)
    rep = energy_drift(c, p3, k3.T0 / 200.0, 200_000)
    assert rep.scale == pytest.approx(abs(k3.c_min), rel=1e-12)
    assert rep.secular_rel < 1e-7
    assert rep.secular_rel < 1e-3 * rep.max_rel
    assert rep.n_steps == 200_000


def test_coarse_step_near_wall_raises_positivity(p3):
    with pytest.raises(PositivityViolation):
        leapfrog_step(PhaseState(t=0.0, x=0.01, v=-10.0), 1.0, p3)


def test_return_map_matches_quadrature_reference(p3):
    T = period_return_map(-0.225, p3)
    assert T == pytest.approx(T_REF_N3, rel=1e-10)


def test_return_map_steps_two_half_orbits_per_step_size(p5, k5, leapfrog_runs):
    """Two half orbits at dt and two at dt/2 take 1.5 T/dt steps; a full
    period after a run-in to the first crossing would take 3.75 T/dt."""
    c = k5.c_min + 0.5 * abs(k5.c_min)
    T = period_return_map(c, p5)
    dt = k5.T0 / 4096
    assert [h for h, _ in leapfrog_runs] == [dt, dt, 0.5 * dt, 0.5 * dt]
    assert sum(steps for _, steps in leapfrog_runs) <= 1.6 * T / dt


@pytest.mark.parametrize("s, runs", [(0.9856, 8), (0.9954, 6)])
def test_retry_reuses_the_pair_run_at_its_step_size(p3, k3, leapfrog_runs, s, runs):
    """A retry at dt/2 takes the pair the failed attempt ran at dt/2;
    rerunning it made 12 and 8 runs at these energies."""
    period_return_map(k3.c_min + s * abs(k3.c_min), p3)
    steps = [h for h, _ in leapfrog_runs]
    assert len(steps) == runs
    assert all(steps.count(h) == 2 for h in steps)
    assert all(h1 == 0.5 * h0 for h0, h1 in zip(steps[::2], steps[2::2]))


def test_route_grid_takes_two_pairs_per_orbit_for_n5(p5, leapfrog_runs):
    """No orbit of the 50-point n = 5 route grid retries."""
    grid = energy_grid(p5, 50, mode="symlog", s_lo=1e-9, s_hi=1e-4)
    for spec in period_scan(grid, p5).entries:
        period_return_map(spec.c, p5)
    assert len(leapfrog_runs) == 200


def _turn_reference(x0, v0, dt, params, budget):
    """`_time_to_turn` stepped through leapfrog_step, one state at a time."""
    energy_of = _energy_of(params)
    e0 = energy_of(x0, v0)
    state, wander = PhaseState(t=0.0, x=x0, v=v0), 0.0
    for step in range(budget):
        new = leapfrog_step(state, dt, params)
        if state.v * new.v <= 0.0:
            tau = integrator._refine_crossing(state.x, state.v, dt, params)
            return step * dt + tau, max(wander, abs(energy_of(new.x, new.v) - e0))
        state = new
        if step % 1024 == 0:
            wander = max(wander, abs(energy_of(state.x, state.v) - e0))
    raise AssertionError("reference run found no turning point")


def _substep_v(x0, v0, params):
    """v(tau) of the partial step from (x0, v0), as the refinement solves it."""
    k1, k2, e = _force_coeffs(params)
    a0 = k2 * x0**e - k1 * x0

    def v_of(tau):
        xm = x0 + tau * (v0 + 0.5 * tau * a0)
        return v0 + 0.5 * tau * (a0 + (k2 * xm**e - k1 * xm))

    return v_of


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5, 6, 8, 12]),
    x_rel=st.floats(0.2, 3.0),
    decade=st.floats(2.5, 6.0),
    frac=st.floats(1e-9, 1.2),
)
def test_refined_crossing_matches_a_scipy_brentq_oracle(n, x_rel, decade, frac):
    """The Newton solve lands within 4 ulps of scipy's brentq, run at the
    tolerances the package's Brent port once used, anywhere in the step."""
    assume(abs(x_rel - 1.0) > 0.02)
    params = ModelParams(n, 2.0, 2.0)
    pair = _crossing_and_brentq(x_rel, frac, derive_constants(params).T0 * 10.0**-decade,
                                params)
    assume(pair is not None)
    tau, ref = pair
    assert abs(tau - ref) <= 4.0 * math.ulp(ref)


@pytest.mark.parametrize("n, x0, frac, dt", [
    (3, 1.94, 0.082, 2.03), (5, 0.4, 0.153, 3.19), (6, 1.45, 0.083, 3.16),
    (12, 0.65, 0.221, 5.7),
])
def test_refined_crossing_bisects_where_a_newton_step_leaves_the_bracket(n, x0, frac, dt):
    """Steps of about a third of T0 bend v(tau) so far that Newton steps
    left unguarded leave [0, dt] and end on another root or not at all."""
    tau, ref = _crossing_and_brentq(x0, frac, dt, ModelParams(n, 2.0, 2.0))
    assert abs(tau - ref) <= 4.0 * math.ulp(ref)


def _crossing_and_brentq(x0, frac, dt, params):
    """The refined crossing of a step from x0 heading against the force,
    so that v reaches 0 near frac * dt, and scipy's root of the same map;
    None when v keeps its sign over the step."""
    k1, k2, e = _force_coeffs(params)
    a0 = k2 * x0**e - k1 * x0
    v0 = -math.copysign(frac * abs(a0) * dt, a0)
    v_of = _substep_v(x0, v0, params)
    if v0 * v_of(dt) > 0.0:
        return None
    tau = integrator._refine_crossing(x0, v0, dt, params)
    assert 0.0 <= tau <= dt
    return tau, brentq(v_of, 0.0, dt, xtol=1e-300, rtol=8.9e-16)


@pytest.mark.parametrize("n", [3, 4, 5, 12])
def test_refined_crossing_takes_the_endpoint_when_roundoff_moves_the_sign_change(n):
    params = ModelParams(n, 2.0, 2.0)
    k1, k2, e = _force_coeffs(params)
    x0, dt = 0.7, derive_constants(params).T0 / 4096
    a0 = k2 * x0**e - k1 * x0
    # v0 by bisection to the float where v(dt) changes sign, on its side
    lo, hi = 0.0, 2.0 * a0 * dt
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _substep_v(x0, -mid, params)(dt) < 0.0 else (mid, hi)
    v_end = _substep_v(x0, -hi, params)(dt)
    assert v_end < 0.0 and abs(v_end) < 1e-12 * hi
    assert integrator._refine_crossing(x0, -hi, dt, params) == dt
    # a rest state rounded to the far side of v = 0 crosses at the start
    assert integrator._refine_crossing(x0, 1e-300, dt, params) == 0.0


def test_refined_crossing_errors_are_typed(p5, monkeypatch):
    with pytest.raises(PositivityViolation,
                       match="^crossing refinement left the positive half-line$"):
        integrator._refine_crossing(0.01, -10.0, 1.0, p5)
    monkeypatch.setattr(integrator, "_REFINE_STEPS", 1)
    with pytest.raises(BudgetExceeded, match="^crossing refinement did not settle within 1 "):
        integrator._refine_crossing(0.7, -0.01, 0.1, p5)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize(
    "x_rel, v_rel",
    # launches from the rest point both ways, whose worst wander is at
    # the crossing, and launches across the well, whose worst is read
    # inside a block
    [(1.0, 1.0), (1.0, -1.0), (0.6, 0.3), (1.5, -0.3)],
)
def test_time_to_turn_matches_stepwise_reference_bit_for_bit(n, x_rel, v_rel):
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    c = k.c_min + 0.5 * abs(k.c_min)
    x0, v0 = x_rel * k.x_star, v_rel * math.sqrt(2.0 * (c - k.c_min))
    for dt in (k.T0 / 512, k.T0 / 16384):
        t, wander = integrator._time_to_turn(x0, v0, dt, params, 10**6)
        assert (t, wander) == _turn_reference(x0, v0, dt, params, 10**6)
    # the fine run spans several wander blocks of 1024 steps
    assert t > 2048 * dt


@pytest.mark.parametrize("budget", [1, 1024, 1025, 2049])
def test_time_to_turn_budget_error_keeps_its_text(p3, k3, budget):
    dt = k3.T0 / 8192
    with pytest.raises(BudgetExceeded) as info:
        integrator._time_to_turn(k3.x_star, 0.3, dt, p3, budget)
    assert str(info.value) == f"no turning point within {budget} steps of size {dt}"


def test_time_to_turn_positivity_error_matches_the_step(p3):
    with pytest.raises(PositivityViolation) as ref:
        leapfrog_step(PhaseState(t=0.0, x=0.01, v=-10.0), 1.0, p3)
    with pytest.raises(PositivityViolation) as info:
        integrator._time_to_turn(0.01, -10.0, 1.0, p3, 100)
    assert str(info.value) == str(ref.value)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_return_map_matches_quadrature_across_the_band(n):
    params = ModelParams(n, 2.0, 2.0)
    c_min = derive_constants(params).c_min
    for s in (1e-6, 0.1, 0.5, 0.9, 0.99):
        c = c_min + s * abs(c_min)
        T = period_quadrature(c, params).T
        assert period_return_map(c, params) == pytest.approx(T, rel=1e-8), f"s = {s}"


def test_return_map_budget_error_names_the_limit(p5, k5, monkeypatch):
    # a step of T0/16 leaves the energy wander far above the 2e-6 gate
    monkeypatch.setattr(integrator, "MAX_RETRIES", 1)
    monkeypatch.setattr(integrator, "_step_for_energy", lambda e, p: k5.T0 / 16)
    with pytest.raises(BudgetExceeded) as info:
        period_return_map(k5.c_min + 0.5 * abs(k5.c_min), p5)
    msg = str(info.value)
    assert "MAX_RETRIES = 1" in msg
    assert f"last dt = {k5.T0 / 16:.6g}" in msg
    assert f"against the gate {2e-6 * 0.5 * abs(k5.c_min):.3g}" in msg
    wander = float(msg.split("energy wander ")[1].split()[0])
    assert wander > 2e-6 * 0.5 * abs(k5.c_min)


def test_return_map_rejects_out_of_band_energy(p3, k3):
    with pytest.raises(EnergyOutOfBand):
        period_return_map(0.1, p3)
    with pytest.raises(EnergyOutOfBand):
        period_return_map(k3.c_min, p3)


def test_drift_input_validation(p3, k3):
    c = k3.c_min + 0.5 * abs(k3.c_min)
    with pytest.raises(DomainError):
        energy_drift(c, p3, 0.0, 100)
    with pytest.raises(DomainError):
        energy_drift(c, p3, 0.01, 1)
    with pytest.raises(EnergyOutOfBand):
        energy_drift(0.5, p3, 0.01, 100)


def test_long_run_energy_stays_on_shell(p6, k6):
    """Energy error over many periods stays bounded, not growing."""
    c = k6.c_min + 0.3 * abs(k6.c_min)
    state = PhaseState(t=0.0, x=k6.x_star, v=math.sqrt(2.0 * (c - k6.c_min)))
    dt = k6.T0 / 512.0
    for _ in range(20_000):
        state = leapfrog_step(state, dt, p6)
    wander = abs(energy(state.x, state.v, p6) - c) / abs(k6.c_min)
    assert wander < 1e-4


@pytest.mark.parametrize("n", sorted(FROZEN_RETURN_MAP))
def test_return_map_is_frozen_bit_for_bit(n, monkeypatch):
    # the step sizing calls no public evaluator: calling this one raises TypeError
    monkeypatch.setattr(model, "potential_above_min", None)
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    for s, T in FROZEN_RETURN_MAP[n].items():
        assert period_return_map(k.c_min + s * abs(k.c_min), params) == T, f"s = {s}"
