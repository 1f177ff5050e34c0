"""Fixed-step leapfrog integration of the reduced oscillator.

The only vector field here is x'' = -force(x).  Kick-drift-kick leapfrog
preserves the conservative structure, so energy errors oscillate instead
of drifting and long runs stay on the right orbit.  That property is
what makes the return-map period measurement a trustworthy second route,
independent of the turning-point quadrature.

The return map uses the field's reversibility, (x, v, t) -> (x, -v, -t).
Symmetric leapfrog keeps it, and so does its modified Hamiltonian
H + dt^2 H2 + dt^4 H4 + ..., which is even in v and in dt (Hairer,
Lubich and Wanner, Geometric Numerical Integration, ch. V and IX).  Each
numerical orbit is thus a mirror image about v = 0: the times from the
rest point to the two turning points sum to half its period, and expand
in even powers of dt, so Richardson's step still removes the dt^2 term.

Turning points (v = 0 crossings) are refined below grid resolution by
bracketed Newton steps on the substep map: a partial step of size tau
from the stored pre-crossing state gives

    v(tau) = v0 + tau/2 * (a(x0) + a(xm)),  xm = x0 + tau v0 + tau^2/2 a(x0),

which matches the full step at tau = dt exactly, so the refined time is
consistent with the trajectory actually computed.  Only that time is
kept: a half orbit ends at its crossing, and it never starts at rest.

`leapfrog_step` takes one kick-drift-kick step; it holds the
acceleration line and the positivity check.  The two hot runs, a half
orbit of the return map (`_time_to_turn`) and the drift run, write the
same step out in flat loops, since a call per step costs about as much
as the arithmetic.  A step's closing half kick is the next step's
opening one, so the loops carry it over instead of computing it twice,
and they count no steps: they iterate `itertools.repeat`, and a half
orbit reads its crossing step from what is left of its block.  Tests
pin both loops to `leapfrog_step` bit for bit, so the copies of the
step cannot drift apart.  All of them stay second order on purpose,
since they measure the leapfrog itself: the return map always takes a
Richardson step, which assumes an error in dt^2.
Tests pin the return map by tolerance and, at eleven frozen energies,
bit for bit.  A return-map run takes the smaller of T0 / STEPS_PER_PERIOD
and a step resolving the local oscillation at its inner turning point,
which a crude bisection finds on the scalar form of the offset potential
(`model._forms`); no turning point comes from `period`.  Profiles step
no ODE: `solver` samples them by quadrature on the period kernel's
integrand.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import BudgetExceeded, DomainError, EnergyOutOfBand, PositivityViolation
from .model import (
    DerivedConstants,
    ModelParams,
    PhaseState,
    _force_coeffs,
    _forms,
    _integer,
    _potential_coeffs,
    derive_constants,
)

__all__ = [
    "DriftReport",
    "leapfrog_step",
    "period_return_map",
    "energy_drift",
]

# base step of a return-map run is T0 over this many steps
STEPS_PER_PERIOD = 4096
# step halvings a return-map measurement may take before giving up
MAX_RETRIES = 6
# phase advance per substep at the stiffest point: 48 substeps per local cycle
_WALL_PHASE = 2.0 * math.pi / 48.0
# Newton or bisection steps a crossing refinement may take
_REFINE_STEPS = 100


@dataclass(frozen=True)
class DriftReport:
    """Energy wander of a long fixed-step run, relative to the well depth."""

    max_rel: float
    secular_rel: float
    scale: float
    n_steps: int


def leapfrog_step(state: PhaseState, dt: float, params: ModelParams) -> PhaseState:
    """One kick-drift-kick step.  Negative dt steps backwards in time.

    The acceleration k2 x^e - k1 x is written out (for n = 4, x**0.0 ==
    1.0 gives k2 - k1 x exactly).  A step reaching x <= 0 raises
    PositivityViolation.
    """
    if not math.isfinite(dt):
        raise DomainError(f"dt must be finite, got {dt}")
    k1, k2, e = _force_coeffs(params)
    half = 0.5 * dt
    x = state.x
    v = state.v + half * (k2 * x**e - k1 * x)
    x = x + dt * v
    if x <= 0.0:
        raise PositivityViolation(f"step of size {dt} reached x = {x} <= 0; reduce dt")
    v = v + half * (k2 * x**e - k1 * x)
    return PhaseState(t=state.t + dt, x=x, v=v)


def _refine_crossing(x0: float, v0: float, dt: float, params: ModelParams) -> float:
    """The time tau in [0, dt] where the step from (x0, v0), v0 != 0, reaches v = 0.

    Newton steps on v(tau) from the secant point, kept in the bracket of
    the sign change: a step that leaves it, or a zero slope, bisects.  A
    step of at most 4 eps tau ends the solve.
    """
    k1, k2, e = _force_coeffs(params)
    a0 = k2 * x0**e - k1 * x0

    def v_and_slope(tau: float) -> tuple[float, float]:
        xm = x0 + tau * (v0 + 0.5 * tau * a0)
        if xm <= 0.0:
            raise PositivityViolation("crossing refinement left the positive half-line")
        am = k2 * xm**e - k1 * xm
        # 1/2 (a0 + a(xm)) + tau/2 a'(xm) dxm/dtau
        slope = 0.5 * (a0 + am) + 0.5 * tau * (e * k2 * xm ** (e - 1.0) - k1) * (v0 + tau * a0)
        return v0 + 0.5 * tau * (a0 + am), slope

    v_end = v_and_slope(dt)[0]
    if v0 * v_end > 0.0:
        # roundoff put the sign change outside [0, dt]; take the endpoint
        return dt if abs(v_end) < abs(v0) else 0.0
    lo, hi, tau = 0.0, dt, dt * v0 / (v0 - v_end)
    for _ in range(_REFINE_STEPS):
        v, slope = v_and_slope(tau)
        if v == 0.0:
            return tau
        # v(lo) has v0's sign
        lo, hi = (tau, hi) if (v > 0.0) == (v0 > 0.0) else (lo, tau)
        nxt = tau - v / slope if slope != 0.0 else math.inf
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - tau) <= 4.0 * math.ulp(1.0) * tau:
            return nxt
        tau = nxt
    raise BudgetExceeded(f"crossing refinement did not settle within {_REFINE_STEPS} steps "
                         f"of size {dt}: bracket [{lo!r}, {hi!r}]")


def _rough_inner_turning(e_above_min: float, params: ModelParams, x_star: float) -> float:
    """Crude bisection below the rest point x_star for the inner turning
    point, used only to size steps.

    It evaluates the offset potential through the scalar form of
    `potential_above_min`, and takes no turning point from `period`.
    """
    offset = _forms(params).offset
    lo = x_star
    for _ in range(80):
        lo *= 0.5
        if offset(lo) >= e_above_min:
            break
    hi = min(2.0 * lo, x_star)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if offset(mid) >= e_above_min:
            lo = mid
        else:
            hi = mid
    return hi


def _step_for_energy(e_above_min: float, params: ModelParams) -> float:
    """Step small enough for both the outer swing and the inner wall.

    Low dimensions steepen sharply near x = 0, so orbits close to the
    contact energy oscillate locally much faster than the linearized
    frequency suggests.  Resolve the stiffest point (the inner turning
    point) with a fixed number of substeps per local cycle.
    """
    consts = derive_constants(params)
    k1, k2, e = _force_coeffs(params)
    a_rough = _rough_inner_turning(e_above_min, params, consts.x_star)
    # sqrt(|force'|), the frequency of small oscillations about a_rough;
    # where it vanishes it sets no limit
    local = math.sqrt(abs(k1 - e * k2 * a_rough ** (e - 1.0)))
    wall = _WALL_PHASE / local if local > 0.0 else math.inf
    return min(consts.T0 / STEPS_PER_PERIOD, wall)


def _time_to_turn(
    x0: float, v0: float, dt: float, params: ModelParams, budget: int
) -> tuple[float, float]:
    """Time from (x0, v0) to the first v = 0 crossing, and the energy wander.

    The step is `leapfrog_step`'s, written out in a flat loop so that no
    call is made per step; it carries its half kick to the next step and
    keeps no step counter, since only the crossing needs its index.  The
    wander is read after the first step and then after every block of
    1024 steps, and at the crossing.
    """
    k1, k2, e = _force_coeffs(params)
    A, Bq, q = _potential_coeffs(params)
    half = 0.5 * dt
    x, v = x0, v0
    e0 = 0.5 * v0 * v0 + A * x0 * x0 - Bq * x0**q
    wander = 0.0
    kick = half * (k2 * x**e - k1 * x)
    start, stop = 0, 1
    while True:
        stop = min(stop, budget)
        steps = itertools.repeat(None, stop - start)
        for _ in steps:
            vh = v + kick
            x1 = x + dt * vh
            if x1 <= 0.0:
                raise PositivityViolation(
                    f"step of size {dt} reached x = {x1} <= 0; reduce dt"
                )
            kick = half * (k2 * x1**e - k1 * x1)
            v1 = vh + kick
            if v * v1 <= 0.0:
                # the block's steps not yet taken give this step's index
                step = stop - 1 - operator.length_hint(steps)
                tau = _refine_crossing(x, v, dt, params)
                e1 = 0.5 * v1 * v1 + A * x1 * x1 - Bq * x1**q
                return step * dt + tau, max(wander, abs(e1 - e0))
            x, v = x1, v1
        if stop == budget:
            raise BudgetExceeded(f"no turning point within {budget} steps of size {dt}")
        e1 = 0.5 * v * v + A * x * x - Bq * x**q
        wander = max(wander, abs(e1 - e0))
        start, stop = stop, stop + 1024


def _band_energy(c: float, params: ModelParams) -> tuple[DerivedConstants, float]:
    """The constants of params and c - c_min, for an energy c in the
    closed-orbit band (c_min, 0); any other c raises EnergyOutOfBand."""
    consts = derive_constants(params)
    e_above = c - consts.c_min
    if not (e_above > 0.0 and c < 0.0):
        raise EnergyOutOfBand(
            f"energy {c} outside the closed-orbit band ({consts.c_min}, 0)"
        )
    return consts, e_above


def period_return_map(c: float, params: ModelParams) -> float:
    """Orbit period 2 (t_out + t_in) from two half-orbit runs of the leapfrog.

    Runs launched from (x_star, +v0) and (x_star, -v0), v0 = sqrt(2 (c -
    c_min)), reach v = 0 after t_out and t_in; no turning-point data is
    used, so this route shares only the vector field with the quadrature.
    The pair is repeated at dt/2 and Richardson's step extrapolates.
    Retries halve dt when a run's energy wander exceeds 2e-6 (c - c_min)
    or x <= 0; a retry reuses the pair already run at its step size.
    """
    consts, e_above = _band_energy(c, params)
    v0 = math.sqrt(2.0 * e_above)
    dt = _step_for_energy(e_above, params)
    wander_gate = 2e-6 * e_above
    # period and wanders of the pair of runs at each step size h
    pairs: dict[float, tuple[float, float, float]] = {}
    for _ in range(MAX_RETRIES):
        # the give-up error chains the last attempt's error alone
        last_err: Exception | None = None
        try:
            periods, worst = [], 0.0
            for h in (dt, 0.5 * dt):
                if h not in pairs:
                    budget = int(8.0 * consts.T0 / h) + 64
                    t_out, w_out = _time_to_turn(consts.x_star, v0, h, params, budget)
                    t_in, w_in = _time_to_turn(consts.x_star, -v0, h, params, budget)
                    pairs[h] = 2.0 * (t_out + t_in), w_out, w_in
                period, w_out, w_in = pairs[h]
                periods.append(period)
                worst = max(worst, w_out, w_in)
            if worst <= wander_gate:
                return (4.0 * periods[1] - periods[0]) / 3.0
        except PositivityViolation as err:
            last_err, worst = err, math.nan
        dt *= 0.5
    wander = "unmeasured (a run reached x <= 0)" if math.isnan(worst) else f"{worst:.3g}"
    raise BudgetExceeded(
        f"return-map period did not stabilize within MAX_RETRIES = {MAX_RETRIES} "
        f"step halvings: last dt = {2.0 * dt:.6g}, energy wander {wander} "
        f"against the gate {wander_gate:.3g}"
    ) from last_err


def energy_drift(c: float, params: ModelParams, dt: float, n_steps: int) -> DriftReport:
    """Energy wander of an n_steps leapfrog run started at (x_star, v(c)).

    max_rel is the worst pointwise deviation from the initial energy,
    secular_rel compares the mean energy of the second half of the run
    against the first half; both are relative to the well depth.  For a
    symplectic scheme max_rel saturates while secular_rel stays near
    roundoff no matter how long the run.  The loop is `leapfrog_step`'s
    step without a call or a step counter, and its half kick carries
    from each step to the next, across the two halves too.
    """
    n_steps = _integer("n_steps", n_steps)
    if n_steps < 2:
        raise DomainError(f"n_steps must be >= 2, got {n_steps}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    consts, e_above = _band_energy(c, params)
    k1, k2, e = _force_coeffs(params)
    A, Bq, q = _potential_coeffs(params)
    half = 0.5 * dt
    x = consts.x_star
    v = math.sqrt(2.0 * e_above)
    e0 = 0.5 * v * v + A * x * x - Bq * x**q
    kick = half * (k2 * x**e - k1 * x)
    halfway = n_steps // 2
    # rounded subtraction is monotone and odd, so the worst |ei - e0|
    # is reached at the highest or the lowest ei
    hi = lo = e0
    sums = []
    for count in (halfway, n_steps - halfway):
        total = 0.0
        for _ in itertools.repeat(None, count):
            vh = v + kick
            x = x + dt * vh
            if x <= 0.0:
                raise PositivityViolation(
                    f"step of size {dt} reached x = {x} <= 0; reduce dt"
                )
            kick = half * (k2 * x**e - k1 * x)
            v = vh + kick
            ei = 0.5 * v * v + A * x * x - Bq * x**q
            if ei > hi:
                hi = ei
            elif ei < lo:
                lo = ei
            total += ei
        sums.append(total)
    sum_first, sum_second = sums
    scale = max(abs(consts.c_min), abs(c))
    secular = abs(sum_second / (n_steps - halfway) - sum_first / halfway)
    return DriftReport(
        max_rel=max(hi - e0, e0 - lo) / scale,
        secular_rel=secular / scale,
        scale=scale,
        n_steps=n_steps,
    )
