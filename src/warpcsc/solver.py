"""Solving for periodic warp profiles of a prescribed period.

The solver inverts the period map on the period curve of the dimension
(`period.period_curve`, one per n, shared by every R and Rt): the curve
gives the orbit whose period equals the request, and the period kernel
confirms that period at the same f_min.  The solver then integrates the reduced
oscillator over one full period and pushes the samples back to warp
coordinates.  A profile is stored as a closed loop of samples
(t, x, v, f, f', f'') with the endpoint repeated at t = T so consumers
can treat it as one period of a periodic function without bookkeeping.

`audit_profile` rechecks a profile three independent ways: the pointwise
curvature identity in warp coordinates, the same identity with the
derivatives of f recomputed by periodic finite differences from the f
samples alone, and conservation of the reduced energy.  The first route
is an algebraic identity of the coordinate change and flags corrupted
data; the other two actually test that the samples trace a solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    BudgetExceeded,
    DomainError,
    NoBracket,
    PositivityViolation,
    ThresholdViolation,
    TooFewSamples,
)
from .integrator import _YOSHIDA6, _composition, _local_frequency
from .model import (
    ModelParams,
    curvature_residual,
    derive_constants,
    potential,
    to_warp_coords,
)
from .period import period_curve, period_quadrature, turning_points

__all__ = [
    "SolutionProfile",
    "ProfileAudit",
    "profile_from_energy",
    "solve_period",
    "audit_profile",
]

SAMPLE_COLUMNS = ("t", "x", "v", "f", "fp", "fpp")

# force evaluations one profile integration may take
MAX_PROFILE_STEPS = 20_000_000
# constant of the composition's energy error model in profile_from_energy
_ENERGY_ERROR_CONST = 0.01


@dataclass(frozen=True, eq=False)
class SolutionProfile:
    """One period of a periodic constant-curvature warp.

    samples has shape (n_samples, 6) with columns t, x, v, f, f', f'';
    rows are uniform in t from 0 to T inclusive, so the last row repeats
    the first up to closure_error.  root_count records how many distinct
    energies attain the period; the period map is monotone, so it is 1
    for every profile solved here, and profile documents carry it.

    dt, substeps and force_evals say how the samples were integrated:
    the smallest composite step taken, the most composite steps between
    two samples, and the force evaluations of the whole run.  Profile
    documents do not carry them; a profile read back from one has zeros.
    """

    params: ModelParams
    T: float
    c: float
    samples: np.ndarray
    residual_sup: float
    closure_error: float
    root_count: int = 1
    dt: float = 0.0
    substeps: int = 0
    force_evals: int = 0

    def column(self, name: str) -> np.ndarray:
        return self.samples[:, SAMPLE_COLUMNS.index(name)]

    @property
    def t(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def x(self) -> np.ndarray:
        return self.samples[:, 1]

    @property
    def v(self) -> np.ndarray:
        return self.samples[:, 2]

    @property
    def f(self) -> np.ndarray:
        return self.samples[:, 3]

    @property
    def fp(self) -> np.ndarray:
        return self.samples[:, 4]

    @property
    def fpp(self) -> np.ndarray:
        return self.samples[:, 5]


@dataclass(frozen=True)
class ProfileAudit:
    """Three-route recheck of a solved profile.

    chain_sup   sup of the curvature residual on the stored (f, f', f'')
    fd_sup      sup of the residual with f', f'' recomputed from f alone
                by 4th-order periodic finite differences
    energy_sup  sup of |v^2/2 + potential(x) - c| over the samples

    Each sup comes with the index where it is attained, so a corrupted
    sample is pointed at directly.  breaches names the routes whose sup
    exceeded its threshold; flagged_index is the location of the worst
    relative breach, None when the profile is clean.
    """

    chain_sup: float
    chain_at: int
    fd_sup: float
    fd_at: int
    energy_sup: float
    energy_at: int
    chain_tol_abs: float
    fd_tol_abs: float
    energy_tol_abs: float
    breaches: tuple[str, ...]
    flagged_index: int | None

    @property
    def ok(self) -> bool:
        return not self.breaches


def profile_from_energy(
    c: float,
    params: ModelParams,
    n_samples: int = 512,
    *,
    period: float | None = None,
    quad_rtol: float = 1e-10,
    energy_target: float = 5e-11,
) -> SolutionProfile:
    """Integrate one closed orbit at energy c and sample it uniformly.

    The orbit is launched from the inner turning point, fixing the time
    origin at a minimum of the warp.  It is stepped by the sixth-order
    composition `integrator._composition`, with the step chosen afresh
    for each interval between two samples: fine where the interval can
    reach the stiff inner wall, one composite step per interval on the
    rest of the orbit.  The step is sized so the absolute energy wander
    of the run stays near energy_target, which is what keeps the
    energy-consistency route of the audit below its threshold.  On
    shallow wells one part in 1e9 of the well depth is the tighter
    target, so those orbits still close.  Before integrating, the run is
    priced as if every interval needed the stiffest step of the orbit;
    orbits priced over MAX_PROFILE_STEPS force evaluations, extremely
    close to the contact energy, raise BudgetExceeded rather than run.
    """
    if n_samples < 16:
        raise TooFewSamples(f"n_samples must be >= 16, got {n_samples}")
    if not (math.isfinite(energy_target) and energy_target > 0.0):
        raise DomainError(f"energy_target must be positive, got {energy_target}")
    consts = derive_constants(params)
    a, b = turning_points(c, params)
    if period is None:
        T = period_quadrature(c, params, rtol=quad_rtol).T
    else:
        T = float(period)
        if not (math.isfinite(T) and T > 0.0):
            raise DomainError(f"period must be positive, got {period}")

    e_above = c - consts.c_min
    seg = T / (n_samples - 1)
    # Profiles step through the sixth-order composition; the period
    # routes of `integrator` stay leapfrog, whose wander e (w dt)^2 / 8
    # their Richardson step relies on.  The composition's energy wander
    # over one orbit is about C * e * (W dt)^6, with W the largest local
    # frequency sqrt(|force'|) the step meets.  Measured C stays below
    # 8.3e-3 for n = 3 to 20, energies from s = 0.1 to 0.9999 of the
    # band and 4 to 24 composite steps per local cycle; C = 0.01 holds
    # the phase W dt to what the target allows.
    target = min(energy_target, 1e-9 * abs(consts.c_min))
    phase = (target / (_ENERGY_ERROR_CONST * e_above)) ** (1.0 / 6.0)
    dt_shape = consts.T0 / 256.0

    def substeps_over(lo: float, hi: float) -> int:
        # force' is monotone in x, so |force'| on [lo, hi] peaks at an end
        stiff = max(consts.omega, _local_frequency(lo, params), _local_frequency(hi, params))
        return max(1, math.ceil(seg / min(dt_shape, phase / stiff)))

    stages = len(_YOSHIDA6)
    total = (n_samples - 1) * substeps_over(a, b) * stages
    if total > MAX_PROFILE_STEPS:
        raise BudgetExceeded(
            f"profile at c = {c} is priced at {total} force evaluations, over the "
            f"budget of {MAX_PROFILE_STEPS}; this energy sits too close to the band edge"
        )
    # no speed on the orbit exceeds sqrt(2 e), so one interval moves x by
    # at most this much; the interval's stiffest point lies within it
    reach = math.sqrt(2.0 * e_above) * seg

    xs = np.empty(n_samples)
    vs = np.empty(n_samples)
    x, v = a, 0.0
    xs[0], vs[0] = x, v
    substeps = evals = 0
    current = 0
    try:
        for i in range(1, n_samples):
            m = substeps_over(max(a, x - reach), min(b, x + reach))
            if m != current:
                steps = _composition(x, v, seg / m, params)
                current = m
            x, v = next(islice(steps, m - 1, None))
            xs[i], vs[i] = x, v
            substeps = max(substeps, m)
            evals += m * stages
    except PositivityViolation as err:
        raise BudgetExceeded(
            f"profile integration at c = {c} lost positivity; "
            "energy_target too loose for this orbit"
        ) from err

    ts = np.arange(n_samples, dtype=float) * seg
    f, fp, fpp = to_warp_coords(xs, vs, params)
    samples = np.column_stack([ts, xs, vs, f, fp, fpp])
    residual_sup = float(np.max(np.abs(curvature_residual(f, fp, fpp, params))))
    closure = max(
        abs(xs[-1] - xs[0]) / consts.x_star,
        abs(vs[-1] - vs[0]) / (consts.omega * consts.x_star),
    )
    if residual_sup > 1e-8 * params.R:
        raise BudgetExceeded(
            f"profile residual {residual_sup} exceeded 1e-8 * R; "
            "this indicates corrupted arithmetic, not a modeling failure"
        )
    if closure > 1e-8:
        raise BudgetExceeded(
            f"profile failed to close up: relative endpoint gap {closure}; "
            "the supplied period does not match the orbit"
        )
    return SolutionProfile(
        params=params,
        T=T,
        c=float(c),
        samples=samples,
        residual_sup=residual_sup,
        closure_error=float(closure),
        dt=seg / substeps,
        substeps=substeps,
        force_evals=evals,
    )


def solve_period(
    T: float,
    params: ModelParams,
    n_samples: int = 512,
    *,
    quad_rtol: float = 1e-10,
) -> SolutionProfile:
    """Profile of a non-constant solution with the prescribed period T.

    Periods at or below the threshold T0 are rejected outright: the
    rest point absorbs the whole band there.  The orbit comes from the
    period curve of the dimension, which is monotone, so at most one
    orbit has period T; the period kernel confirms it at the same f_min.
    A polish in f_min on the kernel follows where the confirmation misses
    T by more than POLISH_FACTOR * quad_rtol.  If the curve's period
    range never touches T, NoBracket carries that range so the caller
    can see how far off the request was.
    """
    if not math.isfinite(T):
        raise DomainError(f"period must be finite, got {T}")
    consts = derive_constants(params)
    if not (T > consts.T0 * (1.0 + 1e-9)):
        raise ThresholdViolation(
            f"requested period {T} does not exceed the threshold T0 = {consts.T0}; "
            "only the constant solution exists at or below it"
        )
    if n_samples < 16:
        raise TooFewSamples(f"n_samples must be >= 16, got {n_samples}")
    curve = period_curve(params.n, quad_rtol)
    orbit = curve.orbit(T, params, confirm=True)
    if orbit is None:
        t_min, t_max = curve.band[0] * consts.T0, curve.band[1] * consts.T0
        raise NoBracket(
            f"no orbit of period {T}: the period curve covers "
            f"[{t_min}, {t_max}] over the energy band",
            t_min=t_min,
            t_max=t_max,
        )
    return profile_from_energy(orbit.c, params, n_samples, period=T, quad_rtol=quad_rtol)


def audit_profile(
    profile: SolutionProfile,
    *,
    chain_tol: float = 1e-8,
    fd_tol: float = 1e-5,
    energy_tol: float = 1e-10,
) -> ProfileAudit:
    """Recheck a profile three independent ways; see the class docstring.

    chain_tol and fd_tol are relative to the fiber curvature R (the
    natural size of the residual's terms); energy_tol is absolute, as
    the reduced energy is the solver's own convergence control.
    """
    from .geometry import periodic_fd_derivatives, uniform_closed_count

    unique = uniform_closed_count(profile.t, profile.T, 16)
    params = profile.params
    h = profile.T / unique

    chain = np.abs(
        curvature_residual(profile.f, profile.fp, profile.fpp, params)
    )
    chain_at = int(np.argmax(chain))
    chain_sup = float(chain[chain_at])

    f_loop = profile.f[:unique]
    d1, d2 = periodic_fd_derivatives(f_loop, h)
    fd = np.abs(curvature_residual(f_loop, d1, d2, params))
    fd_at = int(np.argmax(fd))
    fd_sup = float(fd[fd_at])

    energy_dev = np.abs(
        0.5 * profile.v**2 + potential(profile.x, params) - profile.c
    )
    energy_at = int(np.argmax(energy_dev))
    energy_sup = float(energy_dev[energy_at])

    chain_abs = chain_tol * params.R
    fd_abs = fd_tol * params.R
    energy_abs = energy_tol
    breaches = []
    worst_ratio = 0.0
    flagged: int | None = None
    for name, sup, tol, at in (
        ("chain", chain_sup, chain_abs, chain_at),
        ("finite_difference", fd_sup, fd_abs, fd_at),
        ("energy", energy_sup, energy_abs, energy_at),
    ):
        if sup > tol:
            breaches.append(name)
            if sup / tol > worst_ratio:
                worst_ratio = sup / tol
                flagged = at
    return ProfileAudit(
        chain_sup=chain_sup,
        chain_at=chain_at,
        fd_sup=fd_sup,
        fd_at=fd_at,
        energy_sup=energy_sup,
        energy_at=energy_at,
        chain_tol_abs=chain_abs,
        fd_tol_abs=fd_abs,
        energy_tol_abs=energy_abs,
        breaches=tuple(breaches),
        flagged_index=flagged,
    )
