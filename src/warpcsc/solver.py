"""Solving for periodic warp profiles of a prescribed period.

The solver inverts the period map on the period curve of the dimension
(`period.period_curve`, one per n for all R, Rt and diagrams), which
gives the orbit whose period equals the request, confirmed by the period
kernel.  `profile_from_energy` takes its orbit from `period_quadrature`
instead.  Either way the orbit is an `OrbitSpec`, keyed by its
u = f_min/f_star and carrying the v = f_max/f_star the kernel confirmed,
and `_sampled` samples it by quadrature between those turning points:
the period kernel's integrand, fitted in theta and integrated to
t(theta), is inverted at the sample times (`period._orbit_samples`), and
the samples are pushed back to warp coordinates.  No turning point is
solved twice, and no ODE is stepped.  A profile is stored as a closed
loop of samples (t, x, v, f, f', f'') with the endpoint repeated at
t = T so consumers can treat it as one period of a periodic function
without bookkeeping.

`audit_profile` rechecks a profile three independent ways: the pointwise
curvature identity in warp coordinates, the same identity with the
derivatives of f recomputed by periodic finite differences from the f
samples alone, and conservation of the reduced energy.  The first route
is an algebraic identity of the coordinate change and flags corrupted
data; the other two actually test that the samples trace a solution.
It reads the finite-difference route from `geometry._fd_loop`, which
checks the sample layout and differences f for the curvature and fiber
checks too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DomainError,
    NoBracket,
    ThresholdViolation,
    TooFewSamples,
)
from .geometry import _fd_loop
from .model import (
    PERIOD_SLACK,
    ModelParams,
    _integer,
    curvature_residual,
    derive_constants,
    potential,
    to_warp_coords,
)
from .period import KERNEL_RTOL, OrbitSpec, _orbit_samples, period_curve, period_quadrature

__all__ = [
    "SolutionProfile",
    "ProfileAudit",
    "profile_from_energy",
    "solve_period",
    "audit_profile",
]

SAMPLE_COLUMNS = ("t", "x", "v", "f", "fp", "fpp")
# samples a profile holds by default
PROFILE_SAMPLES = 512
# samples a profile may hold, bounded before any is placed
MAX_SAMPLES = 2**20
# audit_profile's thresholds: the first two relative to R, the size of
# the residual's terms; the energy absolute, the solver's own control
CHAIN_TOL = 1e-8
FD_TOL = 1e-5
ENERGY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SolutionProfile:
    """One period of a periodic constant-curvature warp.

    samples has shape (n_samples, 6) with columns t, x, v, f, f', f'';
    rows are uniform in t from 0 to T inclusive, so the last row repeats
    the first up to closure_error.  root_count records how many distinct
    energies attain the period; the period map is monotone, so it is 1
    for every profile solved here, and profile documents carry it.

    degree and err_est say how the samples were placed: the degree of
    the Chebyshev series t(theta) inverted at the sample times, and the
    relative change of its half period from the fit on half the nodes.
    Profile documents do not carry them; a profile read back from one
    has zeros.
    """

    params: ModelParams
    T: float
    c: float
    samples: np.ndarray
    residual_sup: float
    closure_error: float
    root_count: int = 1
    degree: int = 0
    err_est: float = 0.0

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
    c: float, params: ModelParams, n_samples: int = PROFILE_SAMPLES
) -> SolutionProfile:
    """Sample the closed orbit at energy c uniformly over one period.

    The orbit is `period_quadrature`'s at its default rtol, KERNEL_RTOL,
    and the samples start at its inner turning point, fixing the time
    origin at a minimum of the warp; see `_sampled`.
    """
    n_samples = _check_samples(n_samples)
    orbit = period_quadrature(c, params)
    return _sampled(orbit, orbit.T, params, n_samples, KERNEL_RTOL)


def _check_samples(n_samples: int) -> int:
    """n_samples as an int; refuse one that is not an integer, fewer than
    16 samples, and more than MAX_SAMPLES."""
    n_samples = _integer("n_samples", n_samples)
    if n_samples < 16:
        raise TooFewSamples(f"n_samples must be >= 16, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise DomainError(f"n_samples = {n_samples} (--samples) is above the limit of "
                          f"{MAX_SAMPLES}; lower it")
    return n_samples


def _sampled(
    orbit: OrbitSpec, T: float, params: ModelParams, n_samples: int, rtol: float
) -> SolutionProfile:
    """The profile of orbit, which runs from orbit.u * f_star to
    orbit.v * f_star, over the period T.

    `period._orbit_samples` places the samples by quadrature, to rtol,
    between the orbit's own turning points.
    closure_error is |2 t(pi/2) - T| / T; above 1e-8, T does not belong to
    the orbit and BudgetExceeded is raised, as for a residual above 1e-8 R.
    """
    consts = derive_constants(params)
    ts = np.arange(n_samples, dtype=float) * (T / (n_samples - 1))
    x, v, series, err_est = _orbit_samples(orbit.u, orbit.v, params.n, consts.omega * ts,
                                           consts.omega * T, rtol)
    xs, vs = consts.x_star * x, consts.omega * consts.x_star * v
    f, fp, fpp = to_warp_coords(xs, vs, params)
    samples = np.column_stack([ts, xs, vs, f, fp, fpp])
    residual_sup = float(np.max(np.abs(curvature_residual(f, fp, fpp, params))))
    closure = abs(2.0 * float(series.value(1.0)) - consts.omega * T) / (consts.omega * T)
    if residual_sup > CHAIN_TOL * params.R:
        raise BudgetExceeded(
            f"profile residual {residual_sup} exceeded 1e-8 * R; "
            "this indicates corrupted arithmetic, not a modeling failure"
        )
    if closure > 1e-8:
        raise BudgetExceeded(
            f"profile failed to close up: relative endpoint gap {closure}; "
            "the supplied period does not match the orbit"
        )
    return SolutionProfile(params=params, T=T, c=orbit.c, samples=samples,
                           residual_sup=residual_sup, closure_error=closure,
                           degree=series.coeffs.size - 1, err_est=err_est)


def solve_period(
    T: float,
    params: ModelParams,
    n_samples: int = PROFILE_SAMPLES,
    *,
    quad_rtol: float = KERNEL_RTOL,
) -> SolutionProfile:
    """Profile of a non-constant solution with the prescribed period T.

    Periods at or below the threshold T0 are rejected outright: the
    rest point absorbs the whole band there.  The orbit comes from the
    period curve of the dimension, which is monotone, so at most one
    orbit has period T; `PeriodCurve.orbits` confirms it in one kernel
    call, raises QuadratureNonConvergence when it misses T by more than
    10 * quad_rtol, and the orbit goes straight to the sampler.  If the
    curve's period range never touches T, NoBracket carries that range
    so the caller can see how far off the request was.

    The profile is not run through `verify`'s checks here: too few
    samples can give one that `verify` rejects.  `warpcsc solve` runs
    them and refuses such a profile.
    """
    if not math.isfinite(T):
        raise DomainError(f"period must be finite, got {T}")
    consts = derive_constants(params)
    if not (T > consts.T0 * (1.0 + PERIOD_SLACK)):
        raise ThresholdViolation(
            f"requested period {T} does not exceed the threshold T0 = {consts.T0}; "
            "only the constant solution exists at or below it"
        )
    n_samples = _check_samples(n_samples)
    curve = period_curve(params.n, quad_rtol)
    orbit = curve.orbits([T], params)[0]
    if orbit is None:
        t_min, t_max = curve.band[0] * consts.T0, curve.band[1] * consts.T0
        raise NoBracket(
            f"no orbit of period {T}: the period curve covers "
            f"[{t_min}, {t_max}] over the energy band",
            t_min=t_min,
            t_max=t_max,
        )
    return _sampled(orbit, float(T), params, n_samples, quad_rtol)


def audit_profile(profile: SolutionProfile) -> ProfileAudit:
    """Recheck a profile three independent ways; see the class docstring.

    The thresholds are CHAIN_TOL * R, FD_TOL * R and ENERGY_TOL.
    """
    params = profile.params
    loop_f, _, d1, d2 = _fd_loop(profile, 16)

    chain = np.abs(
        curvature_residual(profile.f, profile.fp, profile.fpp, params)
    )
    chain_at = int(np.argmax(chain))
    chain_sup = float(chain[chain_at])

    fd = np.abs(curvature_residual(loop_f, d1, d2, params))
    fd_at = int(np.argmax(fd))
    fd_sup = float(fd[fd_at])

    energy_dev = np.abs(
        0.5 * profile.v**2 + potential(profile.x, params) - profile.c
    )
    energy_at = int(np.argmax(energy_dev))
    energy_sup = float(energy_dev[energy_at])

    chain_abs = CHAIN_TOL * params.R
    fd_abs = FD_TOL * params.R
    energy_abs = ENERGY_TOL
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
