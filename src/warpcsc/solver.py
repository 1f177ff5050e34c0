"""Solving for periodic warp profiles of a prescribed period.

The solver inverts the period map on the period curve of the dimension
(`period.period_curve`, one per n, shared by every R and Rt), which
gives the orbit whose period equals the request, confirmed by the period
kernel.  The solver then samples that orbit by quadrature: the period
kernel's integrand, fitted in theta and integrated to t(theta), is
inverted at the sample times (`period._orbit_samples`), and the samples
are pushed back to warp coordinates.  No ODE is stepped.  A profile is
stored as a closed loop of samples (t, x, v, f, f', f'') with the
endpoint repeated at t = T so consumers can treat it as one period of a
periodic function without bookkeeping.

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

import numpy as np

from .errors import (
    BudgetExceeded,
    DomainError,
    NoBracket,
    ThresholdViolation,
    TooFewSamples,
)
from .model import (
    ModelParams,
    curvature_residual,
    derive_constants,
    potential,
    to_warp_coords,
)
from .period import _certified, _inner_root, _orbit_samples, period_curve

__all__ = [
    "SolutionProfile",
    "ProfileAudit",
    "profile_from_energy",
    "solve_period",
    "audit_profile",
]

SAMPLE_COLUMNS = ("t", "x", "v", "f", "fp", "fpp")


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
    quad_rtol: float = 1e-10,
) -> SolutionProfile:
    """Sample the closed orbit at energy c uniformly over one period.

    The period is the kernel's at quad_rtol, with the bits
    `period_quadrature` gives.  The samples start at the inner turning
    point, fixing the time origin at a minimum of the warp; see `_sampled`.
    """
    if n_samples < 16:
        raise TooFewSamples(f"n_samples must be >= 16, got {n_samples}")
    consts = derive_constants(params)
    _, u, failures = _inner_root([float(c)], consts, params.n)
    if failures:
        raise failures[0][1]
    T = float(_certified(u, params.n, quad_rtol).ratio[0]) * consts.T0
    return _sampled(float(u[0]), float(c), T, params, n_samples, quad_rtol)


def _sampled(
    u: float, c: float, T: float, params: ModelParams, n_samples: int, rtol: float
) -> SolutionProfile:
    """The profile of the orbit dipping to u * f_star, at energy c and period T.

    `period._orbit_samples` places the samples by quadrature, to rtol.
    closure_error is |2 t(pi/2) - T| / T; above 1e-8, T does not belong to
    the orbit and BudgetExceeded is raised, as for a residual above 1e-8 R.
    """
    consts = derive_constants(params)
    ts = np.arange(n_samples, dtype=float) * (T / (n_samples - 1))
    x, v, series = _orbit_samples(u, params.n, consts.omega * ts, consts.omega * T, rtol)
    xs, vs = consts.x_star * x, consts.omega * consts.x_star * v
    f, fp, fpp = to_warp_coords(xs, vs, params)
    samples = np.column_stack([ts, xs, vs, f, fp, fpp])
    residual_sup = float(np.max(np.abs(curvature_residual(f, fp, fpp, params))))
    closure = abs(2.0 * float(series.value(1.0)) - consts.omega * T) / (consts.omega * T)
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
    return SolutionProfile(params=params, T=T, c=c, samples=samples, residual_sup=residual_sup,
                           closure_error=closure, degree=series.coeffs.size - 1,
                           err_est=series.err_est)


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
    orbit has period T; `PeriodCurve.orbits` confirms it on the kernel
    and polishes it there when it misses T by more than 10 * quad_rtol,
    and its u goes straight to the sampler.  If the curve's period range
    never touches T, NoBracket carries that range so the caller can see
    how far off the request was.
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
    hit = curve._keyed_orbits([T], params)[0]
    if hit is None:
        t_min, t_max = curve.band[0] * consts.T0, curve.band[1] * consts.T0
        raise NoBracket(
            f"no orbit of period {T}: the period curve covers "
            f"[{t_min}, {t_max}] over the energy band",
            t_min=t_min,
            t_max=t_max,
        )
    orbit, u = hit
    return _sampled(u, orbit.c, float(T), params, n_samples, quad_rtol)


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
