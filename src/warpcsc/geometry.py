"""Curvature checks computed from warp samples alone.

The solver carries analytic derivatives along with f, but a consumer
handed only the warp samples must be able to confirm the metric they
define really has the advertised constant scalar curvature.  The
routines here therefore recompute all derivatives by 4th-order periodic
central differences from the f column and nothing else, making them an
independent route rather than an echo of the solver's own arithmetic.

Each public check validates its profile and differences f on its own.
A caller that runs several checks on one profile, as `verify` does,
checks positivity and the layout and differences f once (`_fd_loop`),
and hands that one `_Loop` to `_curvature`, `_conformal` and
`solver._audit`, the bodies of the public checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonPositiveWarp, TooFewSamples

__all__ = [
    "CurvatureReport",
    "ConformalCheck",
    "periodic_fd_derivatives",
    "curvature_audit",
    "conformal_field_check",
]

# conformal_field_check's threshold, relative to ConformalCheck.reference
CONFORMAL_TOL = 1e-6
# curvature_audit's and verify's default tolerance, relative to Rt
CURVATURE_TOL = 1e-4


def periodic_fd_derivatives(values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of a periodic sample loop.

    values holds one period without the repeated endpoint; h is the
    uniform spacing.  Stencils are the standard 4th-order central ones,
    wrapped cyclically: the neighbours are slices of one copy of the
    loop with two samples wrapped onto each end.
    """
    g = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.shape[0] < 5:
        raise DomainError("periodic differences need a 1-d loop of at least 5 samples")
    if not (h > 0.0 and np.isfinite(h)):
        raise DomainError(f"spacing must be positive, got {h}")
    wrapped = np.concatenate([g[-2:], g, g[:2]])
    m2, m1, p1, p2 = wrapped[:-4], wrapped[1:-3], wrapped[3:-1], wrapped[4:]
    d1 = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
    d2 = (-p2 + 16.0 * p1 - 30.0 * g + 16.0 * m1 - m2) / (12.0 * h * h)
    return d1, d2


def uniform_closed_count(t: np.ndarray, T: float, min_samples: int) -> int:
    """Validate the closed uniform layout t = 0, h, ..., T; returns m - 1.

    Profiles in this package always store one full period with the
    endpoint repeated; everything downstream differentiates cyclically
    and needs that layout to hold.
    """
    t = np.asarray(t, dtype=float)
    m = t.shape[0]
    if m < min_samples:
        raise TooFewSamples(f"need at least {min_samples} samples, got {m}")
    h = T / (m - 1)
    if not np.allclose(np.diff(t), h, rtol=1e-6, atol=1e-9 * T):
        raise DomainError("samples must be uniform in t")
    if abs(t[0]) > 1e-9 * T or abs(t[-1] - T) > 1e-9 * T:
        raise DomainError("samples must span exactly [0, T] endpoint included")
    return m - 1


class _Loop(NamedTuple):
    """One period of a profile's f samples without the repeated endpoint,
    their spacing h, and f' and f'' by `periodic_fd_derivatives`."""

    f: np.ndarray
    h: float
    d1: np.ndarray
    d2: np.ndarray


def _check_positive(profile) -> None:
    """Refuse a profile with a warp value f <= 0."""
    if np.any(np.asarray(profile.f, dtype=float) <= 0.0):
        raise NonPositiveWarp("profile contains warp values f <= 0")


def _fd_loop(profile, min_samples: int) -> _Loop:
    """The profile's loop, its layout checked by `uniform_closed_count`
    with at least min_samples samples, and f differenced once."""
    unique = uniform_closed_count(profile.t, profile.T, min_samples)
    f = np.asarray(profile.f, dtype=float)[:unique]
    h = profile.T / unique
    return _Loop(f, h, *periodic_fd_derivatives(f, h))


@dataclass(frozen=True)
class CurvatureReport:
    """Scalar curvature recovered pointwise from the f samples.

    values[i] is the curvature the sampled metric actually has at t_i,
    length matching the profile's sample count (the wrap row repeats
    row 0).  max_dev is the worst absolute deviation from the target.
    """

    values: np.ndarray
    max_dev: float
    max_at: int
    tol_abs: float
    passed: bool


def curvature_audit(profile, rel_tol: float = CURVATURE_TOL) -> CurvatureReport:
    """Recompute the scalar curvature from the warp samples alone.

    Solving the defining relation for the product curvature gives

        Rt(t) = (R - 2 (n-1) f f'' - (n-1)(n-2) f'^2) / f^2

    with both derivatives taken by periodic finite differences of the f
    column.  A profile passes when the recovered curvature stays within
    rel_tol * Rt of the constant target everywhere.
    """
    _check_positive(profile)
    return _curvature(profile, _fd_loop(profile, 64), rel_tol)


def _curvature(profile, loop: _Loop, rel_tol: float) -> CurvatureReport:
    """`curvature_audit` on the profile's loop, already checked and differenced."""
    params, f, d1, d2 = profile.params, loop.f, loop.d1, loop.d2
    n = params.n
    rt = (params.R - 2.0 * (n - 1.0) * f * d2 - (n - 1.0) * (n - 2.0) * d1**2) / f**2
    rt_full = np.concatenate([rt, rt[:1]])
    dev = np.abs(rt_full - params.Rt)
    at = int(np.argmax(dev))
    max_dev = float(dev[at])
    tol_abs = rel_tol * params.Rt
    return CurvatureReport(
        values=rt_full,
        max_dev=max_dev,
        max_at=at,
        tol_abs=tol_abs,
        passed=max_dev <= tol_abs,
    )


@dataclass(frozen=True)
class ConformalCheck:
    """Which fiber-scaling convention the sampled data is consistent with.

    A warp enters the product metric through the fiber factor f^2.  If
    the stored derivative column fp really is d/dt of the f column, then
    differencing f^2 must reproduce 2 f fp, while differencing f as if
    the fiber factor were linear in f leaves a residual of size |f fp|.

    sup_tt          |2 FD(f) - 2 fp|, consistency of the data itself
    sup_fiber_sq    |f FD(f^2) - 2 fp f^2|, squared-factor convention
    sup_fiber_lin   |f FD(f) - 2 fp f|, linear-factor convention
    """

    sup_tt: float
    sup_fiber_sq: float
    sup_fiber_lin: float
    reference: float
    rel_tol: float
    squared_convention_ok: bool
    linear_convention_ok: bool


def conformal_field_check(profile) -> ConformalCheck:
    """Test the profile against both fiber-scaling conventions.

    A convention passes when its residual is at most CONFORMAL_TOL times
    the reference.  For any honest profile the squared convention passes
    at the level of differencing noise.  The linear convention can only
    pass when f is constant, since its residual is f fp pointwise.
    """
    _check_positive(profile)
    return _conformal(profile, _fd_loop(profile, 16))


def _conformal(profile, loop: _Loop) -> ConformalCheck:
    """`conformal_field_check` on the profile's loop, already checked and
    differenced; only f^2 is differenced here."""
    f, d_f = loop.f, loop.d1
    fp = np.asarray(profile.fp, dtype=float)[:f.size]
    d_f2, _ = periodic_fd_derivatives(f**2, loop.h)
    tt = np.abs(2.0 * d_f - 2.0 * fp)
    fiber_sq = np.abs(f * d_f2 - 2.0 * fp * f**2)
    fiber_lin = np.abs(f * d_f - 2.0 * fp * f)
    reference = max(
        float(np.max(np.abs(2.0 * fp * f**2))),
        float(np.max(np.abs(f * d_f2))),
        float(np.finfo(float).tiny),
    )
    tol_abs = CONFORMAL_TOL * reference
    return ConformalCheck(
        sup_tt=float(np.max(tt)),
        sup_fiber_sq=float(np.max(fiber_sq)),
        sup_fiber_lin=float(np.max(fiber_lin)),
        reference=reference,
        rel_tol=CONFORMAL_TOL,
        squared_convention_ok=float(np.max(fiber_sq)) <= tol_abs,
        linear_convention_ok=float(np.max(fiber_lin)) <= tol_abs,
    )
