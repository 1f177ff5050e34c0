"""Turning points and the orbit period, computed in warp coordinates.

Scaling removes R and Rt from the reduced equation, so in units of
f_star and T0 an orbit is fixed by u = f_min/f_star.  With x = f^(n/2),
w(g) = ((n-2)/n) g^n - g^(n-2) and g = f/f_star between the turning
points u and v > 1, w(u) = w(v), so the gap factors as
w(u) - w(g) = (g - u)(v - g) p(g), with p = w[u, v, g] a polynomial of
degree n - 2, positive on [u, v].  With g = m + r sin(theta) the first
two factors cancel dg = r cos(theta) dtheta, and

    T/T0 = (sqrt(n-2)/pi) * integral_{-pi/2}^{pi/2} g^(n/2-1) / sqrt(p(g)) dtheta,

whose integrand is regular at both ends, down to contact, where the
orbit approaches the spherical suspension that crosses f = 0 with
nonzero slope, and takes no difference of two large terms at a node.
`_gap_factor` evaluates p, the one place that handles its cancellation
near contact: by Horner's rule, n - 2 steps a node, up to
HORNER_DIMENSION, and above it from the gap anchored at a turning point,
whose cost does not grow with n.

`_period_kernel` evaluates this for a batch of orbits, one numpy pass per
tanh-sinh level (Takahasi-Mori) over the orbits not yet accepted, its
error estimate the change between two levels: v comes from a vectorized
Halley solve, each node's g is written from its nearer turning point
through half angles, and both halves of at most KERNEL_ORBITS orbits go
to one `_integrand` call and are added back row by row.
`_orbit_samples` samples a profile from the same integrand between the
turning points the kernel confirmed: it fits dt/dtheta in Chebyshev
nodes, integrates the fit to t(theta) and inverts that at the sample
times with `_ChebSeries.root`, the curve's own inversion.

`period_curve(n, rtol)` fits T/T0 against u with one Chebyshev piece in
sqrt u, and for n = 3 a second one in log u at contact, once per process
for each (n, rtol), from one kernel call.  Its
`orbits(taus, params)` is the package's one period inversion: it inverts
a batch of periods on the fit and confirms every orbit in one kernel
call.  The period map is monotone in u (Chicone, J. Differential
Equations 69, 1987), so nothing is polished; an orbit whose confirmed
period misses the request by more than LANDING_FACTOR * rtol raises.
`bifurcation.scan_branches` and `solver.solve_period` invert through it;
counting solutions needs no inversion (see `bifurcation`).

`period_scan(c_grid)` keeps the energy interface: `_inner_root` takes
every in-band energy to its u in one batch of bracketed Halley steps,
and one kernel call takes every orbit from there; an energy whose
turning points do not settle, or whose orbit the kernel cannot certify,
fails alone.  `turning_points(c)` and `period_quadrature(c)` are the
solve and the scan of one energy.  Scans and `orbits` give one record,
an `OrbitSpec` keyed by its u and carrying the kernel's v.  Nothing here
calls a bracketing root finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

from .errors import DomainError, EnergyOutOfBand, QuadratureNonConvergence
from .model import DerivedConstants, ModelParams, _integer, derive_constants, potential

__all__ = [
    "OrbitSpec",
    "PeriodScan",
    "turning_points",
    "period_quadrature",
    "period_scan",
    "energy_grid",
    "PeriodCurve",
    "period_curve",
]

# no root finder; benchmark/tracing.py rebinds this name, so it stays until that file drops it
brentq = None

# clamp keeping solves away from the band edges, relative to |c_min|
BAND_CLAMP = 1e-9
# kernel tolerance of periods, scans, curves, solves and profiles by default
KERNEL_RTOL = 1e-10
# tanh-sinh rule: nodes t = k h with |t| <= TS_SPAN, h = 2^-level for
# levels TS_FIRST_LEVEL to TS_LAST_LEVEL
TS_SPAN = 3.2
TS_FIRST_LEVEL = 2
TS_LAST_LEVEL = 7
# the anchored difference sums SERIES_TERMS terms of its series in L
# where n |L| is below SERIES_SPAN
SERIES_SPAN = 0.02
SERIES_TERMS = 9
# root steps (Halley's, which add a curvature term to Newton's) a turning
# point and a curve inversion may take
NEWTON_STEPS = 100
# Chebyshev nodes of a period curve: the upper piece in sqrt u, which is
# the whole curve for n >= 5, and for n = 3 the contact piece in log u,
# which holds its u log u term, handing over at u = CONTACT_SPLIT
CURVE_NODES = 56
CONTACT_NODES = 32
CONTACT_SPLIT = 0.05
# Chebyshev nodes of a profile's time fit: PROFILE_NODES first, doubling
# up to MAX_PROFILE_NODES
PROFILE_NODES = 32
MAX_PROFILE_NODES = 512
# Chebyshev sums at up to FEW_POINTS points run in Python floats, which
# measured faster than numpy below about 30 points with 32 to 512 coefficients
FEW_POINTS = 16
# a confirmed orbit whose period misses the request by more than
# LANDING_FACTOR * rtol is refused
LANDING_FACTOR = 10.0
# energies an energy grid may hold, bounded before any is placed
MAX_SCAN_POINTS = 10**6
# orbits the kernel evaluates in one pass of a level, which bounds its
# arrays at a few tens of MB whatever the batch
KERNEL_ORBITS = 1024
# largest n whose p = w[u, v, g] is summed by Horner's rule, n - 2 steps a
# node; above it p comes from the gap anchored at a turning point, whose
# cost does not grow with n
HORNER_DIMENSION = 20


@dataclass(frozen=True)
class OrbitSpec:
    """One closed orbit: energy, turning points and period.

    nodes is the number of kernel integrand evaluations behind T;
    err_est is T's relative error estimate.  u = f_min/f_star is the
    orbit's key in warp coordinates: the kernel gives T from it alone.
    v = f_max/f_star is the outer turning point the kernel solved on the
    way, which the profile sampler reads rather than solving it again.
    """

    c: float
    a: float
    b: float
    T: float
    nodes: int
    err_est: float
    u: float
    v: float

    @property
    def amplitude(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class PeriodScan:
    """Result of scanning T(c) over an energy grid.

    entries[i] is the OrbitSpec for grid point i or None when that point
    failed; failures lists (index, exception) pairs.  Per-point failures
    never abort the rest of the scan.
    """

    c_grid: tuple[float, ...]
    entries: tuple[OrbitSpec | None, ...]
    failures: tuple[tuple[int, Exception], ...] = field(default_factory=tuple)


def turning_points(c: float, params: ModelParams) -> tuple[float, float]:
    """The turning points a < x_star < b of the orbit at energy c.

    `_inner_root` solves the one energy for u = f_min/f_star and
    `_outer_root` takes it to v = f_max/f_star; a, b = x_star (u, v)^(n/2).
    Energies within BAND_CLAMP * |c_min| of either band edge raise
    EnergyOutOfBand rather than being solved in noise, and a solve that
    does not settle raises QuadratureNonConvergence.
    """
    n, consts = params.n, derive_constants(params)
    _, u, failures = _inner_root([float(c)], consts, n)
    if failures:
        raise failures[0][1]
    v = _outer_root(u, n)
    if np.isnan(v[0]):
        raise _unsettled(u[0], n)
    a, b = consts.x_star * np.array([u[0], v[0]]) ** (n / 2.0)
    return float(a), float(b)


def _inner_root(grid: list[float], consts: DerivedConstants, n: int):
    """u = f_min/f_star of the orbits at the energies of grid, in one batch.

    With w as in `_rise`, an energy on the upper half of the band
    (c > c_min/2) solves w(u) = (2/n) c/|c_min|, and one on the lower half
    the anchored form w(u) - w(1) = (2/n)(c - c_min)/|c_min|, in which
    c - c_min is exact: each half keeps the digits of c that the other
    form would round away.  Bracketed Halley steps in (0, 1) start from
    the asymptotes |level|^(1/(n-2)) near contact and 1 - sqrt(lift/(n-2))
    near the well bottom.  Returns the indices solved, their u, and
    (index, error) for the rest: EnergyOutOfBand outside the clamped
    band, QuadratureNonConvergence where the steps did not settle.
    """
    c, depth = np.array(grid), abs(consts.c_min)
    # the band's ends are admitted; the absolute slack keeps grid points
    # placed exactly on them from bouncing on subtraction roundoff
    edge = BAND_CLAMP * depth - 4e-16 * depth
    outside = ~np.isfinite(c) | (c - consts.c_min < edge) | (-c < edge)
    upper = np.flatnonzero(~outside & (c > 0.5 * consts.c_min))
    lower = np.flatnonzero(~outside & (c <= 0.5 * consts.c_min))
    level = (2.0 / n) * c[upper] / depth
    lift = (2.0 / n) * (c[lower] - consts.c_min) / depth
    u = np.empty_like(c)
    u[upper], stuck_upper = _bracketed_newton(
        lambda g: (g ** (n - 2.0) * ((n - 2.0) / n * g * g - 1.0), *_w_derivatives(g, n)), level,
        np.abs(level) ** (1.0 / (n - 2.0)), lo=0.0, hi=1.0, rising=False, floor=0.0, scale=0.0)
    u[lower], stuck_lower = _bracketed_newton(
        lambda g: (_rise(1.0, g - 1.0, n), *_w_derivatives(g, n)), lift,
        1.0 - np.sqrt(lift / (n - 2.0)), lo=0.0, hi=1.0, rising=False, floor=0.0, scale=0.0)
    stuck = np.concatenate([upper[stuck_upper], lower[stuck_lower]])
    band = f"[{consts.c_min * (1.0 - BAND_CLAMP)}, {-BAND_CLAMP * depth}]"
    failures = [(i, EnergyOutOfBand(f"energy {grid[i]} outside the clamped band {band}"))
                for i in np.flatnonzero(outside).tolist()]
    failures += [(i, QuadratureNonConvergence(f"inner turning point did not settle in "
                                              f"{NEWTON_STEPS} Newton steps for c = {grid[i]}"))
                 for i in stuck.tolist()]
    keep = ~outside
    keep[stuck] = False
    return np.flatnonzero(keep), u[keep], failures


def _bracketed_newton(curve, target: np.ndarray, x: np.ndarray, *, lo, hi, rising: bool,
                      floor: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve curve(x) = target elementwise by Halley steps from x, in place.

    curve maps x to (value, slope, curvature) and is monotone on [lo, hi],
    rising or falling, with every target in its range there.  A step that
    leaves the bracket known so far is replaced by bisection.  An element
    stops once its step is at most 4 eps * max(|x|, scale) or its
    residual is at most floor; or once its step, inside the bracket, is
    at most 1e-5 * max(|x|, scale) and the Newton error it corrects,
    |f''/(2 f')| step^2, is at most (eps/2) max(|x|, scale), so that the
    step lands to roundoff.  Each rule reads the element alone, so its
    result does not depend on the batch.  Returns x and the indices still
    moving after NEWTON_STEPS steps.
    """
    todo = np.arange(x.size)
    eps = np.finfo(float).eps
    for _ in range(NEWTON_STEPS):
        if not todo.size:
            break
        xt = x[todo]
        value, slope, curvature = curve(xt)
        res = value - target[todo]
        past = (res > 0.0) == rising
        lo, hi = np.where(past, lo, xt), np.where(past, xt, hi)
        newton = -res / slope
        bend = 0.5 * curvature / slope
        new = xt + newton / (1.0 + bend * newton)
        inside = (lo <= new) & (new <= hi)
        new = np.where(inside, new, 0.5 * (lo + hi))
        x[todo] = new
        size = np.maximum(np.abs(xt), scale)
        step = np.abs(new - xt)
        landed = inside & (step <= 1e-5 * size) & (np.abs(bend) * step * step <= 0.5 * eps * size)
        more = (np.abs(res) > floor) & (step > 4.0 * eps * size) & ~landed
        todo, lo, hi = todo[more], lo[more], hi[more]
    return x, todo


@lru_cache(maxsize=64)
def _series_coeffs(n: int) -> tuple[float, ...]:
    """`_rise`'s series coefficients in L, from the L^(SERIES_TERMS+1) term down to L^2."""
    return tuple((n - 2.0) * (n ** (k - 1) - (n - 2.0) ** (k - 1)) / math.factorial(k)
                 for k in range(SERIES_TERMS + 1, 1, -1))


def _rise(t: np.ndarray, d: np.ndarray, n: int, excess: np.ndarray | None = None) -> np.ndarray:
    """w(t + d) - w(t) for w(g) = ((n-2)/n) g^n - g^(n-2), anchored at t.

    The anchored difference vanishes exactly at d = 0.  Near the well
    bottom the linear terms of its two expm1 cancel; there, with
    t^2 = 1 + (t^2 - 1), the rest is summed as its series in L from L^2
    on, which SERIES_TERMS terms take to roundoff for n |L| < SERIES_SPAN.
    Elsewhere it is a t^2 expm1(n L) - expm1((n-2) L), a = (n-2)/n, whose
    terms cancel from an outer turning point t = v near contact, where
    a v^2 tends to 1.  Given excess = a t^2 - 1 to full precision, it is
    written e^((n-2) L) (a t^2 expm1(2 L) + excess) - excess instead, with
    expm1(2 L) = q (2 + q) for q = d/t, which keeps its digits from
    either turning point.
    """
    q = d / t
    L = np.log1p(q)
    nL = n * L
    e_n = np.expm1(nL)
    series = 0.0
    for coeff in _series_coeffs(n):
        series = series * L + coeff
    near = (n - 2.0) / n * (t - 1.0) * (t + 1.0) * e_n + series * L * L
    if excess is None:
        far = (n - 2.0) / n * t * t * e_n - np.expm1((n - 2.0) * L)
    else:
        # a t^2 expm1(2 L) + excess = a t^2 (1 + q)^2 - 1
        far = np.exp((n - 2.0) * L) * ((n - 2.0) / n * t * t * (q * (2.0 + q)) + excess) - excess
    return t ** (n - 2.0) * np.where(np.abs(nL) < SERIES_SPAN, near, far)


def _w_slope(g: np.ndarray, n: int) -> np.ndarray:
    """w'(g) for w as in `_rise`."""
    return (n - 2.0) * g ** (n - 3.0) * (g - 1.0) * (g + 1.0)


def _w_derivatives(g: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """w'(g) and w''(g) = (n-2) g^(n-4) ((n-1) g^2 - (n-3)) for w as in `_rise`."""
    return _w_slope(g, n), (n - 2.0) * g ** (n - 4.0) * ((n - 1.0) * g * g - (n - 3.0))


def _outer_root(u: np.ndarray, n: int) -> np.ndarray:
    """f_max/f_star of the orbits dipping to u: the root v > 1 of w(v) = w(u).

    Bracketed Halley steps on (1, min(2 - u, sqrt(n/(n-2)))], whose right
    end lies right of the root, solve w(v) - w(1) = w(u) - w(1).  Both
    sides are rises from the well bottom, which keep their digits; a
    difference anchored at u would cancel two large exponentials and
    leave v, and with it the kernel's T, noisy in u.  An orbit whose steps
    did not settle gets v = NaN.
    """
    start = np.minimum(2.0 - u, math.sqrt(n / (n - 2.0)))
    v, stuck = _bracketed_newton(
        lambda g: (_rise(1.0, g - 1.0, n), *_w_derivatives(g, n)), _rise(1.0, u - 1.0, n),
        start.copy(), lo=1.0, hi=start, rising=True, floor=0.0, scale=0.0)
    v[stuck] = np.nan
    return v


def _unsettled(u: float, n: int) -> QuadratureNonConvergence:
    return QuadratureNonConvergence(
        f"outer turning point did not settle in {NEWTON_STEPS} Newton steps "
        f"for n = {n} at u = {u}")


def _integrand(turn, other, sin2, n: int):
    """g^(n/2-1) / sqrt(p(g)) at the points `_gap_factor` places."""
    g, p = _gap_factor(turn, other, sin2, n)
    return g ** (0.5 * n - 1.0) / np.sqrt(p)


def _gap_factor(turn, other, sin2, n: int):
    """g = turn + (other - turn) sin2 on the orbits with turning points
    turn and other, the nearer one first, and p(g) = (w(u) - w(g)) /
    ((g - u)(v - g)) there, with u < v the two; all broadcast together.

    Up to HORNER_DIMENSION, p is summed by Horner's rule.  With
    a = (n-2)/n and h_m the complete homogeneous polynomial of degree m
    in (u, v), its coefficient of g^j is a h_(m+2) - h_m for
    m = n - 4 - j, whose terms cancel near contact, where a v^2 - 1 tends
    to 0.  w(u) = w(v) gives a v^2 - 1 = delta = (u/v)^(n-2) (a u^2 - 1),
    and delta h_m + a u^(m+1) (u + v) keeps its digits.  Above it, p is
    the gap `_rise` anchors at turn, given delta, over
    (g - u)(v - g) = (v - u)^2 sin2 (1 - sin2), and -w'(t)/(other - t)
    at a turning point t itself.
    """
    d = (other - turn) * sin2
    g = turn + d
    u, v = np.minimum(turn, other), np.maximum(turn, other)
    a = (n - 2.0) / n
    delta = (u / v) ** (n - 2.0) * (a * u * u - 1.0)
    if n > HORNER_DIMENSION:
        excess = np.where(turn > other, delta, a * u * u - 1.0)
        end = sin2 == 0.0
        p = _rise(turn, d, n, excess) / (-(other - turn) ** 2
                                         * np.where(end, 1.0, sin2 * (1.0 - sin2)))
        if np.any(end):
            end = np.broadcast_to(end, p.shape)
            p[end] = np.broadcast_to(_w_slope(turn, n) / (turn - other), p.shape)[end]
        return g, p
    s = u + v
    p = a * g + a * s
    h, power = 1.0, u
    for _ in range(n - 3):
        p = p * g + (delta * h + a * power * s)
        h, power = v * h + power, power * u
    return g, p


def _out_of_range(u, n: int):
    """Where u^n is below the smallest normal float: p(u) and the anchored
    gap's exponentials leave the float range."""
    return np.asarray(u) ** n < np.finfo(float).tiny


@lru_cache(maxsize=16)
def _ts_level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The tanh-sinh nodes new at this level: sin(half)^2 of their half
    angles, and their weights dtheta/dt.

    theta = (pi/2) tanh((pi/2) sinh t) for t >= 0; the half angle
    pi/4 - theta/2 = (pi/2) / (1 + exp(pi sinh t)) keeps its relative
    precision next to the turning point.  The node at t = 0 stands for
    both halves of the orbit and carries half its weight in each.
    """
    h = 2.0**-level
    k = np.arange(int(TS_SPAN / h) + 1)
    if level > TS_FIRST_LEVEL:
        k = k[1::2]
    t = k * h
    e = np.exp(-math.pi * np.sinh(t))
    half = 0.5 * math.pi * e / (1.0 + e)
    weight = math.pi**2 * np.cosh(t) * e / (1.0 + e) ** 2
    if level == TS_FIRST_LEVEL:
        weight[0] *= 0.5
    return np.sin(half) ** 2, weight


class _Periods(NamedTuple):
    """Kernel output, one entry per orbit."""

    ratio: np.ndarray  # T/T0
    f_max: np.ndarray  # f_max/f_star
    err_est: np.ndarray  # relative error estimate of ratio
    nodes: np.ndarray  # integrand evaluations behind ratio


def _period_kernel(u, n: int, rtol: float) -> _Periods:
    """Periods of the orbits whose warp dips to f_min = u * f_star.

    One numpy pass per tanh-sinh level over the orbits still pending,
    with both halves of each orbit stacked in one array, KERNEL_ORBITS
    orbits at a time, so that memory stays bounded whatever the batch;
    each orbit is
    accepted at the first level whose change from the level before,
    plus one rounding of the sum, is at most rtol of its period, and
    drops out of the later levels.  Its nodes are summed row
    by row, so an orbit's result does not depend on the batch it comes
    in.  An orbit still unaccepted past the finest level keeps
    nodes == 0 and ratio 0, and so does one whose f_max is NaN or whose
    u is `_out_of_range`: it is never pending.  `_failure` names each.
    """
    u = np.asarray(u, dtype=float)
    v = _outer_root(u, n)
    live = np.flatnonzero(~np.isnan(v) & ~_out_of_range(u, n))
    scale = math.sqrt(n - 2.0) / math.pi
    total, ratio, err_est = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    nodes = np.zeros(u.shape, dtype=int)
    previous = None
    evaluations = 0
    for level in range(TS_FIRST_LEVEL, TS_LAST_LEVEL + 1):
        if not live.size:
            break
        sin2, weight = _ts_level(level)
        evaluations += 2 * sin2.size
        # both halves of up to KERNEL_ORBITS pending orbits in each pass:
        # the rows from v, then the rows from u
        for start in range(0, live.size, KERNEL_ORBITS):
            rows = live[start:start + KERNEL_ORBITS]
            lower, upper = u[rows, None], v[rows, None]
            both = _integrand(np.stack([upper, lower]), np.stack([lower, upper]), sin2, n)
            total[rows] += ((both[0] + both[1]) * weight).sum(axis=1)
        estimate = scale * 2.0**-level * total[live]
        if previous is not None:
            change = np.abs(estimate - previous) + np.finfo(float).eps * estimate
            accept = change <= rtol * estimate
            done = live[accept]
            ratio[done] = estimate[accept]
            err_est[done] = change[accept] / estimate[accept]
            nodes[done] = evaluations
            live, estimate = live[~accept], estimate[~accept]
        previous = estimate
    return _Periods(ratio, v, err_est, nodes)


def _failure(u: float, f_max: float, n: int, rtol: float) -> QuadratureNonConvergence:
    """Why the kernel left the orbit at u unaccepted."""
    if math.isnan(f_max):
        return _unsettled(u, n)
    if _out_of_range(u, n):
        why = ": u^n is below the smallest normal float, so the integrand leaves the float range"
    else:
        why = f" did not meet rtol = {rtol} by its finest level, h = 2^-{TS_LAST_LEVEL}"
    return QuadratureNonConvergence(f"period kernel for n = {n} at u = {u}{why}")


def _certified(u: np.ndarray, n: int, rtol: float) -> _Periods:
    """The kernel's periods, once it met rtol on every orbit of the batch u."""
    periods = _period_kernel(u, n, rtol)
    if not periods.nodes.all():
        j = int(np.argmin(periods.nodes != 0))
        raise _failure(u[j], periods.f_max[j], n, rtol)
    return periods


def period_quadrature(c: float, params: ModelParams, *, rtol: float = KERNEL_RTOL) -> OrbitSpec:
    """Period of the orbit at energy c: `period_scan` of the one energy.

    Energies outside the clamped band raise EnergyOutOfBand, and a
    period the kernel cannot certify to rtol raises
    QuadratureNonConvergence.
    """
    scan = period_scan([c], params, rtol=rtol)
    if scan.failures:
        raise scan.failures[0][1]
    return scan.entries[0]


def period_scan(c_grid, params: ModelParams, *, rtol: float = KERNEL_RTOL) -> PeriodScan:
    """Periods of the orbits at a grid of energies, in grid order.

    `_inner_root` solves the grid for u in one batch, and one kernel call
    takes every orbit from there.  Both are batch-invariant, so each
    entry carries the bits a single point would.  A point whose energy
    lies within BAND_CLAMP * |c_min| of either band edge fails with
    EnergyOutOfBand, and one whose solve does not settle or whose period
    the kernel cannot certify fails with QuadratureNonConvergence; each
    is collected with its index, so one bad energy does not spoil the
    scan.  Any other exception is a fault and propagates.
    """
    grid = [float(c) for c in c_grid]
    if not grid:
        raise DomainError("energy grid must be non-empty")
    n, consts = params.n, derive_constants(params)
    index, u, failures = _inner_root(grid, consts, n)
    results: list[OrbitSpec | None] = [None] * len(grid)
    if index.size:
        periods = _period_kernel(u, n, rtol)
        a, b = consts.x_star * np.array([u, periods.f_max]) ** (n / 2.0)
        for j, idx in enumerate(index.tolist()):
            if periods.nodes[j]:
                results[idx] = OrbitSpec(grid[idx], float(a[j]), float(b[j]),
                                         float(periods.ratio[j]) * consts.T0,
                                         int(periods.nodes[j]), float(periods.err_est[j]),
                                         float(u[j]), float(periods.f_max[j]))
            else:
                failures.append((idx, _failure(u[j], periods.f_max[j], n, rtol)))
    failures.sort(key=lambda failure: failure[0])
    return PeriodScan(c_grid=tuple(grid), entries=tuple(results), failures=tuple(failures))


def energy_grid(
    params: ModelParams,
    size: int,
    *,
    s_lo: float = BAND_CLAMP,
    s_hi: float = BAND_CLAMP,
    mode: str = "log",
) -> np.ndarray:
    """Grid of energies spanning the clamped band (c_min, 0).

    Parametrize c = c_min + s * |c_min| with s in (s_lo, 1 - s_hi).
    mode "log" spaces s logarithmically from the well bottom up, which
    resolves the small-amplitude end; "symlog" splits the points between
    a log approach to the bottom and a log approach to the contact
    energy, resolving both edges at once.  A size above MAX_SCAN_POINTS
    raises DomainError before any point is placed.
    """
    size = _integer("size", size)
    if size < 2:
        raise DomainError(f"grid size must be >= 2, got {size}")
    _check_scan_size(size)
    if not (0.0 < s_lo < 0.5 and 0.0 < s_hi < 0.5):
        raise DomainError("clamps must lie in (0, 0.5)")
    consts = derive_constants(params)
    depth = abs(consts.c_min)
    if mode == "log":
        s = np.logspace(math.log10(s_lo), math.log10(1.0 - s_hi), size)
    elif mode == "symlog":
        n_lo = size // 2
        n_hi = size - n_lo
        lower = np.logspace(math.log10(s_lo), math.log10(0.5), n_lo, endpoint=False)
        upper = 1.0 - np.logspace(math.log10(s_hi), math.log10(0.5), n_hi)
        s = np.concatenate([lower, upper[::-1]])
    else:
        raise DomainError(f"unknown grid mode {mode!r}")
    return consts.c_min + s * depth


def _check_scan_size(size: int) -> None:
    """Refuse a grid of more than MAX_SCAN_POINTS energies."""
    if size > MAX_SCAN_POINTS:
        raise DomainError(f"grid size {size} (--scan) is above the limit of "
                          f"{MAX_SCAN_POINTS}; lower it")


def _clenshaw(c: list[float], x: float) -> float:
    """numpy's Clenshaw recurrence for chebval, step for step, in Python floats."""
    if len(c) == 1:
        return c[0] + 0 * x
    if len(c) == 2:
        return c[0] + c[1] * x
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ci in reversed(c[:-2]):
        c0, c1 = ci - c1, c0 + c1 * x2
    return c0 + c1 * x


def _chebval(x, c: np.ndarray):
    """chebval(x, c) bit for bit, for x a scalar or a 1-D array and c of
    shape (N,) or (N, k), with numpy's result shape and type.

    At most FEW_POINTS points are summed by `_clenshaw` in Python floats:
    its steps are numpy's own, and +, - and * round alike in both, while
    numpy pays one round of ufunc calls per coefficient.
    """
    if np.size(x) > FEW_POINTS:
        return chebval(x, c)
    columns = c.T.tolist() if c.ndim == 2 else [c.tolist()]
    points = [float(x)] if np.ndim(x) == 0 else x.tolist()
    sums = np.array([[_clenshaw(col, p) for p in points] for col in columns])
    if np.ndim(x) == 0:
        sums = sums[:, 0]
    return sums if c.ndim == 2 else sums[0]


# the maps of a `_ChebSeries` argument y onto its series variable, each
# with its inverse
_MAPS = {"linear": (lambda y: y, lambda v: v), "log": (np.log, np.exp),
         "sqrt": (np.sqrt, np.square)}


@dataclass(frozen=True, eq=False)
class _ChebSeries:
    """Chebyshev series in x in [-1, 1], which maps onto [lo, hi] in its
    argument y, in log y or in sqrt y, as map is "linear", "log" or
    "sqrt": a piece of a period curve in u, or a profile's time in theta."""

    lo: float
    hi: float
    map: str
    coeffs: np.ndarray

    @cached_property
    def derivative_coeffs(self) -> np.ndarray:
        """The series and its first two x-derivatives as columns, for one
        Clenshaw pass, without the trailing coefficients below
        eps * sum |c|: they move no sum by more than its roundoff."""
        c = self.coeffs
        size = np.flatnonzero(np.abs(c) >= np.finfo(float).eps * np.abs(c).sum())[-1] + 1
        slope = chebder(c[:size])
        curvature = chebder(slope)
        return np.stack([c[:size], np.pad(slope, (0, size - slope.size)),
                         np.pad(curvature, (0, size - curvature.size))], axis=1)

    @cached_property
    def table(self) -> np.ndarray:
        """The series and its x-derivative at the 2N first-kind Chebyshev
        points inside (-1, 1), as rows (x, value, slope) in ascending x,
        from which `root` seeds its Halley steps.  At x = cos(phi) they
        are sums of cos(k phi) and k sin(k phi) / sin(phi), one product
        each with `_seed_matrices`, with no Clenshaw pass."""
        x, cos, sin = _seed_matrices(self.coeffs.size)
        return np.column_stack([x, cos @ self.coeffs, sin @ self.coeffs])

    @property
    def start(self) -> float:
        """The argument y at which the series begins, x = -1."""
        return _MAPS[self.map][1](self.lo)

    def x_of(self, y):
        return (2.0 * _MAPS[self.map][0](y) - self.lo - self.hi) / (self.hi - self.lo)

    def y_of(self, x):
        return _MAPS[self.map][1](0.5 * (self.lo + self.hi) + 0.5 * (self.hi - self.lo) * x)

    def value(self, y):
        return _chebval(self.x_of(y), self.coeffs)

    def root(self, target: np.ndarray, a: float, b: float) -> np.ndarray:
        """The x in [a, b] where the series takes each target.

        The series is monotone on [a, b] and every target lies in its
        range.  Each target starts from the cubic Hermite inverse of the
        (x, value, slope) nodes of `table` inside (a, b) and of a and b
        themselves, on the two nodes whose values hold it; each node's
        slope is clamped to between 0 and 3 times that of the chord, so
        the cubic stays monotone (Fritsch and Carlson) and the start
        between the two nodes.  `_bracketed_newton` takes Halley steps
        from there on `derivative_coeffs`; an element stops once its step
        lands to roundoff or is at most 4 eps, or once its residual is
        down to the series' roundoff, where a flat slope leaves x
        unresolved.  The start and every step are elementwise, so a
        target's x does not depend on its batch.
        """
        (pa, pb), (sa, sb), _ = _chebval(np.array([a, b]), self.derivative_coeffs)
        if pa == pb:  # a flat series: every x attains its one value
            return np.full_like(target, a)
        table = self.table
        inside = table[(a < table[:, 0]) & (table[:, 0] < b)]
        nodes = np.vstack([(a, pa, sa), inside, (b, pb, sb)])
        # values ascending, for the search
        xs, ys, ps = (nodes if pb > pa else nodes[::-1]).T
        i = np.clip(np.searchsorted(ys, target) - 1, 0, ys.size - 2)
        dx, dy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            # fmax takes the nan of a flat chord to 0
            t = np.fmin(np.fmax((target - ys[i]) / dy, 0.0), 1.0)
            r0, r1 = (np.fmin(np.fmax(dy / dx / p, 0.0), 3.0) for p in (ps[i], ps[i + 1]))
        s = 1.0 - t
        x = xs[i] + dx * (t * t * (3.0 - 2.0 * t) + t * s * (r0 * s - r1 * t))
        floor = 4.0 * np.finfo(float).eps * np.abs(self.coeffs).sum()
        x, stuck = _bracketed_newton(lambda x: _chebval(x, self.derivative_coeffs), target,
                                     x, lo=a, hi=b, rising=pb > pa, floor=floor, scale=1.0)
        if stuck.size:
            raise QuadratureNonConvergence(
                f"Chebyshev series inversion did not settle in {NEWTON_STEPS} Newton steps"
            )
        return x


@lru_cache(maxsize=16)
def _seed_matrices(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x_j = cos(phi_j) at the 2 size first-kind Chebyshev angles phi_j
    of `_cheb_angles`, in ascending x, and T_k(x_j) = cos(k phi_j) and
    T_k'(x_j) = k sin(k phi_j) / sin(phi_j) for k < size, as read-only
    arrays (x, cos, sin)."""
    phi = _cheb_angles(2 * size)[::-1]
    k = np.arange(size)
    angle = np.outer(phi, k)
    arrays = (np.cos(phi), np.cos(angle), k * np.sin(angle) / np.sin(phi)[:, None])
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _cheb_angles(size: int) -> np.ndarray:
    """The angles phi of the size first-kind Chebyshev nodes x = cos(phi)."""
    return math.pi * (np.arange(size) + 0.5) / size


@lru_cache(maxsize=16)
def _fit_matrix(size: int) -> np.ndarray:
    """(2/size) cos(k phi_j) for the size angles phi_j of `_cheb_angles`:
    the cosine transform that `_cheb_coeffs` applies, read-only."""
    matrix = (2.0 / size) * np.cos(np.outer(np.arange(size), _cheb_angles(size)))
    matrix.flags.writeable = False
    return matrix


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """The series through values at the first-kind Chebyshev nodes
    cos(_cheb_angles(values.size)), by the cosine transform, whose matrix
    is built once per node count."""
    coeffs = _fit_matrix(values.size) @ values
    coeffs[0] *= 0.5
    return coeffs


def _integral(c: np.ndarray) -> np.ndarray:
    """chebint(c, lbnd=-1) bit for bit, in a few array operations where
    numpy loops over the coefficients (numpy leaves the one-term zero
    series unintegrated; this integrates it).

    Coefficient j >= 2 of the integral is c[j-1] / 2j less c[j+1] / 2j,
    coefficient 1 is c[0] less c[2] / 2, and coefficient 0 makes the
    integral vanish at -1.  Each coefficient takes numpy's operations in
    numpy's order, and coefficient 0 numpy's Clenshaw steps (`_clenshaw`).
    """
    size = c.size
    out = np.empty(size + 1)
    out[0] = c[0] * 0.0
    out[1] = c[0]
    out[2:] = c[1:] / (2.0 * np.arange(2, size + 1))
    out[1:size - 1] -= c[2:] / (2.0 * np.arange(1, size - 1))
    out[0] += 0.0 - _clenshaw(out.tolist(), -1.0)
    return out


def _arc(x, u: float, v: float):
    """The nearer turning point of g = m + r sin(theta) at
    x = theta/(pi/2), the other, and the half angle pi/4 - |theta|/2 from
    which the kernel's nodes are written."""
    upper = x >= 0.0
    return np.where(upper, v, u), np.where(upper, u, v), 0.25 * math.pi * (1.0 - np.abs(x))


def _orbit_samples(u: float, v: float, n: int, times: np.ndarray, period: float, rtol: float):
    """x/x_star and dx/dt/(omega x_star) of the orbit between the turning
    points u and v = f_max/f_star at times in [0, period], in units of
    1/omega, the series t(theta) placing them, and the relative change of
    its half period at the last doubling.  v is the kernel's, read from
    the confirmed orbit, not solved again.

    The kernel's integrand in theta, dt/dtheta = sqrt(n-2) g^(n/2-1) /
    sqrt(p(g)), is smooth on [-pi/2, pi/2].  Its fit
    on first-kind Chebyshev nodes doubles from PROFILE_NODES nodes until
    the half period t(pi/2) changes by at most rtol, plus one rounding;
    past MAX_PROFILE_NODES it raises QuadratureNonConvergence.  Each fit
    is `_cheb_coeffs`, whose cosine transform is built once per node
    count, and `_integral`, numpy's chebint without its loop; both give
    numpy's bits.  The integral is t(theta) from the inner turning point,
    and `_ChebSeries.root` inverts min(t, period - t) for every time at
    once; the second half of the orbit mirrors the first with the
    velocity negated, and the energy gives each speed from the gap
    w(u) - w(g) = (r sin(2 half))^2 p(g).  The series returned is the
    whole fit, one coefficient per node and one more, whatever `root`
    drops from its own sums.
    """
    size, previous = PROFILE_NODES, None
    while True:
        turn, other, half = _arc(np.cos(_cheb_angles(size)), u, v)
        rate = math.sqrt(n - 2.0) * _integrand(turn, other, np.sin(half) ** 2, n)
        coeffs = 0.5 * math.pi * _integral(_cheb_coeffs(rate))
        half_period = float(_chebval(1.0, coeffs))
        if previous is not None:
            change = abs(half_period - previous) + np.finfo(float).eps * half_period
            if change <= rtol * half_period:
                break
        if size >= MAX_PROFILE_NODES:
            raise QuadratureNonConvergence(
                f"profile of n = {n} at u = {u}: the half period did not settle to "
                f"rtol = {rtol} by {MAX_PROFILE_NODES} Chebyshev nodes")
        previous, size = half_period, 2 * size
    series = _ChebSeries(-1.0, 1.0, "linear", coeffs)
    turn, other, half = _arc(series.root(np.clip(np.minimum(times, period - times), 0.0,
                                                half_period), -1.0, 1.0), u, v)
    g, p = _gap_factor(turn, other, np.sin(half) ** 2, n)
    gap = (0.5 * (v - u) * np.sin(2.0 * half)) ** 2 * p
    speed = 0.5 * n * np.sqrt(gap / (n - 2.0))
    velocity = np.where(times <= 0.5 * period, speed, -speed)
    return g ** (0.5 * n), velocity, series, change / half_period


@dataclass(frozen=True, eq=False)
class PeriodCurve:
    """T/T0 against u = f_min/f_star for one dimension n.

    Writing f = f_star * g and measuring time in units of 1/omega removes
    R and Rt from the reduced equation, so the period ratio of the orbit
    whose warp dips to u * f_star is a function of n alone, and one curve
    serves every (R, Rt).  The orbit behind u has inner turning point
    a = x_star * u^(n/2) and energy c = potential(a).  `orbits` is the
    one way to an orbit of a given period.

    u_lo, u_hi  the orbits BAND_CLAMP admits: contact end, well-bottom end
    band        the attained range of T/T0 over [u_lo, u_hi], ascending
    pieces      for n = 3 the contact piece in log u, then the upper piece
                in sqrt u, which starts at the hand-over point, its
                `start`; for every other n the one piece, which spans
                [u_lo, u_hi] and takes every u and every period
    quadratures kernel orbits the build took: its fit nodes
    nodes       integrand evaluations the build took

    The curve carries no error figure of its own: every orbit `orbits`
    gives is confirmed by the kernel, with the kernel's err_est.
    """

    n: int
    rtol: float
    u_lo: float
    u_hi: float
    pieces: tuple[_ChebSeries, ...]
    quadratures: int
    nodes: int

    @cached_property
    def band(self) -> tuple[float, float]:
        ends = (float(self.ratio(self.u_lo)), float(self.ratio(self.u_hi)))
        return min(ends), max(ends)

    def ratio(self, u):
        """T/T0 of the orbits whose warps dip to u * f_star."""
        u = np.asarray(u, dtype=float)
        *contact, upper = self.pieces
        if not contact:
            return upper.value(u)[()]
        return np.where(u >= upper.start, upper.value(u), contact[0].value(u))[()]

    def orbits(self, taus, params: ModelParams) -> tuple[OrbitSpec | None, ...]:
        """The orbits of params with periods taus; None for a tau outside the band.

        Every in-band tau is inverted on the piece whose range holds it,
        a piece that holds none is not touched, and one kernel call at the
        resulting u gives each orbit its T, f_max, nodes and err_est; a
        batch with no in-band tau calls no kernel.  The curve is monotone,
        so one inversion is the whole path: nothing is polished, and an
        orbit whose T misses tau by more than LANDING_FACTOR * rtol raises
        QuadratureNonConvergence, which names tau/T0, the miss and rtol.
        The kernel treats each orbit alone, so an orbit's result does not
        depend on the batch it comes in.  Each orbit carries the u its T
        came from and the kernel's v.
        """
        inside, *columns = self._columns(taus, params)
        by_index = dict(zip(inside, map(OrbitSpec, *columns)))
        return tuple(by_index.get(j) for j in range(len(taus)))

    def _columns(self, taus, params: ModelParams) -> tuple[list, ...]:
        """`orbits` as columns: the indices of the in-band taus, then the
        OrbitSpec fields c, a, b, T, nodes, err_est, u and v of their
        orbits, each a list in that order."""
        if params.n != self.n:
            raise DomainError(f"period curve of n = {self.n} asked for n = {params.n}")
        consts = derive_constants(params)
        target = np.asarray(taus, dtype=float) / consts.T0
        inside = np.flatnonzero((self.band[0] <= target) & (target <= self.band[1]))
        if not inside.size:
            return ([],) * 9
        target = target[inside]
        # a one-piece curve sends every target to its piece
        *contact, upper = self.pieces
        split, near = self.u_lo, np.zeros(target.shape, dtype=bool)
        if contact:
            split = upper.start
            r_split = upper.value(split)
            near = (target - r_split) * (contact[0].value(self.u_lo) - r_split) > 0.0
        u = np.empty_like(target)
        for piece, lo, hi, mine in ((self.pieces[0], self.u_lo, split, near),
                                    (upper, split, self.u_hi, ~near)):
            if not mine.any():
                continue
            x = piece.root(target[mine], piece.x_of(lo), piece.x_of(hi))
            u[mine] = np.clip(piece.y_of(x), lo, hi)

        ratio, f_max, err_est, nodes = _certified(u, self.n, self.rtol)
        gap = np.abs(target - ratio)
        missed = np.flatnonzero(gap > LANDING_FACTOR * self.rtol * target)
        if missed.size:
            j = missed[0]
            raise QuadratureNonConvergence(
                f"period inversion at tau/T0 = {target[j]}: the kernel's period misses tau "
                f"by {gap[j] / target[j]:.3g}, more than {LANDING_FACTOR:g} * rtol with "
                f"rtol = {self.rtol}; loosen --rtol"
            )
        a, b = consts.x_star * np.array([u, f_max]) ** (self.n / 2.0)
        return (inside.tolist(), potential(a, params).tolist(), a.tolist(), b.tolist(),
                (ratio * consts.T0).tolist(), nodes.tolist(), err_est.tolist(), u.tolist(),
                f_max.tolist())


def period_curve(n: int, rtol: float = KERNEL_RTOL) -> PeriodCurve:
    """The period curve of dimension n, its nodes taken at kernel rtol.

    Built once per process for each (n, rtol) on the canonical parameters
    ModelParams(n, n - 1, n - 1), which give x_star = 1, omega = 1 and
    T0 = 2 pi exactly.  CURVE_NODES nodes in sqrt u fit T/T0, which is
    smooth in sqrt u down to contact for every n >= 5: one piece on
    [u_lo, 1].  n = 3's period has a u log u term at contact, so its
    piece in sqrt u spans [CONTACT_SPLIT, 1] and CONTACT_NODES nodes in
    log u fit the rest, from u_lo.  The nodes of every piece go to the
    kernel in one call, and the build refuses node values that are not
    strictly monotone in u.  For n = 4 every orbit has period T0 and the
    curve is the constant 1, built without the kernel.
    """
    return _cached_curve(ModelParams(n, n - 1.0, n - 1.0), float(rtol))


@lru_cache(maxsize=32)
def _cached_curve(canon: ModelParams, rtol: float) -> PeriodCurve:
    n = canon.n
    consts = derive_constants(canon)
    depth = abs(consts.c_min)
    # both ends of the clamped band are admitted
    u_lo, u_hi = _inner_root([-BAND_CLAMP * depth, consts.c_min + BAND_CLAMP * depth],
                             consts, n)[1].tolist()
    if n == 4:
        flat = _ChebSeries(u_lo, u_hi, "linear", np.ones(1))
        return PeriodCurve(n, rtol, u_lo, u_hi, (flat,), 0, 0)

    # n = 3 alone has a u log u term at contact, which its log-u piece takes
    split = CONTACT_SPLIT if n == 3 else u_lo
    layout = [(math.log(u_lo), math.log(split), "log", CONTACT_NODES)] if n == 3 else []
    layout.append((math.sqrt(split), 1.0, "sqrt", CURVE_NODES))
    angles = [_cheb_angles(size) for *_, size in layout]
    # placing nodes needs only a piece's map, not its coefficients
    us = np.concatenate([_ChebSeries(lo, hi, kind, np.empty(0)).y_of(np.cos(theta))
                         for (lo, hi, kind, _), theta in zip(layout, angles)])
    periods = _certified(us, n, rtol)
    steps = np.diff(periods.ratio[np.argsort(us)])
    if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise QuadratureNonConvergence(
            f"period curve for n = {n} at rtol = {rtol}: node periods are not "
            "strictly monotone in f_min"
        )
    values = np.split(periods.ratio, np.cumsum([theta.size for theta in angles])[:-1])
    pieces = tuple(_ChebSeries(lo, hi, kind, _cheb_coeffs(vals))
                   for (lo, hi, kind, _), vals in zip(layout, values))
    return PeriodCurve(n, rtol, u_lo, u_hi, pieces, us.size, int(periods.nodes.sum()))
