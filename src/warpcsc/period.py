"""Turning points and the orbit period, computed in warp coordinates.

Scaling removes R and Rt from the reduced equation, so in units of
f_star and T0 an orbit is fixed by u = f_min/f_star.  With x = f^(n/2),

    T/T0 = (sqrt(n-2)/pi) * integral_u^v g^(n/2-1) dg / sqrt(w(u) - w(g)),
    w(g) = ((n-2)/n) g^n - g^(n-2),

where g = f/f_star runs between the turning points u and v > 1.  The
integrand stays regular down to contact, where the orbit approaches the
spherical suspension that crosses f = 0 with nonzero slope.

`_period_kernel` evaluates this for a batch of orbits in one numpy pass
per level: v comes from a vectorized Newton solve, g = m + r sin(theta)
removes both endpoint singularities, each node is written against its
nearest turning point through half angles and the anchored difference
`_rise`, and a tanh-sinh rule (Takahasi-Mori) on fixed nodes per level
takes its error estimate from the change between two levels.

`period_curve(n, rtol)` fits T/T0 against u with two Chebyshev pieces,
once per process for each (n, rtol), one kernel call per piece.  Its
`orbits(taus, params)` is the package's one period inversion: it inverts
a batch of periods on the fit and confirms every orbit in one kernel
call.  `bifurcation.scan_branches` asks it once for all its rows, and
`solver.solve_period` for its one orbit.  Counting solutions needs no
inversion (see `bifurcation`).

`period_quadrature(c)` keeps the energy interface: `turning_points`
solves the turning points by `brentq` from `_brent`, the package's own
port of scipy's Brent solver, and the kernel takes the orbit from the
inner one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

from ._brent import brentq
from .errors import DomainError, EnergyOutOfBand, QuadratureNonConvergence, ToolkitError
from .model import (
    ModelParams,
    derive_constants,
    force,
    potential,
    potential_above_min,
)

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

# clamp keeping solves away from the band edges, relative to |c_min|
BAND_CLAMP = 1e-9
# relative tolerance of the Brent solve for each turning point
TURNING_RTOL = 1e-13
# tanh-sinh rule: nodes t = k h with |t| <= TS_SPAN, h = 2^-level for
# levels TS_FIRST_LEVEL to TS_LAST_LEVEL
TS_SPAN = 3.2
TS_FIRST_LEVEL = 2
TS_LAST_LEVEL = 7
# the anchored difference sums SERIES_TERMS terms of its series in L
# where n |L| is below SERIES_SPAN
SERIES_SPAN = 0.02
SERIES_TERMS = 9
# Newton steps the outer turning point and a curve inversion may take
NEWTON_STEPS = 100
# kernel calls the confirmation and polish of a batch of orbits may take
MAX_POLISH_STEPS = 100
# Chebyshev nodes of a period curve: the upper piece in u, the contact
# piece in log u, handing over at u = CONTACT_SPLIT
CURVE_NODES = 48
CONTACT_NODES = 32
CONTACT_SPLIT = 0.05
# held-out kernel orbits per curve piece behind its err_est
CURVE_CHECKS = 8
# an orbit is polished on the kernel while its period misses the
# request by more than POLISH_FACTOR * rtol, and stops once its step in
# u is at most POLISH_XTOL * u
POLISH_FACTOR = 10.0
POLISH_XTOL = 1e-12


@dataclass(frozen=True)
class OrbitSpec:
    """One closed orbit: energy, turning points and period.

    nodes is the number of kernel integrand evaluations behind T;
    err_est is T's relative error estimate.
    """

    c: float
    a: float
    b: float
    T: float
    nodes: int
    err_est: float

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


def _check_band(c: float, params: ModelParams) -> None:
    """Refuse c outside the BAND_CLAMP band."""
    consts = derive_constants(params)
    depth = abs(consts.c_min)
    e_above = c - consts.c_min
    # the boundary itself is admitted; the absolute slack keeps grid
    # points placed exactly on it from bouncing on subtraction roundoff
    edge = BAND_CLAMP * depth - 4e-16 * depth
    if not math.isfinite(c) or e_above < edge or -c < edge:
        raise EnergyOutOfBand(
            f"energy {c} outside the clamped band "
            f"[{consts.c_min * (1.0 - BAND_CLAMP)}, {-BAND_CLAMP * depth}]"
        )


def turning_points(c: float, params: ModelParams) -> tuple[float, float]:
    """Solve potential(x) = c for the two roots bracketing x_star.

    The inner bracket comes from repeated halving below x_star, the outer
    from repeated doubling above, then each root is polished by Brent's
    method and two Newton steps.  Energies within BAND_CLAMP * |c_min|
    of either band edge are rejected rather than solved in noise.
    """
    _check_band(c, params)
    x_star = derive_constants(params).x_star
    g = _level_gap(c, params)
    lo = x_star
    for _ in range(2000):
        lo *= 0.5
        if g(lo) > 0.0:
            break
    else:
        raise QuadratureNonConvergence(
            f"inner turning point bracket not found below x_star for c = {c}"
        )
    hi = 2.0 * x_star
    for _ in range(2000):
        if g(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise QuadratureNonConvergence(
            f"outer turning point bracket not found above x_star for c = {c}"
        )
    a = brentq(g, lo, min(2.0 * lo, x_star), xtol=1e-300, rtol=TURNING_RTOL)
    b = brentq(g, max(0.5 * hi, x_star), hi, xtol=1e-300, rtol=TURNING_RTOL)
    return float(_newton_polish(a, g, params)), float(_newton_polish(b, g, params))


def _level_gap(c: float, params: ModelParams):
    """x -> potential(x) - c, in the form that keeps c's digits.

    On the lower half of the band c - c_min is exact, and the offset
    potential keeps full precision near the well bottom.  On the upper
    half c - c_min would round away the digits of a small |c|, and the
    plain potential keeps them.
    """
    c_min = derive_constants(params).c_min
    if c <= 0.5 * c_min:
        e_above = c - c_min
        return lambda x: potential_above_min(x, params) - e_above
    return lambda x: potential(x, params) - c


def _newton_polish(root: float, g, params: ModelParams) -> float:
    """Two Newton steps on the level gap g from a Brent root.

    Brent leaves a relative-in-x error near TURNING_RTOL; two Newton steps
    (the gap's derivative is exactly the force) push the potential
    residue down to roundoff.
    """
    for _ in range(2):
        slope = force(root, params)
        if slope == 0.0 or not math.isfinite(slope):
            break
        candidate = root - g(root) / slope
        if candidate > 0.0:
            root = candidate
    return root


def _rise(t: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """w(t + d) - w(t) for w(g) = ((n-2)/n) g^n - g^(n-2), anchored at t.

    The anchored difference vanishes exactly at d = 0.  Near the well
    bottom the linear terms of its two expm1 cancel; there, with
    t^2 = 1 + (t^2 - 1), the rest is summed as its series in L from L^2
    on, which SERIES_TERMS terms take to roundoff for n |L| < SERIES_SPAN.
    """
    L = np.log1p(d / t)
    e_n = np.expm1(n * L)
    series = 0.0
    for k in range(SERIES_TERMS + 1, 1, -1):
        series = series * L + (n - 2.0) * (n ** (k - 1) - (n - 2.0) ** (k - 1)) / math.factorial(k)
    near = (n - 2.0) / n * (t - 1.0) * (t + 1.0) * e_n + series * L * L
    far = (n - 2.0) / n * t * t * e_n - np.expm1((n - 2.0) * L)
    return t ** (n - 2.0) * np.where(np.abs(n * L) < SERIES_SPAN, near, far)


def _outer_root(u: np.ndarray, n: int) -> np.ndarray:
    """f_max/f_star of the orbits dipping to u: the root v > 1 of w(v) = w(u).

    Newton on the anchored difference from min(2 - u, sqrt(n/(n-2))),
    which lies right of the root; w is convex there, so the steps
    shrink until roundoff, where an orbit stops.
    """
    v = np.minimum(2.0 - u, math.sqrt(n / (n - 2.0)))
    active = np.ones(u.shape, dtype=bool)
    last = np.full(u.shape, np.inf)
    for _ in range(NEWTON_STEPS):
        step = _rise(u, v - u, n) / ((n - 2.0) * v ** (n - 3.0) * (v - 1.0) * (v + 1.0))
        shrinking = np.abs(step) < last
        v = np.where(active & shrinking, v - step, v)
        active &= shrinking & (np.abs(step) > 4.0 * np.finfo(float).eps * v)
        last = np.abs(step)
        if not active.any():
            return v
    raise QuadratureNonConvergence(
        f"outer turning point did not settle in {NEWTON_STEPS} Newton steps for n = {n}"
    )


@lru_cache(maxsize=16)
def _ts_level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Half angles and weights of the tanh-sinh nodes new at this level.

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
    return half, weight


class _Periods(NamedTuple):
    """Kernel output, one entry per orbit."""

    ratio: np.ndarray  # T/T0
    f_max: np.ndarray  # f_max/f_star
    err_est: np.ndarray  # relative error estimate of ratio
    nodes: np.ndarray  # integrand evaluations behind ratio


def _period_kernel(u, n: int, rtol: float) -> _Periods:
    """Periods of the orbits whose warp dips to f_min = u * f_star.

    One numpy pass per tanh-sinh level over the whole batch; each orbit
    is accepted at the first level whose change from the level before,
    plus one rounding of the sum, is at most rtol of its period, so an
    orbit's result does not depend on the batch it comes in.
    """
    u = np.asarray(u, dtype=float)
    v = _outer_root(u, n)
    r = 0.5 * (v - u)
    scale = math.sqrt(n - 2.0) / math.pi * r
    total, ratio, err_est = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    nodes = np.zeros(u.shape, dtype=int)
    previous = None
    evaluations = 0
    for level in range(TS_FIRST_LEVEL, TS_LAST_LEVEL + 1):
        half, weight = _ts_level(level)
        evaluations += 2 * half.size
        sh = np.sin(half)
        offset = 2.0 * r[:, None] * sh**2
        values = np.zeros_like(offset)
        for turn, d in ((v[:, None], -offset), (u[:, None], offset)):
            gap = -_rise(turn, d, n)
            # roundoff can graze zero at the outermost nodes
            ok = gap > 0.0
            values += np.where(ok, (turn + d) ** (0.5 * n - 1.0) / np.sqrt(np.where(ok, gap, 1.0)), 0.0)
        total += (values * (2.0 * sh * np.cos(half) * weight)).sum(axis=1)
        estimate = scale * 2.0**-level * total
        if previous is not None:
            change = np.abs(estimate - previous) + np.finfo(float).eps * estimate
            accept = (nodes == 0) & (change <= rtol * estimate)
            ratio[accept] = estimate[accept]
            err_est[accept] = change[accept] / estimate[accept]
            nodes[accept] = evaluations
            if nodes.all():
                return _Periods(ratio, v, err_est, nodes)
        previous = estimate
    raise QuadratureNonConvergence(
        f"period kernel for n = {n} at u = {u[nodes == 0][0]} did not meet rtol = {rtol} "
        f"by its finest level, h = 2^-{TS_LAST_LEVEL}"
    )


def period_quadrature(c: float, params: ModelParams, *, rtol: float = 1e-10) -> OrbitSpec:
    """Period of the orbit at energy c.

    `turning_points` gives a and b; the kernel takes the orbit from
    u = (a/x_star)^(2/n).  Energies outside the clamped band raise
    EnergyOutOfBand, and a period the kernel cannot certify to rtol
    raises QuadratureNonConvergence.
    """
    a, b = turning_points(c, params)
    consts = derive_constants(params)
    orbit = _period_kernel(np.array([(a / consts.x_star) ** (2.0 / params.n)]), params.n, rtol)
    return OrbitSpec(
        c=float(c),
        a=a,
        b=b,
        T=float(orbit.ratio[0]) * consts.T0,
        nodes=int(orbit.nodes[0]),
        err_est=float(orbit.err_est[0]),
    )


def period_scan(c_grid, params: ModelParams, *, rtol: float = 1e-10) -> PeriodScan:
    """Evaluate period_quadrature over a grid of energies, in grid order.

    A point that fails with a ToolkitError is collected, so one bad
    energy does not spoil the scan; any other exception is a fault and
    propagates.  Energies within BAND_CLAMP * |c_min| of either band
    edge fail with EnergyOutOfBand.
    """
    grid = [float(c) for c in c_grid]
    if not grid:
        raise DomainError("energy grid must be non-empty")
    results: list[OrbitSpec | None] = [None] * len(grid)
    failures: list[tuple[int, Exception]] = []
    for idx, c in enumerate(grid):
        try:
            results[idx] = period_quadrature(c, params, rtol=rtol)
        except ToolkitError as err:  # collected, not fatal
            failures.append((idx, err))
    return PeriodScan(
        c_grid=tuple(grid), entries=tuple(results), failures=tuple(failures)
    )


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
    energy, resolving both edges at once.
    """
    if size < 2:
        raise DomainError(f"grid size must be >= 2, got {size}")
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


@dataclass(frozen=True, eq=False)
class _CurvePiece:
    """Chebyshev series of T/T0 in x in [-1, 1], which maps onto [lo, hi]
    in u, or in log u when log."""

    lo: float
    hi: float
    log: bool
    coeffs: np.ndarray
    err_est: float

    @cached_property
    def value_and_slope_coeffs(self) -> np.ndarray:
        """The series and its x-derivative as columns, for one Clenshaw pass."""
        slope = chebder(self.coeffs)
        return np.stack([self.coeffs, np.pad(slope, (0, self.coeffs.size - slope.size))], axis=1)

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The series sampled at 4N + 1 points of [-1, 1], as (values
        ascending, x), from which `root` interpolates its first x."""
        x = np.linspace(-1.0, 1.0, 4 * self.coeffs.size + 1)
        values = chebval(x, self.coeffs)
        order = np.argsort(values)
        return values[order], x[order]

    def x_of(self, u):
        return (2.0 * (np.log(u) if self.log else u) - self.lo - self.hi) / (self.hi - self.lo)

    def u_of(self, x):
        v = 0.5 * (self.lo + self.hi) + 0.5 * (self.hi - self.lo) * x
        return np.exp(v) if self.log else v

    def ratio(self, u):
        return chebval(self.x_of(u), self.coeffs)

    def slope(self, u):
        """d(T/T0)/du."""
        dx_du = 2.0 / (self.hi - self.lo) / (u if self.log else 1.0)
        return chebval(self.x_of(u), self.value_and_slope_coeffs)[1] * dx_du

    def root(self, target: np.ndarray, a: float, b: float) -> np.ndarray:
        """The x in [a, b] where the series takes each target.

        The series is monotone on [a, b] and every target lies in its
        range.  Newton steps start from `table`; a step that leaves the
        bracket known so far is replaced by bisection.  An element stops
        once its step is at most 4 eps or its residual is down to the
        series' roundoff, where a flat slope leaves x unresolved.
        """
        pa, pb = chebval(np.array([a, b]), self.coeffs)
        if pa == pb:  # a flat series: every x attains its one value
            return np.full_like(target, a)
        floor = 4.0 * np.finfo(float).eps * np.abs(self.coeffs).sum()
        x = np.clip(np.interp(target, *self.table), a, b)
        todo = np.arange(target.size)
        lo, hi, want = np.full_like(x, a), np.full_like(x, b), target
        for _ in range(NEWTON_STEPS):
            if not todo.size:
                return x
            xt = x[todo]
            value, slope = chebval(xt, self.value_and_slope_coeffs)
            res = value - want
            past = (res > 0.0) == (pb > pa)
            lo, hi = np.where(past, lo, xt), np.where(past, xt, hi)
            new = xt - res / slope
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            x[todo] = new
            more = (np.abs(res) > floor) & (np.abs(new - xt) > 4.0 * np.finfo(float).eps)
            todo, lo, hi, want = todo[more], lo[more], hi[more], want[more]
        raise QuadratureNonConvergence(
            f"period curve inversion did not settle in {NEWTON_STEPS} Newton steps"
        )


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
    split       u where the contact piece (in log u) hands over to the
                upper piece (in u); u_lo when there is no contact piece
    quadratures kernel orbits the build took
    err_est     largest relative deviation from the kernel, at the same
                rtol, measured at held-out points of every piece
    nodes       integrand evaluations the build took
    """

    n: int
    rtol: float
    u_lo: float
    u_hi: float
    split: float
    pieces: tuple[_CurvePiece, ...]
    quadratures: int
    err_est: float
    nodes: int

    @cached_property
    def band(self) -> tuple[float, float]:
        ends = (float(self.ratio(self.u_lo)), float(self.ratio(self.u_hi)))
        return min(ends), max(ends)

    def ratio(self, u):
        """T/T0 of the orbits whose warps dip to u * f_star."""
        u = np.asarray(u, dtype=float)
        return np.where(u >= self.split, self.pieces[-1].ratio(u), self.pieces[0].ratio(u))[()]

    def orbits(self, taus, params: ModelParams) -> tuple[OrbitSpec | None, ...]:
        """The orbits of params with periods taus; None for a tau outside the band.

        Every in-band tau is inverted on the piece whose range holds it,
        and one kernel call at the resulting u gives each orbit its T,
        f_max, nodes and err_est.  Orbits whose T misses tau by more than
        POLISH_FACTOR * rtol take Newton steps in u with the curve's
        slope until they land or a step is at most POLISH_XTOL * u, in at
        most MAX_POLISH_STEPS kernel calls in all.  Each step acts on
        each orbit alone, so an orbit's result does not depend on the
        batch it comes in.
        """
        if params.n != self.n:
            raise DomainError(f"period curve of n = {self.n} asked for n = {params.n}")
        consts = derive_constants(params)
        target = np.asarray(taus, dtype=float) / consts.T0
        inside = np.flatnonzero((self.band[0] <= target) & (target <= self.band[1]))
        target = target[inside]
        # a one-piece curve has split = u_lo, so no target is on the contact side
        r_split = self.pieces[-1].ratio(self.split)
        contact = (target - r_split) * (self.pieces[0].ratio(self.u_lo) - r_split) > 0.0
        u = np.empty_like(target)
        for piece, lo, hi, mine in ((self.pieces[0], self.u_lo, self.split, contact),
                                    (self.pieces[-1], self.split, self.u_hi, ~contact)):
            x = piece.root(target[mine], piece.x_of(lo), piece.x_of(hi))
            u[mine] = np.clip(piece.u_of(x), lo, hi)

        ratio, f_max, err_est = np.empty_like(u), np.empty_like(u), np.empty_like(u)
        nodes = np.empty(u.shape, dtype=int)
        todo = np.arange(u.size)
        for _ in range(MAX_POLISH_STEPS):
            if not todo.size:
                break
            periods = _period_kernel(u[todo], self.n, self.rtol)
            ratio[todo], f_max[todo], err_est[todo], nodes[todo] = periods
            gap = target[todo] - periods.ratio
            miss = np.abs(gap) > POLISH_FACTOR * self.rtol * target[todo]
            todo, at = todo[miss], u[todo[miss]]
            if not todo.size:
                break
            step = gap[miss] / np.where(at >= self.split, self.pieces[-1].slope(at),
                                        self.pieces[0].slope(at))
            moving = np.abs(step) > POLISH_XTOL * at
            todo = todo[moving]
            u[todo] = np.clip(at[moving] + step[moving], self.u_lo, self.u_hi)
        if todo.size:
            raise QuadratureNonConvergence(
                f"period inversion at tau/T0 = {target[todo[0]]} did not settle in "
                f"{MAX_POLISH_STEPS} steps"
            )
        a, b = consts.x_star * np.array([u, f_max]) ** (self.n / 2.0)
        found = map(OrbitSpec, potential(a, params).tolist(), a.tolist(), b.tolist(),
                    (ratio * consts.T0).tolist(), nodes.tolist(), err_est.tolist())
        by_index = dict(zip(inside.tolist(), found))
        return tuple(by_index.get(j) for j in range(len(taus)))


def period_curve(n: int, rtol: float = 1e-10) -> PeriodCurve:
    """The period curve of dimension n, its nodes taken at kernel rtol.

    Built once per process for each (n, rtol) on the canonical parameters
    ModelParams(n, n - 1, n - 1), which give x_star = 1, omega = 1 and
    T0 = 2 pi exactly.  Two Chebyshev pieces fit T/T0: CURVE_NODES nodes
    in u on [CONTACT_SPLIT, 1], and CONTACT_NODES nodes in log u from u_lo
    up to CONTACT_SPLIT, where the contact end's u log u behaviour lives.
    When BAND_CLAMP already cuts the band above CONTACT_SPLIT (n >= 10),
    the upper piece alone spans [u_lo, 1].  Each piece's nodes and its
    CURVE_CHECKS held-out points go to the kernel in one call; the
    held-out points measure the piece's err_est.  The build refuses node
    values that are not strictly monotone in u.  For n = 4 every orbit
    has period T0 and the curve is the constant 1, built without the
    kernel.
    """
    return _cached_curve(ModelParams(n, n - 1.0, n - 1.0), float(rtol))


@lru_cache(maxsize=32)
def _cached_curve(canon: ModelParams, rtol: float) -> PeriodCurve:
    n = canon.n
    consts = derive_constants(canon)
    depth = abs(consts.c_min)
    u_lo = turning_points(-BAND_CLAMP * depth, canon)[0] ** (2.0 / n)
    u_hi = turning_points(consts.c_min + BAND_CLAMP * depth, canon)[0] ** (2.0 / n)
    if n == 4:
        flat = _CurvePiece(u_lo, u_hi, False, np.ones(1), 0.0)
        return PeriodCurve(n, rtol, u_lo, u_hi, u_lo, (flat,), 0, 0.0, 0)

    nodes: list[tuple[float, float]] = []
    orbits = evaluations = 0

    def fit(lo: float, hi: float, size: int, log: bool) -> _CurvePiece:
        nonlocal orbits, evaluations
        theta = math.pi * (np.arange(size) + 0.5) / size
        # held out: extrema of T_size between the nodes, the two next to
        # the piece's ends among them
        held = np.cos(math.pi * np.rint(np.linspace(1, size - 1, CURVE_CHECKS)) / size)
        piece = _CurvePiece(lo, hi, log, np.zeros(size), 0.0)
        us = piece.u_of(np.concatenate([np.cos(theta), held]))
        periods = _period_kernel(us, n, rtol)
        orbits += us.size
        evaluations += int(periods.nodes.sum())
        vals = periods.ratio[:size]
        nodes.extend(zip(us[:size], vals))
        coeffs = (2.0 / size) * np.cos(np.outer(np.arange(size), theta)) @ vals
        coeffs[0] *= 0.5
        piece = replace(piece, coeffs=coeffs)
        err = np.max(np.abs(piece.ratio(us[size:]) / periods.ratio[size:] - 1.0))
        return replace(piece, err_est=float(err))

    split = max(CONTACT_SPLIT, u_lo)
    pieces = []
    if u_lo < split:
        pieces.append(fit(math.log(u_lo), math.log(split), CONTACT_NODES, True))
    pieces.append(fit(split, 1.0, CURVE_NODES, False))

    steps = np.diff([val for _, val in sorted(nodes)])
    if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise QuadratureNonConvergence(
            f"period curve for n = {n} at rtol = {rtol}: node periods are not "
            "strictly monotone in f_min"
        )
    return PeriodCurve(
        n, rtol, u_lo, u_hi, split, tuple(pieces), orbits,
        max(p.err_est for p in pieces), evaluations,
    )
