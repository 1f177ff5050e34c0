"""Turning points and the orbit period as a function of energy.

For an energy c in the open band (c_min, 0) the orbit oscillates between
turning points a < x_star < b where the potential equals c, and the
period is

    T(c) = sqrt(2) * integral_a^b dx / sqrt(c - potential(x)).

The integrand has inverse square-root endpoint singularities.  The
substitution x = m + r sin(theta) with m = (a+b)/2 and r = (b-a)/2
removes both at once: near a simple turning point c - potential vanishes
linearly in x, so the factor cos(theta) in dx cancels the singularity
and the transformed integrand extends smoothly through the endpoints.
Adaptive Gauss-Legendre panels on theta then converge at spectral rate.

Everything is phrased in the offset energy c - c_min through
`potential_above_min`, which keeps full precision near the well bottom
where the plain difference c - potential(x) would cancel away.

Scaling removes R and Rt from the reduced equation, so T/T0 depends on
n and the orbit alone.  `period_curve(n, rtol)` fits T/T0 against
u = f_min/f_star with two Chebyshev pieces, once per process for each
(n, rtol), from 96 quadratures (56 for n >= 10, none for the isochronous
n = 4) on the canonical parameters ModelParams(n, n - 1, n - 1).  It is
the package's one period inversion: `bifurcation.scan_branches` takes
each row's orbit from it, and `solver.solve_period` takes its energy
from it and confirms it with one quadrature.  A secant polish on the
quadrature runs only where the curve's measured error exceeds
POLISH_FACTOR * rtol.  Counting solutions needs no inversion: T is
monotone in the energy, so the band between T0 and sqrt(n)/2 * T0
answers it in closed form (see `bifurcation`).

Turning points and the curve's inversion are solved by `brentq` from
`_brent`, the package's own port of scipy's Brent solver: it returns
the same root bits, and importing the package loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from ._brent import brentq
from .errors import DomainError, EnergyOutOfBand, QuadratureNonConvergence
from .model import (
    ModelParams,
    _potential_coeffs,
    derive_constants,
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
# smallest quadrature panel, as a fraction of the half-circle in theta
MIN_PANEL_WIDTH = 1e-13
# quadratures one root polish may take
MAX_POLISH_STEPS = 100
# Chebyshev nodes of a period curve: the upper piece in u, the contact
# piece in log u, handing over at u = CONTACT_SPLIT
CURVE_NODES = 48
CONTACT_NODES = 32
CONTACT_SPLIT = 0.05
# held-out quadratures per curve piece behind its err_est
CURVE_CHECKS = 8
# a curve's inversion is polished on the quadrature where its measured
# error exceeds this multiple of rtol
POLISH_FACTOR = 10.0


@dataclass(frozen=True)
class OrbitSpec:
    """One closed orbit: energy, turning points and period."""

    c: float
    a: float
    b: float
    T: float

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


def _check_band(c: float, params: ModelParams) -> tuple[float, float]:
    """Validate c against the BAND_CLAMP band; returns (c_min, offset energy)."""
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
    return consts.c_min, e_above


def turning_points(c: float, params: ModelParams) -> tuple[float, float]:
    """Solve potential(x) = c for the two roots bracketing x_star.

    The inner bracket comes from repeated halving below x_star, the outer
    from repeated doubling above, then each root is polished by Brent's
    method on the offset potential.  Energies within BAND_CLAMP * |c_min|
    of either band edge are rejected rather than solved in noise.
    """
    consts = derive_constants(params)
    _, e_above = _check_band(c, params)
    x_star = consts.x_star

    g = _level_gap(e_above, params)
    lo = x_star
    for _ in range(2000):
        lo *= 0.5
        if g(lo) > 0.0:
            break
    else:
        raise QuadratureNonConvergence(
            f"inner turning point bracket not found below x_star for c = {c}"
        )
    a = _newton_polish(
        brentq(g, lo, min(2.0 * lo, x_star), xtol=1e-300, rtol=TURNING_RTOL), g, params
    )
    b = _outer_turning(c, e_above, params)
    return float(a), float(b)


def _level_gap(e_above: float, params: ModelParams):
    """x -> potential(x) - c, written through the offset energy e_above."""

    def g(x: float) -> float:
        return potential_above_min(x, params) - e_above

    return g


def _newton_polish(root: float, g, params: ModelParams) -> float:
    """Two Newton steps on the level gap g from a Brent root.

    Brent leaves a relative-in-x error near TURNING_RTOL; two Newton steps
    on the cancellation-free offset (whose derivative is exactly the
    force) push the potential residue down to roundoff, which the period
    quadrature needs at its endpoints.
    """
    from .model import force

    for _ in range(2):
        slope = force(root, params)
        if slope == 0.0 or not math.isfinite(slope):
            break
        candidate = root - g(root) / slope
        if candidate > 0.0:
            root = candidate
    return root


def _outer_turning(c: float, e_above: float, params: ModelParams) -> float:
    """The root of potential(x) = c above x_star: doubling bracket, Brent, Newton."""
    x_star = derive_constants(params).x_star
    g = _level_gap(e_above, params)
    hi = 2.0 * x_star
    for _ in range(2000):
        if g(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise QuadratureNonConvergence(
            f"outer turning point bracket not found above x_star for c = {c}"
        )
    return _newton_polish(
        brentq(g, max(0.5 * hi, x_star), hi, xtol=1e-300, rtol=TURNING_RTOL), g, params
    )


@lru_cache(maxsize=8)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def period_quadrature(
    c: float,
    params: ModelParams,
    *,
    rtol: float = 1e-10,
    max_panels: int = 4096,
) -> OrbitSpec:
    """Period of the orbit at energy c by adaptive endpoint-free quadrature.

    Each panel is estimated with 24- and 48-node Gauss-Legendre rules;
    a panel is accepted when the two agree to the width-prorated share
    of the requested relative tolerance, otherwise it is bisected.
    Exhausting the panel budget, or shrinking a panel below
    MIN_PANEL_WIDTH of the half-circle, raises QuadratureNonConvergence.
    """
    a, b = turning_points(c, params)
    r = 0.5 * (b - a)
    root2 = math.sqrt(2.0)
    A, B, q = _potential_coeffs(params)

    def _gap_from_anchor(x: np.ndarray, d: np.ndarray) -> np.ndarray:
        # potential(x + d) - potential(x), exact rearrangement: no digits
        # are lost even when d is many orders below x
        return A * d * (2.0 * x + d) - B * x**q * np.expm1(q * np.log1p(d / x))

    def panel_values(theta: np.ndarray) -> np.ndarray:
        # Anchor each node at its nearest turning point and express both
        # the offset and cos(theta) through half angles.  The anchored
        # difference vanishes exactly at the turning point, so no
        # residue of the root solve pollutes the endpoint region, and
        # the ratio cos(theta)/sqrt(gap) stays relatively accurate all
        # the way into the corners.  Each half-orbit is thereby taken at
        # the energy of its own anchor, which sits within a few ulps of
        # c; the induced period error is far below any tolerance here.
        pos = theta >= 0.0
        half = np.where(pos, 0.25 * math.pi - 0.5 * theta, 0.25 * math.pi + 0.5 * theta)
        sh = np.sin(half)
        offset = 2.0 * r * sh**2
        x = np.where(pos, b - offset, a + offset)
        d = np.where(pos, offset, -offset)
        gap = _gap_from_anchor(x, d)
        cos_theta = 2.0 * sh * np.cos(half)
        # roundoff can graze zero right at the endpoints of a panel
        bad = gap <= 0.0
        if np.any(bad):
            gap = np.where(bad, np.finfo(float).tiny, gap)
            vals = root2 * r * cos_theta / np.sqrt(gap)
            return np.where(bad, 0.0, vals)
        return root2 * r * cos_theta / np.sqrt(gap)

    n24, w24 = _gauss_nodes(24)
    n48, w48 = _gauss_nodes(48)

    def panel_pair(lo: float, hi: float) -> tuple[float, float]:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        coarse = half * float(w24 @ panel_values(mid + half * n24))
        fine = half * float(w48 @ panel_values(mid + half * n48))
        return coarse, fine

    span = math.pi
    lo0, hi0 = -0.5 * math.pi, 0.5 * math.pi
    seed = 8
    edges = np.linspace(lo0, hi0, seed + 1)
    rough = sum(panel_pair(edges[i], edges[i + 1])[1] for i in range(seed))
    tol_total = rtol * abs(rough)

    total = 0.0
    used = 0
    stack: list[tuple[float, float]] = [
        (edges[i], edges[i + 1]) for i in range(seed - 1, -1, -1)
    ]
    while stack:
        lo, hi = stack.pop()
        used += 1
        if used > max_panels:
            raise QuadratureNonConvergence(
                f"period quadrature exceeded {max_panels} panels at c = {c}"
            )
        width = hi - lo
        if width < MIN_PANEL_WIDTH * span:
            raise QuadratureNonConvergence(
                f"period quadrature panel collapsed to width {width} at c = {c}"
            )
        coarse, fine = panel_pair(lo, hi)
        if abs(fine - coarse) <= tol_total * (width / span):
            total += fine
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
    return OrbitSpec(c=float(c), a=a, b=b, T=float(total))


def period_scan(c_grid, params: ModelParams, *, rtol: float = 1e-10) -> PeriodScan:
    """Evaluate period_quadrature over a grid of energies, in grid order.

    Failures are collected per point, so one bad energy does not spoil
    the scan.  Energies within BAND_CLAMP * |c_min| of either band edge
    fail with EnergyOutOfBand.
    """
    grid = [float(c) for c in c_grid]
    if not grid:
        raise DomainError("energy grid must be non-empty")
    results: list[OrbitSpec | None] = [None] * len(grid)
    failures: list[tuple[int, Exception]] = []
    for idx, c in enumerate(grid):
        try:
            results[idx] = period_quadrature(c, params, rtol=rtol)
        except Exception as err:  # collected, not fatal
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
    """Chebyshev interpolant of T/T0 on [lo, hi] in u, or in log u when log."""

    lo: float
    hi: float
    log: bool
    coeffs: tuple[float, ...]
    err_est: float

    def ratio(self, u: float) -> float:
        v = math.log(u) if self.log else u
        x = (2.0 * v - self.lo - self.hi) / (self.hi - self.lo)
        # Clenshaw recurrence, in plain floats: the inversion calls this
        # a few dozen times per orbit
        b1 = b2 = 0.0
        for ck in self.coeffs[:0:-1]:
            b1, b2 = 2.0 * x * b1 - b2 + ck, b1
        return x * b1 - b2 + self.coeffs[0]


@dataclass(frozen=True, eq=False)
class PeriodCurve:
    """T/T0 against u = f_min/f_star for one dimension n.

    Writing f = f_star * g and measuring time in units of 1/omega removes
    R and Rt from the reduced equation, so the period ratio of the orbit
    whose warp dips to u * f_star is a function of n alone, and one curve
    serves every (R, Rt).  The orbit behind u has inner turning point
    a = x_star * u^(n/2) and energy c = c_min + potential_above_min(a).

    u_lo, u_hi  the orbits BAND_CLAMP admits: contact end, well-bottom end
    band        the attained range of T/T0 over [u_lo, u_hi], ascending
    split       u where the contact piece (in log u) hands over to the
                upper piece (in u); u_lo when there is no contact piece
    quadratures period quadratures the build took
    err_est     largest relative deviation from period_quadrature, at the
                same rtol, measured at held-out points of every piece
    """

    n: int
    rtol: float
    u_lo: float
    u_hi: float
    split: float
    pieces: tuple[_CurvePiece, ...]
    quadratures: int
    err_est: float

    @cached_property
    def band(self) -> tuple[float, float]:
        ends = (self.ratio(self.u_lo), self.ratio(self.u_hi))
        return min(ends), max(ends)

    def _piece(self, u: float) -> _CurvePiece:
        return self.pieces[-1] if u >= self.split else self.pieces[0]

    def ratio(self, u: float) -> float:
        """T/T0 of the orbit whose warp dips to u * f_star."""
        return self._piece(u).ratio(u)

    def invert(self, ratio: float) -> float | None:
        """The u in [u_lo, u_hi] with T/T0 = ratio; None outside the band."""
        if not self.band[0] <= ratio <= self.band[1]:
            return None
        return brentq(
            lambda u: self.ratio(u) - ratio, self.u_lo, self.u_hi, xtol=1e-300
        )

    def _orbit_energy(self, u: float, params: ModelParams) -> tuple[float, float]:
        """Inner turning point a and energy c of the orbit at u, clipped into
        the clamped band."""
        consts = derive_constants(params)
        depth = abs(consts.c_min)
        a = consts.x_star * u ** (params.n / 2.0)
        c = consts.c_min + potential_above_min(a, params)
        c = min(max(c, consts.c_min + BAND_CLAMP * depth), -BAND_CLAMP * depth)
        return a, c

    def _energy_at(self, T: float, params: ModelParams) -> float:
        """Energy of the orbit with period T, read at the band's end
        beyond it."""
        lo, hi = self.band
        u = self.invert(min(max(T / derive_constants(params).T0, lo), hi))
        return self._orbit_energy(u, params)[1]

    def orbit(
        self,
        tau: float,
        params: ModelParams,
        *,
        confirm: bool = False,
        root_rtol: float = 1e-12,
    ) -> OrbitSpec | None:
        """The orbit of params with period tau; None outside the band.

        A bracketed solve on the interpolant gives u, hence a and c, and
        one outer turning-point solve gives b; the orbit's T is then the
        curve's.  Where the piece's err_est exceeds POLISH_FACTOR * rtol,
        or when confirm is set, the orbit comes from the quadrature
        instead: one at the curve's energy, kept when its period is within
        POLISH_FACTOR * rtol of tau, else the start of a secant polish
        (`_settle`) that stops there too, or once a step is at most
        root_rtol * |c|.
        """
        if params.n != self.n:
            raise DomainError(f"period curve of n = {self.n} asked for n = {params.n}")
        consts = derive_constants(params)
        u = self.invert(tau / consts.T0)
        if u is None:
            return None
        a, c = self._orbit_energy(u, params)
        err = self._piece(u).err_est
        if err <= POLISH_FACTOR * self.rtol and not confirm:
            b = _outer_turning(c, c - consts.c_min, params)
            return OrbitSpec(c=c, a=a, b=b, T=self.ratio(u) * consts.T0)
        depth = abs(consts.c_min)
        # T - tau at the well bottom is T0 - tau: its sign tells the polish
        # on which side of the root an energy lies
        bracket = (consts.c_min + BAND_CLAMP * depth, consts.T0 - tau, -BAND_CLAMP * depth)
        # the first safeguarded step spans the energies that the curve's
        # error could account for, not the whole band
        spread = max(err, POLISH_FACTOR * self.rtol) * tau
        last = abs(self._energy_at(tau + spread, params) - self._energy_at(tau - spread, params))
        return _settle(
            tau,
            params,
            c,
            bracket,
            bracket[:2],
            lambda T: self._energy_at(T, params),
            self.rtol,
            root_rtol,
            accept=POLISH_FACTOR * self.rtol * tau,
            last=last,
        )


def period_curve(n: int, rtol: float = 1e-10) -> PeriodCurve:
    """The period curve of dimension n, its nodes taken at quadrature rtol.

    Built once per process for each (n, rtol) on the canonical parameters
    ModelParams(n, n - 1, n - 1), which give x_star = 1, omega = 1 and
    T0 = 2 pi exactly.  Two Chebyshev pieces fit T/T0: CURVE_NODES nodes
    in u on [CONTACT_SPLIT, 1], and CONTACT_NODES nodes in log u from u_lo
    up to CONTACT_SPLIT, where the contact end's u log u behaviour lives.
    When BAND_CLAMP already cuts the band above CONTACT_SPLIT (n >= 10),
    the upper piece alone spans [u_lo, 1].  The build refuses node values
    that are not strictly monotone in u, and measures each piece against
    period_quadrature at CURVE_CHECKS held-out points.  For n = 4 every
    orbit has period T0 and the curve is the constant 1, built without a
    quadrature.
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
        flat = _CurvePiece(u_lo, u_hi, False, (1.0,), 0.0)
        return PeriodCurve(n, rtol, u_lo, u_hi, u_lo, (flat,), 0, 0.0)

    nodes: list[tuple[float, float]] = []
    quadratures = 0

    def ratio_at(u: float) -> float:
        nonlocal quadratures
        quadratures += 1
        c = consts.c_min + potential_above_min(u ** (n / 2.0), canon)
        return period_quadrature(c, canon, rtol=rtol).T / consts.T0

    def fit(lo: float, hi: float, size: int, log: bool) -> _CurvePiece:
        def u_of(x: float) -> float:
            v = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            return math.exp(v) if log else v

        theta = math.pi * (np.arange(size) + 0.5) / size
        us = [u_of(x) for x in np.cos(theta)]
        vals = np.array([ratio_at(u) for u in us])
        nodes.extend(zip(us, vals))
        coeffs = (2.0 / size) * np.cos(np.outer(np.arange(size), theta)) @ vals
        coeffs[0] *= 0.5
        piece = _CurvePiece(lo, hi, log, tuple(float(ck) for ck in coeffs), 0.0)
        # held out: extrema of T_size between the nodes, the two next to
        # the piece's ends among them
        checks = [u_of(math.cos(math.pi * j / size))
                  for j in np.rint(np.linspace(1, size - 1, CURVE_CHECKS))]
        err = max(abs(piece.ratio(u) / ratio_at(u) - 1.0) for u in checks)
        return replace(piece, err_est=err)

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
        n, rtol, u_lo, u_hi, split, tuple(pieces), quadratures,
        max(p.err_est for p in pieces),
    )


def _settle(
    tau: float,
    params: ModelParams,
    x: float,
    bracket: tuple[float, float, float],
    partner: tuple[float, float],
    reseed,
    rtol: float,
    root_rtol: float,
    *,
    accept: float,
    last: float,
) -> OrbitSpec:
    """Secant polish on the quadrature period from the energy x to T = tau.

    bracket (lo, f_lo, hi) holds the root, T - tau having the sign of
    f_lo at lo; partner (x_prev, f_prev) is the first secant partner.
    reseed maps a period back to an energy on the interpolant that
    proposed x: the step after x reads it again at the period just
    computed, which cancels most of its interpolation error.  Secant
    steps follow.  A step that leaves the bracket or fails to halve the
    step before it is replaced by one towards the far bracket end, twice
    the previous step or half the way there, whichever is shorter: near
    the root this crosses it, far from it this bisects.  last stands in
    for the step before the first.
    The polish stops once |T - tau| <= accept or a step is at most
    root_rtol * |c|, and returns the last evaluated orbit.
    """
    lo, f_lo, hi = bracket
    x_prev, f_prev = partner
    for _ in range(MAX_POLISH_STEPS):
        spec = period_quadrature(x, params, rtol=rtol)
        f = spec.T - tau
        if abs(f) <= accept:
            return spec
        if (f < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f
        else:
            hi = x
        if reseed is not None:
            step = x - reseed(spec.T)
            reseed = None
        elif f != f_prev:
            step = -f * (x - x_prev) / (f - f_prev)
        else:
            step = math.inf
        tol = root_rtol * abs(x)
        if abs(step) <= tol:
            return spec
        if not (lo < x + step < hi and abs(step) <= 0.5 * abs(last)):
            far = hi if x == lo else lo
            step = math.copysign(min(2.0 * abs(last), 0.5 * abs(far - x)), far - x)
            if abs(step) <= tol:
                return spec
        x_prev, f_prev, last = x, f, step
        x += step
    raise QuadratureNonConvergence(
        f"period inversion at tau = {tau} did not settle in {MAX_POLISH_STEPS} steps"
    )
