"""Branch structure of periodic solutions over the circle period.

A metric circle of period T hosts a non-constant solution wrapping k
oscillations exactly when T/k lies in the range the orbit period T(c)
attains over the energy band.  T(c) is monotone in the energy,
decreasing for n = 3 and increasing for n >= 5 (Chicone's criterion:
G/g^2 is convex there; the tests check its sign exactly per n), so that
range is the open band between its two limits, T0 at the well bottom
and sqrt(n)/2 * T0 at contact, and it holds one orbit per k.
`count_solutions` answers from that band in closed form and runs no
quadrature.

The diagram scan walks a grid of circle periods, enumerates the wrap
counts worth trying at each, and asks the period curve of the dimension
(`period.period_curve`, one build per n for every R and Rt) for all the
per-wrap periods at once: one batch inversion, confirmed by one kernel
call, gives one row per realized (T, k, energy) combination.

Branch k leaves the constant solution where its per-wrap period meets
the small-amplitude limit T0, at circle period k * T0; the diagram
lists that point for every wrap that has rows and emerges within the
scan.

For dimension 4 the oscillator is isochronous: every orbit has period
exactly T0, the period map carries no information about amplitude, and
the diagram degenerates to vertical branches.  That case is detected
and reported as a flag instead of a wall of spurious rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .model import ModelParams, derive_constants
from .period import period_curve

__all__ = [
    "BranchRow",
    "BranchPoint",
    "BifurcationDiagram",
    "scan_branches",
    "count_solutions",
]

# kernel tolerance of the period curve and its polish
QUAD_RTOL = 1e-9


@dataclass(frozen=True)
class BranchRow:
    """One realized solution on the diagram.

    T is the circle period, k the wrap count, tau = T/k the per-wrap
    orbit period, c the orbit energy; amplitude is the turning-point
    separation b - a of the reduced variable, f_min and f_max the warp
    range of the corresponding metric.
    """

    T: float
    k: int
    tau: float
    c: float
    amplitude: float
    f_min: float
    f_max: float


@dataclass(frozen=True)
class BranchPoint:
    """Circle period T = k * T0 where branch k leaves the constant solution."""

    k: int
    T: float


@dataclass(frozen=True)
class BifurcationDiagram:
    params: ModelParams
    T0: float
    t_grid: tuple[float, ...]
    rows: tuple[BranchRow, ...]
    branch_points: tuple[BranchPoint, ...]
    failures: tuple[tuple[float, int, str], ...]
    band: tuple[float, float]
    degenerate_isochronous: bool


def _classical_wraps(T: float, T0: float) -> range:
    """Wrap counts k whose per-wrap period T/k lies above the threshold T0."""
    return range(1, int(T / (T0 * (1.0 + 1e-9))) + 1)


def _wrap_candidates(
    T: float, T0: float, band: tuple[float, float]
) -> tuple[list[int], set[int]]:
    """Wrap counts worth trying at circle period T.

    The classical rule tries every k with T/k above the threshold T0.
    The attainable period range can sit below T0 (it does for n = 3), so
    the enumeration also includes every k whose per-wrap period falls
    inside the scanned range.  Returns the sorted union and the subset
    coming from the classical rule, whose misses are worth recording.
    """
    lo, hi = band
    classical = set(_classical_wraps(T, T0))
    attain: set[int] = set()
    if lo > 0.0:
        k_min = max(1, math.ceil(T / (hi * (1.0 + 1e-9))))
        k_max = int(T / (lo * (1.0 - 1e-9)))
        attain = set(range(k_min, k_max + 1))
    return sorted(classical | attain), classical


def scan_branches(
    T_max: float,
    params: ModelParams,
    grid_size: int = 400,
    *,
    quad_rtol: float = QUAD_RTOL,
) -> BifurcationDiagram:
    """Scan circle periods in (T0, T_max] and assemble the branch diagram.

    Rows come from the period curve of params.n with nodes at quad_rtol;
    the band is the curve's range.  Each wrap k with rows has its
    branch point at k * T0 when that lies within T_max.  Per-point
    failures (a wrap count whose per-wrap period is not attained) are
    recorded with their reason, never fatal.  Isochronous parameter sets
    short-circuit to the degenerate flag.
    """
    consts = derive_constants(params)
    T0 = consts.T0
    if not (math.isfinite(T_max) and T_max > T0 * (1.0 + 1e-9)):
        raise DomainError(f"T_max must exceed the threshold T0 = {T0}, got {T_max}")
    if grid_size < 16:
        raise DomainError(f"grid_size must be >= 16, got {grid_size}")

    curve = period_curve(params.n, quad_rtol)
    band = (curve.band[0] * T0, curve.band[1] * T0)
    step = (T_max - T0) / grid_size
    t_grid = tuple(T0 + (j + 1) * step for j in range(grid_size))

    if band[1] - band[0] <= 1e-9 * T0:
        # isochronous: the period map is flat and cannot parametrize branches
        return BifurcationDiagram(
            params=params, T0=T0, t_grid=t_grid, rows=(),
            branch_points=(BranchPoint(k=1, T=T0),), failures=(), band=band,
            degenerate_isochronous=True,
        )

    # (T, k, tau, why) in scan order; why is None for a tau to invert
    wanted: list[tuple[float, int, float, str | None]] = []
    closed = sorted((T0, math.sqrt(params.n) / 2.0 * T0))
    for T in t_grid:
        candidates, classical = _wrap_candidates(T, T0, band)
        for k in candidates:
            tau = T / k
            if band[0] * (1.0 - 1e-9) <= tau <= band[1] * (1.0 + 1e-9):
                wanted.append((T, k, tau, None))
            elif k in classical:
                where = ("inside the closed-form band but past the end of the "
                         "period curve" if closed[0] < tau < closed[1]
                         else "outside attained range")
                wanted.append((T, k, tau, f"per-wrap period {tau} {where} [{band[0]}, {band[1]}]"))

    found = iter(curve.orbits([tau for _, _, tau, why in wanted if why is None], params))
    rows: list[BranchRow] = []
    failures: list[tuple[float, int, str]] = []
    r = 2.0 / params.n
    for T, k, tau, why in wanted:
        orbit = None if why else next(found)
        if orbit is not None:
            rows.append(BranchRow(T, k, tau, orbit.c, orbit.amplitude, orbit.a**r, orbit.b**r))
        else:
            failures.append((T, k, why or f"per-wrap period {tau} inside the attained range "
                                          "but past the end of the period curve"))

    wraps = sorted({row.k for row in rows if row.k * T0 <= T_max})
    return BifurcationDiagram(
        params=params, T0=T0, t_grid=t_grid, rows=tuple(rows),
        branch_points=tuple(BranchPoint(k=k, T=k * T0) for k in wraps),
        failures=tuple(failures), band=band, degenerate_isochronous=False,
    )


def count_solutions(T: float, params: ModelParams) -> int:
    """Number of branch families alive at circle period T.

    Counts the wrap counts k for which T/k exceeds the threshold T0 and
    lies strictly inside the band between T0 and sqrt(n)/2 * T0; T(c) is
    monotone, so that band holds exactly one orbit per k.  The answer is
    closed form: no period curve is built and no quadrature runs.
    Returns 0 for any T at or below T0.  Note the threshold filter is
    one-sided: wrap periods below T0 are not counted even when the
    attained period range extends below the threshold, as it does for
    n = 3.  With T/k above T0, only the band's contact end remains to
    test, and for n <= 4 that end lies at or below T0.
    """
    if not math.isfinite(T):
        raise DomainError(f"period must be finite, got {T}")
    consts = derive_constants(params)
    if T <= consts.T0 * (1.0 + 1e-9):
        return 0
    contact = math.sqrt(params.n) / 2.0 * consts.T0
    return sum(1 for k in _classical_wraps(T, consts.T0) if T / k < contact)
