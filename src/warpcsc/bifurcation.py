"""Branch structure of periodic solutions over the circle period.

A metric circle of period T hosts a non-constant solution wrapping k
oscillations exactly when T/k lies in the range the orbit period T(c)
attains over the energy band.  T(c) is monotone in the energy,
decreasing for n = 3 and increasing for n >= 5 (Chicone's criterion:
G/g^2 is convex there; the tests check its sign exactly per n), so that
range is the open band between its two limits, T0 at the well bottom
and sqrt(n)/2 * T0 at contact, and it holds one orbit per k.
`count_solutions` answers from that band by a bisection over the wrap
count and runs no quadrature.

The diagram scan lists the (T, k) pairs worth trying over a grid of
circle periods in one array pass, a grid-by-wraps table bounded by
MAX_CANDIDATES before it is allocated, and hands every listed per-wrap
period to the period curve of the dimension (`period.period_curve`, one
per n, shared by every R and Rt and by `solver.solve_period`), which
alone decides which land: one batch inversion, confirmed by one kernel
call, gives one row per landed (T, k, energy) combination, built from
the curve's orbit columns.  Every other listed pair is a miss
(T, k, reason); see `BifurcationDiagram`.

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

import numpy as np

from .errors import DomainError
from .model import PERIOD_SLACK, ModelParams, derive_constants
from .period import KERNEL_RTOL, period_curve

__all__ = [
    "BranchRow",
    "BranchPoint",
    "BifurcationDiagram",
    "scan_branches",
    "count_solutions",
]

# (T, k) pairs a scan may try, bounded before any is listed
MAX_CANDIDATES = 10**6
# circle periods a scan takes above T0 unless told otherwise
GRID_SIZE = 400


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
    """The rows, branch points and misses of one scan.

    t_grid      the circle periods scanned
    band        the attained per-wrap periods (lo, hi), the period curve's
                range times T0
    failures    the misses, (T, k, reason) in scan order, with per-wrap
                period tau = T/k; on the comb T = k * T0 the reason names
                tau and branch point k, elsewhere it is one of two strings
                per scan, "outside attained range" or, inside the closed-form
                band, "past the end of the period curve", quoting the band
    """

    params: ModelParams
    T0: float
    t_grid: tuple[float, ...]
    rows: tuple[BranchRow, ...]
    branch_points: tuple[BranchPoint, ...]
    failures: tuple[tuple[float, int, str], ...]
    band: tuple[float, float]
    degenerate_isochronous: bool


def scan_branches(
    T_max: float,
    params: ModelParams,
    grid_size: int = GRID_SIZE,
    *,
    quad_rtol: float = KERNEL_RTOL,
) -> BifurcationDiagram:
    """Scan circle periods in (T0, T_max] and assemble the branch diagram.

    A grid period T lists the wraps k with T/k above T0 or in the band
    widened by PERIOD_SLACK; the period curve of params.n, with nodes at
    quad_rtol, alone decides which land, and they are the rows.  Each
    wrap k with rows has its branch point at k * T0 when that lies within
    T_max.  Every other listed pair is a miss (T, k, reason), never fatal;
    see BifurcationDiagram.failures.  Isochronous parameter sets
    short-circuit to the degenerate flag.  A scan that may try more than
    MAX_CANDIDATES (T, k) pairs raises DomainError before it lists any.
    """
    consts = derive_constants(params)
    T0 = consts.T0
    if not (math.isfinite(T_max) and T_max > T0 * (1.0 + PERIOD_SLACK)):
        raise DomainError(f"T_max must exceed the threshold T0 = {T0}, got {T_max}")
    if grid_size < 16:
        raise DomainError(f"grid_size must be >= 16, got {grid_size}")

    curve = period_curve(params.n, quad_rtol)
    band = (curve.band[0] * T0, curve.band[1] * T0)
    # a grid period T tries the wraps with T/k above min(T0, band[0])
    pairs = grid_size * (T_max / min(T0, band[0]) + 1.0)
    if pairs > MAX_CANDIDATES:
        raise DomainError(
            f"T_max = {T_max} with grid_size = {grid_size} (--tmax, --grid) may try "
            f"{pairs:.3g} (T, k) pairs, above the limit of {MAX_CANDIDATES}; "
            "lower either"
        )
    T = T0 + np.arange(1, grid_size + 1) * ((T_max - T0) / grid_size)
    t_grid = tuple(T.tolist())

    if band[1] - band[0] <= PERIOD_SLACK * T0:
        # isochronous: the period map is flat and cannot parametrize branches
        return BifurcationDiagram(
            params=params, T0=T0, t_grid=t_grid, rows=(),
            branch_points=(BranchPoint(k=1, T=T0),), failures=(), band=band,
            degenerate_isochronous=True,
        )

    # every (T, k) pair in one array, T down the rows and k along them:
    # the wraps with T/k above the threshold T0, and those with T/k in the
    # widened band, which can sit below T0 (it does for n = 3)
    lo, hi = band
    floor = T0 * (1.0 + PERIOD_SLACK)
    low, high = lo * (1.0 - PERIOD_SLACK), hi * (1.0 + PERIOD_SLACK)
    k = np.arange(1, int(T[-1] / min(floor, low)) + 1)
    tau = T[:, None] / k
    listed = (k <= (T / floor).astype(int)[:, None]) | ((low <= tau) & (tau <= high))
    # in scan order: T first, then k ascending
    at, wrap = np.nonzero(listed)
    T_pair, k_pair, tau_pair = T[at], k[wrap], tau[at, wrap]

    # the curve alone decides which pairs land; found indexes them
    found, c, a, b = curve._columns(tau_pair, params)[:4]
    r = 2.0 / params.n
    rows = list(map(BranchRow, T_pair[found].tolist(), k_pair[found].tolist(),
                    tau_pair[found].tolist(), c, [b_j - a_j for a_j, b_j in zip(a, b)],
                    [a_j**r for a_j in a], [b_j**r for b_j in b]))

    # every other pair is a miss; the per-wrap period is T/k of its tuple
    missed = np.ones(at.size, dtype=bool)
    missed[found] = False
    closed = sorted((T0, math.sqrt(params.n) / 2.0 * T0))
    outside = f"per-wrap period T/k outside attained range [{lo}, {hi}]"
    past_curve = ("per-wrap period T/k inside the closed-form band but past the end of "
                  f"the period curve [{lo}, {hi}]")
    failures: list[tuple[float, int, str]] = []
    for T_j, k_j, tau_j in zip(T_pair[missed].tolist(), k_pair[missed].tolist(),
                               tau_pair[missed].tolist()):
        if abs(tau_j / T0 - 1.0) <= PERIOD_SLACK:
            why = (f"per-wrap period {tau_j} is T0, the branch point of wrap {k_j}: "
                   "only the constant warp has it")
        else:
            why = past_curve if closed[0] < tau_j < closed[1] else outside
        failures.append((T_j, k_j, why))

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
    monotone, so that band holds exactly one orbit per k.  No period
    curve is built and no quadrature runs: T/k does not increase with k,
    in floats too, so the wraps below the contact end are the k from the
    first one up to the threshold's K = T/T0, and a bisection on [1, K]
    finds that first k in O(log K) steps at any finite T.
    Returns 0 for any T at or below T0.  Note the threshold filter is
    one-sided: wrap periods below T0 are not counted even when the
    attained period range extends below the threshold, as it does for
    n = 3.  With T/k above T0, only the band's contact end remains to
    test, and for n <= 4 that end lies at or below T0.
    """
    if not math.isfinite(T):
        raise DomainError(f"period must be finite, got {T}")
    consts = derive_constants(params)
    if T <= consts.T0 * (1.0 + PERIOD_SLACK):
        return 0
    contact = math.sqrt(params.n) / 2.0 * consts.T0
    wraps = int(T / (consts.T0 * (1.0 + PERIOD_SLACK)))
    # the first k in [1, wraps + 1) with T/k below contact; wraps + 1 if none
    first, past = 1, wraps + 1
    while first < past:
        mid = (first + past) // 2
        if T / mid < contact:
            past = mid
        else:
            first = mid + 1
    return wraps + 1 - first
