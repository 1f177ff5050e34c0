"""Branch structure of periodic solutions over the circle period.

A metric circle of period T hosts a non-constant solution wrapping k
oscillations exactly when T/k lies in the range the orbit period T(c)
actually attains over the energy band.  Both questions here are asked
of the period curve of the dimension (`period.period_curve`), which one
build per n shares across every R and Rt: `count_solutions` tests T/k
against its range, and the diagram scan walks a grid of circle periods,
enumerates the wrap counts worth trying at each, and inverts the curve
for one row per realized (T, k, energy) combination.  Two diagrams of
one n and different (R, Rt) thus cost one curve, and a scan polishes on
the quadrature only where the curve's measured error says so.

Branch points are read off as the grid locations where a branch's
amplitude decays to zero against an adjacent empty cell; with a
400-point grid they land within one cell of the true emergence period
of that branch.

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
from .model import ModelParams, derive_constants
from .period import period_curve

__all__ = [
    "BranchRow",
    "BranchPoint",
    "BifurcationDiagram",
    "scan_branches",
    "count_solutions",
]

# amplitude below this fraction of x_star counts as a vanished branch
VANISH_REL = 1e-6
# quadrature tolerance of the period curve and its polish
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
    """Grid location where branch k's amplitude vanishes."""

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
    the band is the curve's range.  Per-point failures (a wrap count
    whose per-wrap period is not attained) are recorded with their
    reason, never fatal.  Isochronous parameter sets short-circuit to
    the degenerate flag.
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
            params=params,
            T0=T0,
            t_grid=t_grid,
            rows=(),
            branch_points=(BranchPoint(k=1, T=T0),),
            failures=(),
            band=band,
            degenerate_isochronous=True,
        )

    rows: list[BranchRow] = []
    failures: list[tuple[float, int, str]] = []
    r = 2.0 / params.n
    for T in t_grid:
        candidates, classical = _wrap_candidates(T, T0, band)
        for k in candidates:
            tau = T / k
            if not (band[0] * (1.0 - 1e-9) <= tau <= band[1] * (1.0 + 1e-9)):
                if k in classical:
                    failures.append(
                        (T, k, f"per-wrap period {tau} outside attained range "
                               f"[{band[0]}, {band[1]}]")
                    )
                continue
            orbit = curve.orbit(tau, params, root_rtol=1e-11)
            if orbit is None:
                failures.append(
                    (T, k, f"per-wrap period {tau} inside the attained range "
                           "but past the end of the period curve")
                )
                continue
            rows.append(
                BranchRow(
                    T=T,
                    k=k,
                    tau=tau,
                    c=orbit.c,
                    amplitude=orbit.amplitude,
                    f_min=orbit.a**r,
                    f_max=orbit.b**r,
                )
            )

    branch_points = _detect_branch_points(rows, t_grid, consts.x_star)
    return BifurcationDiagram(
        params=params,
        T0=T0,
        t_grid=t_grid,
        rows=tuple(rows),
        branch_points=tuple(branch_points),
        failures=tuple(failures),
        band=band,
        degenerate_isochronous=False,
    )


def _detect_branch_points(
    rows: list[BranchRow], t_grid: tuple[float, ...], x_star: float
) -> list[BranchPoint]:
    """Endpoints of branch runs where the amplitude decays to nothing.

    For each wrap count, group its rows into contiguous runs over the
    grid.  A run endpoint bordering an empty cell (or the grid edge on
    the low side) is a branch point when the amplitude there is the
    run's minimum and clearly below the run's peak, or outright below
    the vanishing cutoff.  This catches branches that open to either
    side of their emergence period.
    """
    index_of = {T: i for i, T in enumerate(t_grid)}
    by_k: dict[int, dict[int, float]] = {}
    for row in rows:
        amp = by_k.setdefault(row.k, {})
        i = index_of[row.T]
        amp[i] = min(amp.get(i, math.inf), row.amplitude)

    points: list[BranchPoint] = []
    seen: set[tuple[int, int]] = set()
    cutoff = VANISH_REL * x_star
    last = len(t_grid) - 1
    for k, amp_by_i in sorted(by_k.items()):
        idxs = sorted(amp_by_i)
        runs: list[list[int]] = [[idxs[0]]]
        for i in idxs[1:]:
            if i == runs[-1][-1] + 1:
                runs[-1].append(i)
            else:
                runs.append([i])
        for run in runs:
            amps = [amp_by_i[i] for i in run]
            peak = max(amps)
            low = min(amps)
            for end in {run[0], run[-1]}:
                amp_end = amp_by_i[end]
                # the grid's lower edge sits just above the threshold,
                # a vanishing locus by construction, so it counts as open
                open_border = end == run[0] or end < last
                hard = amp_end <= cutoff
                trend = open_border and amp_end == low and amp_end < 0.5 * peak
                if (hard or trend) and (k, end) not in seen:
                    seen.add((k, end))
                    points.append(BranchPoint(k=k, T=t_grid[end]))
    return sorted(points, key=lambda bp: (bp.k, bp.T))


def count_solutions(
    T: float,
    params: ModelParams,
    *,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> int:
    """Number of branch families alive at circle period T.

    Counts the wrap counts k for which T/k exceeds the threshold T0 and
    lies in the range the period curve attains; the curve is monotone,
    so that range holds exactly one orbit per k, and no quadrature runs
    beyond the curve's build.  Returns 0 for any T at or below T0.  Note
    the threshold filter is one-sided: wrap periods below T0 are not
    counted even when the attained period range extends below the
    threshold, as it does for n = 3.  table is accepted for callers of
    the table-based count and not read.
    """
    if not math.isfinite(T):
        raise DomainError(f"period must be finite, got {T}")
    consts = derive_constants(params)
    if T <= consts.T0 * (1.0 + 1e-9):
        return 0
    lo, hi = period_curve(params.n, QUAD_RTOL).band
    return sum(1 for k in _classical_wraps(T, consts.T0) if lo <= T / k / consts.T0 <= hi)
