"""The three question workloads and how their parameters are drawn.

A round is one pass over a workload's questions.  Every round of a
workload has the same make-up (same kinds, same count, the same fault
questions), so the share of failed questions is identical in every run,
whatever the seed and however many rounds fit in the run.  Parameters
that the workload lets vary are drawn afresh for each round from one
`random.Random(seed)` stream, so a seed fixes every input of the run.

This module only describes questions; it does not import warpcsc.
Closed-form constants used to place the draws are written out here so
that the question list does not depend on the code under test.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("diagram", "solve_verify", "routes")

# diagram: three branch diagrams and one four-period count per round
DIAGRAM_SCANS = ((3, 2.0, 2.0), (3, 8.0, 8.0), (6, 1.0, 3.0))
DIAGRAM_TMAX = 3.5  # in units of T0
DIAGRAM_GRID = 400
COUNT_PARAMS = (5, 2.0, 2.0)
# keep every per-wrap period T/k this far (in units of T0) from both
# band ends; the table of the code under test stops 1.75e-4 short of
# the upper end for n = 5, so 1e-3 keeps counts off that truncation
COUNT_MARGIN = 1e-3
# one period per window, each window in units of T0, drawn uniformly
# inside it: every round asks three periods that carry one family
# (k = 1, 2, 3) and one that carries none.  The four counts are one
# question ("how many warps at each of these periods?"), so the median
# question time does not sit on the tail of the count times
_E5 = math.sqrt(5.0) / 2.0
COUNT_WINDOWS = (
    (1.0 + COUNT_MARGIN, _E5 - COUNT_MARGIN),
    (_E5 + COUNT_MARGIN, 2.0 - 2.0 * COUNT_MARGIN),
    (2.0 * (1.0 + COUNT_MARGIN), 2.0 * (_E5 - COUNT_MARGIN)),
    (3.0 * (1.0 + COUNT_MARGIN), 3.0 * (_E5 - COUNT_MARGIN)),
)

# solve_verify: one question per parameter set, T/T0 drawn in its range
SOLVE_SETS = (
    ((5, 2.0, 2.0), (1.02, 1.05)),
    ((6, 1.0, 3.0), (1.05, 1.10)),
    ((8, 3.0, 1.0), (1.05, 1.20)),
    ((12, 2.0, 2.0), (1.10, 1.30)),
)
# known faults of the code under test, asked in every round with fixed
# inputs; each is counted as a failed question until the code mends it
FAULTS = (
    # solve exits 0, verify exits 3: 512 uniform samples miss the dip
    ("F1", (5, 2.0, 2.0), None, 9.93),
    # solve exits 4 (NoBracket): the energy clamp cuts the band at 1.6415 T0
    ("F2", (12, 2.0, 2.0), 1.70, None),
    # solve exits 4 (BudgetExceeded): closure gap 1.42e-8 over the 1e-8 limit
    ("F3", (12, 2.0, 5.0), 1.10, None),
)

# routes: fixed inputs; the two period routes and the leapfrog kernels
ROUTE_DIMS = (3, 5, 6)
ROUTE_GRID = 50
ROUTE_S_LO = 1e-9
ROUTE_S_HI = 1e-4  # the grid's top is s = 1 - ROUTE_S_HI
SLOPE_S = 1e-4
PROFILE_S = (0.1, 0.4, 0.7)
DRIFT_S = 0.5
DRIFT_STEPS_PER_T0 = 200
DRIFT_STEPS = 2_000_000


def threshold_period(n: int, Rt: float) -> float:
    """Closed-form linear period T0 = 2 pi sqrt((n - 1) / Rt)."""
    return 2.0 * math.pi * math.sqrt((n - 1.0) / Rt)


def _params(triple) -> dict:
    n, R, Rt = triple
    return {"n": n, "R": R, "Rt": Rt}


def draw_round(workload: str, rng: random.Random) -> list[dict]:
    """Questions of one round; consumes draws from rng."""
    if workload == "diagram":
        qs = [
            {"kind": "scan", **_params(p), "tmax_T0": DIAGRAM_TMAX, "grid": DIAGRAM_GRID}
            for p in DIAGRAM_SCANS
        ]
        n, _, Rt = COUNT_PARAMS
        T0 = threshold_period(n, Rt)
        periods = [rng.uniform(lo, hi) * T0 for lo, hi in COUNT_WINDOWS]
        qs.append({"kind": "counts", **_params(COUNT_PARAMS), "T": periods})
        return qs
    if workload == "solve_verify":
        qs = []
        for triple, (lo, hi) in SOLVE_SETS:
            T = rng.uniform(lo, hi) * threshold_period(triple[0], triple[2])
            qs.append({"kind": "solve_verify", **_params(triple), "T": T, "fault": None})
        for name, triple, ratio, absolute in FAULTS:
            T = absolute if absolute is not None else ratio * threshold_period(triple[0], triple[2])
            qs.append({"kind": "solve_verify", **_params(triple), "T": T, "fault": name})
        return qs
    if workload == "routes":
        qs = [
            {"kind": "route_scan", "n": n, "R": 2.0, "Rt": 2.0, "size": ROUTE_GRID,
             "s_lo": ROUTE_S_LO, "s_hi": ROUTE_S_HI, "s_slope": SLOPE_S}
            for n in ROUTE_DIMS
        ]
        qs += [{"kind": "profile", "n": 3, "R": 2.0, "Rt": 2.0, "s": s} for s in PROFILE_S]
        qs.append({"kind": "drift", "n": 3, "R": 2.0, "Rt": 2.0, "s": DRIFT_S,
                   "steps_per_T0": DRIFT_STEPS_PER_T0, "steps": DRIFT_STEPS})
        return qs
    raise ValueError(f"unknown workload {workload!r}")
