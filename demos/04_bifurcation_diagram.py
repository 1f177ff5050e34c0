"""Branch structure of non-constant solutions over the circle period.

Scanning circle periods above the threshold and marking every wrapped
orbit that realizes them produces the branch diagram.  Branch k leaves
the constant solution where its per-wrap period meets the
small-amplitude limit T0, so its branch point is k*T0 exactly.  Counts
come from the closed-form band between T0 and sqrt(n)/2*T0.  The n=4
case degenerates: a single vertical branch at T0 carries all amplitudes
at once.
"""

import numpy as np

from warpcsc import ModelParams, count_solutions, derive_constants, scan_branches

params = ModelParams(3, 2.0, 2.0)
k = derive_constants(params)
diagram = scan_branches(3.5 * k.T0, params, 400)

print(f"n = 3, R = Rt = 2, scan up to 3.5*T0 on 400 grid points")
lo, hi = diagram.band
print(f"  attainable per-orbit periods: [{lo / k.T0:.6f}, {hi / k.T0:.6f}] * T0")
print(f"  {len(diagram.rows)} realized solutions, "
      f"{len(diagram.failures)} candidate misses recorded")

print("branch points (each wrap leaves the constant solution at k*T0):")
for bp in diagram.branch_points:
    print(f"  k = {bp.k}: T = {bp.T:.9f} = {bp.T / k.T0:.6f}*T0")

print("occupancy along the period axis:")
for lo_r, hi_r in ((1.0, 1.732), (1.732, 2.0), (2.0, 2.598), (2.598, 3.0), (3.0, 3.464)):
    inside = [r for r in diagram.rows if lo_r * k.T0 < r.T <= hi_r * k.T0]
    wraps = sorted({r.k for r in inside})
    print(f"  ({lo_r:.3f}, {hi_r:.3f}] * T0: "
          f"{'wraps ' + str(wraps) if wraps else 'empty (gap)'}")

print()
print("counting under the documented contract (wrap period must exceed T0):")
for ratio in (0.99, 1.01, 1.9, 2.6):
    print(f"  count_solutions({ratio}*T0) = {count_solutions(ratio * k.T0, params)}")
print("for n = 3 the contract never counts the wrapped families; the rows")
print("above are where the actual solutions live.")

print()
params4 = ModelParams(4, 2.0, 2.0)
k4 = derive_constants(params4)
diagram4 = scan_branches(2.5 * k4.T0, params4, 60)
print(f"n = 4: degenerate_isochronous = {diagram4.degenerate_isochronous}, "
      f"branch points {[(bp.k, round(bp.T / k4.T0, 9)) for bp in diagram4.branch_points]}")
print("every amplitude shares the period T0, so the diagram is a single")
print("vertical branch at the threshold and the scan above it is empty.")

print()
params5 = ModelParams(5, 2.0, 2.0)
k5 = derive_constants(params5)
diagram5 = scan_branches(1.4 * k5.T0, params5, 80)
rows5 = sorted((r for r in diagram5.rows if r.k == 1), key=lambda r: r.T)
print(f"n = 5: the k=1 branch opens rightward from T0; amplitudes along it:")
shown = rows5[:3] + rows5[-2:]
for r in shown:
    print(f"  T = {r.T / k5.T0:.6f}*T0: amplitude {r.amplitude:.6f}")
