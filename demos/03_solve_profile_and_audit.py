"""Solve for a warp profile of prescribed period and audit it.

The solver inverts the period function, samples the orbit at the root
energy by quadrature (no ODE is stepped), and returns one period of warp
samples.  Three independent audits then confirm the samples define a
metric of the advertised constant curvature: an algebraic identity on
the stored columns, the same identity with derivatives re-measured from
f alone, and energy conservation along the orbit.
"""

import numpy as np

from warpcsc import (
    ModelParams,
    NoBracket,
    audit_profile,
    conformal_field_check,
    curvature_audit,
    derive_constants,
    solve_period,
)

params = ModelParams(5, 2.0, 2.0)
k = derive_constants(params)
target = 1.05 * k.T0
print(f"n = 5, R = Rt = 2: solving for a profile with period {target:.9f}")

profile = solve_period(target, params, 512)
print(f"  root energy       c = {profile.c:.12f}  (well bottom {k.c_min:.6f})")
print(f"  realized period   T = {profile.T:.12f}")
print(f"  warp range        [{profile.f.min():.6f}, {profile.f.max():.6f}]"
      f"  around f_star = {k.f_star:.6f}")
print(f"  closure error     {profile.closure_error:.2e}")

audit = audit_profile(profile)
print("three-route audit:")
print(f"  chain identity     sup {audit.chain_sup:.2e}  (tol {audit.chain_tol_abs:.1e})")
print(f"  finite differences sup {audit.fd_sup:.2e}  (tol {audit.fd_tol_abs:.1e})")
print(f"  energy shell       sup {audit.energy_sup:.2e}  (tol {audit.energy_tol_abs:.1e})")
print(f"  verdict: {'clean' if audit.ok else f'breaches {audit.breaches}'}")

curv = curvature_audit(profile)
print(f"curvature recovered from f samples alone: max deviation "
      f"{curv.max_dev:.2e} vs tolerance {curv.tol_abs:.1e} -> "
      f"{'pass' if curv.passed else 'fail'}")

conv = conformal_field_check(profile)
print("fiber factor convention:")
print(f"  squared (f^2 h): residual {conv.sup_fiber_sq:.2e} -> "
      f"{'consistent' if conv.squared_convention_ok else 'inconsistent'}")
print(f"  linear  (f h)  : residual {conv.sup_fiber_lin:.2e} -> "
      f"{'consistent' if conv.linear_convention_ok else 'inconsistent'}")

print()
print("periods below the threshold or in a band gap are refused:")
try:
    solve_period(1.5 * derive_constants(ModelParams(3, 2.0, 2.0)).T0,
                 ModelParams(3, 2.0, 2.0), 64)
except NoBracket as err:
    print(f"  n = 3, T = 1.5*T0: {err}")
