"""Correctness checks for the answers, independent of warpcsc.

Nothing here imports the package under test.  The references are:

- closed forms: T0 = 2 pi sqrt((n-1)/Rt), x_star = (R/Rt)^(n/4),
  f_star = sqrt(R/Rt), c_min = potential(x_star), and the band of
  single-orbit periods between T0 and sqrt(n)/2 T0;
- the small-amplitude slope T/T0 - 1 ~ kappa_n s with
  kappa_n = (n-4)(n-1) / (12 n (n-2));
- the orbit period from mpmath at 30 digits: turning points by
  bracketed root finding on the plain potential, then tanh-sinh
  quadrature of sqrt(2) / sqrt(c - V(x)) over [a, b], whose endpoint
  singularities tanh-sinh absorbs (no change of variable);
- the scalar curvature recovered from the f samples by FFT spectral
  differentiation.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import collections
import functools
import math

import mpmath as mp
import numpy as np

# tolerances; each is stated against what the code under test promises
PERIOD_RTOL_ROOT = 1e-8     # inverted periods: quad rtol 1e-10..1e-9, root rtol 1e-12..1e-11
PERIOD_RTOL_DIRECT = 1e-9   # a direct quadrature at rtol 1e-10
ROUTES_RTOL = 1e-6          # return map against quadrature
SLOPE_RTOL = 1e-3           # relative error of (T/T0 - 1)/s at s = 1e-4
SPECTRAL_RTOL = 1e-5        # FFT-recovered curvature against Rt
CLOSURE_TOL = 1e-8          # the solver's own closure promise
SECULAR_TOL = 1e-6          # drift of the mean energy, relative to the well depth
EDGE_RTOL = 1e-6            # per-wrap periods this close to a band end may lack a row


class Closed:
    """Closed-form constants of one parameter set."""

    def __init__(self, n: int, R: float, Rt: float):
        self.T0 = 2.0 * math.pi * math.sqrt((n - 1.0) / Rt)
        self.x_star = (R / Rt) ** (n / 4.0)
        self.f_star = math.sqrt(R / Rt)
        q = 2.0 - 4.0 / n
        A = n * Rt / (8.0 * (n - 1.0))
        B = n * R / (4.0 * (n - 1.0)) / q
        self.c_min = A * self.x_star**2 - B * self.x_star**q
        self.band = (min(1.0, math.sqrt(n) / 2.0) * self.T0, max(1.0, math.sqrt(n) / 2.0) * self.T0)
        self.kappa = (n - 4.0) * (n - 1.0) / (12.0 * n * (n - 2.0))

    def s_of(self, c: float) -> float:
        return (c - self.c_min) / abs(self.c_min)


@functools.lru_cache(maxsize=512)
def reference_period(n: int, R: float, Rt: float, c: float, dps: int = 30) -> float:
    """Orbit period at energy c from mpmath tanh-sinh at dps digits."""
    with mp.workdps(dps):
        n_, R_, Rt_, c_ = mp.mpf(n), mp.mpf(R), mp.mpf(Rt), mp.mpf(c)
        q = 2 - 4 / n_
        A = n_ * Rt_ / (8 * (n_ - 1))
        B = n_ * R_ / (4 * (n_ - 1)) / q
        xs = (R_ / Rt_) ** (n_ / 4)

        def gap(x):
            return A * x**2 - B * x**q - c_

        lo = xs
        while gap(lo) <= 0:
            lo /= 2
        a = mp.findroot(gap, (lo, min(2 * lo, xs)), solver="anderson")
        hi = 2 * xs
        while gap(hi) <= 0:
            hi *= 2
        b = mp.findroot(gap, (max(hi / 2, xs), hi), solver="anderson")

        def integrand(x):
            d = -gap(x)
            # tanh-sinh nodes next to a turning point can round d to 0;
            # their weights are double-exponentially small
            return 1 / mp.sqrt(d) if d > 0 else mp.mpf(0)

        # break points: geometric towards a tiny inner turning point, x_star
        points = [a]
        while 4 * points[-1] < xs:
            points.append(4 * points[-1])
        points += [xs, b]
        return float(mp.sqrt(2) * mp.quad(integrand, points))


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check_period(where: str, n, R, Rt, c: float, T: float, rtol: float) -> list[str]:
    ref = reference_period(n, R, Rt, float(c))
    err = _rel(T, ref)
    if not err <= rtol:
        return [f"{where}: period {T!r} at c = {c!r} is {err:.2e} off the mpmath "
                f"reference {ref!r} (tol {rtol:g})"]
    return []


def spectral_curvature(f: np.ndarray, T: float, n: int, R: float) -> np.ndarray:
    """Scalar curvature of dt^2 + f^2 h from one period of f samples (no endpoint)."""
    m = f.size
    k = 2.0 * math.pi * np.fft.rfftfreq(m, d=T / m)
    F = np.fft.rfft(f)
    if m % 2 == 0:
        # the Nyquist mode has no odd part; drop it from the first derivative
        d1_hat = 1j * k * F
        d1_hat[-1] = 0.0
    else:
        d1_hat = 1j * k * F
    d1 = np.fft.irfft(d1_hat, m)
    d2 = np.fft.irfft(-(k**2) * F, m)
    return (R - 2.0 * (n - 1.0) * f * d2 - (n - 1.0) * (n - 2.0) * d1**2) / f**2


def check_curvature(where: str, f_closed, T: float, n, R, Rt) -> list[str]:
    f = np.asarray(f_closed, dtype=float)[:-1]
    if not np.all(f > 0.0):
        return [f"{where}: warp samples are not all positive"]
    dev = float(np.max(np.abs(spectral_curvature(f, T, n, R) - Rt))) / Rt
    if not dev <= SPECTRAL_RTOL:
        return [f"{where}: spectral curvature is {dev:.2e} Rt off the constant "
                f"(tol {SPECTRAL_RTOL:g})"]
    return []


# -- per question kind ---------------------------------------------------

def check_scan(q, ans, rng) -> list[str]:
    n, R, Rt = q["n"], q["R"], q["Rt"]
    k = Closed(n, R, Rt)
    where = f"scan n={n} R={R} Rt={Rt}"
    bad = []
    rows = ans["rows"]
    if ans["isochronous"] or not rows:
        return [f"{where}: no branch rows"]
    lo, hi = k.band
    for T, kk, tau, c, amp, fmin, fmax in rows:
        if not (kk >= 1 and abs(tau - T / kk) <= 1e-15 * tau):
            bad.append(f"{where}: row T={T!r} k={kk} has tau {tau!r} != T/k")
        if not (lo * (1 - 1e-9) <= tau <= hi * (1 + 1e-9)):
            bad.append(f"{where}: row tau {tau!r} outside the closed-form band [{lo!r}, {hi!r}]")
        if not (k.c_min < c < 0.0 and amp > 0.0 and fmin < k.f_star < fmax):
            bad.append(f"{where}: row T={T!r} k={kk} is not a closed orbit around f_star")
    # completeness: every grid period T and every k with T/k inside the
    # band, away from its ends, carries exactly one row (the period map
    # is monotone in the energy, so one orbit per per-wrap period)
    cell = (q["tmax_T0"] - 1.0) * k.T0 / q["grid"]
    per_pair = collections.Counter()
    for T, kk, *_ in rows:
        j = round((T - k.T0) / cell) - 1
        if not (0 <= j < q["grid"] and abs(T - (k.T0 + (j + 1) * cell)) <= 1e-9 * T):
            bad.append(f"{where}: row period {T!r} is not on the scan grid")
        per_pair[(j, kk)] += 1
    missing = []
    for j in range(q["grid"]):
        T = k.T0 + (j + 1) * cell
        for kk in range(max(1, math.ceil(T / hi)), int(T / lo) + 1):
            if lo * (1 + EDGE_RTOL) < T / kk < hi * (1 - EDGE_RTOL) and per_pair[(j, kk)] != 1:
                missing.append(f"T={T / k.T0:.6f} T0 k={kk}: {per_pair[(j, kk)]} rows")
    if missing:
        bad.append(f"{where}: {len(missing)} in-band (T, k) pairs without exactly one row, "
                   f"e.g. {'; '.join(missing[:3])}")
    # branch points: one per expected wrap, each within one cell of k T0
    expected = [1, 2, 3] if n > 4 else [2, 3]
    got = sorted(ans["branch_points"])
    if [bp[0] for bp in got] != expected:
        bad.append(f"{where}: branch points at wraps {[bp[0] for bp in got]}, expected {expected}")
    for kk, T in got:
        if abs(T - kk * k.T0) > cell * (1.0 + 1e-9):
            bad.append(f"{where}: branch point k={kk} at {T / k.T0:.6f} T0, "
                       f"more than one cell from {kk} T0")
    # the mpmath period at a few rows: two drawn, plus the widest orbit
    picks = {rng.randrange(len(rows)), rng.randrange(len(rows)),
             max(range(len(rows)), key=lambda i: rows[i][4])}
    for i in sorted(picks):
        T, kk, tau, c = rows[i][:4]
        bad += check_period(f"{where} row {i}", n, R, Rt, c, tau, PERIOD_RTOL_ROOT)
    return bad


def check_counts(q, ans) -> list[str]:
    k = Closed(q["n"], q["R"], q["Rt"])
    lo, hi = k.band
    bad = []
    for T, got in zip(q["T"], ans["counts"]):
        want = sum(1 for kk in range(1, int(T / k.T0) + 1) if k.T0 < T / kk and lo < T / kk < hi)
        if got != want:
            bad.append(f"count n={q['n']} T={T / k.T0:.6f} T0: {got} families, "
                       f"closed-form band gives {want}")
    if len(ans["counts"]) != len(q["T"]):
        bad.append(f"count n={q['n']}: {len(ans['counts'])} answers to {len(q['T'])} periods")
    return bad


def solve_verify_failure(q, ans) -> str | None:
    """Why a solve-then-verify question failed, or None when it succeeded."""
    if ans["solve_rc"] != 0:
        first = ans["stderr"].strip().splitlines()[:1]
        return f"solve exit {ans['solve_rc']}: {first[0] if first else ''}"
    if ans["verify_rc"] != 0:
        return f"verify exit {ans['verify_rc']}"
    return None


def check_solve_verify(q, ans, doc, report) -> list[str]:
    n, R, Rt, T = q["n"], q["R"], q["Rt"], q["T"]
    k = Closed(n, R, Rt)
    where = f"solve n={n} R={R} Rt={Rt} T={T / k.T0:.6f} T0"
    bad = []
    if report.get("passed") is not True:
        bad.append(f"{where}: verify exited 0 but its report says passed = false")
    if (doc["params"]["n"], doc["params"]["R"], doc["params"]["Rt"]) != (n, R, Rt) or doc["T"] != T:
        bad.append(f"{where}: profile document carries other parameters or period")
    s = np.asarray(doc["samples"], dtype=float)
    t, x, f = s[:, 0], s[:, 1], s[:, 3]
    m = t.size - 1
    if not (m >= 64 and np.allclose(t, np.arange(m + 1) * (T / m), rtol=0, atol=1e-9 * T)):
        bad.append(f"{where}: samples are not uniform over [0, T]")
        return bad
    if abs(x[-1] - x[0]) / k.x_star > CLOSURE_TOL:
        bad.append(f"{where}: profile does not close, gap {abs(x[-1] - x[0]) / k.x_star:.2e}")
    bad += check_curvature(where, f, T, n, R, Rt)
    bad += check_period(where, n, R, Rt, doc["c"], T, PERIOD_RTOL_ROOT)
    return bad


def check_route_scan(q, ans) -> list[str]:
    n, R, Rt = q["n"], q["R"], q["Rt"]
    k = Closed(n, R, Rt)
    where = f"routes n={n}"
    bad = [f"{where}: scan point failed: {msg}" for msg in ans["failures"]]
    cs, Ts, rm = ans["c"], ans["T"], ans["T_return_map"]
    if len(cs) != q["size"] or any(v is None for v in cs):
        return bad + [f"{where}: scan returned {sum(v is not None for v in cs)} of {q['size']} points"]
    s = [k.s_of(c) for c in cs]
    if not (all(a < b for a, b in zip(s, s[1:]))
            and abs(s[0] / q["s_lo"] - 1) < 1e-6 and abs((1 - s[-1]) / q["s_hi"] - 1) < 1e-6):
        bad.append(f"{where}: energy grid does not run from s = {q['s_lo']} to 1 - {q['s_hi']}")
    lo, hi = k.band
    worst = 0.0
    for c, T, T_rm in zip(cs, Ts, rm):
        if not (lo * (1 - 1e-9) <= T <= hi * (1 + 1e-9)):
            bad.append(f"{where}: period {T!r} outside the closed-form band")
        worst = max(worst, _rel(T_rm, T))
    if not worst <= ROUTES_RTOL:
        bad.append(f"{where}: return map and quadrature differ by {worst:.2e} (tol {ROUTES_RTOL:g})")
    for i in (0, len(cs) // 2, len(cs) - 1):
        bad += check_period(f"{where} point {i}", n, R, Rt, cs[i], Ts[i], PERIOD_RTOL_DIRECT)
    s_slope = k.s_of(ans["slope_c"])
    slope = (ans["slope_T"] / k.T0 - 1.0) / s_slope
    if abs(s_slope / q["s_slope"] - 1) > 1e-6 or _rel(slope, k.kappa) > SLOPE_RTOL:
        bad.append(f"{where}: slope (T/T0 - 1)/s = {slope!r} at s = {s_slope:.3g}, "
                   f"closed form {k.kappa!r} (tol {SLOPE_RTOL:g})")
    return bad


def check_profile(q, ans) -> list[str]:
    n, R, Rt = q["n"], q["R"], q["Rt"]
    k = Closed(n, R, Rt)
    where = f"profile n={n} s={q['s']}"
    bad = []
    if abs(k.s_of(ans["c"]) / q["s"] - 1) > 1e-9:
        bad.append(f"{where}: profile energy {ans['c']!r} is not at s = {q['s']}")
    x = ans["x"]
    if not (ans["closure_error"] <= CLOSURE_TOL and abs(x[-1] - x[0]) / k.x_star <= CLOSURE_TOL):
        bad.append(f"{where}: profile does not close")
    bad += check_curvature(where, ans["f"], ans["T"], n, R, Rt)
    bad += check_period(where, n, R, Rt, ans["c"], ans["T"], PERIOD_RTOL_DIRECT)
    return bad


def check_drift(q, ans) -> list[str]:
    where = f"drift n={q['n']} s={q['s']}"
    bad = []
    if ans["n_steps"] != q["steps"]:
        bad.append(f"{where}: ran {ans['n_steps']} steps, asked {q['steps']}")
    if not ans["secular_rel"] < SECULAR_TOL:
        bad.append(f"{where}: secular energy drift {ans['secular_rel']:.2e} (tol {SECULAR_TOL:g})")
    return bad
