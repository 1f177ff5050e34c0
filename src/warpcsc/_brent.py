"""Brent's bracketed root finder, ported from scipy's C `brentq`.

Brent, Algorithms for Minimization Without Derivatives (1973), ch. 4:
keep a bracket [xcur, xblk] with a sign change and step by inverse
quadratic extrapolation, secant interpolation or bisection, whichever is
safe.  This is a line-for-line port of scipy 1.17's `brentq`
(scipy/optimize/Zeros/brentq.c and its Python wrapper), so it returns
the same root bits after the same evaluations.  It keeps the C
semantics: signs are compared by sign bit, so function values whose
product underflows still count as a sign change, and a zero denominator
in the interpolation step bisects, as C's comparison against inf or nan
does.

Failures are typed: a bad tolerance, a bracket without a sign change or
a NaN value raise `DomainError` (a `ValueError`), and running out of
iterations raises `BudgetExceeded`.
"""

from __future__ import annotations

import math
import sys

from .errors import BudgetExceeded, DomainError

_XTOL = 2e-12
_RTOL = 4 * sys.float_info.epsilon
_ITER = 100


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def brentq(f, a: float, b: float, xtol: float = _XTOL, rtol: float = _RTOL,
           maxiter: int = _ITER) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops when f is exactly zero or the bracket is narrower than
    xtol + rtol * |x|.
    """
    if xtol <= 0:
        raise DomainError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise DomainError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise DomainError(f"maxiter must be >= 0, got {maxiter}")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0

    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise DomainError(f"f(a) and f(b) must have different signs: f({a}) = {fpre}, f({b}) = {fcur}")

    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides into inf or nan here, which fails the test below
                stry = math.nan
            limit = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = value(xcur)
    raise BudgetExceeded(
        f"Brent root solve failed to converge after maxiter = {maxiter} iterations, "
        f"value is {xcur!r}"
    )
