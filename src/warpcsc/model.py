"""Reduction of the constant-scalar-curvature condition on a warped circle.

A product metric dt^2 + f(t)^2 h on S^1 x N, where the fiber (N, h) has
dimension n - 1 >= 2 and constant scalar curvature R > 0, has constant
scalar curvature Rt > 0 exactly when the positive warp f satisfies

    Rt f^2 + 2 (n-1) f f'' + (n-1)(n-2) f'^2 - R = 0.

The substitution f = x^(2/n) removes the first-derivative square and turns
this into a conservative oscillator for x > 0,

    x'' + force(x) = 0,
    force(x) = (n Rt / (4 (n-1))) x - (n R / (4 (n-1))) x^(1 - 4/n),

whose potential is normalized to vanish as x -> 0+.  The unique positive
rest point x_star is a nondegenerate center; orbits with energy strictly
between the well bottom and zero are closed, and each closed orbit maps
back to a positive periodic warp.  Everything downstream (period maps,
profile solving, bifurcation counts) is built on the few evaluators here.

Each formula of the force, the potential and its offset above the well
bottom is written once, in `_forms`: closures over one parameter set's
constants.  The public evaluators check and convert their input and call
them.  `derive_constants` and the return map's step sizing
(`integrator._rough_inner_turning`), which evaluate one float at a time,
call them directly, bit for bit the same and without the per-call array
overhead.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "PhaseState",
    "derive_constants",
    "force",
    "potential",
    "potential_above_min",
    "energy",
    "linearized_frequency",
    "to_warp_coords",
    "curvature_residual",
]

# relative slack of a period compared with the threshold T0 and the band
PERIOD_SLACK = 1e-9


def _integer(name: str, value):
    """value of any integer type, such as numpy's int64, or an integral
    float, such as 400.0, made an int.  A float that is not integral
    raises DomainError naming the argument; a bool or any other value is
    returned as it is, for the caller's own checks."""
    if isinstance(value, float):
        if not value.is_integer():
            raise DomainError(f"{name} must be an integer, got {value}")
        return int(value)
    try:
        return value if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return value


class _ModelFields(NamedTuple):
    n: int
    R: float
    Rt: float


class ModelParams(_ModelFields):
    """Dimension and curvature data of the warped product.

    n is the total dimension (fiber dimension n - 1), R the fiber scalar
    curvature, Rt the target scalar curvature of the product.  Both
    curvatures must be positive; nothing here covers the flat or negative
    cases.  x_star^2 = (R/Rt)^(n/2), the scale of every energy, must be a
    normal float, so a large n needs R/Rt near 1.  _make, _replace and
    unpickling check these too: each goes through the constructor.
    """

    __slots__ = ()

    def __new__(cls, n: int, R: float, Rt: float):
        raw, n = n, _integer("dimension n", n)
        if not isinstance(n, int) or isinstance(n, bool) or n < 3:
            raise DomainError(f"dimension n must be an integer >= 3, got {raw!r}")
        if n > sys.float_info.max:
            raise DomainError("dimension n must be an integer >= 3, got an integer too large "
                              "for a float")
        curvatures = []
        for name, value in (("R", R), ("Rt", Rt)):
            try:
                value = float(value)
            except OverflowError:
                raise DomainError(f"{name} must be a positive finite number, got an "
                                  "integer too large for a float") from None
            if not math.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be a positive finite number, got {value}")
            curvatures.append(value)
        R, Rt = curvatures
        # every energy scales with x_star^2, so it must be a normal float
        try:
            x_star_sq = (R / Rt) ** (n / 2.0)
        except OverflowError:
            x_star_sq = math.inf
        if not sys.float_info.min <= x_star_sq < math.inf:
            raise DomainError(f"x_star^2 = (R/Rt)^(n/2) leaves the float range for n = {n}, "
                              f"R = {R}, Rt = {Rt}; bring R/Rt closer to 1 or lower n")
        return super().__new__(cls, n, R, Rt)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _PhaseFields(NamedTuple):
    t: float
    x: float
    v: float


class PhaseState(_PhaseFields):
    """A point (t, x, v) on the reduced phase cylinder, x > 0, checked by
    the constructor whichever way it is made."""

    __slots__ = ()

    def __new__(cls, t: float, x: float, v: float):
        values = []
        for name, value in (("t", t), ("x", x), ("v", v)):
            value = float(value)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            values.append(value)
        t, x, v = values
        if x <= 0.0:
            raise DomainError(f"reduced variable must stay positive, got x = {x}")
        return super().__new__(cls, t, x, v)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class DerivedConstants(NamedTuple):
    """Closed-form constants attached to one parameter set.

    x_star   rest point of the reduced oscillator, (R/Rt)^(n/4)
    f_star   constant warp solution, sqrt(R/Rt)
    omega    linearized frequency at the rest point, sqrt(Rt/(n-1))
    T0       linear period 2 pi / omega, the bifurcation threshold
    c_min    potential at the rest point (well bottom), always negative
    c_crit   energy of the degenerate contact orbit through x = 0
    """

    x_star: float
    f_star: float
    omega: float
    T0: float
    c_min: float
    c_crit: float


def _force_coeffs(params: ModelParams) -> tuple[float, float, float]:
    # force(x) = k1 x - k2 x^e with e = 1 - 4/n
    n = params.n
    k1 = n * params.Rt / (4.0 * (n - 1.0))
    k2 = n * params.R / (4.0 * (n - 1.0))
    return k1, k2, 1.0 - 4.0 / n


def _potential_coeffs(params: ModelParams) -> tuple[float, float, float]:
    # potential(x) = A x^2 - B x^q with q = 2 - 4/n; A, B > 0
    n = params.n
    k1, k2, _ = _force_coeffs(params)
    q = 2.0 - 4.0 / n
    return 0.5 * k1, k2 / q, q


def linearized_frequency(params: ModelParams) -> float:
    """Frequency of small oscillations about the rest point.

    The force gradient at x_star is Rt/(n-1) for every R, so the linear
    period depends only on the target curvature and the dimension.
    """
    return math.sqrt(params.Rt / (params.n - 1.0))


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Compute the closed-form constants for one parameter set.

    T0 is defined as 2 pi / linearized_frequency(params), so the two
    agree bit for bit by construction.
    """
    n = params.n
    x_star = (params.R / params.Rt) ** (n / 4.0)
    f_star = math.sqrt(params.R / params.Rt)
    omega = linearized_frequency(params)
    return DerivedConstants(
        x_star=x_star,
        f_star=f_star,
        omega=omega,
        T0=2.0 * math.pi / omega,
        c_min=float(_forms(params).potential(x_star)),
        c_crit=0.0,
    )


class _Forms(NamedTuple):
    """The force, the potential and its offset above the well bottom as
    closures over one parameter set's constants.

    They take floats or arrays and neither check nor convert.  They call
    numpy's ufuncs even on floats: np.power, np.expm1 and np.log1p give
    the bits of the array path, where Python's ** and math.expm1 differ
    in the last bit.  The public evaluators below validate and call them.
    """

    force: Callable
    potential: Callable
    offset: Callable


@lru_cache(maxsize=64)
def _forms(params: ModelParams) -> _Forms:
    k1, k2, e = _force_coeffs(params)
    A, B, q = _potential_coeffs(params)
    x_star = (params.R / params.Rt) ** (params.n / 4.0)
    b_star = B * x_star**q

    def offset(x):
        d = x - x_star
        return A * d * (x + x_star) - b_star * np.expm1(q * np.log1p(d / x_star))

    return _Forms(
        force=lambda x: k1 * x - k2 * np.power(x, e),
        potential=lambda x: A * np.square(x) - B * np.power(x, q),
        offset=offset,
    )


def _evaluate(form, x, name: str):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError(f"{name} requires x > 0")
    out = form(arr)
    return float(out) if arr.ndim == 0 else out


def force(x, params: ModelParams):
    """Restoring force of the reduced oscillator, defined for x > 0.

    Scalar in, scalar out; arrays map elementwise.  For n = 4 the
    exponent 1 - 4/n vanishes and the force k1 x - k2 has a constant
    gradient, which is why that dimension is isochronous.
    """
    return _evaluate(_forms(params).force, x, "force")


def potential(x, params: ModelParams):
    """Antiderivative of the force, normalized so potential(0+) = 0.

    potential(x) = A x^2 - B x^q with q = 2 - 4/n in (2/3, 2); both
    coefficients are positive, so the well is a single dip below zero
    with its bottom at x_star.
    """
    return _evaluate(_forms(params).potential, x, "potential")


def potential_above_min(x, params: ModelParams):
    """potential(x) - potential(x_star), evaluated without cancellation.

    Subtracting two nearby potential values loses every significant digit
    close to the well bottom.  Writing the difference through expm1/log1p
    in the offset d = x - x_star keeps it accurate to roundoff on the
    whole positive axis.  The period quadrature and the turning-point
    solves do not call it: they work in u = f_min/f_star with
    `period._rise` and `period._gap_factor`.  Inside the package only
    its scalar form, `_forms(params).offset`, is used, to size the
    return map's steps (`integrator._rough_inner_turning`).
    """
    return _evaluate(_forms(params).offset, x, "potential_above_min")


def energy(x, v, params: ModelParams):
    """Conserved energy v^2/2 + potential(x) of the reduced motion."""
    arr_v = np.asarray(v, dtype=float)
    out = 0.5 * arr_v**2 + potential(x, params)
    return float(out) if np.ndim(out) == 0 else out


def to_warp_coords(x, v, params: ModelParams):
    """Map reduced phase data (x, v) to warp data (f, f', f'').

    Uses f = x^(2/n) together with the reduced equation of motion
    x'' = -force(x), so the second derivative needs no differencing.
    """
    arr_x = np.asarray(x, dtype=float)
    arr_v = np.asarray(v, dtype=float)
    if np.any(arr_x <= 0.0):
        raise DomainError("to_warp_coords requires x > 0")
    r = 2.0 / params.n
    f = arr_x**r
    fp = r * arr_x ** (r - 1.0) * arr_v
    acc = -force(arr_x, params)
    fpp = r * (r - 1.0) * arr_x ** (r - 2.0) * arr_v**2 + r * arr_x ** (r - 1.0) * acc
    if arr_x.ndim == 0 and arr_v.ndim == 0:
        return float(f), float(fp), float(fpp)
    return f, fp, fpp


def curvature_residual(f, fp, fpp, params: ModelParams):
    """Pointwise defect of the constant-scalar-curvature condition.

    Returns Rt f^2 + 2 (n-1) f f'' + (n-1)(n-2) f'^2 - R.  Zero exactly
    on solutions; pure evaluation, no validation.
    """
    n = params.n
    f = np.asarray(f, dtype=float)
    fp = np.asarray(fp, dtype=float)
    fpp = np.asarray(fpp, dtype=float)
    out = params.Rt * f**2 + 2.0 * (n - 1.0) * f * fpp + (n - 1.0) * (n - 2.0) * fp**2 - params.R
    return float(out) if out.ndim == 0 else out
