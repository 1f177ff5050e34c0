"""Constants, force, potential and the warp coordinate change."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcsc import (
    DomainError,
    ModelParams,
    PhaseState,
    curvature_residual,
    derive_constants,
    energy,
    force,
    linearized_frequency,
    potential,
    potential_above_min,
    to_warp_coords,
)
from warpcsc.model import _forms

# Reference values computed with mpmath at 40 digits, printed to 17
# significant digits (see the closed forms in the docstrings).
FROZEN_CONSTANTS = {
    (3, 2.0, 2.0): dict(
        x_star=1.0,
        f_star=1.0,
        omega=1.0,
        T0=6.2831853071795865,
        c_min=-0.75,
    ),
    (5, 3.7, 1.3): dict(
        x_star=3.6967745417211946,
        f_star=1.6870547845739468,
        omega=0.57008771254956899,
        T0=11.021436120907912,
        c_min=-1.8506233975013888,
    ),
    (6, 0.4, 9.0): dict(
        x_star=0.0093697115856840869,
        f_star=0.21081851067789196,
        omega=1.3416407864998738,
        T0=4.6832098206938176,
        c_min=-5.9259259259259259e-5,
    ),
}


@pytest.mark.parametrize("key", sorted(FROZEN_CONSTANTS))
def test_derived_constants_match_high_precision_reference(key):
    n, R, Rt = key
    consts = derive_constants(ModelParams(n, R, Rt))
    ref = FROZEN_CONSTANTS[key]
    assert consts.x_star == pytest.approx(ref["x_star"], rel=1e-14)
    assert consts.f_star == pytest.approx(ref["f_star"], rel=1e-14)
    assert consts.omega == pytest.approx(ref["omega"], rel=1e-14)
    assert consts.T0 == pytest.approx(ref["T0"], rel=1e-14)
    assert consts.c_min == pytest.approx(ref["c_min"], rel=1e-13)
    assert consts.c_crit == 0.0


def test_threshold_period_is_exactly_two_pi_over_frequency():
    rng = np.random.default_rng(20240811)
    for _ in range(50):
        n = int(rng.integers(3, 11))
        R = float(rng.uniform(0.1, 10.0))
        Rt = float(rng.uniform(0.1, 10.0))
        params = ModelParams(n, R, Rt)
        consts = derive_constants(params)
        # bitwise, not approximately: T0 is defined through the frequency
        assert consts.T0 == 2.0 * math.pi / linearized_frequency(params)
        assert consts.omega == linearized_frequency(params)


def test_frequency_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 11))
        Rt = float(rng.uniform(0.1, 10.0))
        params = ModelParams(n, 1.0, Rt)
        assert linearized_frequency(params) == pytest.approx(
            math.sqrt(Rt / (n - 1)), rel=1e-15
        )


def test_rest_point_is_force_free_minimum(p3, p5):
    for params in (p3, p5, ModelParams(7, 0.3, 4.2)):
        k = derive_constants(params)
        assert force(k.x_star, params) == pytest.approx(0.0, abs=1e-14)
        for d in (-1e-4, 1e-4):
            assert potential(k.x_star * (1 + d), params) > k.c_min


def test_force_is_potential_gradient():
    """Central differences of the potential reproduce the force."""
    rng = np.random.default_rng(99)
    for n in (3, 4, 5, 8):
        params = ModelParams(n, 1.7, 2.9)
        k = derive_constants(params)
        for _ in range(20):
            x = float(rng.uniform(0.3, 3.0)) * k.x_star
            h = 1e-6 * x
            fd = (potential(x + h, params) - potential(x - h, params)) / (2 * h)
            assert force(x, params) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_n4_force_is_affine(p4):
    # the x-exponent degenerates to zero, leaving a linear restoring law
    xs = np.linspace(0.2, 3.0, 17)
    mid = force((xs[0] + xs[-1]) / 2.0, p4)
    avg = (force(xs[0], p4) + force(xs[-1], p4)) / 2.0
    assert mid == pytest.approx(avg, rel=1e-15)
    vals = force(xs, p4)
    resid = np.diff(vals, 2)
    assert np.max(np.abs(resid)) < 1e-14


def test_energy_is_kinetic_plus_potential(p3):
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = float(rng.uniform(0.05, 4.0))
        v = float(rng.normal())
        assert energy(x, v, p3) == pytest.approx(
            0.5 * v * v + potential(x, p3), rel=1e-15, abs=1e-15
        )


def test_potential_above_min_is_nonnegative_and_anchored(p3, k3):
    assert potential_above_min(k3.x_star, p3) == 0.0
    xs = np.geomspace(1e-3, 10.0, 200) * k3.x_star
    gaps = potential_above_min(xs, p3)
    assert np.all(gaps >= 0.0)


def test_potential_above_min_matches_naive_difference_away_from_rest(p5):
    k = derive_constants(p5)
    for x in (0.3 * k.x_star, 0.8 * k.x_star, 2.5 * k.x_star):
        naive = potential(x, p5) - k.c_min
        assert potential_above_min(x, p5) == pytest.approx(naive, rel=1e-12)


def test_potential_above_min_keeps_accuracy_near_rest_point():
    """Tiny offsets resolve to the quadratic term, not subtraction noise.

    At d = 1e-9 the naive difference of potentials has no correct digits
    (the true gap is ~1e-18 while the rounding floor is ~1e-16), so this
    only passes with a cancellation-free evaluation.
    """
    for n, R, Rt in ((3, 2.0, 2.0), (5, 3.7, 1.3), (6, 0.4, 9.0)):
        params = ModelParams(n, R, Rt)
        k = derive_constants(params)
        w2 = k.omega * k.omega
        for d in (1e-9, -1e-9, 1e-7, 1e-5):
            x = k.x_star * (1.0 + d)
            quad = 0.5 * w2 * (k.x_star * d) ** 2
            assert potential_above_min(x, params) == pytest.approx(quad, rel=1e-4)


def test_curvature_residual_vanishes_on_transformed_states():
    rng = np.random.default_rng(20240812)
    for n, R, Rt in ((3, 2.0, 2.0), (4, 1.0, 3.0), (7, 9.5, 0.2)):
        params = ModelParams(n, R, Rt)
        k = derive_constants(params)
        x = k.x_star * rng.uniform(0.05, 5.0, size=1000)
        v = k.omega * k.x_star * rng.normal(size=1000)
        scale = max(1.0, abs(R), abs(Rt))
        for xi, vi in zip(x, v):
            f, fp, fpp = to_warp_coords(float(xi), float(vi), params)
            assert abs(curvature_residual(f, fp, fpp, params)) < 1e-9 * scale


def test_curvature_residual_detects_wrong_second_derivative(p3):
    f, fp, fpp = to_warp_coords(1.7, 0.4, p3)
    clean = curvature_residual(f, fp, fpp, p3)
    spoiled = curvature_residual(f, fp, fpp + 0.1, p3)
    assert abs(clean) < 1e-12
    assert abs(spoiled) > 1e-3


def test_to_warp_coords_columns(p5):
    # warp is x^(2/n); its time derivative follows by the chain rule
    n = p5.n
    x, v = 2.31, -0.57
    f, fp, _ = to_warp_coords(x, v, p5)
    assert f == pytest.approx(x ** (2.0 / n), rel=1e-15)
    assert fp == pytest.approx((2.0 / n) * x ** (2.0 / n - 1.0) * v, rel=1e-15)


def test_scalar_and_array_evaluation_agree(p3):
    xs = np.array([0.4, 1.0, 2.2])
    arr = potential(xs, p3)
    assert arr.shape == xs.shape
    for i, x in enumerate(xs):
        assert arr[i] == potential(float(x), p3)
    assert isinstance(force(1.3, p3), float)


@pytest.mark.parametrize(
    "bad",
    [
        dict(n=2, R=1.0, Rt=1.0),
        dict(n=3.5, R=1.0, Rt=1.0),
        dict(n=3, R=0.0, Rt=1.0),
        dict(n=3, R=1.0, Rt=-2.0),
        dict(n=3, R=math.nan, Rt=1.0),
        dict(n=3, R=1.0, Rt=math.inf),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(DomainError):
        ModelParams(**bad)


@pytest.mark.parametrize("n, R, Rt", [(10000, 3.0, 1.0), (100000, 1.0, 3.0),
                                      (3, 1e300, 1e-300), (3, 1e-300, 1e300)])
def test_parameters_whose_energy_scale_leaves_the_float_range_are_refused(n, R, Rt):
    # x_star^2 = (R/Rt)^(n/2) overflows, or falls below the normal floats
    with pytest.raises(DomainError) as raised:
        ModelParams(n, R, Rt)
    assert f"for n = {n}, R = {R}, Rt = {Rt}" in str(raised.value)


@pytest.mark.parametrize("n, R, Rt", [(1000, 3.0, 1.0), (1000, 1.0, 3.0), (10**8, 2.0, 2.0)])
def test_parameters_whose_energy_scale_is_a_normal_float_are_accepted(n, R, Rt):
    k = derive_constants(ModelParams(n, R, Rt))
    assert math.isfinite(k.c_min) and k.c_min < 0.0 and k.x_star > 0.0


def test_integral_float_dimension_accepted():
    params = ModelParams(4.0, 1.0, 1.0)
    assert params.n == 4 and isinstance(params.n, int)


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_a_numpy_integer_dimension_is_a_python_int(integer):
    # a caller looping over np.arange dimensions passes numpy integers;
    # the stored int keeps json.dumps of a profile document working
    params = ModelParams(integer(5), 2, 2)
    assert params == ModelParams(5, 2, 2)
    assert type(params.n) is int


@pytest.mark.parametrize("n", [np.True_, True, np.float64(5.5)])
def test_a_bool_or_a_fractional_numpy_dimension_is_refused(n):
    with pytest.raises(DomainError, match="must be an integer"):
        ModelParams(n, 2.0, 2.0)


@pytest.mark.parametrize("evaluate", [force, potential])
@pytest.mark.parametrize("x", [0.0, -1.0, np.array([1.0, 0.0])])
def test_evaluators_refuse_a_nonpositive_x(p3, evaluate, x):
    with pytest.raises(DomainError, match=f"^{evaluate.__name__} requires x > 0$"):
        evaluate(x, p3)


@pytest.mark.parametrize("x", [0.0, -1.0, np.array([1.0, 0.0])])
def test_to_warp_coords_refuses_a_nonpositive_x(p3, x):
    with pytest.raises(DomainError, match="^to_warp_coords requires x > 0$"):
        to_warp_coords(x, 0.0, p3)


@pytest.mark.parametrize("field", ["t", "x", "v"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phase_state_refuses_a_non_finite_field(field, value):
    values = {"t": 0.0, "x": 1.0, "v": 0.0, field: value}
    with pytest.raises(DomainError, match=f"^{field} must be finite, got {value}$"):
        PhaseState(**values)


def test_phase_state_requires_positive_reduced_variable():
    with pytest.raises(DomainError):
        PhaseState(t=0.0, x=0.0, v=1.0)
    with pytest.raises(DomainError):
        PhaseState(t=0.0, x=-1.0, v=0.0)
    state = PhaseState(t=0.0, x=0.5, v=-0.25)
    assert (state.x, state.v) == (0.5, -0.25)


def _refusal(make) -> str:
    with pytest.raises(DomainError) as raised:
        make()
    return str(raised.value)


@pytest.mark.parametrize("change, message", [
    (dict(n=2), "dimension n must be an integer >= 3, got 2"),
    (dict(R=-1.0), "R must be a positive finite number, got -1.0"),
], ids=["n", "R"])
def test_replacing_a_parameter_checks_it_as_the_constructor_does(change, message):
    fields = {"n": 5, "R": 2.0, "Rt": 2.0, **change}
    assert _refusal(lambda: ModelParams(5, 2, 2)._replace(**change)) == message
    assert _refusal(lambda: ModelParams._make(fields.values())) == message
    assert _refusal(lambda: ModelParams(**fields)) == message


def test_replacing_a_phase_coordinate_checks_it_as_the_constructor_does():
    message = "reduced variable must stay positive, got x = -1.0"
    assert _refusal(lambda: PhaseState(0.0, 1.0, 0.5)._replace(x=-1.0)) == message
    assert _refusal(lambda: PhaseState(t=0.0, x=-1.0, v=0.5)) == message


def test_replacing_and_pickling_keep_the_normalised_fields():
    params = ModelParams(np.int64(5), 2, 3)
    assert params._replace(R=1) == ModelParams(5, 1.0, 3.0)
    assert type(params._replace(R=1).R) is float
    again = pickle.loads(pickle.dumps(params))
    assert again == params and type(again) is ModelParams and type(again.n) is int
    state = PhaseState(1, 2, 3)
    assert pickle.loads(pickle.dumps(state)) == state == (1.0, 2.0, 3.0)


def test_records_print_and_unpack_as_named_tuples():
    params = ModelParams(n=5, R=2, Rt=2.0)
    assert repr(params) == "ModelParams(n=5, R=2.0, Rt=2.0)"
    assert repr(PhaseState(0, 1, -0.5)) == "PhaseState(t=0.0, x=1.0, v=-0.5)"
    n, R, Rt = params
    assert (n, R, Rt) == (params[0], params.R, params[-1]) == (5, 2.0, 2.0)
    assert params._asdict() == {"n": 5, "R": 2.0, "Rt": 2.0}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 30),
    R=st.floats(0.1, 30.0),
    Rt=st.floats(0.1, 30.0),
    ratio=st.floats(1e-6, 4.0, exclude_min=True, exclude_max=True),
)
def test_scalar_forms_match_the_public_evaluators_bit_for_bit(n, R, Rt, ratio):
    """The closures the root solves call on floats give the public bits."""
    params = ModelParams(n, R, Rt)
    x = ratio * derive_constants(params).x_star
    forms = _forms(params)
    for form, public in ((forms.offset, potential_above_min), (forms.potential, potential),
                         (forms.force, force)):
        scalar = form(x)
        assert float(scalar).hex() == public(x, params).hex()
        assert float(scalar).hex() == public(np.array([x]), params)[0].hex()
