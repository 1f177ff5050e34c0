"""Shared fixtures: canonical parameter sets, reusable solved profiles, a
recorder of period-kernel calls and one of the return map's leapfrog runs."""

import numpy as np
import pytest

from warpcsc import ModelParams, derive_constants, profile_from_energy, solve_period
from warpcsc import integrator
from warpcsc import period as period_mod


@pytest.fixture(scope="session")
def p3():
    return ModelParams(3, 2.0, 2.0)


@pytest.fixture(scope="session")
def p4():
    return ModelParams(4, 2.0, 2.0)


@pytest.fixture(scope="session")
def p5():
    return ModelParams(5, 2.0, 2.0)


@pytest.fixture(scope="session")
def p6():
    return ModelParams(6, 2.0, 2.0)


@pytest.fixture(scope="session")
def k3(p3):
    return derive_constants(p3)


@pytest.fixture(scope="session")
def k4(p4):
    return derive_constants(p4)


@pytest.fixture(scope="session")
def k5(p5):
    return derive_constants(p5)


@pytest.fixture(scope="session")
def k6(p6):
    return derive_constants(p6)


@pytest.fixture(scope="session")
def profile3(p3, k3):
    # moderate-amplitude n=3 orbit shared by the solver, geometry and CLI tests
    return profile_from_energy(k3.c_min + 0.5 * abs(k3.c_min), p3, 512)


@pytest.fixture(scope="session")
def profile5(p5, k5):
    return solve_period(1.05 * k5.T0, p5, 512)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Route the period kernel through a recorder; returns its list of batch sizes.

    A test that patches the kernel itself reads `period_mod._period_kernel`
    after this fixture, so its patch wraps the recorder.
    """
    sizes = []
    real_kernel = period_mod._period_kernel

    def recording_kernel(u, *args):
        sizes.append(np.size(u))
        return real_kernel(u, *args)

    monkeypatch.setattr(period_mod, "_period_kernel", recording_kernel)
    return sizes


@pytest.fixture
def leapfrog_runs(monkeypatch):
    """Route the return map's half-orbit runs through a recorder; returns its list.

    Each run that reaches its turning point appends (h, steps): the step
    size and the number of leapfrog steps taken, floor(t / h) + 1 for a
    crossing found at time t inside the last step.  A run that raises is
    not recorded.
    """
    runs = []
    real_run = integrator._time_to_turn

    def recording_run(x0, v0, h, params, budget):
        t, wander = real_run(x0, v0, h, params, budget)
        runs.append((h, int(t // h) + 1))
        return t, wander

    monkeypatch.setattr(integrator, "_time_to_turn", recording_run)
    return runs
