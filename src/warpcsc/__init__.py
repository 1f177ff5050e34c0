"""Periodic constant-scalar-curvature warped metrics on the circle.

The package reduces the curvature condition for dt^2 + f^2 h on
S^1 x N to a one-dimensional conservative oscillator, then builds the
threshold constants, the energy-period map with two independent
evaluation routes, a profile solver with a three-way audit, curvature
checks straight from warp samples, and the branch diagram over circle
periods.  See the README for a tour; the `warpcsc` command exposes the
same capabilities from the shell.

Each module lists its public names in its own `__all__`; the package
republishes exactly those.
"""

from . import bifurcation, errors, geometry, integrator, model, period, solver
from .bifurcation import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .period import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (model, integrator, period, solver, geometry, bifurcation, errors)
    for name in module.__all__
]
