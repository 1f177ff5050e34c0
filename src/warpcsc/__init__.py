"""Periodic constant-scalar-curvature warped metrics on the circle.

The package reduces the curvature condition for dt^2 + f^2 h on
S^1 x N to a one-dimensional conservative oscillator, then builds the
threshold constants, the energy-period map with two independent
evaluation routes, a profile solver with a three-way audit, curvature
checks straight from warp samples, and the branch diagram over circle
periods.  See the README for a tour; the `warpcsc` command exposes the
same capabilities from the shell.
"""

from .bifurcation import (
    BifurcationDiagram,
    BranchPoint,
    BranchRow,
    count_solutions,
    scan_branches,
)
from .errors import (
    BudgetExceeded,
    DomainError,
    EnergyOutOfBand,
    NoBracket,
    NonPositiveWarp,
    PositivityViolation,
    QuadratureNonConvergence,
    ThresholdViolation,
    ToolkitError,
    TooFewSamples,
)
from .geometry import (
    ConformalCheck,
    CurvatureReport,
    conformal_field_check,
    curvature_audit,
    periodic_fd_derivatives,
)
from .integrator import (
    DriftReport,
    energy_drift,
    leapfrog_step,
    period_return_map,
)
from .model import (
    DerivedConstants,
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
from .period import (
    OrbitSpec,
    PeriodCurve,
    PeriodScan,
    energy_grid,
    period_curve,
    period_quadrature,
    period_scan,
    turning_points,
)
from .solver import (
    ProfileAudit,
    SolutionProfile,
    audit_profile,
    profile_from_energy,
    solve_period,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ModelParams",
    "DerivedConstants",
    "PhaseState",
    "derive_constants",
    "linearized_frequency",
    "force",
    "potential",
    "potential_above_min",
    "energy",
    "to_warp_coords",
    "curvature_residual",
    "DriftReport",
    "leapfrog_step",
    "period_return_map",
    "energy_drift",
    "OrbitSpec",
    "PeriodScan",
    "turning_points",
    "period_quadrature",
    "period_scan",
    "energy_grid",
    "PeriodCurve",
    "period_curve",
    "SolutionProfile",
    "ProfileAudit",
    "profile_from_energy",
    "solve_period",
    "audit_profile",
    "CurvatureReport",
    "ConformalCheck",
    "periodic_fd_derivatives",
    "curvature_audit",
    "conformal_field_check",
    "BranchRow",
    "BranchPoint",
    "BifurcationDiagram",
    "scan_branches",
    "count_solutions",
    "ToolkitError",
    "DomainError",
    "PositivityViolation",
    "BudgetExceeded",
    "EnergyOutOfBand",
    "QuadratureNonConvergence",
    "ThresholdViolation",
    "NoBracket",
    "TooFewSamples",
    "NonPositiveWarp",
]
