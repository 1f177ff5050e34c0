"""Exception taxonomy shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class.  The command-line layer maps these onto exit codes; library users
can catch `ToolkitError` to get everything at once.
"""

__all__ = [
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


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class DomainError(ToolkitError, ValueError):
    """Parameters or arguments outside an operation's domain."""


class PositivityViolation(ToolkitError):
    """An integration step drove the reduced variable to zero or below."""


class BudgetExceeded(ToolkitError):
    """A step or iteration budget ran out before the stopping condition."""


class EnergyOutOfBand(ToolkitError):
    """Energy lies outside the band of closed orbits around the center."""


class QuadratureNonConvergence(ToolkitError):
    """A period quadrature or turning-point solve could not reach its
    tolerance within budget, or a period inversion missed its period."""


class ThresholdViolation(ToolkitError):
    """Requested period does not exceed the bifurcation threshold."""


class NoBracket(ToolkitError):
    """The requested period lies outside the period curve's band.

    Carries the band's period range so callers can report how far off
    the request was.
    """

    def __init__(self, message: str, t_min: float | None = None, t_max: float | None = None):
        super().__init__(message)
        self.t_min = t_min
        self.t_max = t_max


class TooFewSamples(ToolkitError, ValueError):
    """A sampled profile is too short for the requested analysis."""


class NonPositiveWarp(ToolkitError):
    """A profile contains warp values f <= 0, which no metric allows."""
