"""Exception types shared across the package."""

from __future__ import annotations


class RampSchedError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RampSchedError):
    """An input value violates a documented precondition or invariant."""


class SpacingError(ValidationError):
    """CSV timestamps are not strictly increasing and uniformly spaced."""


class ShortSeriesError(ValidationError):
    """A series has fewer samples than the minimum of four."""


class GridError(ValidationError):
    """A requested sample spacing does not divide the profile period."""


class ConfigError(ValidationError):
    """A key-value configuration file is malformed or incomplete."""


class DimensionError(ValidationError):
    """A vector does not match the scenario grid length."""


class DegenerateFitError(RampSchedError):
    """A trend fit has no unique least-squares solution."""


class ReportOnUnconvergedError(RampSchedError):
    """An economics report was requested for a non-converged solution."""


class DivergenceError(RampSchedError):
    """Integration produced a non-finite state.

    Carries the failing time (hours into the period) and the state the
    integration or the solve started from.
    """

    def __init__(self, message: str, t_hours: float | None = None,
                 initial_state: tuple[float, float] | None = None):
        super().__init__(message)
        self.t_hours = t_hours
        self.initial_state = initial_state
