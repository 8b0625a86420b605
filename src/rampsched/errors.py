"""Exception types shared across the package."""

from __future__ import annotations


class RampSchedError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RampSchedError):
    """An input value violates a documented precondition or invariant."""


class ReportOnUnconvergedError(RampSchedError):
    """An economics report was requested for a non-converged solution."""


class DivergenceError(RampSchedError):
    """An RK4 step of the solve produced a non-finite state.

    Carries the failing time (hours into the period) and the state the
    solve started from.
    """

    def __init__(self, message: str, t_hours: float | None = None,
                 initial_state: tuple[float, float] | None = None):
        super().__init__(message)
        self.t_hours = t_hours
        self.initial_state = initial_state
