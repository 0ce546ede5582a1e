"""Exception hierarchy for the KnapsackLB reproduction.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class at API boundaries while tests can assert on the
precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A configuration object (or a set of arguments) is inconsistent."""


class SolverError(ReproError):
    """The MILP solver failed in an unexpected way."""


class InfeasibleError(SolverError):
    """The optimization model has no feasible solution."""


class SolverTimeoutError(SolverError):
    """The solver exceeded its configured time limit.

    The paper reports such cases as "TO" in Fig. 8.
    """

    def __init__(self, message: str, elapsed: float | None = None) -> None:
        super().__init__(message)
        self.elapsed = elapsed


class CurveFitError(ReproError):
    """Weight-latency curve fitting failed (e.g. too few valid points)."""


class SchedulingError(ReproError):
    """The measurement scheduler was asked to do something impossible."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""
