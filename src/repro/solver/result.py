"""Solver result types shared by all MILP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.types import DipId, left_to_right_sum


class SolveStatus(enum.Enum):
    """Outcome of one solver invocation."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMEOUT = "timeout"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass(frozen=True)
class SolveResult:
    """The outcome of solving one weight-assignment problem.

    ``selection`` maps each DIP to the index of the chosen candidate weight
    in the problem's candidate list for that DIP; ``weights`` maps each DIP
    to the chosen weight value.
    """

    status: SolveStatus
    objective_ms: float | None = None
    weights: Mapping[DipId, float] = field(default_factory=dict)
    selection: Mapping[DipId, int] = field(default_factory=dict)
    solve_time_s: float = 0.0
    backend: str = ""
    #: DIPs whose chosen weight exceeds their known safe maximum ("DO" in Fig. 8).
    overloaded_dips: tuple[DipId, ...] = ()
    #: number of branch-and-bound nodes / simplex iterations, when available.
    nodes_explored: int = 0
    #: proven lower bound on the optimum, when the backend certifies one.
    lower_bound_ms: float | None = None

    @property
    def is_overloaded(self) -> bool:
        return bool(self.overloaded_dips)

    @property
    def total_weight(self) -> float:
        return float(left_to_right_sum(self.weights.values()))
