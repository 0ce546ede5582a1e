"""The Fig. 7 ILP: choosing DIP weights that minimise total latency (§3.3).

This module turns fitted weight-latency curves into an
:class:`~repro.solver.assignment.AssignmentProblem`, hands it to a solver
backend and wraps the outcome in a :class:`~repro.core.types.WeightAssignment`.
Weight candidates are drawn uniformly in ``[0, w_max]`` per DIP (not
``[0, 1]``), which is the first half of the paper's answer to the ILP's
scalability problem; the second half (multi-step refinement) lives in
:mod:`repro.core.multistep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import IlpConfig
from repro.core.curve import WeightLatencyCurve, predict_curves
from repro.core.types import DipId, VipId, WeightAssignment, left_to_right_sum
from repro.exceptions import (
    ConfigurationError,
    DipOverloadError,
    InfeasibleError,
    SolverTimeoutError,
)
from repro.solver import (
    AssignmentProblem,
    SolveCache,
    SolveResult,
    SolveStatus,
    solve,
    uniform_weight_grid,
)


@dataclass(frozen=True)
class IlpOutcome:
    """A solved ILP step together with the raw solver result."""

    assignment: WeightAssignment
    solver_result: SolveResult
    problem: AssignmentProblem


def candidate_grid(
    curve: WeightLatencyCurve,
    *,
    count: int,
    lower: float = 0.0,
    upper: float | None = None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Uniform candidate weights in ``[lower, upper]`` and their latencies."""
    weights, latencies = _candidate_arrays((curve,), count, [(lower, upper)])
    return tuple(weights[0].tolist()), tuple(latencies[0].tolist())


def _candidate_arrays(
    curves: Sequence[WeightLatencyCurve],
    count: int,
    bounds: Sequence[tuple[float, float | None]],
) -> tuple[np.ndarray, np.ndarray]:
    """Per curve, ``count`` uniform weights in its ``(lower, upper)`` bounds
    (upper ``None``: ``w_max``; below ``lower``: ``lower``) and their
    latencies: one grid and one kernel call for the whole bank."""
    if count < 2:  # rejected before a curve is read
        raise ConfigurationError("count must be >= 2")
    lowers = np.array([lower for lower, _ in bounds], dtype=np.float64)
    uppers = np.array(
        [c.w_max if upper is None else upper for c, (_, upper) in zip(curves, bounds)],
        dtype=np.float64,
    )
    weights = uniform_weight_grid(lowers, np.where(lowers > uppers, lowers, uppers), count)
    return weights, predict_curves(curves, weights)


def build_assignment_problem(
    curves: Mapping[DipId, WeightLatencyCurve],
    *,
    config: IlpConfig | None = None,
    total_weight: float = 1.0,
    total_weight_tolerance: float | None = None,
    windows: Mapping[DipId, tuple[float, float]] | None = None,
) -> AssignmentProblem:
    """Build the ILP input from fitted curves.

    ``windows`` optionally restricts the candidate range per DIP (used by
    the multi-step refinement); otherwise candidates span ``[0, w_max]``.
    """
    config = config or IlpConfig()
    if not curves:
        raise ConfigurationError("need at least one curve")

    # When the estimated safe capacity (sum of w_max) cannot cover the target
    # weight, scale every DIP's candidate range up proportionally: overload is
    # unavoidable, so it is spread according to capacity and the ILP still
    # returns an assignment (flagged as overloaded) instead of failing.
    sum_w_max = left_to_right_sum(curve.w_max for curve in curves.values())
    stretch = 1.0
    if sum_w_max > 0 and sum_w_max < total_weight:
        stretch = (total_weight / sum_w_max) * 1.05

    windows = windows or {}
    bounds = [
        windows[dip] if dip in windows else (0.0, min(1.0, curve.w_max * stretch))
        for dip, curve in curves.items()
    ]
    weights, latencies = _candidate_arrays(
        tuple(curves.values()), config.weights_per_dip, bounds
    )
    if config.objective == "request_weighted":
        # Cost of a candidate is the latency contribution of the requests
        # it attracts (weight × latency), so the ILP minimises the mean
        # latency a request experiences.
        costs = weights * latencies
    else:
        costs = latencies

    if total_weight_tolerance is None:
        # Default tolerance: half of the coarsest candidate spacing, so a
        # solution always exists whenever the weight range can cover the
        # target, while staying close enough to renormalise afterwards.
        # (A row ascends, so its span is its last weight less its first.)
        spans = [s for s in (weights[:, -1] - weights[:, 0]).tolist() if s > 0]
        spacing = max(spans) / (config.weights_per_dip - 1) / 2.0 if spans else 0.01
        total_weight_tolerance = max(spacing, 1e-3)

    return AssignmentProblem.from_table(
        tuple(curves),
        weights,
        costs,
        tuple(curve.w_max if curve.w_max > 0 else None for curve in curves.values()),
        total_weight=total_weight,
        total_weight_tolerance=total_weight_tolerance,
        theta=config.theta,
    )


def solve_assignment(
    vip: VipId,
    problem: AssignmentProblem,
    *,
    config: IlpConfig | None = None,
    normalize: bool = True,
    raise_on_overload: bool = False,
    cache: SolveCache | None = None,
) -> IlpOutcome:
    """Solve one ILP step and wrap the result.

    ``cache`` warm-starts the solver on problems seen before (unchanged
    curves between control rounds produce identical candidate grids).

    Raises
    ------
    InfeasibleError
        If no feasible weight assignment exists for the candidate grid.
    SolverTimeoutError
        If the solver hit its time limit without a solution.
    DipOverloadError
        If ``raise_on_overload`` and the solution pushes a DIP past w_max
        (the paper's "DO" outcome in Fig. 8).
    """
    config = config or IlpConfig()
    result = solve(
        problem,
        backend=config.backend,
        time_limit_s=config.time_limit_s,
        cache=cache,
    )

    if result.status is SolveStatus.TIMEOUT:
        raise SolverTimeoutError(
            f"ILP for VIP {vip} timed out after {result.solve_time_s:.1f}s",
            elapsed=result.solve_time_s,
        )
    if not result.status.has_solution:
        raise InfeasibleError(
            f"ILP for VIP {vip} is infeasible for the given candidate weights"
        )
    if raise_on_overload and result.is_overloaded:
        raise DipOverloadError(
            f"ILP for VIP {vip} overloads DIPs {result.overloaded_dips}",
            overloaded_dips=result.overloaded_dips,
        )

    assignment = WeightAssignment(
        vip=vip,
        weights=dict(result.weights),
        objective_ms=result.objective_ms,
        solve_time_s=result.solve_time_s,
    )
    if normalize and assignment.total_weight > 0:
        assignment = assignment.normalized()
    return IlpOutcome(assignment=assignment, solver_result=result, problem=problem)


def compute_weights(
    vip: VipId,
    curves: Mapping[DipId, WeightLatencyCurve],
    *,
    config: IlpConfig | None = None,
    total_weight: float = 1.0,
    cache: SolveCache | None = None,
) -> IlpOutcome:
    """Single-step ILP: build the problem from curves and solve it."""
    config = config or IlpConfig()
    problem = build_assignment_problem(
        curves, config=config, total_weight=total_weight
    )
    return solve_assignment(vip, problem, config=config, cache=cache)
