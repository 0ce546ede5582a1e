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
from typing import Mapping

import numpy as np

from repro import kernels
from repro.core.config import IlpConfig
from repro.core.curve import CurveBank, WeightLatencyCurve
from repro.core.types import DipId, VipId, WeightAssignment, left_to_right_sum
from repro.exceptions import (
    ConfigurationError,
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
    if count < 2:  # rejected before the curve is read
        raise ConfigurationError("count must be >= 2")
    upper = curve.w_max if upper is None else upper
    weights, latencies = _candidate_arrays(
        CurveBank({None: curve}),
        count,
        np.array([lower], dtype=np.float64),
        np.array([_above(lower, upper)], dtype=np.float64),
    )
    return tuple(weights[0].tolist()), tuple(latencies[0].tolist())


def _above(lower: float, upper: float) -> float:
    """``upper``, or ``lower`` where that is larger: a range's top."""
    return lower if lower > upper else upper


def _candidate_arrays(
    bank: CurveBank, count: int, lowers: np.ndarray, uppers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``bank``, ``count`` uniform weights in ``[lowers, uppers]``
    and their latencies: one grid and one kernel call for the whole bank (a
    fresh grid of weights in [0, 1] needs none of the checks of
    :func:`~repro.core.curve.predict_curves`)."""
    weights = uniform_weight_grid(lowers, uppers, count)
    latencies = np.empty_like(weights)
    kernels.predict_bank(*bank.arrays, weights, latencies)
    return weights, latencies


def build_assignment_problem(
    curves: Mapping[DipId, WeightLatencyCurve],
    *,
    config: IlpConfig | None = None,
    total_weight: float = 1.0,
    total_weight_tolerance: float | None = None,
    windows: Mapping[DipId, tuple[float, float]] | None = None,
) -> AssignmentProblem:
    """Build the ILP input from fitted curves (a :class:`CurveBank` is read
    as it is kept; other mappings are stacked into one first).

    ``windows`` optionally restricts the candidate range per DIP (used by
    the multi-step refinement); otherwise candidates span ``[0, w_max]``.
    """
    config = config or IlpConfig()
    bank = CurveBank.of(curves)
    if not bank:
        raise ConfigurationError("need at least one curve")

    # When the estimated safe capacity (sum of w_max) cannot cover the target
    # weight, scale every DIP's candidate range up proportionally: overload is
    # unavoidable, so it is spread according to capacity and the ILP still
    # returns an assignment (flagged as overloaded) instead of failing.
    w_max = bank.w_max.tolist()
    sum_w_max = left_to_right_sum(w_max)
    stretch = 1.0
    if sum_w_max > 0 and sum_w_max < total_weight:
        stretch = (total_weight / sum_w_max) * 1.05

    # Per DIP ``[0, min(1, w_max · stretch)]``, or its window.
    lowers = [0.0] * len(bank)
    uppers = [min(1.0, top * stretch) for top in w_max]
    for dip, (lower, upper) in (windows or {}).items():
        if dip in bank:
            (row,) = bank.rows((dip,))
            lowers[row], uppers[row] = lower, _above(lower, upper)
    weights, latencies = _candidate_arrays(
        bank, config.weights_per_dip, np.array(lowers), np.array(uppers)
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
        bank.ids,
        weights,
        costs,
        tuple(top if top > 0 else None for top in w_max),
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
    cache: SolveCache | None = None,
) -> IlpOutcome:
    """Solve one ILP step and wrap the result.

    ``cache`` returns the stored result of a problem solved before.  Control
    rounds do not repeat one: a re-solve follows a §4.5 rescale (or a change
    of the DIP set), which moves the candidate grid (0 hits in 577
    ``fleet_dynamics`` solves; see ``FleetController.solve_cache``).

    Raises
    ------
    InfeasibleError
        If no feasible weight assignment exists for the candidate grid.
    SolverTimeoutError
        If the solver hit its time limit without a solution.
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
