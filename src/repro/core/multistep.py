"""Multi-step ILP computation (§4.4).

Feeding a fine-grained weight grid to the ILP in one shot is prohibitively
slow (Fig. 8).  Instead, KnapsackLB solves the ILP in two steps with a small
number of candidates each:

1. **Coarse step** — ``weights_per_dip`` candidates uniformly in
   ``[0, w_max]`` per DIP.
2. **Refine step** — for each DIP, ``weights_per_dip`` candidates uniformly
   in ``[w_d − δ, w_d + δ]`` where ``w_d`` is the coarse solution and
   ``δ = 10 % · w_max``.

The refinement runs only when the pool has at least
``multistep_min_dips`` DIPs (100 in the paper); smaller pools use the coarse
step alone.  The LB dataplane is programmed only after the final step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.config import IlpConfig
from repro.core.curve import CurveBank, WeightLatencyCurve
from repro.core.ilp import IlpOutcome, build_assignment_problem, solve_assignment
from repro.core.types import DipId, VipId, WeightAssignment
from repro.exceptions import InfeasibleError
from repro.solver import SolveCache


@dataclass(frozen=True)
class MultiStepOutcome:
    """The result of a (possibly) multi-step ILP computation."""

    assignment: WeightAssignment
    steps: tuple[IlpOutcome, ...]

    @property
    def total_solve_time_s(self) -> float:
        return sum(s.solver_result.solve_time_s for s in self.steps)


def refine_windows(
    coarse: WeightAssignment,
    curves: Mapping[DipId, WeightLatencyCurve],
    *,
    window_fraction: float,
) -> dict[DipId, tuple[float, float]]:
    """Per-DIP candidate window ``[w_d − δ, w_d + δ]`` for the refine step."""
    windows: dict[DipId, tuple[float, float]] = {}
    for dip, curve in curves.items():
        delta = window_fraction * max(curve.w_max, 1e-6)
        center = coarse.weight_for(dip)
        lower = max(0.0, center - delta)
        upper = min(1.0, center + delta)
        if upper <= lower:
            upper = min(1.0, lower + delta)
        windows[dip] = (lower, upper)
    return windows


def compute_weights_multistep(
    vip: VipId,
    curves: Mapping[DipId, WeightLatencyCurve],
    *,
    config: IlpConfig | None = None,
    total_weight: float = 1.0,
    force_multistep: bool | None = None,
    cache: SolveCache | None = None,
) -> MultiStepOutcome:
    """Run the coarse (and, for large pools, the refine) ILP steps.

    ``force_multistep`` overrides the pool-size heuristic: ``True`` always
    refines, ``False`` never does, ``None`` follows the config threshold.
    ``cache`` memoizes both steps' solves across calls; a controller
    re-solves after a §4.5 rescale (or a change of the DIP set), which moves
    the grid, so it is not hit (see ``FleetController.solve_cache``).
    """
    config = config or IlpConfig()
    curves = CurveBank.of(curves)

    coarse_problem = build_assignment_problem(
        curves, config=config, total_weight=total_weight
    )
    coarse = solve_assignment(vip, coarse_problem, config=config, cache=cache)
    steps = [coarse]

    if force_multistep is None:
        do_refine = len(curves) >= config.multistep_min_dips
    else:
        do_refine = force_multistep

    if not do_refine:
        return MultiStepOutcome(assignment=coarse.assignment, steps=tuple(steps))

    windows = refine_windows(
        coarse.assignment, curves, window_fraction=config.refine_window_fraction
    )
    refine_problem = build_assignment_problem(
        curves, config=config, total_weight=total_weight, windows=windows
    )
    try:
        refined = solve_assignment(vip, refine_problem, config=config, cache=cache)
    except InfeasibleError:
        # The refinement window can exclude every combination that sums to
        # the target; the coarse solution is then kept (it is feasible).
        return MultiStepOutcome(assignment=coarse.assignment, steps=tuple(steps))

    steps.append(refined)
    best = refined if _objective(refined) <= _objective(coarse) else coarse
    return MultiStepOutcome(assignment=best.assignment, steps=tuple(steps))


def _objective(outcome: IlpOutcome) -> float:
    value = outcome.assignment.objective_ms
    return float("inf") if value is None else value
