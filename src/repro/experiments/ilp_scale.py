"""ILP scalability experiments: Fig. 8, Table 6 and Table 7.

All three use synthetic pools of identical DIPs whose weight-latency curve is
the F-series curve (as in §6.6), with the traffic set to 80 % of capacity.

They are the paper's claims about a *generic* MILP solver (CBC there): the
``TO`` / ``DO`` cells of Fig. 8 and the times of Tables 6-7 are what motivates
§4.4's multi-step refinement.  So the drivers default to HiGHS by name, not to
``auto`` — which resolves to the knapsack backend, solves every one of these
in milliseconds and would measure this repository instead of the paper's
argument.  Where SciPy is absent they fall back to ``auto``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import IlpConfig
from repro.core.curve import WeightLatencyCurve
from repro.core.ilp import build_assignment_problem, solve_assignment
from repro.core.multistep import compute_weights_multistep
from repro.exceptions import InfeasibleError, SolverTimeoutError
from repro.solver import available_backends


def generic_milp_backend() -> str:
    """``"scipy"`` (HiGHS, the stand-in for the paper's CBC), else ``"auto"``."""
    return "scipy" if "scipy" in available_backends() else "auto"


def f_series_like_curve(num_dips: int, *, load_fraction: float = 0.8) -> WeightLatencyCurve:
    """A synthetic F-series weight-latency curve for a pool of ``num_dips``.

    The capacity-equivalent weight of one DIP in a pool of identical DIPs at
    ``load_fraction`` of total capacity is ``1 / (num_dips · load_fraction)``;
    the quadratic is shaped so latency roughly quadruples at that weight.
    """
    w_cap = 1.0 / (num_dips * load_fraction)
    l0 = 2.6
    quad = 3.0 * l0 / (w_cap**2)
    return WeightLatencyCurve(coefficients=(quad, 0.0, l0), l0_ms=l0, w_max=w_cap)


@dataclass(frozen=True)
class IlpGridCell:
    """One cell of Fig. 8: #DIPs × #weights-per-DIP."""

    num_dips: int
    weights_per_dip: int
    outcome: str  # a time string, "DO" (DIP overload) or "TO" (timeout)
    solve_time_s: float | None


def run_ilp_grid(
    *,
    dip_counts: tuple[int, ...] = (10, 50, 100, 500),
    weight_counts: tuple[int, ...] = (10, 50, 100, 500),
    time_limit_s: float = 30.0,
    backend: str | None = None,
) -> list[IlpGridCell]:
    """Fig. 8: single-shot ILP over naive [0, 1] weight grids.

    As in the paper, candidate weights are spread uniformly over [0, 1]
    (not [0, w_max]); with many DIPs the grid cannot express small weights,
    so the solver either overloads DIPs ("DO") or times out ("TO").
    ``backend`` defaults to :func:`generic_milp_backend`: "TO" is a claim
    about a generic solver.
    """
    backend = backend or generic_milp_backend()
    cells: list[IlpGridCell] = []
    for num_dips in dip_counts:
        curve = f_series_like_curve(num_dips)
        for num_weights in weight_counts:
            config = IlpConfig(
                weights_per_dip=num_weights,
                time_limit_s=time_limit_s,
                backend=backend,
            )
            curves = {f"d{i}": curve for i in range(num_dips)}
            # Naive grid over [0, 1]: pass explicit windows to disable the
            # [0, w_max] restriction KnapsackLB normally applies.
            windows = {dip: (0.0, 1.0) for dip in curves}
            problem = build_assignment_problem(
                curves, config=config, windows=windows
            )
            try:
                outcome = solve_assignment("fig8", problem, config=config)
            except SolverTimeoutError:
                cells.append(IlpGridCell(num_dips, num_weights, "TO", None))
                continue
            except InfeasibleError:
                cells.append(IlpGridCell(num_dips, num_weights, "DO", None))
                continue
            result = outcome.solver_result
            if result.is_overloaded:
                cells.append(
                    IlpGridCell(num_dips, num_weights, "DO", result.solve_time_s)
                )
            else:
                cells.append(
                    IlpGridCell(
                        num_dips,
                        num_weights,
                        f"{result.solve_time_s * 1000:.0f}ms",
                        result.solve_time_s,
                    )
                )
    return cells


@dataclass(frozen=True)
class IlpScalePoint:
    """One column of Table 6: ILP running time vs #DIPs."""

    num_dips: int
    solve_time_s: float
    objective_ms: float


def run_ilp_scaling(
    *,
    dip_counts: tuple[int, ...] = (10, 50, 100, 500, 1000),
    weights_per_dip: int = 10,
    backend: str | None = None,
) -> list[IlpScalePoint]:
    """Table 6: ILP running time with 10 candidate weights in [0, w_max].

    ``backend`` defaults to :func:`generic_milp_backend` (the paper times CBC).
    """
    backend = backend or generic_milp_backend()
    points: list[IlpScalePoint] = []
    for num_dips in dip_counts:
        curve = f_series_like_curve(num_dips)
        curves = {f"d{i}": curve for i in range(num_dips)}
        config = IlpConfig(weights_per_dip=weights_per_dip, backend=backend)
        problem = build_assignment_problem(curves, config=config)
        outcome = solve_assignment("table6", problem, config=config)
        points.append(
            IlpScalePoint(
                num_dips=num_dips,
                solve_time_s=outcome.solver_result.solve_time_s,
                objective_ms=outcome.solver_result.objective_ms or 0.0,
            )
        )
    return points


@dataclass(frozen=True)
class MultiStepComparison:
    """Table 7: one fine-grained shot vs two coarse steps."""

    fine_points: int
    fine_time_s: float
    fine_objective: float
    multistep_points: int
    multistep_time_s: float
    multistep_objective: float

    @property
    def speedup(self) -> float:
        if self.multistep_time_s <= 0:
            return float("inf")
        return self.fine_time_s / self.multistep_time_s

    @property
    def accuracy_percent(self) -> float:
        """Objective accuracy of the multi-step result vs the fine result."""
        if self.multistep_objective <= 0:
            return 100.0
        return min(1.0, self.fine_objective / self.multistep_objective) * 100.0


def run_multistep_accuracy(
    *,
    num_dips: int = 100,
    fine_points: int = 100,
    coarse_points: int = 10,
    backend: str | None = None,
) -> MultiStepComparison:
    """Table 7: accuracy and running time of the multi-step ILP (§4.4).

    ``backend`` defaults to :func:`generic_milp_backend`: the speed-up is the
    one a generic solver gets from two coarse steps.
    """
    backend = backend or generic_milp_backend()
    curve = f_series_like_curve(num_dips)
    curves = {f"d{i}": curve for i in range(num_dips)}

    fine_config = IlpConfig(weights_per_dip=fine_points, backend=backend)
    fine = compute_weights_multistep(
        "table7-fine", curves, config=fine_config, force_multistep=False
    )

    coarse_config = IlpConfig(weights_per_dip=coarse_points, backend=backend)
    multi = compute_weights_multistep(
        "table7-multi", curves, config=coarse_config, force_multistep=True
    )

    return MultiStepComparison(
        fine_points=fine_points,
        fine_time_s=fine.total_solve_time_s,
        fine_objective=fine.assignment.objective_ms or 0.0,
        multistep_points=coarse_points,
        multistep_time_s=multi.total_solve_time_s,
        multistep_objective=multi.assignment.objective_ms or 0.0,
    )
