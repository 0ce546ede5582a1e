"""Unit tests for the Fig. 7 ILP wrapper and multi-step refinement."""

from __future__ import annotations

import pytest

from repro.core.config import IlpConfig
from repro.core.curve import WeightLatencyCurve
from repro.core.ilp import (
    build_assignment_problem,
    candidate_grid,
    compute_weights,
    solve_assignment,
)
from repro.core.multistep import compute_weights_multistep, refine_windows
from repro.exceptions import ConfigurationError, InfeasibleError


def linear_curve(l0: float, slope: float, w_max: float) -> WeightLatencyCurve:
    return WeightLatencyCurve(coefficients=(slope, l0), l0_ms=l0, w_max=w_max)


def quadratic_curve(l0: float, quad: float, w_max: float) -> WeightLatencyCurve:
    return WeightLatencyCurve(coefficients=(quad, 0.0, l0), l0_ms=l0, w_max=w_max)


@pytest.fixture
def heterogeneous_curves():
    """Four DIPs whose capacity (w_max) spans roughly 1:2:4:10."""
    return {
        "small-1": quadratic_curve(2.5, 800.0, 0.05),
        "small-2": quadratic_curve(2.5, 800.0, 0.05),
        "medium-1": quadratic_curve(2.5, 200.0, 0.10),
        "medium-2": quadratic_curve(2.5, 200.0, 0.10),
        "large-1": quadratic_curve(2.5, 50.0, 0.20),
        "large-2": quadratic_curve(2.5, 50.0, 0.20),
        "huge-1": quadratic_curve(2.2, 12.0, 0.50),
    }


class TestCandidateGrid:
    def test_spans_zero_to_wmax(self):
        curve = linear_curve(1.0, 10.0, 0.3)
        weights, latencies = candidate_grid(curve, count=4)
        assert weights == pytest.approx((0.0, 0.1, 0.2, 0.3))
        assert latencies[0] == pytest.approx(1.0)

    def test_respects_window(self):
        curve = linear_curve(1.0, 10.0, 0.3)
        weights, _ = candidate_grid(curve, count=3, lower=0.1, upper=0.2)
        assert weights == pytest.approx((0.1, 0.15, 0.2))

    def test_count_validation(self):
        with pytest.raises(ConfigurationError):
            candidate_grid(linear_curve(1.0, 1.0, 0.1), count=1)

    def test_latencies_monotone(self):
        curve = quadratic_curve(2.0, 100.0, 0.4)
        _, latencies = candidate_grid(curve, count=10)
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))


class TestBuildProblem:
    def test_one_candidate_set_per_curve(self, heterogeneous_curves):
        problem = build_assignment_problem(heterogeneous_curves)
        assert problem.num_dips == len(heterogeneous_curves)
        assert problem.num_variables == len(heterogeneous_curves) * 10

    def test_custom_weights_per_dip(self, heterogeneous_curves):
        problem = build_assignment_problem(
            heterogeneous_curves, config=IlpConfig(weights_per_dip=5)
        )
        assert problem.num_variables == len(heterogeneous_curves) * 5

    def test_default_tolerance_positive(self, heterogeneous_curves):
        problem = build_assignment_problem(heterogeneous_curves)
        assert problem.total_weight_tolerance > 0

    def test_empty_curves_rejected(self):
        with pytest.raises(ConfigurationError):
            build_assignment_problem({})

    def test_theta_propagated(self, heterogeneous_curves):
        problem = build_assignment_problem(
            heterogeneous_curves, config=IlpConfig(theta=0.2)
        )
        assert problem.theta == pytest.approx(0.2)

    def test_windows_restrict_candidates(self, heterogeneous_curves):
        problem = build_assignment_problem(
            heterogeneous_curves, windows={"huge-1": (0.3, 0.4)}
        )
        (cand,) = [c for c in problem.dips if c.dip == "huge-1"]
        assert min(cand.weights) == pytest.approx(0.3)
        assert max(cand.weights) == pytest.approx(0.4)


class TestSolveAssignment:
    def test_weights_sum_to_one_after_normalisation(self, heterogeneous_curves):
        outcome = compute_weights("vip", heterogeneous_curves)
        assert sum(outcome.assignment.weights.values()) == pytest.approx(1.0)

    def test_bigger_capacity_gets_bigger_weight(self, heterogeneous_curves):
        outcome = compute_weights("vip", heterogeneous_curves)
        weights = outcome.assignment.weights
        assert weights["huge-1"] > weights["large-1"] > weights["medium-1"] > weights["small-1"]

    def test_objective_recorded(self, heterogeneous_curves):
        outcome = compute_weights("vip", heterogeneous_curves)
        assert outcome.assignment.objective_ms is not None
        assert outcome.assignment.objective_ms > 0
        assert outcome.assignment.solve_time_s is not None

    def test_undersized_pool_returns_overloaded_solution(self):
        # Two DIPs whose safe ranges cannot reach a total of 1: the candidate
        # grid is stretched past w_max, so a solution exists but is flagged
        # as overloading the DIPs (the paper's "DO" outcome).
        curves = {
            "a": linear_curve(1.0, 10.0, 0.1),
            "b": linear_curve(1.0, 10.0, 0.1),
        }
        problem = build_assignment_problem(
            curves, total_weight=1.0, total_weight_tolerance=0.01
        )
        outcome = solve_assignment("vip", problem)
        assert outcome.solver_result.is_overloaded

    def test_infeasible_raises_with_explicit_windows(self):
        # Explicit candidate windows disable the stretch, so an unreachable
        # total weight is reported as infeasible.
        curves = {
            "a": linear_curve(1.0, 10.0, 0.1),
            "b": linear_curve(1.0, 10.0, 0.1),
        }
        problem = build_assignment_problem(
            curves,
            total_weight=1.0,
            total_weight_tolerance=0.01,
            windows={"a": (0.0, 0.1), "b": (0.0, 0.1)},
        )
        with pytest.raises(InfeasibleError):
            solve_assignment("vip", problem)

    def test_unnormalised_total_weight(self, heterogeneous_curves):
        problem = build_assignment_problem(heterogeneous_curves, total_weight=0.5)
        outcome = solve_assignment("vip", problem, normalize=False)
        tolerance = problem.total_weight_tolerance
        assert sum(outcome.assignment.weights.values()) == pytest.approx(0.5, abs=tolerance + 1e-9)

    def test_identical_dips_get_similar_weights(self):
        curves = {f"d{i}": quadratic_curve(2.0, 100.0, 0.25) for i in range(5)}
        outcome = compute_weights("vip", curves)
        weights = list(outcome.assignment.weights.values())
        assert max(weights) - min(weights) <= 0.26  # one grid step of slack


class TestMultiStep:
    def test_single_step_for_small_pool(self, heterogeneous_curves):
        outcome = compute_weights_multistep("vip", heterogeneous_curves)
        assert len(outcome.steps) == 1

    def test_force_multistep_runs_two_steps(self, heterogeneous_curves):
        outcome = compute_weights_multistep(
            "vip", heterogeneous_curves, force_multistep=True
        )
        assert len(outcome.steps) == 2

    def test_refined_objective_not_worse(self, heterogeneous_curves):
        single = compute_weights_multistep(
            "vip", heterogeneous_curves, force_multistep=False
        )
        multi = compute_weights_multistep(
            "vip", heterogeneous_curves, force_multistep=True
        )
        assert (
            multi.assignment.objective_ms
            <= single.assignment.objective_ms * 1.001 + 1e-9
        )

    def test_refine_windows_centered_on_coarse_solution(self, heterogeneous_curves):
        coarse = compute_weights_multistep(
            "vip", heterogeneous_curves, force_multistep=False
        ).assignment
        windows = refine_windows(coarse, heterogeneous_curves, window_fraction=0.1)
        for dip, (lower, upper) in windows.items():
            assert lower <= coarse.weight_for(dip) <= upper + 1e-9

    def test_auto_threshold_uses_config(self, heterogeneous_curves):
        config = IlpConfig(multistep_min_dips=3)
        outcome = compute_weights_multistep("vip", heterogeneous_curves, config=config)
        assert len(outcome.steps) == 2

    def test_total_solve_time_aggregates(self, heterogeneous_curves):
        outcome = compute_weights_multistep(
            "vip", heterogeneous_curves, force_multistep=True
        )
        assert outcome.total_solve_time_s >= max(
            s.solver_result.solve_time_s for s in outcome.steps
        )

    def test_multistep_close_to_fine_grid_single_shot(self, heterogeneous_curves):
        """Table 7: two coarse steps lose almost nothing vs one fine step."""
        fine = compute_weights("vip", heterogeneous_curves, config=IlpConfig(weights_per_dip=50))
        multi = compute_weights_multistep(
            "vip",
            heterogeneous_curves,
            config=IlpConfig(weights_per_dip=10),
            force_multistep=True,
        )
        assert multi.assignment.objective_ms <= fine.assignment.objective_ms * 1.05
