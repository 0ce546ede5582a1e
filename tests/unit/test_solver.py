"""Unit tests for the MILP solver substrate (repro.solver)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.solver import (
    AssignmentProblem,
    DipCandidates,
    SolveCache,
    SolveStatus,
    available_backends,
    solve,
    solve_branch_and_bound,
    solve_dp,
    solve_greedy,
    solve_mckp,
    solve_scipy,
    uniform_weight_grid,
)

NAN, INF = float("nan"), float("inf")
EXACT_BACKENDS = [b for b in ("scipy", "branch_and_bound") if b in available_backends()]
ALL_BACKENDS = [b for b in available_backends() if b != "dp"]


def two_dip_problem(theta=None, tolerance=0.01) -> AssignmentProblem:
    """DIP a is fast (cheap to load), DIP b slow (expensive to load)."""
    return AssignmentProblem(
        dips=(
            DipCandidates(
                dip="a",
                weights=(0.2, 0.4, 0.6, 0.8),
                latencies_ms=(1.0, 2.0, 4.0, 8.0),
                w_max=0.8,
            ),
            DipCandidates(
                dip="b",
                weights=(0.2, 0.4, 0.6, 0.8),
                latencies_ms=(2.0, 6.0, 14.0, 30.0),
                w_max=0.6,
            ),
        ),
        total_weight=1.0,
        total_weight_tolerance=tolerance,
        theta=theta,
    )


class TestDipCandidates:
    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            DipCandidates(dip="a", weights=(0.1, 0.2), latencies_ms=(1.0,))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            DipCandidates(dip="a", weights=(), latencies_ms=())

    def test_weight_out_of_range(self):
        with pytest.raises(ConfigurationError):
            DipCandidates(dip="a", weights=(1.5,), latencies_ms=(1.0,))

    def test_negative_latency(self):
        with pytest.raises(ConfigurationError):
            DipCandidates(dip="a", weights=(0.5,), latencies_ms=(-1.0,))

    def test_nan_weight(self):
        # Before the check, dp died on int(nan) while the other backends solved.
        with pytest.raises(ConfigurationError, match="weight nan"):
            DipCandidates(dip="a", weights=(0.2, NAN), latencies_ms=(1.0, 2.0))

    @pytest.mark.parametrize("latency", [NAN, INF])
    def test_non_finite_latency(self, latency):
        # Before the check, only HiGHS raised on these.
        with pytest.raises(ConfigurationError, match="not finite"):
            DipCandidates(dip="a", weights=(0.2, 0.4), latencies_ms=(1.0, latency))

    def test_sorted_by_weight(self):
        cand = DipCandidates(dip="a", weights=(0.4, 0.1), latencies_ms=(5.0, 1.0))
        ordered = cand.sorted_by_weight()
        assert ordered.weights == (0.1, 0.4)
        assert ordered.latencies_ms == (1.0, 5.0)

    def test_min_max(self):
        cand = DipCandidates(dip="a", weights=(0.4, 0.1), latencies_ms=(5.0, 1.0))
        assert cand.min_weight() == pytest.approx(0.1)
        assert cand.max_weight() == pytest.approx(0.4)


class TestAssignmentProblem:
    def test_duplicate_dips_rejected(self):
        cand = DipCandidates(dip="a", weights=(0.5,), latencies_ms=(1.0,))
        with pytest.raises(ConfigurationError):
            AssignmentProblem(dips=(cand, cand))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            AssignmentProblem(dips=())

    @pytest.mark.parametrize("total", [NAN, INF])
    def test_non_finite_total_weight(self, total):
        with pytest.raises(ConfigurationError, match="total_weight must"):
            AssignmentProblem(dips=two_dip_problem().dips, total_weight=total)

    @pytest.mark.parametrize("tolerance", [NAN, INF])
    def test_non_finite_tolerance(self, tolerance):
        with pytest.raises(ConfigurationError, match="total_weight_tolerance must"):
            two_dip_problem(tolerance=tolerance)

    @pytest.mark.parametrize("theta", [NAN, INF])
    def test_non_finite_theta(self, theta):
        with pytest.raises(ConfigurationError, match="theta must"):
            two_dip_problem(theta=theta)

    def test_short_rows_are_padded_with_inf(self):
        """The padding of a short row is neither a variable nor a candidate."""
        problem = AssignmentProblem(
            dips=(
                DipCandidates(dip="a", weights=(0.1, 0.2, 0.3), latencies_ms=(1.0, 2.0, 3.0)),
                DipCandidates(dip="b", weights=(0.25, 0.5), latencies_ms=(1.0, 4.0)),
            )
        )
        assert problem.weights[1].tolist() == [0.25, 0.5, INF]
        assert problem.num_variables == 5
        assert [cand.count for cand in problem.dips] == [3, 2]

    def test_from_table_is_the_candidate_built_problem(self):
        built = two_dip_problem()
        table = AssignmentProblem.from_table(
            built.dip_ids(), np.array(built.weights), np.array(built.costs), built.w_max
        )
        assert table == built and hash(table) == hash(built)
        assert table.dips == built.dips
        assert table.dip_ids() == ("a", "b")
        assert (table.dips[1].max_weight(), table.dips[1].w_max) == (0.8, 0.6)

    def test_objective_and_weights_of(self):
        problem = two_dip_problem()
        selection = {"a": 3, "b": 0}
        assert problem.objective_of(selection) == pytest.approx(8.0 + 2.0)
        assert problem.weights_of(selection) == {"a": 0.8, "b": 0.2}

    def test_overloaded_dips(self):
        problem = two_dip_problem()
        assert problem.overloaded_dips({"a": 0.9, "b": 0.5}) == ("a",)
        assert problem.overloaded_dips({"a": 0.8, "b": 0.6}) == ()

    @pytest.mark.parametrize(
        "lower, upper, count",
        [(0.0, 0.37, 10), (0.113, 0.2871, 7), (0.3, 0.3, 4), (-0.05, 0.1, 5), (0.9, 1.2, 6)],
    )
    def test_weight_grid_equals_the_spelled_out_law(self, lower, upper, count):
        """The loop both grid builders used to spell out, kept as reference."""
        if upper == lower:
            weights = [lower] * count
        else:
            step = (upper - lower) / (count - 1)
            weights = [lower + i * step for i in range(count)]
        clipped = [min(max(w, 0.0), 1.0) for w in weights]
        assert uniform_weight_grid(lower, upper, count).tolist() == clipped

    def test_weight_grid_per_element_of_array_bounds(self):
        lower, upper = np.array([0.0, 0.1, 0.3]), np.array([0.4, 0.1, 0.9])
        grids = uniform_weight_grid(lower, upper, 5)
        assert grids.shape == (3, 5)
        for row, lo, hi in zip(grids, lower, upper):
            assert row.tolist() == uniform_weight_grid(lo, hi, 5).tolist()
        assert grids[0] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_weight_grid_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_weight_grid(0.0, 0.5, 1)
        with pytest.raises(ConfigurationError):
            uniform_weight_grid(0.5, 0.4, 3)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
class TestExactBackends:
    def test_finds_optimal_solution(self, backend):
        result = solve(two_dip_problem(), backend=backend)
        assert result.status.has_solution
        # Optimal: a=0.8, b=0.2 → 8+2=10 vs a=0.6,b=0.4 → 4+6=10 … both 10;
        # a=0.4,b=0.6 → 2+14=16.  The optimum objective is 10.
        assert result.objective_ms == pytest.approx(10.0)
        assert result.total_weight == pytest.approx(1.0, abs=0.011)

    def test_respects_theta(self, backend):
        free = solve(two_dip_problem(theta=None), backend=backend)
        constrained = solve(two_dip_problem(theta=0.2), backend=backend)
        assert constrained.status.has_solution
        # With theta=0.2 the chosen weights may differ by at most 0.2.
        weights = list(constrained.weights.values())
        assert max(weights) - min(weights) <= 0.2 + 1e-9
        assert constrained.objective_ms >= free.objective_ms - 1e-9

    def test_theta_zero_infeasible_on_this_grid(self, backend):
        # theta=0 forces equal weights, but 2 × {0.2,0.4,0.6,0.8} never sums
        # to 1.0 within the 0.01 tolerance.
        result = solve(two_dip_problem(theta=0.0), backend=backend)
        assert result.status is SolveStatus.INFEASIBLE

    def test_infeasible_when_sum_unreachable(self, backend):
        problem = AssignmentProblem(
            dips=(
                DipCandidates(dip="a", weights=(0.1,), latencies_ms=(1.0,)),
                DipCandidates(dip="b", weights=(0.1,), latencies_ms=(1.0,)),
            ),
            total_weight=1.0,
            total_weight_tolerance=0.01,
        )
        result = solve(problem, backend=backend)
        assert result.status is SolveStatus.INFEASIBLE

    def test_single_dip(self, backend):
        problem = AssignmentProblem(
            dips=(
                DipCandidates(
                    dip="only", weights=(0.5, 1.0), latencies_ms=(1.0, 3.0)
                ),
            ),
            total_weight=1.0,
            total_weight_tolerance=0.01,
        )
        result = solve(problem, backend=backend)
        assert result.weights == {"only": 1.0}

    def test_overload_detection(self, backend):
        # Force total weight 1 with w_max 0.3 per DIP: any solution overloads.
        problem = AssignmentProblem(
            dips=(
                DipCandidates(dip="a", weights=(0.4, 0.6), latencies_ms=(1.0, 2.0), w_max=0.3),
                DipCandidates(dip="b", weights=(0.4, 0.6), latencies_ms=(1.0, 2.0), w_max=0.3),
            ),
            total_weight=1.0,
            total_weight_tolerance=0.05,
        )
        result = solve(problem, backend=backend)
        assert result.status.has_solution
        assert result.is_overloaded

    def test_selection_indices_consistent(self, backend):
        problem = two_dip_problem()
        result = solve(problem, backend=backend)
        assert problem.objective_of(result.selection) == pytest.approx(result.objective_ms)
        assert problem.weights_of(result.selection) == result.weights


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestAllBackendsFeasibility:
    def test_solution_within_tolerance_band(self, backend):
        problem = two_dip_problem(tolerance=0.05)
        result = solve(problem, backend=backend)
        assert result.status.has_solution
        assert abs(result.total_weight - 1.0) <= 0.05 + 1e-9

    def test_larger_pool(self, backend):
        dips = tuple(
            DipCandidates(
                dip=f"d{i}",
                weights=(0.0, 0.05, 0.10, 0.15, 0.20),
                latencies_ms=(1.0, 1.5, 2.5, 5.0, 9.0),
                w_max=0.2,
            )
            for i in range(10)
        )
        problem = AssignmentProblem(dips=dips, total_weight=1.0, total_weight_tolerance=0.02)
        result = solve(problem, backend=backend)
        assert result.status.has_solution
        assert abs(result.total_weight - 1.0) <= 0.02 + 1e-9


class TestGreedy:
    def test_close_to_optimal_on_convex_costs(self):
        problem = two_dip_problem(tolerance=0.05)
        exact = solve_branch_and_bound(problem)
        heuristic = solve_greedy(problem)
        assert heuristic.status.has_solution
        assert heuristic.objective_ms <= exact.objective_ms * 1.5 + 1e-9

    def test_infeasible_target(self):
        problem = AssignmentProblem(
            dips=(DipCandidates(dip="a", weights=(0.1,), latencies_ms=(1.0,)),),
            total_weight=1.0,
            total_weight_tolerance=0.01,
        )
        assert solve_greedy(problem).status is SolveStatus.INFEASIBLE


class TestDp:
    def test_matches_exact_objective(self):
        problem = two_dip_problem(tolerance=0.02)
        exact = solve_branch_and_bound(problem)
        dp = solve_dp(problem, resolution=1e-3)
        assert dp.status.has_solution
        assert dp.objective_ms == pytest.approx(exact.objective_ms, rel=0.05)

    def test_rejects_theta(self):
        with pytest.raises(ConfigurationError):
            solve_dp(two_dip_problem(theta=0.1))

    def test_rejects_bad_resolution(self):
        with pytest.raises(ConfigurationError):
            solve_dp(two_dip_problem(), resolution=0.0)


class TestMckp:
    def test_matches_exact_objective_with_a_certificate(self):
        problem = two_dip_problem()
        result = solve_mckp(problem)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective_ms == solve_branch_and_bound(problem).objective_ms
        assert result.lower_bound_ms <= result.objective_ms
        assert result.objective_ms - result.lower_bound_ms <= 1e-4 * result.objective_ms

    def test_rejects_theta(self):
        with pytest.raises(ConfigurationError):
            solve_mckp(two_dip_problem(theta=0.1))

    @pytest.mark.parametrize(
        "backend",
        [solve_mckp, solve_dp, solve_greedy, solve_branch_and_bound],
        ids=["mckp", "dp", "greedy", "branch_and_bound"],
    )
    def test_selection_indexes_the_unsorted_candidates(self, backend):
        problem = AssignmentProblem(
            dips=(
                DipCandidates(dip="a", weights=(0.8, 0.2, 0.6), latencies_ms=(8.0, 1.0, 4.0)),
                DipCandidates(dip="b", weights=(0.4, 0.2), latencies_ms=(6.0, 2.5)),
            ),
            total_weight=1.0,
            total_weight_tolerance=0.0,
        )
        # The one optimum is 0.6 + 0.4: positions 1 and 1 of the sorted rows.
        result = backend(problem)
        assert result.selection == {"a": 2, "b": 0}
        assert result.weights == problem.weights_of(result.selection)
        assert result.objective_ms == problem.objective_of(result.selection) == 10.0

    def test_upper_edge_binding_is_the_mirrored_problem(self):
        # Heavier is cheaper here, so the band's upper edge is the constraint.
        problem = AssignmentProblem(
            dips=tuple(
                DipCandidates(
                    dip=name, weights=(0.1, 0.3, 0.5, 0.7), latencies_ms=(9.0, 5.0, 2.0, 1.0)
                )
                for name in "abc"
            ),
            total_weight=1.1,
            total_weight_tolerance=0.05,
        )
        result = solve_mckp(problem)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective_ms == solve_branch_and_bound(problem).objective_ms == 12.0

    def test_band_between_candidate_sums_is_infeasible(self):
        problem = AssignmentProblem(
            dips=(DipCandidates(dip="a", weights=(0.0, 0.5, 1.0), latencies_ms=(0.0, 1.0, 3.0)),),
            total_weight=0.65,
            total_weight_tolerance=0.05,
        )
        assert solve_mckp(problem).status is SolveStatus.INFEASIBLE

    def test_every_outcome_but_a_clock_cut_one_is_cached(self):
        cache = SolveCache()
        cut = solve(two_dip_problem(), backend="mckp", time_limit_s=1e-9, cache=cache)
        assert cut.status is SolveStatus.FEASIBLE and len(cache) == 0
        first = solve(two_dip_problem(), backend="mckp", cache=cache)
        # The limit is a backstop, not part of the answer: same entry.
        second = solve(two_dip_problem(), backend="mckp", time_limit_s=5.0, cache=cache)
        assert (cache.hits, len(cache)) == (1, 1)
        assert first.status is SolveStatus.OPTIMAL
        assert (second.status, second.selection) == (first.status, first.selection)
        infeasible = AssignmentProblem(
            dips=two_dip_problem().dips, total_weight=1.1, total_weight_tolerance=0.0
        )
        assert solve(infeasible, backend="mckp", cache=cache).status is SolveStatus.INFEASIBLE
        assert len(cache) == 2


class TestDispatcher:
    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="'mckp'"):
            solve(two_dip_problem(), backend="nonexistent")

    def test_auto_picks_available_backend(self):
        result = solve(two_dip_problem(), backend="auto")
        assert result.status.has_solution
        assert result.backend in available_backends()

    def test_auto_is_the_knapsack_solver_unless_theta_is_finite(self):
        assert available_backends()[0] == "mckp"
        assert solve(two_dip_problem(), backend="auto").backend == "mckp"
        assert solve(two_dip_problem(theta=0.2), backend="auto").backend == EXACT_BACKENDS[0]

    def test_available_backends_contains_pure_python(self):
        assert "branch_and_bound" in available_backends()
        assert "greedy" in available_backends()

    @pytest.mark.skipif("scipy" not in available_backends(), reason="SciPy MILP unavailable")
    def test_scipy_and_bnb_agree(self):
        problem = two_dip_problem()
        assert solve_scipy(problem).objective_ms == pytest.approx(
            solve_branch_and_bound(problem).objective_ms
        )


class TestSolveResult:
    def test_status_has_solution(self):
        assert SolveStatus.OPTIMAL.has_solution
        assert SolveStatus.FEASIBLE.has_solution
        assert not SolveStatus.INFEASIBLE.has_solution
        assert not SolveStatus.TIMEOUT.has_solution

    def test_branch_and_bound_counts_nodes(self):
        result = solve_branch_and_bound(two_dip_problem())
        assert result.nodes_explored > 0
