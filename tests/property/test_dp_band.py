"""Differential tests: the band DP against the full-table DP it replaced.

``solve_dp`` keeps, after each DIP, only the unit sums that are reachable
and can still end in the target window.  :func:`full_table_dp` is the solver
it replaced — every layer filled over ``[0, target + tolerance]`` — kept
verbatim as the oracle (renamed, with its cache hooks dropped, and a pick
mapped back from the weight-sorted row to the given one, as every backend
now reports it).  Status,
selection, weights and objective must be identical, because every cell the
band keeps reads the same sources with the same float add and the same
first-candidate tie rule.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.solver import (
    AssignmentProblem,
    DipCandidates,
    SolveCache,
    SolveResult,
    SolveStatus,
    solve_dp,
)

_BACKEND_NAME = "dp"


def full_table_dp(
    problem: AssignmentProblem,
    *,
    resolution: float = 1e-3,
    time_limit_s: float | None = None,
) -> SolveResult:
    if problem.theta is not None:
        raise ConfigurationError("the DP backend does not support a finite theta")
    if resolution <= 0:
        raise ConfigurationError("resolution must be positive")

    start = time.perf_counter()
    deadline = start + time_limit_s if time_limit_s is not None else None

    dips = [cand.sorted_by_weight() for cand in problem.dips]
    n = len(dips)

    def to_units(w: float) -> int:
        return int(round(w / resolution))

    target_units = to_units(problem.total_weight)
    tol_units = max(1, to_units(problem.total_weight_tolerance))
    max_units = target_units + tol_units

    inf = float("inf")
    # cost[u] = min latency to reach exactly u units with the DIPs seen so far.
    cost = np.full(max_units + 1, inf)
    cost[0] = 0.0
    # choice[i][u] = candidate index picked for dips[i] to reach u optimally.
    choice: list[np.ndarray] = []

    for i, cand in enumerate(dips):
        if deadline is not None and time.perf_counter() > deadline:
            return SolveResult(
                status=SolveStatus.TIMEOUT,
                solve_time_s=time.perf_counter() - start,
                backend=_BACKEND_NAME,
            )
        new_cost = np.full(max_units + 1, inf)
        new_choice = np.full(max_units + 1, -1, dtype=np.int32)
        for j in range(cand.count):
            units = to_units(cand.weights[j])
            lat = cand.latencies_ms[j]
            if units > max_units:
                continue
            # Shift the reachable prefix by `units` and add this latency.
            if units == 0:
                shifted = cost + lat
            else:
                shifted = np.full(max_units + 1, inf)
                shifted[units:] = cost[: max_units + 1 - units] + lat
            better = shifted < new_cost
            new_cost = np.where(better, shifted, new_cost)
            new_choice = np.where(better, j, new_choice)
        cost = new_cost
        choice.append(new_choice)

    lo = max(0, target_units - tol_units)
    hi = max_units
    window = cost[lo : hi + 1]
    if not np.isfinite(window).any():
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            solve_time_s=time.perf_counter() - start,
            backend=_BACKEND_NAME,
        )
    best_offset = int(np.argmin(window))
    best_units = lo + best_offset

    # Backtrack the choices (``j`` indexes the sorted row; the selection
    # holds its position in the given row).
    orders = [cand.weight_order() for cand in problem.dips]
    selection: dict[DipId, int] = {}
    units = best_units
    for i in range(n - 1, -1, -1):
        j = int(choice[i][units])
        if j < 0:
            return SolveResult(
                status=SolveStatus.ERROR,
                solve_time_s=time.perf_counter() - start,
                backend=_BACKEND_NAME,
            )
        cand = dips[i]
        selection[cand.dip] = orders[i][j]
        units -= to_units(cand.weights[j])

    weights = problem.weights_of(selection)
    elapsed = time.perf_counter() - start
    return SolveResult(
        status=SolveStatus.FEASIBLE,
        objective_ms=problem.objective_of(selection),
        weights=weights,
        selection=selection,
        solve_time_s=elapsed,
        backend=_BACKEND_NAME,
        overloaded_dips=problem.overloaded_dips(weights),
    )


def outcome(result: SolveResult) -> tuple:
    return (
        result.status,
        result.selection,
        result.weights,
        result.objective_ms,
        result.overloaded_dips,
    )


def assert_same(problem: AssignmentProblem, **kwargs) -> SolveResult:
    band = solve_dp(problem, **kwargs)
    assert outcome(band) == outcome(full_table_dp(problem, **kwargs))
    return band


# Weights on a coarse grid collide (duplicates, ties on a unit); latencies
# drawn from a few values tie across candidates and DIPs.
_weights = st.one_of(
    st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.5, 0.9, 1.0]),
    st.floats(0.0, 1.0, allow_subnormal=False),
)
_latencies = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 7.0]),
    st.floats(0.0, 1e4, allow_subnormal=False),
)


@st.composite
def problems(draw):
    num_dips = draw(st.integers(1, 7))
    dips = []
    for d in range(num_dips):
        count = draw(st.integers(1, 6))
        dips.append(
            DipCandidates(
                dip=f"d{d}",
                weights=tuple(draw(st.lists(_weights, min_size=count, max_size=count))),
                latencies_ms=tuple(
                    draw(st.lists(_latencies, min_size=count, max_size=count))
                ),
                w_max=draw(st.none() | st.floats(0.0, 1.0)),
            )
        )
    return AssignmentProblem(
        dips=tuple(dips),
        total_weight=draw(st.sampled_from([1.0, 0.3, 0.05]) | st.floats(1e-3, 2.0)),
        total_weight_tolerance=draw(
            st.sampled_from([0.0, 1e-4, 0.01, 0.05]) | st.floats(0.0, 0.5)
        ),
    )


def tied(weights, latencies, num_dips, total_weight, tolerance=0.0):
    return AssignmentProblem(
        dips=tuple(DipCandidates(f"d{d}", weights, latencies) for d in range(num_dips)),
        total_weight=total_weight,
        total_weight_tolerance=tolerance,
    )


class TestBandAgainstFullTable:
    @given(problems(), st.sampled_from([1e-3, 1e-2, 0.05]))
    # Several candidates reach one cell at one cost, so the backtrack's
    # recomputed pick must be the first of them: every split of 1.0 over
    # two DIPs costs 2; 0.25 + 0.25 + 0.5 in any order costs 4; three
    # permutations of 0.1 / 0.2 / 0.3 whose float sums tie or miss by an ulp.
    @example(tied((0.0, 0.5, 1.0), (1.0, 1.0, 1.0), 2, 1.0), 1e-3)
    @example(tied((0.25, 0.5), (1.0, 2.0), 3, 1.0), 1e-3)
    @example(tied((0.25, 0.5), (1.0, 2.0), 4, 1.25, 0.25), 0.05)
    @example(
        AssignmentProblem(
            dips=(
                DipCandidates("a", (0.0, 0.2, 0.4), (0.1, 0.2, 0.3)),
                DipCandidates("b", (0.0, 0.2, 0.4), (0.2, 0.3, 0.1)),
                DipCandidates("c", (0.0, 0.2, 0.4), (0.3, 0.1, 0.2)),
            ),
            total_weight=0.6,
            total_weight_tolerance=0.2,
        ),
        1e-2,
    )
    def test_same_answer(self, problem, resolution):
        assert_same(problem, resolution=resolution)

    def test_candidates_past_the_window_are_never_picked(self):
        problem = AssignmentProblem(
            dips=tuple(
                DipCandidates(f"d{d}", (0.1, 0.3, 0.95, 1.0), (1.0, 2.0, 0.5, 0.1))
                for d in range(3)
            ),
            total_weight=0.5,
            total_weight_tolerance=0.02,
        )
        result = assert_same(problem)
        assert result.status is SolveStatus.FEASIBLE
        assert max(result.weights.values()) <= 0.3

    def test_zero_and_duplicate_weights_with_tied_latencies(self):
        problem = AssignmentProblem(
            dips=tuple(
                DipCandidates(f"d{d}", (0.0, 0.0, 0.25, 0.25, 0.5), (3.0, 3.0, 3.0, 1.0, 1.0))
                for d in range(4)
            ),
            total_weight=1.0,
            total_weight_tolerance=0.0,
        )
        assert assert_same(problem).status is SolveStatus.FEASIBLE

    @pytest.mark.parametrize("total_weight", [2.0, 0.05])
    def test_window_out_of_reach(self, total_weight):
        # Too heavy for the largest candidates, or too light for the smallest.
        problem = AssignmentProblem(
            dips=tuple(DipCandidates(f"d{d}", (0.1, 0.4), (1.0, 2.0)) for d in range(3)),
            total_weight=total_weight,
            total_weight_tolerance=0.01,
        )
        assert assert_same(problem).status is SolveStatus.INFEASIBLE

    def test_a_dip_with_no_candidate_that_fits(self):
        problem = AssignmentProblem(
            dips=(
                DipCandidates("a", (0.1, 0.2), (1.0, 2.0)),
                DipCandidates("b", (0.9, 1.0), (1.0, 2.0)),
            ),
            total_weight=0.3,
            total_weight_tolerance=0.01,
        )
        assert assert_same(problem).status is SolveStatus.INFEASIBLE

    @example(tolerance=1e-4)
    @given(tolerance=st.floats(0.0, 4.9e-4))
    def test_tolerance_below_the_resolution(self, tolerance):
        # Both clamp the tolerance to one unit.
        problem = AssignmentProblem(
            dips=tuple(
                DipCandidates(f"d{d}", (0.333, 0.334, 0.5), (1.0, 1.1, 2.0))
                for d in range(3)
            ),
            total_weight=1.0,
            total_weight_tolerance=tolerance,
        )
        assert assert_same(problem).status is SolveStatus.FEASIBLE

    def test_an_expired_time_limit(self):
        problem = AssignmentProblem(
            dips=tuple(DipCandidates(f"d{d}", (0.1, 0.4), (1.0, 2.0)) for d in range(3)),
        )
        assert assert_same(problem, time_limit_s=0.0).status is SolveStatus.TIMEOUT

    def test_infeasible_is_cached_and_timeout_is_not(self):
        problem = AssignmentProblem(
            dips=(DipCandidates("a", (0.1,), (1.0,)),), total_weight=1.0
        )
        cache = SolveCache()
        assert solve_dp(problem, time_limit_s=0.0, cache=cache).status is SolveStatus.TIMEOUT
        assert len(cache) == 0
        assert solve_dp(problem, cache=cache).status is SolveStatus.INFEASIBLE
        assert solve_dp(problem, cache=cache).status is SolveStatus.INFEASIBLE
        assert (cache.hits, len(cache)) == (1, 1)

    def test_a_hundred_dip_layer(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 0.02, 10)
        problem = AssignmentProblem(
            dips=tuple(
                DipCandidates(
                    f"d{d}",
                    tuple(grid.tolist()),
                    tuple(np.sort(rng.uniform(0.0, 5.0, 10)).tolist()),
                )
                for d in range(100)
            ),
            total_weight=1.0,
            total_weight_tolerance=0.005,
        )
        assert assert_same(problem).status is SolveStatus.FEASIBLE
