"""Differential tests of the multiple-choice knapsack backend.

``mckp`` is what ``backend="auto"`` runs for every problem without θ, so it is
checked against things that cannot share its mistakes: brute-force
enumeration on small general problems, HiGHS on the instances a 100-DIP cold
convergence really builds (recorded in-test, no committed blob) and on
Table 6's identical-DIP pools, and itself — the answer must not depend on the
clock, the time limit or an earlier call.

Two families of generated problems.  Weights on a 2**-10 lattice have float
sums that are exact in any order, so "inside the band" means the same thing
to the enumeration and to the solver even at tolerance 0.  Weights in tenths
are the opposite: their sums land within an ulp of a band edge, on either
side depending on the order of summation.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ilp as ilp
from repro import api
from repro.core.config import IlpConfig
from repro.core.ilp import build_assignment_problem
from repro.core.types import left_to_right_sum
from repro.experiments.ilp_scale import f_series_like_curve
from repro.solver import (
    AssignmentProblem,
    DipCandidates,
    SolveStatus,
    available_backends,
    solve,
    solve_mckp,
    solve_scipy,
)
from repro.solver.mckp import GAP, STATE_BUDGET

needs_highs = pytest.mark.skipif(
    "scipy" not in available_backends(), reason="SciPy MILP unavailable"
)


def band(problem: AssignmentProblem) -> tuple[float, float]:
    return (
        problem.total_weight - problem.total_weight_tolerance,
        problem.total_weight + problem.total_weight_tolerance,
    )


def brute_force_optimum(problem: AssignmentProblem, widen: float = 0.0) -> float | None:
    """The cheapest selection inside the band (widened by ``widen``), by enumeration."""
    low, high = band(problem)
    low, high = low - widen, high + widen
    best = None
    for combo in itertools.product(*(range(cand.count) for cand in problem.dips)):
        selection = dict(zip(problem.dip_ids(), combo))
        if low <= sum(problem.weights_of(selection).values()) <= high:
            cost = problem.objective_of(selection)
            best = cost if best is None else min(best, cost)
    return best


def assert_certified(problem: AssignmentProblem, result) -> None:
    """What every ``mckp`` result with a selection promises."""
    low, high = band(problem)
    assert low <= result.total_weight <= high  # no feasibility tolerance
    assert result.weights == problem.weights_of(result.selection)
    assert result.objective_ms == problem.objective_of(result.selection)
    assert result.lower_bound_ms <= result.objective_ms
    certified = result.objective_ms - result.lower_bound_ms <= GAP * result.objective_ms
    assert (result.status is SolveStatus.OPTIMAL) == certified


# -- (a) small general problems against enumeration ------------------------------------

lattice = st.integers(0, 1024).map(lambda units: units / 1024)
costs = st.one_of(
    st.just(0.0),
    st.integers(0, 12).map(lambda quarters: quarters / 4),
    st.floats(0.0, 10.0, allow_nan=False),
)


@st.composite
def candidates(draw, dip: str) -> DipCandidates:
    count = draw(st.integers(2, 5))
    if draw(st.integers(0, 5)) == 0:  # a zero-width window
        weights = [draw(lattice)] * count
    else:  # unsorted, duplicates likely
        weights = draw(st.lists(st.one_of(lattice, st.sampled_from([0.0, 0.125, 0.5])),
                                min_size=count, max_size=count))
    latencies = draw(st.lists(costs, min_size=count, max_size=count))
    return DipCandidates(dip=dip, weights=tuple(weights), latencies_ms=tuple(latencies))


@st.composite
def small_problems(draw) -> AssignmentProblem:
    dips = tuple(draw(candidates(f"d{d}")) for d in range(draw(st.integers(1, 5))))
    reachable = sum(draw(st.sampled_from(cand.weights)) for cand in dips)
    total = draw(st.one_of(st.just(reachable), st.integers(1, 3072).map(lambda u: u / 1024)))
    tolerance = draw(st.sampled_from([0.0, 0.0, 2**-10, 2**-7, 2**-4, 0.25]))
    return AssignmentProblem(
        dips=dips, total_weight=total or 2**-10, total_weight_tolerance=tolerance
    )


@settings(max_examples=300, deadline=None)
@given(small_problems())
def test_small_problems_equal_enumeration(problem):
    optimum = brute_force_optimum(problem)
    result = solve_mckp(problem)
    if optimum is None:
        assert result.status is SolveStatus.INFEASIBLE
        return
    # Nothing is dropped at this size, so the verdict is always proven.
    assert result.status is SolveStatus.OPTIMAL
    assert_certified(problem, result)
    assert result.lower_bound_ms <= optimum <= result.objective_ms <= optimum * (1 + GAP)


tenths = st.integers(0, 10).map(lambda tenth: tenth / 10)


@st.composite
def decimal_problems(draw) -> AssignmentProblem:
    """Weights whose sums round: tenths land on band edges to within an ulp."""
    dips = []
    for d in range(draw(st.integers(1, 5))):
        count = draw(st.integers(2, 5))
        weights = draw(st.lists(st.one_of(tenths, st.floats(0.0, 1.0)),
                                min_size=count, max_size=count))
        latencies = draw(st.lists(costs, min_size=count, max_size=count))
        dips.append(
            DipCandidates(dip=f"d{d}", weights=tuple(weights), latencies_ms=tuple(latencies))
        )
    return AssignmentProblem(
        dips=tuple(dips),
        total_weight=draw(st.integers(1, 30)) / 10,
        total_weight_tolerance=draw(st.sampled_from([1e-3, 0.05, 0.1, 0.2, 0.3])),
    )


@settings(max_examples=300, deadline=None)
@given(decimal_problems())
def test_rounding_never_moves_a_selection_across_a_band_edge(problem):
    # Sums within 1e-9 of an edge may fall either way in another summation
    # order, so the verdict is pinned from both sides of that margin.
    inside, around = brute_force_optimum(problem, -1e-9), brute_force_optimum(problem, 1e-9)
    result = solve_mckp(problem)
    if around is None:
        assert result.status is SolveStatus.INFEASIBLE
    if result.status.has_solution:
        assert_certified(problem, result)
    if inside is not None:
        assert result.status is SolveStatus.OPTIMAL
        assert result.lower_bound_ms <= inside
        assert result.objective_ms <= inside * (1 + GAP)


def test_a_zero_width_band_at_the_left_to_right_sum_is_reachable():
    # Ten 0.1s add up to 0.9999999999999999 left to right, the sum the band
    # check accepts by; numpy's pairwise sum reads 1.0 and once made the
    # reachability test call this problem infeasible.
    total = left_to_right_sum([0.1] * 10)
    problem = AssignmentProblem(
        dips=tuple(
            DipCandidates(dip=f"d{d}", weights=(0.1,), latencies_ms=(1.0,))
            for d in range(10)
        ),
        total_weight=total,
        total_weight_tolerance=0.0,
    )
    expected = {f"d{d}": 0.1 for d in range(10)}
    result = solve_mckp(problem)
    assert result.status is SolveStatus.OPTIMAL
    assert result.weights == expected
    assert_certified(problem, result)
    for backend in ("dp", "greedy"):
        assert solve(problem, backend=backend).weights == expected


# -- (b) the instances a 100-DIP cold convergence builds --------------------------------

COLD_100 = {
    "name": "cold_100",
    "runner": "fluid",
    "seed": 17,
    "pool": {"kind": "mixed_core", "num_dips": 100},
    "workload": {"load_fraction": 0.7},
    "policy": {"name": "wrr"},
    "controller": {
        "enabled": True,
        "settle_steps": 0,
        "config": {"ilp": {"time_limit_s": 0.3}},
    },
}


@pytest.fixture(scope="module")
def cold_run():
    """One cold convergence: its result and every problem it handed to ``solve``."""
    problems: list[AssignmentProblem] = []
    original = ilp.solve

    def recording(problem, **kwargs):
        problems.append(problem)
        return original(problem, **kwargs)

    ilp.solve = recording
    try:
        result = api.run(api.ExperimentSpec.from_dict(COLD_100))
    finally:
        ilp.solve = original
    assert len(problems) >= 8 and max(p.num_dips for p in problems) == 100
    return result, problems


@needs_highs
def test_corpus_is_no_worse_than_highs(cold_run):
    for problem in cold_run[1]:
        # HiGHS returns OPTIMAL selections up to its feasibility tolerance
        # outside the band; compare on a band that holds them.
        widened = dataclasses.replace(
            problem, total_weight_tolerance=problem.total_weight_tolerance + 1e-6
        )
        ours = solve_mckp(widened)
        assert_certified(widened, ours)
        quick = solve_scipy(problem, time_limit_s=0.3)
        assert quick.status.has_solution
        assert ours.objective_ms <= quick.objective_ms * (1 + 1e-4)
        # Where HiGHS proved its answer in 0.3 s a longer limit changes nothing.
        patient = (
            quick
            if quick.status is SolveStatus.OPTIMAL
            else solve_scipy(problem, time_limit_s=5.0)
        )
        assert ours.objective_ms - patient.objective_ms <= 1e-4 * ours.objective_ms


@needs_highs
def test_tiny_target_filler_ends_inside_the_budget(cold_run):
    # §4.6 filler problems early in the convergence: a target of a few
    # candidate steps, where the LP bound is loose (3 % at 43 DIPs) and no
    # amount of pruning proves the gap.  The budget, not a timeout, ends them.
    tiny = [p for p in cold_run[1] if p.total_weight < 0.01]
    assert tiny
    for problem in tiny:
        result = solve_mckp(problem)
        assert_certified(problem, result)
        assert result.nodes_explored <= problem.num_dips * STATE_BUDGET
        assert result.objective_ms <= solve_scipy(problem).objective_ms * (1 + 1e-4)
    hardest = solve_mckp(max(tiny, key=lambda p: p.num_dips))
    assert hardest.status is SolveStatus.FEASIBLE


# -- (c) full symmetry: Table 6's identical-DIP pools -------------------------------------


@needs_highs
@pytest.mark.parametrize("num_dips", [10, 100, 1000])
def test_identical_dip_pools_equal_highs(num_dips):
    curve = f_series_like_curve(num_dips)
    problem = build_assignment_problem(
        {f"d{i}": curve for i in range(num_dips)}, config=IlpConfig()
    )
    result = solve_mckp(problem)
    assert result.status is SolveStatus.OPTIMAL
    assert_certified(problem, result)
    assert result.objective_ms == pytest.approx(solve_scipy(problem).objective_ms, rel=1e-9)
    # Dominance must collapse the symmetric states, not enumerate them.
    assert result.nodes_explored <= 64 * num_dips


# -- determinism ------------------------------------------------------------------------


def test_answer_does_not_depend_on_the_call_or_the_limit(cold_run):
    for problem in cold_run[1]:
        first = solve(problem, backend="auto")
        again = solve(problem, backend="auto")
        limited = solve(problem, backend="auto", time_limit_s=0.3)
        for other in (again, limited):
            assert (other.status, other.selection, other.lower_bound_ms) == (
                first.status, first.selection, first.lower_bound_ms,
            )


def test_cold_convergence_is_reproducible_in_one_process(cold_run):
    first = cold_run[0]
    again = api.run(api.ExperimentSpec.from_dict(COLD_100))
    assert again.metrics_equal(first)
    assert again.detail["assignments"]["vip"].weights == first.detail["assignments"]["vip"].weights
