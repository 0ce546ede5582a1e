"""Pure-Python branch-and-bound solver for the weight-assignment ILP.

This backend exists for two reasons:

* it makes the core reproduction self-contained (no dependency on HiGHS for
  the headline result), and
* its node counter lets the Fig. 8 / Table 6 benches report work done by an
  exact solver in a way that scales the same way the paper's CBC runs do
  (roughly exponential in the number of DIPs × candidates for coarse grids).

The algorithm is a depth-first branch-and-bound over DIPs.  At each node the
lower bound is the cost of the partial assignment plus, for every remaining
DIP, the cheapest candidate that could still participate in a feasible total
weight (using interval reachability of the remaining weight mass).  The
imbalance constraint θ is enforced exactly by tracking the min/max chosen
weight and pruning candidates outside ``[max_chosen - θ, min_chosen + θ]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.types import DipId
from repro.solver.assignment import AssignmentProblem, DipCandidates
from repro.solver.result import SolveResult, SolveStatus

_BACKEND_NAME = "branch_and_bound"


@dataclass
class _SearchState:
    """Mutable best-so-far state shared across the recursion."""

    best_cost: float
    best_selection: dict[DipId, int]
    nodes: int
    deadline: float | None
    timed_out: bool


def _suffix_weight_ranges(dips: list[DipCandidates]) -> list[tuple[float, float]]:
    """``ranges[i]`` = (min, max) total weight achievable by dips[i:]."""
    n = len(dips)
    ranges = [(0.0, 0.0)] * (n + 1)
    lo = hi = 0.0
    for i in range(n - 1, -1, -1):
        lo += dips[i].min_weight()
        hi += dips[i].max_weight()
        ranges[i] = (lo, hi)
    return ranges


def _suffix_min_costs(dips: list[DipCandidates]) -> list[float]:
    """``costs[i]`` = sum of per-DIP minimum latency over dips[i:]."""
    n = len(dips)
    costs = [0.0] * (n + 1)
    acc = 0.0
    for i in range(n - 1, -1, -1):
        acc += min(dips[i].latencies_ms)
        costs[i] = acc
    return costs


def solve_branch_and_bound(
    problem: AssignmentProblem,
    *,
    time_limit_s: float | None = None,
) -> SolveResult:
    """Solve the assignment problem exactly (subject to the time limit)."""
    start = time.perf_counter()
    deadline = start + time_limit_s if time_limit_s is not None else None

    # Sort DIPs so the ones with the fewest candidates are branched first;
    # sort candidates by latency so the greedy dive finds good incumbents.
    dips = [cand.sorted_by_weight() for cand in problem.dips]
    dips.sort(key=lambda c: c.count)

    tol = problem.total_weight_tolerance
    target = problem.total_weight
    theta = problem.theta

    ranges = _suffix_weight_ranges(dips)
    min_costs = _suffix_min_costs(dips)

    state = _SearchState(
        best_cost=float("inf"),
        best_selection={},
        nodes=0,
        deadline=deadline,
        timed_out=False,
    )

    selection: dict[DipId, int] = {}

    def recurse(i: int, weight_so_far: float, cost_so_far: float,
                w_min: float, w_max: float) -> None:
        if state.timed_out:
            return
        state.nodes += 1
        if state.deadline is not None and (state.nodes & 0x3FF) == 0:
            if time.perf_counter() > state.deadline:
                state.timed_out = True
                return

        if i == len(dips):
            if abs(weight_so_far - target) <= tol and cost_so_far < state.best_cost:
                state.best_cost = cost_so_far
                state.best_selection = dict(selection)
            return

        # Bound: even the cheapest completion cannot beat the incumbent.
        if cost_so_far + min_costs[i] >= state.best_cost:
            return

        # Bound: the remaining weight cannot reach the target band.
        lo, hi = ranges[i]
        if weight_so_far + hi < target - tol or weight_so_far + lo > target + tol:
            return

        cand = dips[i]
        # Candidate order: cheapest latency first, to find incumbents early.
        order = sorted(range(cand.count), key=lambda j: cand.latencies_ms[j])
        for j in order:
            w = cand.weights[j]
            if theta is not None:
                new_min = min(w_min, w)
                new_max = max(w_max, w)
                if new_max - new_min > theta + 1e-12:
                    continue
            else:
                new_min, new_max = min(w_min, w), max(w_max, w)
            selection[cand.dip] = j
            recurse(
                i + 1,
                weight_so_far + w,
                cost_so_far + cand.latencies_ms[j],
                new_min,
                new_max,
            )
            del selection[cand.dip]
            if state.timed_out:
                return

    recurse(0, 0.0, 0.0, float("inf"), float("-inf"))
    elapsed = time.perf_counter() - start

    if not state.best_selection:
        status = SolveStatus.TIMEOUT if state.timed_out else SolveStatus.INFEASIBLE
        return SolveResult(
            status=status,
            solve_time_s=elapsed,
            backend=_BACKEND_NAME,
            nodes_explored=state.nodes,
        )

    selection = problem.unsorted(state.best_selection)
    weights = problem.weights_of(selection)
    status = SolveStatus.FEASIBLE if state.timed_out else SolveStatus.OPTIMAL
    return SolveResult(
        status=status,
        objective_ms=state.best_cost,
        weights=weights,
        selection=selection,
        solve_time_s=elapsed,
        backend=_BACKEND_NAME,
        overloaded_dips=problem.overloaded_dips(weights),
        nodes_explored=state.nodes,
    )
