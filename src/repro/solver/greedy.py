"""Greedy marginal-cost heuristic for the weight-assignment problem.

Used both as (a) a fast fallback when the exact backends time out and (b) a
baseline for the solver ablation bench.  The heuristic starts from every
DIP's smallest candidate weight and repeatedly upgrades the DIP whose next
candidate adds the least latency per unit of weight gained, until the total
weight reaches the target band.  A final local-search pass swaps single-DIP
choices if that lowers the objective while staying feasible.
"""

from __future__ import annotations

import time

from repro.core.types import DipId, left_to_right_sum
from repro.solver.assignment import AssignmentProblem
from repro.solver.result import SolveResult, SolveStatus

_BACKEND_NAME = "greedy"


def solve_greedy(
    problem: AssignmentProblem,
    *,
    time_limit_s: float | None = None,
    local_search_passes: int = 2,
) -> SolveResult:
    """Solve heuristically; the result is feasible but not necessarily optimal."""
    start = time.perf_counter()
    deadline = start + time_limit_s if time_limit_s is not None else None

    dips = [cand.sorted_by_weight() for cand in problem.dips]
    tol = problem.total_weight_tolerance
    target = problem.total_weight
    theta = problem.theta

    # Start at the smallest candidate weight of every DIP.
    selection: dict[DipId, int] = {cand.dip: 0 for cand in dips}
    index_of = {cand.dip: i for i, cand in enumerate(dips)}
    total = left_to_right_sum(cand.weights[0] for cand in dips)

    def imbalance_ok(sel: dict[DipId, int]) -> bool:
        if theta is None:
            return True
        chosen = [dips[index_of[d]].weights[j] for d, j in sel.items()]
        return (max(chosen) - min(chosen)) <= theta + 1e-12

    # Greedy upgrades until the target band is reached (or no move remains).
    while total < target - tol:
        if deadline is not None and time.perf_counter() > deadline:
            break
        best_dip: DipId | None = None
        best_rate = float("inf")
        for cand in dips:
            j = selection[cand.dip]
            if j + 1 >= cand.count:
                continue
            dw = cand.weights[j + 1] - cand.weights[j]
            if dw <= 0:
                continue
            dl = cand.latencies_ms[j + 1] - cand.latencies_ms[j]
            rate = dl / dw
            if rate < best_rate:
                best_rate = rate
                best_dip = cand.dip
        if best_dip is None:
            break
        cand = dips[index_of[best_dip]]
        j = selection[best_dip]
        total += cand.weights[j + 1] - cand.weights[j]
        selection[best_dip] = j + 1

    # If we overshot, walk back the cheapest downgrades.
    while total > target + tol:
        if deadline is not None and time.perf_counter() > deadline:
            break
        best_dip = None
        best_rate = float("-inf")
        for cand in dips:
            j = selection[cand.dip]
            if j == 0:
                continue
            dw = cand.weights[j] - cand.weights[j - 1]
            if dw <= 0:
                continue
            dl = cand.latencies_ms[j] - cand.latencies_ms[j - 1]
            rate = dl / dw
            if rate > best_rate:
                best_rate = rate
                best_dip = cand.dip
        if best_dip is None:
            break
        cand = dips[index_of[best_dip]]
        j = selection[best_dip]
        total -= cand.weights[j] - cand.weights[j - 1]
        selection[best_dip] = j - 1

    feasible = abs(total - target) <= tol and imbalance_ok(selection)

    # Local search: try replacing one DIP's candidate with any other that
    # keeps the sum in band and lowers the objective.
    if feasible:
        for _ in range(local_search_passes):
            improved = False
            for cand in dips:
                if deadline is not None and time.perf_counter() > deadline:
                    break
                current_j = selection[cand.dip]
                for j in range(cand.count):
                    if j == current_j:
                        continue
                    new_total = total - cand.weights[current_j] + cand.weights[j]
                    if abs(new_total - target) > tol:
                        continue
                    if cand.latencies_ms[j] >= cand.latencies_ms[current_j]:
                        continue
                    trial = dict(selection)
                    trial[cand.dip] = j
                    if not imbalance_ok(trial):
                        continue
                    selection = trial
                    total = new_total
                    current_j = j
                    improved = True
            if not improved:
                break

    elapsed = time.perf_counter() - start
    if not feasible:
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            solve_time_s=elapsed,
            backend=_BACKEND_NAME,
        )

    weights = problem.weights_of(selection)
    return SolveResult(
        status=SolveStatus.FEASIBLE,
        objective_ms=problem.objective_of(selection),
        weights=weights,
        selection=selection,
        solve_time_s=elapsed,
        backend=_BACKEND_NAME,
        overloaded_dips=problem.overloaded_dips(weights),
    )
