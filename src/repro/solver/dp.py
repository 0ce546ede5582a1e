"""Dynamic-programming solver for the weight-assignment problem.

The multiple-choice knapsack structure admits a pseudo-polynomial DP once
weights are discretized onto a fixed grid: state = (DIP index, total weight
in grid units), value = minimum latency.  This backend is exact *up to the
grid resolution* and is useful for moderate pool sizes where the exact
branch-and-bound would be slow and HiGHS is unavailable.

The imbalance constraint θ is not representable in this DP (it would require
tracking the running min/max weight); when θ is finite the caller should use
another backend.  ``solve_dp`` raises ``ConfigurationError`` in that case.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import replace
from typing import Hashable

import numpy as np

from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.solver.assignment import AssignmentProblem
from repro.solver.result import SolveResult, SolveStatus

_BACKEND_NAME = "dp"


class SolveCache:
    """Warm-start memo for solver calls, keyed by the exact problem grid.

    An :class:`AssignmentProblem` is a frozen tree of tuples — candidate
    weights, their latencies, the target sum and tolerance — so it is
    hashable, and it *fully determines* the solution: two control rounds
    that produced the same candidate grid (the DP's "(weights, capacity
    units)" table inputs) must produce the same assignment.  Callers that
    re-solve per control tick (the fleet control plane, one ILP per VIP per
    round) share one cache so VIPs whose measured curves did not move skip
    the solve entirely.

    Only deterministic terminal outcomes may be cached; what counts as
    terminal is backend-specific (the *caller* decides): the DP's FEASIBLE
    is exact up to its grid and ``mckp``'s is what its state budget reached
    (both functions of the problem; ``mckp`` withholds a result its time
    limit cut), while branch-and-bound and HiGHS return FEASIBLE for a
    wall-clock-truncated incumbent — caching those would freeze a
    suboptimal assignment, so the generic :func:`repro.solver.solve` layer
    stores only OPTIMAL/INFEASIBLE.  TIMEOUT is refused here as a backstop.
    Bounded LRU.
    """

    __slots__ = ("_store", "maxsize", "hits", "misses")

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ConfigurationError("maxsize must be >= 1")
        self._store: "OrderedDict[Hashable, SolveResult]" = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(
        self, problem: AssignmentProblem, token: Hashable
    ) -> SolveResult | None:
        """The memoized result for ``(problem, token)``, re-stamped as free.

        ``token`` scopes the entry to the backend and its grid parameters
        (e.g. the DP resolution) so differently-quantized solves of the
        same problem never alias.
        """
        key = (problem, token)
        cached = self._store.get(key)
        if cached is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return replace(cached, solve_time_s=0.0)

    def put(
        self, problem: AssignmentProblem, token: Hashable, result: SolveResult
    ) -> None:
        if result.status is SolveStatus.TIMEOUT:
            return
        self._store[(problem, token)] = result
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)


def solve_dp(
    problem: AssignmentProblem,
    *,
    resolution: float = 1e-3,
    time_limit_s: float | None = None,
    cache: SolveCache | None = None,
) -> SolveResult:
    """Solve via DP over a weight grid of step ``resolution``.

    The chosen-weight sum is required to land within the problem's tolerance
    band of the target, with quantization error bounded by
    ``num_dips * resolution / 2``; keep ``resolution`` well below
    ``total_weight_tolerance / num_dips`` for faithful results.

    ``cache`` warm-starts repeat solves: an unchanged problem (same
    candidate weights and latencies, same target band) returns the
    memoized table's answer without rebuilding the DP.
    """
    if problem.theta is not None:
        raise ConfigurationError("the DP backend does not support a finite theta")
    if resolution <= 0:
        raise ConfigurationError("resolution must be positive")
    token = (_BACKEND_NAME, resolution)
    if cache is not None:
        cached = cache.get(problem, token)
        if cached is not None:
            return cached

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
        result = SolveResult(
            status=SolveStatus.INFEASIBLE,
            solve_time_s=time.perf_counter() - start,
            backend=_BACKEND_NAME,
        )
        if cache is not None:
            cache.put(problem, token, result)
        return result
    best_offset = int(np.argmin(window))
    best_units = lo + best_offset

    # Backtrack the choices.
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
        selection[cand.dip] = j
        units -= to_units(cand.weights[j])

    weights = problem.weights_of(selection)
    elapsed = time.perf_counter() - start
    result = SolveResult(
        status=SolveStatus.FEASIBLE,
        objective_ms=problem.objective_of(selection),
        weights=weights,
        selection=selection,
        solve_time_s=elapsed,
        backend=_BACKEND_NAME,
        overloaded_dips=problem.overloaded_dips(weights),
    )
    if cache is not None:
        cache.put(problem, token, result)
    return result
