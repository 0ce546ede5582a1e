"""Dynamic-programming solver for the weight-assignment problem.

The multiple-choice knapsack structure admits a pseudo-polynomial DP once
weights are discretized onto a fixed grid: state = (DIP index, total weight
in grid units), value = minimum latency.  This backend is exact *up to the
grid resolution* and is useful for moderate pool sizes where the exact
branch-and-bound would be slow and HiGHS is unavailable.

After DIP ``i`` only the band of sums that is reachable and can still end in
the target window is kept; every kept cell is computed from the same sources
in the same order as over the full ``[0, hi]`` table, so the band changes the
cost of a solve and nothing it returns.  No choice table is kept: the
backtrack recomputes, for the few cells it visits, which candidate reached
the minimum first.  The DP and the backtrack are one compiled call,
:func:`repro.kernels.band_dp`; this module keeps the units, the cache, the
time limit and the result.

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

from repro import kernels
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
    weights, latencies = problem.weights, problem.costs
    n, k = weights.shape
    # Rows ascending by weight (stable; the inf pad sorts last).  A pick is
    # an index into its sorted row until it is mapped back through ``order``.
    order = None
    if (weights[:, 1:] < weights[:, :-1]).any():
        order = np.argsort(weights, axis=1, kind="stable")
        weights = np.take_along_axis(weights, order, axis=1)
        latencies = np.take_along_axis(latencies, order, axis=1)
    # A weight's units are ``round(w / resolution)``, an int (or the
    # ValueError / OverflowError of a NaN / infinite quotient).
    target_units = round(problem.total_weight / resolution)
    tol_units = max(1, round(problem.total_weight_tolerance / resolution))
    lo = max(0, target_units - tol_units)
    hi = target_units + tol_units
    quotient = weights / resolution
    units = np.rint(quotient)
    if not (units < 2.0**63).all():
        pad = np.isinf(weights)
        # An infinite quotient or one past int64 raises as ``round`` and
        # int64 do; the pad is set past ``hi`` so it never fits.
        np.array([round(q) for q in quotient[~pad].tolist()], dtype=np.int64)
        units[pad] = hi + 1
        latencies = np.where(pad, 0.0, latencies)
    units = units.astype(np.int64)
    picks = np.empty(n, dtype=np.int64)

    if time_limit_s is not None and time.perf_counter() > start + time_limit_s:
        return SolveResult(
            status=SolveStatus.TIMEOUT,
            solve_time_s=time.perf_counter() - start,
            backend=_BACKEND_NAME,
        )
    if not kernels.band_dp(units, latencies, k, lo, hi, picks):
        result = SolveResult(
            status=SolveStatus.INFEASIBLE,
            solve_time_s=time.perf_counter() - start,
            backend=_BACKEND_NAME,
        )
        if cache is not None:
            cache.put(problem, token, result)
        return result
    if order is not None:
        picks = order[np.arange(n), picks]
    # Keyed last DIP first, the order the backtrack reaches them.
    selection: dict[DipId, int] = dict(zip(problem.ids[::-1], picks.tolist()[::-1]))

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
