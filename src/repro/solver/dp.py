"""Dynamic-programming solver for the weight-assignment problem.

The multiple-choice knapsack structure admits a pseudo-polynomial DP once
weights are discretized onto a fixed grid: state = (DIP index, total weight
in grid units), value = minimum latency.  This backend is exact *up to the
grid resolution* and is useful for moderate pool sizes where the exact
branch-and-bound would be slow and HiGHS is unavailable.

After DIP ``i`` only the band of sums that is reachable and can still end in
the target window is kept (:func:`_bands`); every kept cell is computed from
the same sources in the same order as over the full ``[0, hi]`` table, so the
band changes the cost of a solve and nothing it returns.  A stage is one
``np.minimum`` per candidate and no choice table is kept: the backtrack
recomputes, for the few cells it visits, which candidate reached the minimum
first.

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


def _bands(units: list[list[int]], lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Per DIP ``i``, the unit sums ``[band_lo[i], band_hi[i]]`` the DP keeps.

    Only candidates of at most ``hi`` units can ever be picked; with min and
    max over those, a sum over ``dips[: i + 1]`` is reachable only inside
    ``[Σmin≤i, Σmax≤i]`` and can still end in ``[lo, hi]`` only inside
    ``[lo − Σmax>i, hi − Σmin>i]``.  A DIP with no such candidate empties
    every band, as does a window out of reach.
    """
    fits = [[k for k in ks if k <= hi] for ks in units]
    if not all(fits):
        return [0] * len(units), [-1] * len(units)
    mins, maxs = [min(ks) for ks in fits], [max(ks) for ks in fits]
    before_min = before_max = 0
    after_min, after_max = sum(mins), sum(maxs)
    band_lo, band_hi = [], []
    for least, most in zip(mins, maxs):
        before_min, after_min = before_min + least, after_min - least
        before_max, after_max = before_max + most, after_max - most
        band_lo.append(max(before_min, lo - after_max, 0))
        band_hi.append(min(before_max, hi - after_min))
    return band_lo, band_hi


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

    def to_units(w: float) -> int:
        return int(round(w / resolution))

    target_units = to_units(problem.total_weight)
    tol_units = max(1, to_units(problem.total_weight_tolerance))
    lo = max(0, target_units - tol_units)
    hi = target_units + tol_units
    units = [[to_units(w) for w in cand.weights] for cand in dips]
    band_lo, band_hi = _bands(units, lo, hi)

    # costs[i][u - band_lo[i]] = min latency to reach exactly u units with
    # dips[: i + 1]; before the first DIP only u = 0 is reached, at no cost.
    cost = np.zeros(1)
    prev_lo, prev_hi = 0, 0
    costs: list[np.ndarray] = []

    for i, cand in enumerate(dips):
        if deadline is not None and time.perf_counter() > deadline:
            return SolveResult(
                status=SolveStatus.TIMEOUT,
                solve_time_s=time.perf_counter() - start,
                backend=_BACKEND_NAME,
            )
        low, high = band_lo[i], band_hi[i]
        new_cost = np.full(max(0, high - low + 1), np.inf)
        for step, latency in zip(units[i], cand.latencies_ms):
            # The cells u in the band whose source u - step the last band holds.
            first, last = max(low, prev_lo + step), min(high, prev_hi + step)
            if first > last:
                continue
            cells = new_cost[first - low : last - low + 1]
            shifted = cost[first - step - prev_lo : last - step - prev_lo + 1]
            np.minimum(cells, shifted + latency, out=cells)
        cost, prev_lo, prev_hi = new_cost, low, high
        costs.append(cost)

    # The last band is the window [lo, hi] cut to the reachable sums.
    if not np.isfinite(cost).any():
        result = SolveResult(
            status=SolveStatus.INFEASIBLE,
            solve_time_s=time.perf_counter() - start,
            backend=_BACKEND_NAME,
        )
        if cache is not None:
            cache.put(problem, token, result)
        return result
    # Backtrack from the first cheapest sum in the window.  Per DIP the pick
    # is the first candidate whose source cell plus its latency is the cell's
    # minimum: the one a strict ``<`` sweep over the candidates would have
    # recorded, since every candidate after it can only tie.
    selection: dict[DipId, int] = {}
    reached = band_lo[-1] + int(np.argmin(cost))
    for i in range(len(dips) - 1, -1, -1):
        target = costs[i][reached - band_lo[i]]
        before = costs[i - 1] if i else np.zeros(1)
        low, high = (band_lo[i - 1], band_hi[i - 1]) if i else (0, 0)
        for j, (step, latency) in enumerate(zip(units[i], dips[i].latencies_ms)):
            source = reached - step
            if low <= source <= high and before[source - low] + latency == target:
                break
        selection[dips[i].dip] = j
        reached = source

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
