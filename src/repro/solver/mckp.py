"""Multiple-choice knapsack backend for the weight-assignment problem.

Without the imbalance bound θ the Fig. 7 ILP is a multiple-choice knapsack:
one candidate per DIP, one band ``[L, U]`` on the weight sum.  A generic MILP
solver does not use that structure; this backend does (Dyer 1984 for the
linear relaxation, Pisinger 1995 for the expanding core), in four steps:

1. **LP relaxation by one sort.**  Per DIP, candidates that a heavier and no
   dearer one beats are dropped and the lower convex hull is taken; all hull
   edges are sorted by slope and walked until the weight sum reaches ``L``.
   The last slope is the multiplier λ and ``cost + λ·(L − Σw)`` at the point
   where the walk stopped is a lower bound.
2. **Incumbent.**  The LP point is rounded up and improved by best-single-move
   descent over the whole table, accepting only moves that land in the band.
3. **Expanding-core dynamic program.**  DIPs enter the core in order of their
   smallest reduced cost; a state is a (weight, cost) pair with the DIPs
   outside the core held at their LP choice.  States are pruned by the LP
   completion bound of the DIPs not yet in the core, by dominance (heavier and
   no dearer wins, which is valid for the one-sided relaxation ``Σw ≥ L``
   whose optimum bounds the band problem from below) and by cost buckets
   whose total loss stays inside :data:`GAP`.
4. **Certificate.**  When the relaxation's optimum overshoots ``U`` the band
   problem itself is solved by the same program with the only merging that is
   valid for it (equal weight, cheaper wins).  The status is ``OPTIMAL`` only
   if ``objective − lower bound ≤ GAP·|objective|``, else ``FEASIBLE``.

Effort is bounded by :data:`STATE_BUDGET` states per stage, never by the
clock, so the answer is a function of the problem alone.  Over budget the
one-sided program widens its cost buckets — the frontier is thinned evenly and
the bound pays for it, so a ``FEASIBLE`` answer still carries a proven gap
(dropping the states with the worst bounds instead lost up to 1.9 % on
tiny-target instances, widening at most 3e-4).  The band program has no such
merging; it keeps the lowest bounds (a stable sort: ties by weight order) and
remembers the best bound it dropped.  ``time_limit_s`` is a backstop read
between stages; a result it cut is ``FEASIBLE`` and is the one kind that is
not cached.

The DP's stage loop runs in :func:`repro.kernels.expand_core`, compiled.

The weight sum that is checked against the band is the left-to-right float sum
in DIP order (:attr:`SolveResult.total_weight`); no selection leaves this
module without passing that check, and there is no feasibility tolerance.

A band whose upper edge binds (the cheapest selection is too heavy) is the
same problem with the weights negated.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple

import numpy as np

from repro import kernels
from repro.core.types import left_to_right_sum
from repro.exceptions import ConfigurationError
from repro.solver.assignment import AssignmentProblem
from repro.solver.dp import SolveCache
from repro.solver.result import SolveResult, SolveStatus

_BACKEND_NAME = "mckp"

#: relative optimality gap behind ``OPTIMAL`` — HiGHS's own default
#: ``mip_rel_gap``, two orders below what a ten-point grid over fitted curves
#: resolves.  At 1e-6 the 100-DIP instances of a cold convergence carry
#: 64 000-113 000 states for 1-3.7 s each.
GAP = 1e-4
#: states kept per stage of the dynamic program.
STATE_BUDGET = 4096


class _Edges(NamedTuple):
    """Hull edges of every DIP, sorted by slope (ascending)."""

    dip: np.ndarray
    head: np.ndarray  # column of the heavier end
    dw: np.ndarray
    dc: np.ndarray


class _Band(NamedTuple):
    """The band check: a selection's weights as given (never negated), added
    left to right in DIP order (:attr:`SolveResult.total_weight`), must lie
    in ``[lo, hi]``."""

    weights: np.ndarray  # columns as the solver's sorted table
    lo: float
    hi: float

    def __call__(self, sel: np.ndarray) -> bool:
        total = left_to_right_sum(self.weights[np.arange(len(sel)), sel].tolist())
        return self.lo <= total <= self.hi


def _hull_edges(W: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, _Edges]:
    """The undominated columns of every DIP and their lower-hull edges.

    Rows of ``W`` ascend (equal weights: dearer first), so a column is
    dominated when a later one costs no more.
    """
    later = np.minimum.accumulate(C[:, ::-1], axis=1)[:, ::-1]
    pareto = np.ones(C.shape, dtype=bool)
    pareto[:, :-1] = C[:, :-1] < later[:, 1:]
    pareto[:, -1] = np.isfinite(C[:, -1])
    dips: list[int] = []
    heads: list[int] = []
    tails: list[int] = []
    for d, (ws, cs, kept) in enumerate(zip(W.tolist(), C.tolist(), pareto.tolist())):
        hull: list[int] = []
        for j in (j for j, undominated in enumerate(kept) if undominated):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                # b lies on or above the segment a -> j: not a hull vertex.
                if (cs[b] - cs[a]) * (ws[j] - ws[a]) >= (cs[j] - cs[a]) * (ws[b] - ws[a]):
                    hull.pop()
                else:
                    break
            hull.append(j)
        dips.extend([d] * (len(hull) - 1))
        tails.extend(hull[:-1])
        heads.extend(hull[1:])
    dip = np.array(dips, dtype=np.intp)
    head = np.array(heads, dtype=np.intp)
    tail = np.array(tails, dtype=np.intp)
    dw = W[dip, head] - W[dip, tail]
    dc = C[dip, head] - C[dip, tail]
    # Stable: a DIP's edges keep their (strictly increasing) slope order and
    # ties between DIPs resolve by DIP index.
    order = np.argsort(dc / dw, kind="stable")
    return pareto, _Edges(dip[order], head[order], dw[order], dc[order])


def _descend(
    sel: np.ndarray, W: np.ndarray, C: np.ndarray, lo: float, hi: float
) -> np.ndarray | None:
    """Best-single-move descent inside ``[lo, hi]``; ``None`` if never inside.

    From outside the band the move that leaves the smallest violation is
    taken (the cheapest, among those that land inside).
    """
    rows = np.arange(len(sel))
    sel = sel.copy()
    total = W[rows, sel].sum()
    while True:
        moved = total + (W - W[rows, sel][:, None])
        dc = C - C[rows, sel][:, None]
        off = np.where(np.isfinite(C), np.maximum(np.maximum(lo - moved, moved - hi), 0.0), np.inf)
        here = max(lo - total, total - hi, 0.0)
        if here > 0.0:
            closest = off.min()
            if closest >= here:
                return None
            dc = np.where(off == closest, dc, np.inf)
        else:
            dc = np.where(off == 0.0, dc, np.inf)
        move = int(dc.argmin())
        if here == 0.0 and dc.flat[move] >= 0.0:
            return sel
        sel[move // W.shape[1]] = move % W.shape[1]
        # The sum the move was judged by, not a fresh one that may round
        # to the other side of a band edge.
        total = moved.flat[move]


def _expand_core(
    W: np.ndarray,
    C: np.ndarray,
    base: np.ndarray,
    order: np.ndarray,
    edges: _Edges,
    taken: int,
    lo: float,
    deadline: float | None,
    hi: float,
    usable: np.ndarray,
    incumbent: float,
    bucket: float | None,
    accept: _Band | None,
) -> tuple[np.ndarray | None, float, int, bool]:
    """The dynamic program over (weight, cost) states, one DIP per stage.

    DIPs outside the core sit at ``base``; ``edges[:taken]`` are the hull
    edges left of it, the rest right of it; ``usable`` marks the columns a
    stage tries.  ``bucket`` is the starting cost-bucket width of the
    one-sided program (heavier and no dearer wins); ``None`` selects the band
    program, which merges equal weights only.  Incumbents must pass
    ``accept`` where it is given.

    Returns the best selection found that beats ``incumbent`` (or ``None``),
    a lower bound on the program's optimum, the number of states kept and
    whether the clock cut the search.

    The set-up is numpy; the stage loop runs in
    :func:`repro.kernels.expand_core`.
    """
    n = len(base)
    rows = np.arange(n)
    dW = W - W[rows, base][:, None]
    dC = C - C[rows, base][:, None]
    stage_of = np.empty(n, dtype=np.intp)
    stage_of[order] = rows
    edge_stage = stage_of[edges.dip]
    # How much lighter the DIPs after each stage can still make a state.
    shed = -np.where(usable, dW, np.inf).min(axis=1)[order]
    shed_after = shed[::-1].cumsum()[::-1] - shed

    # Rounding in the running sums must not hide a selection: states are
    # tested with this slack, and ``accept`` (the exact sum) decides.
    slack = 1e-12 * max(1.0, abs(lo))
    found = np.empty(n, dtype=np.intp)
    hit, lower, states, cut = kernels.expand_core(
        dW, dC, usable, base, order, edge_stage, edges.dw, edges.dc, taken, shed_after,
        W[rows, base].sum(), C[rows, base].sum(), lo, hi, slack, deadline, incumbent,
        bucket, accept, GAP, STATE_BUDGET, found,
    )
    return (found if hit else None), lower, states, cut


def _search(
    problem: AssignmentProblem, deadline: float | None
) -> tuple[list[int] | None, float, int, bool]:
    """The chosen candidate index per DIP (``None``: no selection in the band).

    Also a lower bound on the band problem's optimum, the number of states
    kept and whether the outcome is settled: the clock did not cut the search
    and, where no selection was found, no state was dropped either.
    """
    W, C = problem.weights, problem.costs  # a DIP's padding is inf in both
    n = len(W)
    rows = np.arange(n)
    given = W
    band_lo = problem.total_weight - problem.total_weight_tolerance
    band_hi = problem.total_weight + problem.total_weight_tolerance
    lo, hi = band_lo, band_hi
    cheapest = C == C.min(axis=1, keepdims=True)
    # Reachability is judged by the left-to-right sum ``in_band`` accepts by,
    # not numpy's pairwise ``sum``, which can round across a zero-width band.
    if np.add.accumulate(np.where(cheapest, W, np.inf).min(axis=1))[-1] > hi:
        # The upper edge binds: the same problem with the weights negated.
        W, lo, hi = -W, -band_hi, -band_lo
    # Ascending weight, dearer first among equals; padding sorts last.
    perm = np.lexsort((-C, np.where(np.isfinite(C), W, np.inf)), axis=1)
    W = np.take_along_axis(W, perm, axis=1)
    C = np.take_along_axis(C, perm, axis=1)
    W[~np.isfinite(C)] = 0.0
    in_band = _Band(np.take_along_axis(given, perm, axis=1), band_lo, band_hi)

    def chosen(sel: np.ndarray) -> list[int]:
        return perm[rows, sel].tolist()

    def cost(sel: np.ndarray | None) -> float:
        return np.inf if sel is None else float(C[rows, sel].sum())

    def polish(sel: np.ndarray) -> np.ndarray | None:
        sel = _descend(sel, W, C, lo, hi)
        return sel if sel is not None and in_band(sel) else None

    # (1) LP relaxation of ``sum(w) >= lo``: walk the hull edges by slope.
    pareto, edges = _hull_edges(W, C)
    base = pareto.argmax(axis=1)
    lightest = np.add.accumulate(W[rows, base])[-1]
    reach = lightest + edges.dw.cumsum()
    taken = 0 if lightest >= lo else int(np.searchsorted(reach, lo)) + 1
    if taken > len(reach):
        return None, np.inf, 0, True
    rounded = base.copy()
    np.maximum.at(rounded, edges.dip[:taken], edges.head[:taken])
    lam = 0.0
    if taken:
        # The last edge taken is the fractional one: ``base`` stops short of it.
        taken -= 1
        lam = float(edges.dc[taken] / edges.dw[taken])
        np.maximum.at(base, edges.dip[:taken], edges.head[:taken])
    lower = float(C[rows, base].sum() + lam * (lo - W[rows, base].sum()))

    # (2) Incumbent: the rounded LP point, walked into the band and polished.
    in_reach = polish(rounded)
    best = in_reach if cost(in_reach) <= cost(rounded) else rounded
    states, settled = 0, True

    def gap_is_open(sel: np.ndarray | None) -> bool:
        return sel is None or cost(sel) - lower > GAP * cost(sel)

    # (3) Core DP on the one-sided relaxation, DIPs by smallest reduced cost.
    reduced = (C - C[rows, base][:, None]) - lam * (W - W[rows, base][:, None])
    reduced[rows, base] = np.inf
    order = np.argsort(reduced.min(axis=1), kind="stable")
    expand = functools.partial(_expand_core, W, C, base, order, edges, taken, lo, deadline)
    if gap_is_open(best):
        found, bound, states, cut = expand(np.inf, pareto, cost(best), GAP / 2 * lower / n, None)
        best = best if found is None else found
        lower = max(lower, bound)
        settled = not cut
    if in_band(best):
        return chosen(best), lower, states, settled

    # (4) The relaxation's optimum overshoots the band: solve the band itself.
    walked = polish(best)
    best = walked if cost(walked) < cost(in_reach) else in_reach
    if settled and gap_is_open(best):
        # Every column but those another of the same weight undercuts.
        distinct = np.isfinite(C)
        distinct[:, :-1] &= (W[:, :-1] != W[:, 1:]) | ~distinct[:, 1:]
        found, bound, more, cut = expand(hi, distinct, cost(best), None, in_band)
        best = best if found is None else found
        lower = max(lower, bound)
        states += more
        # With no selection, infeasibility is proven when no state was dropped.
        settled = not cut and (best is not None or np.isinf(bound))
    return (None if best is None else chosen(best)), lower, states, settled


def solve_mckp(
    problem: AssignmentProblem,
    *,
    time_limit_s: float | None = None,
    cache: SolveCache | None = None,
) -> SolveResult:
    """Solve to within :data:`GAP` by LP relaxation, descent and a core DP.

    ``cache`` memoizes every result the state budget produced (they are
    functions of the problem); a result cut by ``time_limit_s`` is not stored.
    """
    if problem.theta is not None:
        raise ConfigurationError("the mckp backend does not support a finite theta")
    token = (_BACKEND_NAME,)
    if cache is not None:
        cached = cache.get(problem, token)
        if cached is not None:
            return cached
    start = time.perf_counter()
    deadline = start + time_limit_s if time_limit_s is not None else None
    chosen, lower, states, settled = _search(problem, deadline)
    if chosen is None:
        result = SolveResult(
            status=SolveStatus.INFEASIBLE if settled else SolveStatus.TIMEOUT,
            solve_time_s=time.perf_counter() - start,
            backend=_BACKEND_NAME,
            nodes_explored=states,
        )
    else:
        selection = dict(zip(problem.dip_ids(), chosen))
        weights = problem.weights_of(selection)
        objective = problem.objective_of(selection)
        lower = float(min(lower, objective))
        certified = settled and objective - lower <= GAP * abs(objective)
        result = SolveResult(
            status=SolveStatus.OPTIMAL if certified else SolveStatus.FEASIBLE,
            objective_ms=objective,
            weights=weights,
            selection=selection,
            solve_time_s=time.perf_counter() - start,
            backend=_BACKEND_NAME,
            overloaded_dips=problem.overloaded_dips(weights),
            nodes_explored=states,
            lower_bound_ms=lower,
        )
    if cache is not None and settled:
        cache.put(problem, token, result)
    return result
