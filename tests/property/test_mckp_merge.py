"""The ``mckp`` core DP's stage order: a stable merge against the lexsort.

Each stage of ``_expand_core`` orders its states heaviest first and keeps, of
every exact-weight tie, only the state either program can keep: the cheapest
(the first of equally cheap ones).  It used to get there with one
``np.lexsort`` of (cost, -weight) per stage; it now merges the descending
column runs with a stable sort and picks each tie's representative.
:func:`expand_core_lexsort` is the DP as it was, kept verbatim as the oracle
(renamed).  Status, selection, lower bound and states kept must be identical
on problems whose ties are structural — DIPs sharing one grid and a few
latency levels — through the one-sided and the band program, and on the
instances a cold convergence builds, some of which overrun
:data:`~repro.solver.mckp.STATE_BUDGET`.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ilp as ilp
import repro.solver.mckp as mckp
from repro import api
from repro.core.config import IlpConfig
from repro.core.ilp import build_assignment_problem
from repro.experiments.ilp_scale import f_series_like_curve
from repro.solver import AssignmentProblem, DipCandidates, SolveStatus, solve_mckp
from repro.solver.mckp import GAP, STATE_BUDGET, _Edges


def expand_core_lexsort(
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
    accept: Callable[[np.ndarray], bool] | None,
) -> tuple[np.ndarray | None, float, int, bool]:
    n = len(base)
    rows = np.arange(n)
    dW = W - W[rows, base][:, None]
    dC = C - C[rows, base][:, None]
    stage_of = np.empty(n, dtype=np.intp)
    stage_of[order] = rows
    edge_stage = stage_of[edges.dip]
    left = np.arange(len(edge_stage)) < taken
    # How much lighter the DIPs after each stage can still make a state.
    shed = -np.where(usable, dW, np.inf).min(axis=1)[order]
    shed_after = shed[::-1].cumsum()[::-1] - shed

    # Rounding in the running sums must not hide a selection: states are
    # tested with this slack, and ``accept`` (the exact sum) decides.
    slack = 1e-12 * max(1.0, abs(lo))
    w = np.array([W[rows, base].sum()])
    c = np.array([C[rows, base].sum()])
    trail: list[tuple[np.ndarray, np.ndarray]] = []
    best: np.ndarray | None = None
    best_cost, dropped, states, loss = incumbent, np.inf, 0, 0.0
    for s, d in enumerate(order.tolist()):
        if deadline is not None and time.perf_counter() > deadline:
            return best, -np.inf, states, True
        cols = np.flatnonzero(usable[d])
        cw = (dW[d, cols, None] + w).ravel()
        cc = (dC[d, cols, None] + c).ravel()
        # LP completion by the DIPs still outside the core: climb their right
        # edges when the state is short of ``lo``, shed along their left
        # edges (steepest first) when it is past it.
        outside = edge_stage > s
        up, down = outside & ~left, np.flatnonzero(outside & left)[::-1]
        xs = np.concatenate((-edges.dw[down].cumsum()[::-1], [0.0], edges.dw[up].cumsum()))
        ys = np.concatenate((-edges.dc[down].cumsum()[::-1], [0.0], edges.dc[up].cumsum()))
        bound = cc + np.interp(lo - cw, xs, ys, right=np.inf)

        done = np.flatnonzero((cw >= lo - slack) & (cw <= hi + slack) & (cc < best_cost))
        for i in done[np.argsort(cc[done], kind="stable")].tolist():
            sel = base.copy()
            sel[d] = cols[i // len(w)]
            p = i % len(w)
            for t in range(s - 1, -1, -1):
                parents, items = trail[t]
                sel[order[t]] = items[p]
                p = parents[p]
            if accept is None or accept(sel):
                best, best_cost = sel, float(cc[i])
                break

        keep = np.flatnonzero(
            (bound < best_cost * (1.0 - GAP / 2)) & (cw - shed_after[s] <= hi + slack)
        )
        # DIPs with the same grid make exact weight ties structural, so the
        # order inside a tie (cheapest first) decides how much dominance sees.
        by_weight = keep[np.lexsort((cc[keep], -cw[keep]))]
        first = np.ones(len(keep), dtype=bool)
        if bucket is None:
            first[1:] = np.diff(cw[by_weight]) != 0.0
            keep = by_weight[first]
            if len(keep) > STATE_BUDGET:
                cut = np.argpartition(bound[keep], STATE_BUDGET)
                dropped = min(dropped, float(bound[keep[cut[STATE_BUDGET:]]].min()))
                keep = keep[cut[:STATE_BUDGET]]
        else:
            # Over budget the buckets widen (and stay wide): the frontier is
            # thinned evenly and what that can cost is known, where dropping
            # the states with the worst bounds could cost anything.
            while True:
                level = np.floor(cc[by_weight] / bucket) if bucket > 0.0 else cc[by_weight]
                first[1:] = level[1:] < np.minimum.accumulate(level)[:-1]
                if first.sum() <= STATE_BUDGET:
                    break
                bucket = max(2.0 * bucket, GAP / 2 * best_cost / n)
            keep = by_weight[first]
            loss += bucket
        if not len(keep):
            break
        trail.append((keep % len(w), cols[keep // len(w)]))
        w, c = cw[keep], cc[keep]
        states += len(keep)

    lower = min(best_cost * (1.0 - GAP / 2), dropped) - loss
    return best, lower, states, False


def verdict(problem: AssignmentProblem) -> tuple:
    result = solve_mckp(problem)
    return result.status, result.selection, result.lower_bound_ms, result.nodes_explored


def solved_alike(problem: AssignmentProblem) -> tuple[tuple, list[bool]]:
    """The verdict, equal under both stage orders, and the programs the
    merge ran (True for the band program)."""
    merged, programs = mckp._expand_core, []

    def recording(*args):
        programs.append(args[11] is None)  # ``bucket``
        return merged(*args)

    try:
        mckp._expand_core = recording
        ours = verdict(problem)
        mckp._expand_core = expand_core_lexsort
        assert verdict(problem) == ours
    finally:
        mckp._expand_core = merged
    return ours, programs


@st.composite
def tie_heavy_problems(draw) -> AssignmentProblem:
    """DIPs on one grid of 64ths, their latencies from a few shared rows."""
    count = draw(st.integers(2, 5))
    grid = tuple(sorted(draw(st.lists(st.integers(0, 64), min_size=count, max_size=count,
                                      unique=True))))
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    rows = draw(st.lists(st.lists(levels, min_size=count, max_size=count), min_size=1,
                         max_size=3))
    num_dips = draw(st.integers(2, 40))
    dips = tuple(
        DipCandidates(f"d{d}", tuple(g / 64 for g in grid), tuple(rows[d % len(rows)]))
        for d in range(num_dips)
    )
    reachable = sum(draw(st.sampled_from(grid)) for _ in range(num_dips)) / 64
    total = draw(st.one_of(st.just(reachable), st.integers(1, 32 * num_dips).map(lambda k: k / 64)))
    total = total + draw(st.sampled_from([0.0, 1 / 128])) or 1 / 128
    return AssignmentProblem(
        dips=dips,
        total_weight=total,
        total_weight_tolerance=draw(st.sampled_from([0.0, 1 / 256, 1 / 128])),
    )


@settings(max_examples=150, deadline=None)
@given(tie_heavy_problems())
def test_tie_heavy_problems_are_solved_alike(problem):
    solved_alike(problem)


def test_a_band_program_on_ties():
    # 24 identical DIPs whose cheapest selection past the band's lower edge
    # overshoots it: the band program solves the band itself.
    problem = AssignmentProblem(
        dips=tuple(
            DipCandidates(f"d{d}", (0.140625, 0.6875, 0.96875), (2.0, 2.0, 1.0))
            for d in range(24)
        ),
        total_weight=11.9140625,
        total_weight_tolerance=0.0078125,
    )
    (status, *_), programs = solved_alike(problem)
    assert status is SolveStatus.OPTIMAL
    assert programs == [False, True]


def test_identical_dip_pools():
    curve = f_series_like_curve(100)
    for objective in ("sum_latency", "request_weighted"):
        problem = build_assignment_problem(
            {f"d{i}": curve for i in range(100)}, config=IlpConfig(objective=objective)
        )
        (status, *_), _ = solved_alike(problem)
        assert status is SolveStatus.OPTIMAL


def test_cold_convergences_past_the_state_budget(monkeypatch):
    problems: list[AssignmentProblem] = []
    original = ilp.solve

    def recording(problem, **kwargs):
        problems.append(problem)
        return original(problem, **kwargs)

    monkeypatch.setattr(ilp, "solve", recording)
    for seed in (17, 33):
        api.run(
            api.ExperimentSpec.from_dict(
                {
                    "name": "cold_100",
                    "runner": "fluid",
                    "seed": seed,
                    "pool": {"kind": "mixed_core", "num_dips": 100},
                    "workload": {"load_fraction": 0.7},
                    "policy": {"name": "wrr"},
                    "controller": {"enabled": True, "settle_steps": 0},
                }
            )
        )
    monkeypatch.setattr(ilp, "solve", original)
    statuses = [solved_alike(problem)[0][0] for problem in problems]
    # The budget widened the buckets of some one-sided programs.
    assert SolveStatus.FEASIBLE in statuses
