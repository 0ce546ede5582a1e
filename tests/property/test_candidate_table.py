"""A problem built from the candidate table is the one built from candidates.

``build_assignment_problem`` hands its (n, k) weight and cost arrays to
``AssignmentProblem.from_table``; ``dp`` and ``mckp`` read those arrays and
``scipy`` / ``branch_and_bound`` / ``greedy`` read the ``DipCandidates``
view derived from them.  For every backend, a table-built problem must give
the same :class:`SolveResult` (bar its wall-clock time) as the same problem
built from ``DipCandidates``; the two must be equal and hash alike (the
solve cache keys on them); and a table the candidates would refuse must be
refused with the same message.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.solver import (
    AssignmentProblem,
    DipCandidates,
    SolveCache,
    available_backends,
    solve,
)


def from_candidates(ids, weights, costs, w_max, **band) -> AssignmentProblem:
    return AssignmentProblem(
        dips=tuple(
            DipCandidates(dip=dip, weights=tuple(w), latencies_ms=tuple(c), w_max=top)
            for dip, w, c, top in zip(ids, weights.tolist(), costs.tolist(), w_max)
        ),
        **band,
    )


def outcome(result):
    return dataclasses.replace(result, solve_time_s=0.0)


@st.composite
def tables(draw):
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = draw(st.booleans())
    weights = np.array(
        [
            sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
            if grid
            else draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
            for _ in range(n)
        ]
    )
    costs = np.array(
        [draw(st.lists(st.floats(0.0, 50.0), min_size=k, max_size=k)) for _ in range(n)]
    )
    w_max = tuple(draw(st.one_of(st.none(), st.floats(0.01, 1.0))) for _ in range(n))
    band = {
        "total_weight": draw(st.floats(0.2, 1.5)),
        "total_weight_tolerance": draw(st.sampled_from([0.0, 0.01, 0.05])),
        "theta": draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
    }
    return tuple(f"d{i}" for i in range(n)), weights, costs, w_max, band


@settings(max_examples=60, deadline=None)
@given(tables())
@example(
    (
        ("a", "b"),
        np.array([[0.2, 0.4, 0.6], [0.2, 0.4, 0.6]]),
        np.array([[1.0, 2.0, 4.0], [2.0, 6.0, 14.0]]),
        (0.8, None),
        {"total_weight": 1.0, "total_weight_tolerance": 0.01, "theta": None},
    )
)
def test_every_backend_solves_the_table_as_the_candidates(table):
    ids, weights, costs, w_max, band = table
    built = AssignmentProblem.from_table(ids, weights.copy(), costs.copy(), w_max, **band)
    handmade = from_candidates(ids, weights, costs, w_max, **band)
    assert built == handmade and hash(built) == hash(handmade)
    assert built.dips == handmade.dips
    assert built.weight_bounds() == handmade.weight_bounds()
    cache = SolveCache()
    for backend in available_backends():
        if band["theta"] is not None and backend in ("dp", "mckp"):
            continue
        got = solve(built, backend=backend, cache=cache)
        assert outcome(got) == outcome(solve(handmade, backend=backend)), backend
        # The cache cannot tell them apart either.
        assert outcome(solve(handmade, backend=backend, cache=cache)) == outcome(got)


#: (table, row, column, value) of each bad cell; the last two put a bad
#: weight beside a bad cost, in a later row (the earlier row's cost is
#: named) and in the same row (its weight is named).
BAD = [
    [("weight", 0, 1, math.nan)],
    [("weight", 1, 0, 1.5)],
    [("weight", 0, 2, -0.25)],
    [("cost", 1, 2, -1.0)],
    [("cost", 0, 0, math.inf)],
    [("cost", 1, 1, math.nan)],
    [("cost", 0, 1, -2.0), ("weight", 1, 0, 2.0)],
    [("cost", 1, 0, math.inf), ("weight", 1, 2, 2.0)],
]


@pytest.mark.parametrize("cells", BAD)
def test_a_bad_table_is_refused_as_the_candidates_refuse_it(cells):
    weights = np.array([[0.1, 0.2, 0.3], [0.3, 0.4, 0.5]])
    costs = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
    for which, row, col, value in cells:
        (weights if which == "weight" else costs)[row, col] = value
    ids = ("a", "b")
    with pytest.raises(ConfigurationError) as handmade:
        from_candidates(ids, weights, costs, (None, None))
    with pytest.raises(ConfigurationError) as built:
        AssignmentProblem.from_table(ids, weights, costs, (None, None))
    assert str(built.value) == str(handmade.value)


@pytest.mark.parametrize(
    "ids, band",
    [
        (("a", "a"), {}),
        (("a", "b"), {"total_weight": math.nan}),
        (("a", "b"), {"total_weight_tolerance": math.inf}),
        (("a", "b"), {"theta": -1.0}),
    ],
)
def test_the_problem_rules_read_the_same(ids, band):
    weights = np.array([[0.1, 0.2], [0.3, 0.4]])
    costs = np.array([[1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(ConfigurationError) as handmade:
        from_candidates(ids, weights, costs, (None, None), **band)
    with pytest.raises(ConfigurationError) as built:
        AssignmentProblem.from_table(ids, weights, costs, (None, None), **band)
    assert str(built.value) == str(handmade.value)

