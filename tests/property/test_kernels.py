"""Differential tests: the compiled kernels against their Python bodies.

:mod:`repro.kernels` binds ``walk`` (the station walk), ``smooth_wrr`` (the
smooth-WRR pick), ``station_stats`` (a station's busy integrals),
``band_dp`` (the ``dp`` solver's DP), ``bisect_bank`` (the §4.5 curve
inversion) and ``expand_core`` (the ``mckp`` solver's core DP) to a C module
built from ``src/repro/_kernels.c``, or fails to import.  The functions of
the same names in ``tests/oracles/kernels.py`` are the oracle, bound in the
kernels' place by :func:`oracles.bound`.  Every output array, every piece
of walk state and every returned number must be the same bytes on both,
however the stream is sliced, wherever the unit draws run dry, whatever the
weights and wherever the events or the candidates tie; and a run's artifact
must not change with every oracle bound.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import KERNELS, bound
from oracles import kernels as reference
from test_dp_band import full_table_dp, outcome, problems
from test_mckp import COLD_100, small_problems
from test_mckp_merge import tie_heavy_problems
from test_properties import bisection_oracle
from test_station_walk import heap_station_stats

import repro.core.ilp as ilp
import repro.solver.mckp as mckp
from repro import api, kernels
from repro.backends import DipServer, custom_vm_type
from repro.core.curve import WeightLatencyCurve, _bank, predict_curves, weights_for_latencies
from repro.solver import AssignmentProblem, DipCandidates, SolveStatus, solve_dp, solve_mckp
from repro.sim.engine import EventScheduler
from repro.sim.queueing import (
    SERVICE_BATCH,
    DipStation,
    StationWalk,
    replay_stations,
    simulate_station,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = REPO_ROOT / "benchmarks" / "observatory" / "workloads"
_INF = float("inf")

COMPILED = kernels._compiled()


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the walk ------------------------------------------------------------------------


def walk_state(walk: StationWalk) -> tuple:
    return (
        walk._free.tobytes(),
        walk._ring.tobytes(),
        walk._pos,
        walk._units[walk._cursor :].tobytes(),
        np.float64(walk.busy_seconds).tobytes(),
        walk._arrivals.tobytes(),
        walk._departures.tobytes(),
    )


@st.composite
def walk_cases(draw):
    servers = draw(st.sampled_from([1, 2, 3, 8]))
    size = draw(st.integers(1, 1500))
    grid = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    load = draw(st.floats(0.3, 1.6))
    rng = np.random.default_rng(seed)
    if grid:
        # Gaps of 0, 1/8 or 1/4: ties between arrivals and departures.
        arrivals = np.cumsum(rng.integers(0, 3, size)) / 8.0
        mean = max(1, round(load * servers)) / 8.0
    else:
        mean = 0.01
        arrivals = np.cumsum(rng.exponential(mean / (load * servers), size))
    return {
        "servers": servers,
        "queue_capacity": draw(st.sampled_from([0, 1, 2, 7, 256])),
        "arrivals": arrivals,
        "mean": mean,
        "grid": grid,
        "aligned": draw(st.booleans()),
        "seed": seed,
        "until": draw(
            st.sampled_from([_INF, float(arrivals[-1]), float(arrivals[size // 2])])
        ),
        "slices": draw(st.integers(1, 40)),
        "factor": draw(st.sampled_from([0.5, 1.0, 3.0])),
        "prefill": draw(st.integers(0, SERVICE_BATCH)),
    }


def unit_draw(seed: int, grid: bool):
    rng = np.random.default_rng(seed)
    if grid:
        return lambda n: rng.integers(0, 5, n) / 2.0
    return rng.standard_exponential


def drive(case) -> tuple[list, tuple, object]:
    """Feed a case's stream to a walk in slices; every departure column,
    every barrier count, the end state and the outcome."""
    arrivals, mean, until = case["arrivals"], case["mean"], case["until"]
    parts = [p for p in np.array_split(np.arange(arrivals.size), case["slices"]) if p.size]
    if case["aligned"]:
        services = unit_draw(case["seed"], case["grid"])(arrivals.size) * mean
        walk = StationWalk(case["servers"], case["queue_capacity"])
    else:
        services = None
        draw = unit_draw(case["seed"], case["grid"])
        # A part-used buffer, reversed as DipStation keeps it.
        buf = draw(SERVICE_BATCH)[::-1].tolist()[: case["prefill"]]
        walk = StationWalk(
            case["servers"], case["queue_capacity"], draw=draw, mean=mean, buf=buf
        )
    seen = []
    for number, part in enumerate(parts):
        if number == len(parts) // 2:
            walk.mean = mean * case["factor"]  # a capacity change between slices
        departures = walk.advance(
            arrivals[part], None if services is None else services[part], until=until
        )
        last = float(arrivals[part[-1]])
        barriers = [walk.in_system(t) for t in (last, last + mean / 3, last + 2 * mean)]
        seen.append((departures.tobytes(), barriers))
    outcome = walk.outcome(measure_from=float(arrivals[arrivals.size // 3]), until=until,
                           account=True)
    return seen, walk_state(walk), outcome


@settings(max_examples=200, deadline=None)
@given(walk_cases())
def test_the_compiled_walk_is_the_python_walk(case):
    compiled = drive(case)
    with bound():
        python = drive(case)
    assert compiled[0] == python[0]
    assert compiled[1] == python[1]
    ours, theirs = compiled[2], python[2]
    for column in ("latency_ms", "completed", "timestamp"):
        assert same_bytes(getattr(ours, column), getattr(theirs, column)), column
    assert (ours.submitted, ours.dropped, ours.stats) == (
        theirs.submitted, theirs.dropped, theirs.stats
    )
    assert np.float64(ours.busy_seconds).tobytes() == np.float64(theirs.busy_seconds).tobytes()


@st.composite
def raw_walk_calls(draw):
    """One kernel call from an arbitrary reachable-looking state: a valid
    heap, a sorted ring, a short unit buffer that may run dry mid-call."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    servers = draw(st.integers(1, 9))
    lag = draw(st.sampled_from([0, 1, 3, 16]))
    size = draw(st.integers(0, 200))
    arrivals = np.cumsum(rng.exponential(0.3 / servers, size)) + 1.0
    free = np.sort(rng.uniform(0.0, 2.0, servers))  # sorted is a heap
    starts = np.sort(rng.uniform(0.0, 2.5, lag))
    starts[: draw(st.integers(0, lag))] = -_INF
    pos = draw(st.integers(0, max(0, lag - 1)))
    ring = np.roll(starts, pos)  # oldest at ``pos``
    aligned = draw(st.booleans())
    if aligned:
        draws = rng.exponential(0.5, size)
        j = 0
    else:
        draws = rng.standard_exponential(draw(st.integers(0, 64)))
        j = draw(st.integers(0, draws.size))
    until = draw(st.sampled_from([_INF, float(arrivals[size // 2]) if size else 1.5]))
    scale = 1.0 if aligned else draw(st.sampled_from([0.25, 0.1, 1.0 / 3.0]))
    return arrivals, free, ring, pos, draws, j, scale, aligned, until


@settings(max_examples=300, deadline=None)
@given(raw_walk_calls(), st.integers(0, 50))
def test_one_kernel_call_is_the_python_loop(call, start):
    arrivals, free, ring, pos, draws, j, scale, aligned, until = call
    i = min(start, arrivals.size) if not aligned else 0
    results = []
    for walk in (COMPILED.walk, reference.walk):
        departures = np.full(arrivals.size, 7.0)
        state = (free.copy(), ring.copy())
        out = walk(arrivals, departures, i, state[0], state[1], pos, draws, j, scale,
                   aligned, until, 0.125)
        results.append((out, departures.tobytes(), state[0].tobytes(), state[1].tobytes()))
    (ours, *ours_arrays), (theirs, *their_arrays) = results
    assert ours[:3] == theirs[:3]
    assert np.float64(ours[3]).tobytes() == np.float64(theirs[3]).tobytes()
    assert ours_arrays == their_arrays
    if not aligned and ours[0] < arrivals.size:
        assert ours[1] == draws.size  # it stopped for a refill, nothing else


def test_the_compiled_walk_refuses_what_it_cannot_read():
    walk, arrivals = COMPILED.walk, np.arange(3.0)
    with pytest.raises(TypeError, match="float64"):
        walk(arrivals.astype(np.float32), np.empty(3), 0, np.zeros(1), np.zeros(0),
             0, np.ones(3), 0, 1.0, True, _INF, 0.0)
    with pytest.raises(ValueError):  # services not aligned
        walk(arrivals, np.empty(3), 0, np.zeros(1), np.zeros(0), 0, np.ones(2), 0,
             1.0, True, _INF, 0.0)
    with pytest.raises(ValueError):  # a ring position out of range
        walk(arrivals, np.empty(3), 0, np.zeros(1), np.zeros(2), 2, np.ones(3), 0,
             1.0, True, _INF, 0.0)


def test_float32_strided_services_walk_as_their_float64_copy():
    rng = np.random.default_rng(5)
    arrivals = np.cumsum(rng.exponential(0.004, 3000))
    wide = rng.exponential(0.01, 2 * arrivals.size).astype(np.float32)
    services = wide[::2]  # float32 and not contiguous
    assert not services.flags.c_contiguous
    how = {"servers": 2, "queue_capacity": 4, "account": True}
    ours = simulate_station(arrivals, services, **how)
    theirs = simulate_station(arrivals, services.astype(np.float64), **how)
    for column in ("latency_ms", "completed", "timestamp"):
        assert same_bytes(getattr(ours, column), getattr(theirs, column))
    assert ours.dropped == theirs.dropped > 0
    assert (ours.busy_seconds, ours.stats) == (theirs.busy_seconds, theirs.stats)
    walk = StationWalk(2, 4)
    walk.advance(arrivals[::2].astype(np.float32), services[::2])
    copy = StationWalk(2, 4)
    copy.advance(
        arrivals[::2].astype(np.float32).astype(np.float64),
        services[::2].astype(np.float64),
    )
    assert walk_state(walk) == walk_state(copy)


@pytest.mark.parametrize("queue_capacity", [0, 3, 256])
@pytest.mark.parametrize("used", [0, 100, SERVICE_BATCH])
def test_a_replay_hands_the_draw_buffer_back(queue_capacity, used):
    vm = custom_vm_type("kernel-2core", vcpus=2, capacity_rps=800.0, idle_latency_ms=2.5)
    rng = np.random.default_rng(queue_capacity + used)
    arrivals = np.cumsum(rng.exponential(1.0 / 900.0, 4000))

    def replayed():
        station = DipStation(
            DipServer("d", vm, seed=3, jitter_fraction=0.0),
            EventScheduler(),
            queue_capacity=queue_capacity,
            seed=11,
            completion_sink=lambda request: None,
        )
        # A buffer the event loop took ``used`` draws from before the replay
        # (reversed: the next draw is the last entry).
        buf = station._svc_draw(SERVICE_BATCH)[::-1].tolist()
        station._svc_buf = buf[: len(buf) - used]
        departures = replay_stations(
            [station], arrivals, [arrivals.size], until=float(arrivals[-1])
        )
        return (
            departures.tobytes(),
            station.stats,
            station._svc_buf,
            station._rng.bit_generator.state,
        )

    compiled = replayed()
    with bound():
        python = replayed()
    assert compiled == python
    assert isinstance(compiled[2], list)


# -- the busy integrals --------------------------------------------------------------


@st.composite
def station_events(draw):
    """A station's events as ``station_stats`` takes them: sorted arrivals,
    which were admitted, the sorted completed departures, the servers and
    the close."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    size = draw(st.integers(0, 400))
    servers = draw(st.sampled_from([1, 2, 8]))
    if draw(st.booleans()):
        # A dyadic grid: departures land exactly on arrivals and on the close.
        arrivals = np.sort(rng.integers(0, 80, size)) / 4.0
        departures = arrivals + rng.integers(0, 8, size) / 4.0
    else:
        arrivals = np.sort(rng.uniform(0.0, 20.0, size))
        departures = arrivals + rng.exponential(2.0 / servers, size)
    admitted = rng.random(size) < draw(st.sampled_from([1.0, 0.9, 0.4]))  # drops
    closes = [_INF, 10.0, 0.0]
    if size:  # on the last arrival, and before it
        closes += [float(arrivals[-1]), float(arrivals[size // 2])]
    until = draw(st.sampled_from(closes))
    departures = np.sort(departures[admitted & (departures <= until)])
    return arrivals, admitted, departures, servers, until


@settings(max_examples=300, deadline=None)
@given(station_events())
def test_the_compiled_integrals_are_the_python_merge_and_the_sort(case):
    arrivals, admitted, departures, servers, until = case
    ours = np.array(COMPILED.station_stats(*case))
    assert same_bytes(ours, reference.station_stats(*case))
    if arrivals.size or until < _INF:
        oracle = heap_station_stats(
            arrivals, departures.copy(), admitted, servers=servers, until=until
        )
        expected = [oracle.busy_time_s, oracle.busy_worker_seconds]
    else:  # no event to integrate over (the sort's oracle cannot close it)
        expected = [0.0, 0.0]
    assert same_bytes(ours, expected)


@pytest.mark.parametrize("until", [_INF, 0.0, 2.5])
def test_an_empty_station_integrates_to_zero(until):
    empty = (np.empty(0), np.empty(0, dtype=bool), np.empty(0), 2, until)
    for station_stats in (reference.station_stats, COMPILED.station_stats):
        assert same_bytes(np.array(station_stats(*empty)), np.zeros(2))


def test_the_compiled_integrals_refuse_what_they_cannot_read():
    station_stats, arrivals = COMPILED.station_stats, np.arange(3.0)
    admitted = np.ones(3, dtype=bool)
    with pytest.raises(TypeError, match="float64"):
        station_stats(arrivals.astype(np.float32), admitted, arrivals, 1, _INF)
    with pytest.raises(TypeError, match="bool"):
        station_stats(arrivals, admitted.view(np.uint8), arrivals, 1, _INF)
    with pytest.raises(ValueError):  # admissions not aligned with the arrivals
        station_stats(arrivals, admitted[:2], arrivals, 1, _INF)


# -- the band DP -----------------------------------------------------------------------


@st.composite
def band_dp_calls(draw):
    """One kernel call: DIPs of unequal candidate counts padded past ``hi``,
    units on a small grid (duplicates, candidates past ``hi``, windows out of
    reach), latencies from a few values (ties) or any finite ones."""
    num_dips = draw(st.integers(1, 7))
    hi = draw(st.integers(1, 60))
    lo = draw(st.sampled_from([0, max(0, hi - 2), hi, draw(st.integers(0, hi))]))
    counts = [draw(st.integers(1, 6)) for _ in range(num_dips)]
    k = max(counts)
    units = np.full((num_dips, k), hi + 1, dtype=np.int64)
    latencies = np.zeros((num_dips, k))
    values = draw(st.sampled_from([
        st.sampled_from([0.0, -0.0, 1.0, 2.5]),
        st.floats(0.0, 1e4),
        st.floats(0.0, 1e308),  # sums that overflow to inf
    ]))
    for i, count in enumerate(counts):
        units[i, :count] = draw(st.lists(st.integers(0, hi + 5), min_size=count, max_size=count))
        latencies[i, :count] = draw(st.lists(values, min_size=count, max_size=count))
    return units, latencies, k, lo, hi


def read_only(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array.flags.writeable = False
    return array


def run_band_dp(band_dp, call):
    units, latencies, k, lo, hi = call
    selection = np.full(len(units), -1, dtype=np.int64)
    return band_dp(units, latencies, k, lo, hi, selection), selection.tobytes()


@settings(max_examples=400, deadline=None)
@given(band_dp_calls())
# One DIP whose two candidates reach the window at one cost.
@example((np.array([[3, 5]]), np.array([[1.0, 1.0]]), 2, 3, 5))
def test_the_compiled_band_dp_is_the_python_band_dp(call):
    with np.errstate(over="ignore"):  # latencies near 1e308 add up to inf
        python = run_band_dp(reference.band_dp, call)
    assert run_band_dp(COMPILED.band_dp, call) == python


@settings(max_examples=200, deadline=None)
@given(problems(), st.sampled_from([1e-3, 1e-2, 0.05]))
def test_both_band_dps_solve_as_the_full_table(problem, resolution):
    expected = outcome(full_table_dp(problem, resolution=resolution))
    assert outcome(solve_dp(problem, resolution=resolution)) == expected
    with bound():
        assert outcome(solve_dp(problem, resolution=resolution)) == expected


def test_an_expired_time_limit_runs_no_dp(monkeypatch):
    def refuse(*args):
        raise AssertionError("the deadline is checked before the DP")

    monkeypatch.setattr(kernels, "band_dp", refuse)
    problem = AssignmentProblem(dips=(DipCandidates("a", (0.5, 1.0), (1.0, 2.0)),))
    assert solve_dp(problem, time_limit_s=0.0).status.name == "TIMEOUT"


@pytest.mark.parametrize("body", ["compiled", "python"])
def test_the_band_dp_refuses_inputs_outside_its_domain(body):
    band_dp = COMPILED.band_dp if body == "compiled" else reference.band_dp
    units, latencies = np.array([[1, 2], [0, 3]]), np.array([[1.0, 2.0], [0.5, 0.5]])
    selection = np.empty(2, dtype=np.int64)
    for bad in (np.nan, np.inf, -1.0):
        lats = latencies.copy()
        lats[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            band_dp(units, lats, 2, 1, 4, selection)
    with pytest.raises(ValueError, match="units must be >= 0"):
        band_dp(units - 1, latencies, 2, 1, 4, selection)


def test_the_compiled_band_dp_refuses_what_it_cannot_read():
    band_dp = COMPILED.band_dp
    units, latencies = np.array([[1, 2], [0, 3]]), np.array([[1.0, 2.0], [0.5, 0.5]])
    selection = np.empty(2, dtype=np.int64)
    for args, match in (
        ((units.astype(np.float64), latencies, 2, 1, 4, selection), "int64"),
        ((units.astype(np.int32), latencies, 2, 1, 4, selection), "int64"),
        ((units, latencies.astype(np.float32), 2, 1, 4, selection), "float64"),
        ((units, latencies, 2, 1, 4, selection.astype(np.int32)), "int64"),
    ):
        with pytest.raises(TypeError, match=match):
            band_dp(*args)
    for args in (
        (units, latencies, 3, 1, 4, selection),  # rows of 3 do not tile 4 units
        (units, latencies, 0, 1, 4, selection),
        (units, latencies[:, :1].copy(), 2, 1, 4, selection),
        (units, latencies, 2, 1, 4, np.empty(3, dtype=np.int64)),
        (units, latencies, 2, 5, 4, selection),  # an empty window
        (units, latencies, 2, -1, 4, selection),
        (units, latencies, 2, 1, 4, read_only(selection)),
    ):
        with pytest.raises(ValueError):
            band_dp(*args)
    with pytest.raises(MemoryError):  # a window no table could span
        band_dp(units, latencies, 2, 1, 2**62, selection)


# -- the mckp core DP ------------------------------------------------------------------------


def core_calls(problem: AssignmentProblem) -> list[tuple]:
    """The arguments of every ``_expand_core`` call ``solve_mckp`` makes on
    ``problem`` (on the oracles, so no compiled result feeds them)."""
    calls: list[tuple] = []
    body = mckp._expand_core

    def recording(*args):
        calls.append(args)
        return body(*args)

    with mock.patch.object(mckp, "_expand_core", recording), bound():
        solve_mckp(problem)
    return calls


def core_outcome(args: tuple) -> tuple:
    best, lower, states, cut = mckp._expand_core(*args)
    chosen = None if best is None else (best.dtype.str, best.tobytes())
    return chosen, np.float64(lower).tobytes(), states, cut


def assert_cores_agree(calls: list[tuple]) -> None:
    for args in calls:
        compiled = core_outcome(args)
        with bound():
            assert core_outcome(args) == compiled


def with_arg(args: tuple, at: int, value) -> tuple:
    return args[:at] + (value,) + args[at + 1 :]


def verdict(problem: AssignmentProblem) -> tuple:
    result = solve_mckp(problem)
    return result.status, result.selection, result.lower_bound_ms, result.nodes_explored


class CountingBand(mckp._Band):
    """A band check that counts the selections it turns down (the compiled
    body reads the same three fields and never calls it)."""

    rejected = 0

    def __call__(self, sel):
        inside = super().__call__(sel)
        CountingBand.rejected += not inside
        return inside


class CountingSorts:
    """numpy, with a count of ``np.sort`` calls: in the core DP's oracle only
    the band program's budget cut makes one."""

    def __init__(self):
        self.sorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sort(self, *args, **kwargs):
        self.sorts += 1
        return np.sort(*args, **kwargs)


def past_the_budget(seed: int, tolerance: float) -> AssignmentProblem:
    """Twelve DIPs of six random weights (no shared grid, so hardly any two
    sums tie) and a narrow band the cheapest selection overshoots: the band
    program keeps more than ``STATE_BUDGET`` distinct weights."""
    rng = random.Random(seed)
    dips = []
    for d in range(12):
        weights = sorted(rng.uniform(0.0, 2.0 / 12) for _ in range(6))
        scale = rng.uniform(1.0, 5.0)
        dips.append(
            DipCandidates(f"d{d}", tuple(weights), tuple(scale / (0.01 + w) for w in weights))
        )
    return AssignmentProblem(dips=tuple(dips), total_weight=1.0, total_weight_tolerance=tolerance)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(tie_heavy_problems(), small_problems()),
    st.sampled_from([mckp.STATE_BUDGET, 16, 3, 1]),
)
def test_the_compiled_core_is_the_python_core(problem, budget):
    # A small budget makes the one-sided program widen its buckets and the
    # band program cut at almost every stage.
    with mock.patch.object(mckp, "STATE_BUDGET", budget):
        calls = core_calls(problem)
        assert_cores_agree(calls)
        for args in calls:
            if args[11] is not None:  # the one-sided program from bucket 0
                assert_cores_agree([with_arg(args, 11, 0.0)])
        compiled = verdict(problem)
        with bound():
            assert verdict(problem) == compiled


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("tolerance", [0.0, 1e-5])
def test_the_band_programs_budget_cut(seed, tolerance):
    problem = past_the_budget(seed, tolerance)
    calls = core_calls(problem)
    assert [args[11] is None for args in calls] == [False, True]
    counting = CountingSorts()
    with bound(), mock.patch.object(reference, "np", counting):
        python = core_outcome(calls[1])
    assert counting.sorts > 0  # the cut was reached
    assert core_outcome(calls[1]) == python
    assert_cores_agree(calls)
    compiled = verdict(problem)
    with bound():
        assert verdict(problem) == compiled
    # A selection is found in the wider band, none in the zero-width one.
    assert compiled[0] is (SolveStatus.OPTIMAL if tolerance else SolveStatus.TIMEOUT)


def test_a_band_check_that_turns_down_the_cheapest_states():
    problem = past_the_budget(2, 1e-5)
    args = core_calls(problem)[1]
    band = args[12]
    # The DP's band holds states whose exact sums fall outside a band a
    # hair narrower: they are turned down, cheapest first, until one fits.
    narrow = CountingBand(band.weights, band.lo + 2e-6, band.hi - 2e-6)
    CountingBand.rejected = 0
    with bound():
        python = core_outcome(with_arg(args, 12, narrow))
    assert CountingBand.rejected > 0 and python[0] is not None
    assert core_outcome(with_arg(args, 12, narrow)) == python


@pytest.mark.parametrize(
    "problem",
    [
        # One DIP, the band between two candidates (infeasible) or around one.
        AssignmentProblem(
            dips=(DipCandidates("a", (0.25, 0.5, 1.0), (1.0, 2.0, 5.0)),), total_weight=0.4
        ),
        AssignmentProblem(
            dips=(DipCandidates("a", (0.25, 0.5, 1.0), (1.0, 2.0, 5.0)),),
            total_weight=0.45,
            total_weight_tolerance=0.05,
        ),
        # Heavier is cheaper: the upper edge binds and the weights are negated.
        AssignmentProblem(
            dips=tuple(
                DipCandidates(f"d{d}", (0.1, 0.3, 0.6, 0.9), (9.0 - d % 3, 5.0, 2.0 + 0.1 * d, 1.0))
                for d in range(6)
            ),
            total_weight=1.55,
            total_weight_tolerance=0.01,
        ),
    ],
    ids=["one-dip-infeasible", "one-dip", "upper-edge"],
)
def test_hand_built_cores(problem):
    calls = core_calls(problem)
    assert calls
    if problem.num_dips > 1:
        assert all(args[6] < 0 for args in calls)  # lo: the negated band
    assert_cores_agree(calls)
    assert_cores_agree([with_arg(args, 11, 0.0) for args in calls if args[11] is not None])
    compiled = verdict(problem)
    with bound():
        assert verdict(problem) == compiled


def test_an_expired_deadline_runs_no_stage():
    args = core_calls(past_the_budget(0, 1e-5))[0]
    for deadline in (-np.inf, time.perf_counter() - 1.0):
        expired = with_arg(args, 7, deadline)
        assert core_outcome(expired) == (None, np.float64(-np.inf).tobytes(), 0, True)
        with bound():
            assert core_outcome(expired) == (None, np.float64(-np.inf).tobytes(), 0, True)


@pytest.fixture(scope="module")
def cold_corpus() -> list[AssignmentProblem]:
    """Every problem two 100-DIP cold convergences (seeds 17 and 33) solve."""
    problems: list[AssignmentProblem] = []
    original = ilp.solve

    def recording(problem, **kwargs):
        problems.append(problem)
        return original(problem, **kwargs)

    with mock.patch.object(ilp, "solve", recording):
        for seed in (17, 33):
            api.run(api.ExperimentSpec.from_dict({**COLD_100, "seed": seed}))
    return problems


def test_the_cold_corpus_is_solved_alike(cold_corpus):
    statuses = []
    for problem in cold_corpus:
        compiled = verdict(problem)
        with bound():
            assert verdict(problem) == compiled
        statuses.append(compiled[0])
    # The budget widened the buckets of some one-sided programs.
    assert SolveStatus.FEASIBLE in statuses


def test_the_compiled_core_refuses_what_it_cannot_read():
    seen: list[tuple] = []

    def recording(*args):
        seen.append(args)
        return COMPILED.expand_core(*args)

    with mock.patch.object(kernels, "expand_core", recording):
        mckp._expand_core(*core_calls(past_the_budget(0, 1e-5))[1])
    call = seen[0]
    dW, usable, base, order, taken, band = call[0], call[2], call[3], call[4], call[8], call[18]
    n = len(base)
    expand_core = COMPILED.expand_core
    assert expand_core(*call)[2] > 0
    for at, bad, error, match in (
        (0, dW.astype(np.float32), TypeError, "float64"),
        (2, usable.view(np.uint8), TypeError, "bool"),
        (3, base.astype(np.int32), TypeError, "int64"),
        (21, np.empty(n, dtype=np.int32), TypeError, "int64"),
        (21, read_only(np.empty(n, dtype=np.intp)), ValueError, "read-only"),
        (0, np.asfortranarray(dW), ValueError, "contiguous"),
        (3, base[:-1].copy(), ValueError, "inconsistent"),  # one DIP short
        (4, order + 1, ValueError, "inconsistent"),  # a stage past the last DIP
        (8, len(call[6]) + 1, ValueError, "inconsistent"),  # more edges taken than exist
        (20, 0, ValueError, "inconsistent"),  # no state may be kept
        (18, (band.weights, band.lo), TypeError, "band"),
        (18, band.weights, TypeError, "band"),
    ):
        with pytest.raises(error, match=match):
            expand_core(*with_arg(call, at, bad))


# -- the curve inversion -------------------------------------------------------------------

#: coefficients that tie, vanish with either sign, or are any size.
_COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-300.0, 300.0)
)


@st.composite
def inversion_curves(draw):
    """One curve of degree 1-4 (the scanned rows above 2), a concave
    parabola with its vertex inside the range, envelope on or off."""
    monotone = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:
        # -a x^2 + b x + c peaks at b / 2a (times the scale).
        a, b = draw(st.floats(1.0, 300.0)), draw(st.floats(0.0, 200.0))
        coefficients = (-a, b, draw(_COEFFICIENTS))
    else:
        degree = draw(st.integers(1, 4))
        coefficients = tuple(
            draw(st.lists(_COEFFICIENTS, min_size=degree + 1, max_size=degree + 1))
        )
    return WeightLatencyCurve(
        coefficients=coefficients,
        l0_ms=draw(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 20.0)),
        w_max=draw(st.floats(0.0, 1.0)),
        weight_scale=draw(st.sampled_from([1.0]) | st.floats(0.1, 5.0)),
        enforce_monotone=monotone,
    )


@st.composite
def inversion_cases(draw):
    curves = draw(st.lists(inversion_curves(), min_size=1, max_size=6))
    # At or below idle (0, l0), past any upper (1e6), or in between.
    target = st.sampled_from([0.0, 1.0, 1e6]) | st.floats(-10.0, 1000.0)
    targets = draw(st.lists(target, min_size=len(curves), max_size=len(curves)))
    kind = draw(st.sampled_from(["default", "shared", "per-curve", "huge"]))
    if kind == "default":
        upper = None
    elif kind == "shared":
        upper = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 3.0))
    elif kind == "per-curve":
        upper = draw(st.lists(st.floats(0.0, 3.0), min_size=len(curves), max_size=len(curves)))
    else:
        upper = 1e300  # still 2**-200 of that wide when the cap ends it
    # 0 and 1e-300 run every bisection to the 200-halving cap.
    tol = draw(st.sampled_from([1e-6, 1e-3, 0.1, 0.0, 1e-300]))
    return curves, targets, upper, tol


@settings(max_examples=300, deadline=None)
@given(inversion_cases())
# A bracket exactly ``tol`` wide ([0.375, 0.5]) does not stop the bisection.
@example(([WeightLatencyCurve((10.0, 1.0), 1.0, 0.4)], [5.0], 1.0, 0.125))
# A subnormal scale puts every weight but 0 at x = inf: NaN predictions.
@example(([WeightLatencyCurve((1.0, -2.0, 1.0, 3.0), 1.0, 0.4, 1e-320)], [5.0], None, 1e-6))
def test_the_compiled_inversion_is_the_lockstep_bisection(case):
    curves, targets, upper, tol = case
    with np.errstate(all="ignore"):  # a degree-4 row at 1e300 overflows
        compiled = weights_for_latencies(curves, targets, upper=upper, tol=tol)
        with bound():
            python = weights_for_latencies(curves, targets, upper=upper, tol=tol)
        uppers = upper if isinstance(upper, list) else [upper] * len(curves)
        expected = [
            bisection_oracle(c, x, upper=u, tol=tol) for c, x, u in zip(curves, targets, uppers)
        ]
    assert same_bytes(compiled, python)
    assert same_bytes(compiled, np.array(expected))


def bank_call(rows=2, width=3):
    """A valid ``bisect_bank`` argument list for ``rows`` curves."""
    absent = np.full(rows, np.inf)
    flags = np.zeros(rows, dtype=bool)
    return [np.ones((rows, width + 2)), width, flags, absent, -absent, flags,
            np.ones(rows), np.ones(rows), 1e-6, np.empty(rows)]


def test_the_compiled_inversion_refuses_what_it_cannot_read():
    bisect_bank = COMPILED.bisect_bank
    assert bisect_bank(*bank_call(rows=0)) is None
    for at, bad, error, match in (
        (0, np.ones((2, 5), dtype=np.float32), TypeError, "float64"),
        (2, np.zeros(2, dtype=np.uint8), TypeError, "bool"),
        (5, np.zeros(2, dtype=np.int8), TypeError, "bool"),
        (6, np.ones(3), ValueError, "align"),  # one target too many
        (3, np.full(1, np.inf), ValueError, "align"),
        (0, np.ones((2, 4)), ValueError, "table"),
        (1, 0, ValueError, "table"),
        (1, 2**62, ValueError, "table"),
        (9, np.empty(2)[::-1], ValueError, "contiguous"),
        (9, read_only(np.empty(2)), ValueError, "read-only"),
    ):
        call = bank_call()
        call[at] = bad
        with pytest.raises(error, match=match):
            bisect_bank(*call)


# -- the curve law ---------------------------------------------------------------------

#: query weights: 0, ones whose scan step w / 63 underflows to 0 (the
#: subnormal 1e-322 is 20 steps of the least one), and any size.
_WEIGHTS = st.sampled_from([0.0, 1e-322, 5e-324, 1.0]) | st.floats(0.0, 3.0)


@st.composite
def bank_cases(draw):
    """A bank of 1-6 curves (mixed widths, concave vertices, envelope on
    or off) and 0-5 query weights per curve."""
    curves = draw(st.lists(inversion_curves(), min_size=1, max_size=6))
    k = draw(st.integers(0, 5))
    ws = draw(st.lists(_WEIGHTS, min_size=len(curves) * k, max_size=len(curves) * k))
    return curves, np.array(ws, dtype=np.float64).reshape(len(curves), k)


@settings(max_examples=300, deadline=None)
@given(bank_cases())
@example(([WeightLatencyCurve((-40.0, 30.0, 2.0), 1.0, 0.5)], np.array([[0.0, 0.3, 0.375, 0.9]])))
@example(([WeightLatencyCurve((1.0, -2.0, 1.0, 3.0), 1.0, 0.4)], np.array([[1e-322, 5e-324]])))
def test_the_compiled_curve_law_is_the_numpy_envelope(case):
    curves, ws = case
    with np.errstate(all="ignore"):
        compiled = predict_curves(curves, ws)
        python = np.empty_like(ws)
        reference.predict_bank(*_bank(curves), ws, python)
        with bound():
            bound_run = predict_curves(curves, ws)
    assert same_bytes(compiled, python)
    assert same_bytes(compiled, bound_run)


def test_a_curve_row_is_computed_once():
    curve = WeightLatencyCurve((-40.0, 30.0, 2.0), 1.0, 0.5)
    row = curve.bank_row
    assert row.vertex == 30.0 / 80.0 and row.peak == 2.0 + 30.0 * 0.375 - 40.0 * 0.375**2
    predict_curves([curve, curve], np.ones((2, 3)))
    assert curve.bank_row is row


def predict_call(rows=2, width=3, k=2):
    """A valid ``predict_bank`` argument list for ``rows`` curves."""
    absent = np.full(rows, np.inf)
    flags = np.zeros(rows, dtype=bool)
    return [np.ones((rows, width + 2)), width, flags, absent, -absent, flags,
            np.ones((rows, k)), np.empty((rows, k))]


def test_the_compiled_curve_law_refuses_what_it_cannot_read():
    predict_bank = COMPILED.predict_bank
    assert predict_bank(*predict_call(rows=0)) is None
    assert predict_bank(*predict_call(k=0)) is None
    for at, bad, error, match in (
        (0, np.ones((2, 5), dtype=np.float32), TypeError, "float64"),
        (2, np.zeros(2, dtype=np.uint8), TypeError, "bool"),
        (5, np.zeros(2, dtype=np.int8), TypeError, "bool"),
        (3, np.full(3, np.inf), ValueError, "align"),
        (5, np.zeros(1, dtype=bool), ValueError, "align"),
        (0, np.ones((2, 4)), ValueError, "table"),
        (1, 0, ValueError, "table"),
        (1, 2**62, ValueError, "table"),
        (6, np.ones(3), ValueError, "rows x k"),
        (7, np.empty(3), ValueError, "rows x k"),
        (7, np.empty(4)[::-1], ValueError, "contiguous"),
        (7, read_only(np.empty(4)), ValueError, "read-only"),
    ):
        call = predict_call()
        call[at] = bad
        with pytest.raises(error, match=match):
            predict_bank(*call)


# -- the smooth-WRR pick ---------------------------------------------------------------

_TINY = float(np.nextafter(0.0, 1.0))  # the smallest subnormal


@st.composite
def wrr_cases(draw):
    size = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["uniform", "ties", "zeros", "subnormal", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "uniform":
        weights = rng.uniform(0.0, 2.0, size)
    elif kind == "ties":
        weights = rng.integers(1, 4, size) / 4.0
    elif kind == "zeros":
        weights = np.where(rng.random(size) < 0.5, 0.0, rng.uniform(0.1, 1.0, size))
    elif kind == "subnormal":
        weights = rng.integers(0, 5, size) * _TINY
    else:
        weights = rng.choice([0.0, _TINY, 1e-300, 0.5, 1.0, 3.0], size)
    # Healthy-set changes: each call picks over a subset, as the epoch
    # router does between barriers.
    subsets = [
        np.flatnonzero(rng.random(size) < 0.7) for _ in range(draw(st.integers(1, 5)))
    ]
    counts = [draw(st.sampled_from([0, 1, 2, 17, 300])) for _ in subsets]
    return weights, subsets, counts


def run_wrr(smooth_wrr, weights, subsets, counts):
    from repro.lb.round_robin import smooth_wrr_weights

    scores = np.zeros(weights.size)
    trail = []
    for subset, count in zip(subsets, counts):
        if not subset.size:
            continue
        w, total = smooth_wrr_weights(weights[subset])
        current = scores[subset]
        out = np.full(count, -1, dtype=np.int32)
        last = smooth_wrr(current, w, total, out, count)
        scores[subset] = current
        single = smooth_wrr(current, w, total, None, 1)
        trail.append((out.tobytes(), last, single, current.tobytes()))
    return trail, scores.tobytes()


@settings(max_examples=300, deadline=None)
@given(wrr_cases())
def test_the_compiled_pick_is_the_python_pick(case):
    weights, subsets, counts = case
    assert run_wrr(COMPILED.smooth_wrr, *case) == run_wrr(reference.smooth_wrr, *case)


def test_the_pick_agrees_on_nan_and_empty_scores():
    for start in ([np.nan, 1.0, 2.0], [1.0, np.nan, 5.0, np.nan], [np.inf, -np.inf, 0.0]):
        picks = []
        for smooth_wrr in (COMPILED.smooth_wrr, reference.smooth_wrr):
            current = np.array(start)
            out = np.empty(3, dtype=np.int32)
            with np.errstate(invalid="ignore"):  # inf - inf
                smooth_wrr(current, np.array([1.0, np.inf, 0.0, 1.0])[: current.size],
                           1.0, out, 3)
            picks.append((out.tobytes(), current.tobytes()))
        assert picks[0] == picks[1]
    for smooth_wrr in (COMPILED.smooth_wrr, reference.smooth_wrr):
        assert smooth_wrr(np.empty(0), np.empty(0), 0.0, None, 0) is None
        with pytest.raises(ValueError):
            smooth_wrr(np.empty(0), np.empty(0), 0.0, None, 1)


def test_wrr_select_and_select_many_walk_one_sequence():
    from repro.lb import make_policy

    dips = [f"d{i}" for i in range(7)]
    weights = dict(zip(dips, [0.3, 0.3, 0.0, 1.2, _TINY, 0.3, 2.0]))
    one, many = make_policy("wrr", dips), make_policy("wrr", dips)
    for policy in (one, many):
        policy.set_weights(weights)
    singles = [one.select(None) for _ in range(500)]
    batch = [dips[i] for i in many.select_many(500)]
    assert singles == batch
    assert one.accumulators() == many.accumulators()


# -- loading and building ----------------------------------------------------------------


def test_a_cache_hit_loads_neither_subprocess_nor_sysconfig():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, json; from repro import kernels; "
         "print(json.dumps([type(kernels.walk).__name__, 'subprocess' in sys.modules, "
         "'sysconfig' in sys.modules]))"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["builtin_function_or_method", False, False]


def test_a_build_lands_in_its_cache_file_once(monkeypatch, tmp_path):
    target = tmp_path / "pycache" / "_kernels.test.so"
    monkeypatch.setattr(kernels, "_cache_path", lambda: str(target))
    assert kernels._compiled().walk is not None
    assert sorted(p.name for p in target.parent.iterdir()) == [target.name]

    def refuse(path):
        raise AssertionError("a cached module must not be rebuilt")

    monkeypatch.setattr(kernels, "_build", refuse)
    assert kernels._compiled().walk is not None
    assert kernels._cache_path().endswith(".so")


def test_a_build_removes_the_builds_of_older_sources(monkeypatch, tmp_path):
    import importlib.machinery

    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    current = os.path.basename(kernels._cache_path())
    source, flags = current.split(".")[1:3]
    cache = tmp_path / "pycache"
    cache.mkdir()
    stale = [
        f"_kernels.{'0' * 16}.{flags}{suffix}",  # an older source, these flags
        f"_kernels.{'1' * 16}.{'2' * 8}{suffix}",  # an older source, other flags
        f"_kernels.{'3' * 16}{suffix}",  # named by one digest of source and flags
    ]
    kept = [
        f"_kernels.{source}.{'4' * 8}{suffix}",  # this source under other flags
        f"_kernels.{'5' * 16}.tmp",  # a build being written
        "_kernels.abcdefgh.tmp",
        "unrelated.so",
    ]
    for name in stale + kept:
        (cache / name).write_bytes(b"")
    (cache / f"_kernels.{'6' * 16}{suffix}").mkdir()  # cannot be unlinked: skipped
    monkeypatch.setattr(kernels, "_cache_path", lambda: str(cache / current))
    assert kernels._compiled().walk is not None
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [current, *kept, f"_kernels.{'6' * 16}{suffix}"]
    )


def test_a_failing_build_raises(monkeypatch, tmp_path):
    compiled_walk = kernels.walk
    monkeypatch.setattr(kernels, "_cache_path", lambda: str(tmp_path / "k" / "absent.so"))
    monkeypatch.setattr(kernels, "_compiler", lambda: [sys.executable, "-c", "exit(1)"])
    with pytest.raises(ImportError, match="_kernels.c failed") as raised:
        kernels.load()
    assert f"{sys.executable} -c exit(1)" in str(raised.value)  # the command it tried
    assert not (tmp_path / "k" / "absent.so").exists()
    assert list((tmp_path / "k").iterdir()) == []  # the partial file is gone
    assert kernels.walk is compiled_walk  # nothing was bound


@pytest.mark.parametrize(
    "config_var, which, match",
    [
        (None, lambda name: None, r"_kernels\.c: the compiler .* is not on PATH"),
        (lambda name: None, None, r"_kernels\.c: this interpreter names no compiler"),
    ],
    ids=["not-on-path", "no-ldshared"],
)
def test_a_missing_compiler_raises(monkeypatch, tmp_path, config_var, which, match):
    monkeypatch.setattr(kernels, "_cache_path", lambda: str(tmp_path / "absent.so"))
    if which is not None:
        monkeypatch.setattr("shutil.which", which)
    if config_var is not None:
        monkeypatch.setattr("sysconfig.get_config_var", config_var)
    with pytest.raises(ImportError, match=match):
        kernels.load()


def test_the_cache_name_changes_with_numpys_version(monkeypatch):
    built = os.path.basename(kernels._cache_path())
    monkeypatch.setattr(kernels.numpy, "__version__", "0.0.0")
    other = os.path.basename(kernels._cache_path())
    assert other != built  # the random library is linked in: a new numpy rebuilds
    assert other.split(".")[1] == built.split(".")[1]  # the same source


def test_a_missing_random_library_raises(monkeypatch, tmp_path):
    monkeypatch.setattr(kernels, "_cache_path", lambda: str(tmp_path / "absent.so"))
    monkeypatch.setattr(kernels, "_npyrandom", lambda: str(tmp_path / "libnpyrandom.a"))
    with pytest.raises(ImportError, match=r"libnpyrandom\.a is missing") as raised:
        kernels.load()
    assert "_kernels.c" in str(raised.value)
    assert f"{tmp_path / 'libnpyrandom.a'}" in str(raised.value)  # in the command
    assert list(tmp_path.iterdir()) == []


def test_an_install_without_the_source_imports_the_built_extension(monkeypatch, tmp_path):
    monkeypatch.setattr(kernels, "_SOURCE", str(tmp_path / "_kernels.c"))
    monkeypatch.delitem(sys.modules, "repro._kernels", raising=False)
    with pytest.raises(ImportError, match="not installed"):
        kernels._compiled()  # nothing built under that name here
    installed = type(sys)("repro._kernels")
    monkeypatch.setitem(sys.modules, "repro._kernels", installed)
    assert kernels._compiled() is installed


def test_the_real_cache_key_names_source_and_interpreter():
    import importlib.machinery

    path = kernels._cache_path()
    assert os.path.dirname(path).endswith(os.path.join("repro", "__pycache__"))
    assert path.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])


def artifact(spec_file: str, overrides: dict, **how) -> dict:
    spec = api.ExperimentSpec.from_file(str(WORKLOADS / spec_file)).with_overrides(overrides)
    data = api.run(spec, **how).to_dict()
    del data["provenance"]
    return data


SHORT_TIMELINE = {
    "window_s": 5.0,
    "horizon_s": 20.0,
    "events": [
        {"time_s": 5.0, "kind": "capacity_ratio", "dip": "DIP-4", "value": 0.6},
        {"time_s": 10.0, "kind": "dip_fail", "dip": "DIP-6"},
        {"time_s": 15.0, "kind": "dip_recover", "dip": "DIP-6"},
    ],
}

#: what every controller run calls: KLM probe rounds and curve predictions.
CONTROL = ("probe_round", "predict_bank")

#: (spec file, overrides, run options, the kernels the run calls).
RUNS = [
    ("req_serial_rr.json", {"workload.num_requests": 20000}, {}, {"walk", "station_stats"}),
    ("req_serial_rr.json", {"workload.num_requests": 20000, "workload.load_fraction": 1.3},
     {}, {"walk", "station_stats"}),
    ("req_epoch_lc.json", {"workload.num_requests": 20000}, {"shards": 2, "workers": 1},
     {"walk"}),
    ("req_serial_rr.json",
     {"workload.num_requests": 20000, "policy.name": "wrr", "pool.kind": "mixed_core"},
     {"shards": 2, "workers": 1}, {"walk", "smooth_wrr"}),
    ("req_serial_klb_wrr.json", {"workload.num_requests": 8000}, {},
     {"walk", "smooth_wrr", "station_stats", *CONTROL, "band_dp", "bisect_bank"}),
    # The control tick: band DPs and §4.5 rescales, on a fleet and on one VIP.
    ("fleet_dynamics.json", {"fleet.num_vips": 2, "timeline": SHORT_TIMELINE}, {},
     {*CONTROL, "band_dp", "bisect_bank"}),
    ("fleet_dynamics.json", {"runner": "fluid", "timeline": SHORT_TIMELINE}, {},
     {*CONTROL, "band_dp", "bisect_bank"}),
    # A cold convergence: the mckp core DP.
    ("ctl_cold_100.json", {"pool.num_dips": 40}, {}, {*CONTROL, "expand_core"}),
]


@pytest.mark.parametrize("spec_file, overrides, how, called", RUNS)
def test_on_the_oracles_the_artifact_is_the_same(spec_file, overrides, how, called):
    ours = artifact(spec_file, overrides, **how)
    seen = set()

    def counted(name, body):
        def call(*args):
            seen.add(name)
            return body(*args)

        return call

    with mock.patch.multiple(kernels, **{n: counted(n, b) for n, b in KERNELS.items()}):
        theirs = artifact(spec_file, overrides, **how)
    assert seen == called  # the oracles ran in the compiled kernels' place
    assert ours == theirs


def test_all_eight_oracles_run_in_the_artifact_comparison():
    assert set().union(*(run[3] for run in RUNS)) == set(KERNELS)


def test_an_artifact_that_names_the_kernels_still_loads():
    spec = api.ExperimentSpec.from_file(str(WORKLOADS / "req_serial_rr.json"))
    data = api.run(spec.with_overrides({"workload.num_requests": 2000})).to_dict()
    assert "kernels" not in data["provenance"]
    # Written when the provenance still said which kernels ran.
    old = json.loads(json.dumps(data))
    old["provenance"]["kernels"] = "compiled"
    assert api.RunResult.from_dict(old).to_dict() == data
