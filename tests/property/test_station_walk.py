"""Differential tests: the resumable station walk against the heap recursion.

``StationWalk`` decides drops from the start times of the latest admissions
and counts a barrier's population from them, with no heap of pending
departures.  :func:`heap_station` is the recursion it replaced — a heap of
worker-free times plus a heap of the departures still ahead, read through
an iterator of service times — and :func:`heap_station_stats` the sort it
accounted with, both kept verbatim as oracles (renamed, and the recursion
hands back its departures too, for the barrier counts).  Every column,
counter and barrier count must be the same bit, however the stream is
sliced and whatever the service draws do.
"""

from __future__ import annotations

import functools
import heapq
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.parallel.epoch import _mux_census
from repro.sim.queueing import (
    SERVICE_BATCH,
    DipQueueStats,
    StationOutcome,
    StationWalk,
    _station_stats,
    simulate_station,
)

_WALK_SLICE = 65536
_NAN = float("nan")
_INF = float("inf")
MUXES = 3


def departure_columns(arrivals, departure, until=_INF):
    dropped = np.isnan(departure)
    completed = departure <= until
    timestamp = np.where(dropped, arrivals, np.where(completed, departure, _INF))
    latency_ms = np.where(completed, (departure - arrivals) * 1000.0, _NAN)
    return latency_ms, completed, timestamp, dropped


def heap_station(
    arrivals,
    services,
    *,
    servers,
    queue_capacity,
    measure_from=0.0,
    until=_INF,
    account=False,
):
    if servers < 1:
        raise ConfigurationError("servers must be >= 1")
    if queue_capacity < 0:
        raise ConfigurationError("queue_capacity must be >= 0")
    aligned = services if isinstance(services, np.ndarray) else None
    draw = None if aligned is not None else services.__next__
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    free = [0.0] * servers
    in_system: list[float] = []
    capacity = servers + queue_capacity
    service_sum = 0.0
    # Each arrival's departure: NaN for a drop, inf past ``until``.  Walked a
    # slice at a time, so the Python floats in flight stay a bounded few MB.
    departure = np.empty(arrivals.size, dtype=np.float64)
    out: list[float] = []
    append = out.append
    for lo in range(0, arrivals.size, _WALK_SLICE):
        part = slice(lo, lo + _WALK_SLICE)
        for a, service in zip(
            arrivals[part].tolist(),
            itertools.repeat(None) if aligned is None else aligned[part].tolist(),
        ):
            while in_system and in_system[0] <= a:
                heappop(in_system)
            if len(in_system) >= capacity:
                append(_NAN)
                continue
            start = free[0]
            if a > start:
                start = a
            if start > until:
                leaves = _INF
            else:
                if service is None:
                    service = draw()
                leaves = start + service
                heapreplace(free, leaves)
                service_sum += service
            heappush(in_system, leaves)
            append(leaves)
        departure[part] = out
        out.clear()
    latency_ms, completed, timestamp, dropped = departure_columns(
        arrivals, departure, until
    )
    # One row per arrival so far; the warm-up rule cuts the leading ones.
    first = int(arrivals.searchsorted(measure_from, side="left"))
    outcome = StationOutcome(
        latency_ms=latency_ms[first:],
        completed=completed[first:],
        timestamp=timestamp[first:],
        submitted=arrivals.size - first,
        dropped=int(np.count_nonzero(dropped[first:])),
        busy_seconds=service_sum,
    )
    if account:
        outcome.stats = heap_station_stats(
            arrivals, timestamp[completed], ~dropped, servers=servers, until=until
        )
        outcome.in_system = (
            arrivals.size - outcome.stats.drops - outcome.stats.completions
        )
    return outcome, departure


def heap_station_stats(arrivals, departures, admitted, *, servers, until):
    # The integral closes at ``until``; with none, at the last departure.
    closing = [until] if until < _INF else []
    times = np.concatenate([departures, arrivals, closing])
    step = np.zeros(times.size, dtype=np.int8)
    step[: departures.size] = -1
    step[departures.size : departures.size + arrivals.size] = admitted
    order = times.argsort(kind="stable")
    times, step = times[order], step[order]
    del order
    holding = step.cumsum(dtype=np.int32)
    holding -= step  # in the station just before each event
    elapsed = np.diff(times, prepend=0.0)
    del times
    worker_seconds = np.minimum(holding, servers) * elapsed
    elapsed *= holding > 0
    return DipQueueStats(
        arrivals=arrivals.size,
        completions=departures.size,
        drops=arrivals.size - int(np.count_nonzero(admitted)),
        busy_time_s=float(elapsed.cumsum(out=elapsed)[-1]),
        busy_worker_seconds=float(worker_seconds.cumsum(out=worker_seconds)[-1]),
    )


# -- cases ----------------------------------------------------------------------


def unit_draws(seed: int, kind: str):
    """A ``draw(n)`` of unit-mean service multipliers, as a station's RNG gives them.

    ``grid`` draws multiples of 1/2, zeros included, so that on a dyadic
    arrival grid departures land exactly on later arrivals; ``zeros`` makes
    a quarter of the exponential draws zero-length.
    """
    rng = np.random.default_rng(seed)

    def draw(n: int) -> np.ndarray:
        if kind == "grid":
            return rng.integers(0, 5, n) / 2.0
        units = rng.standard_exponential(n)
        if kind == "zeros":
            units[rng.random(n) < 0.25] = 0.0
        return units

    return draw


def buffered(draw, mean, taken, *, switch=None, then=None):
    """Service times in the order a station's buffer yields them.

    ``draw`` refills ``SERVICE_BATCH`` at a time and the draws come out in
    draw order, scaled by ``mean`` — by ``then`` from draw number
    ``switch`` on; ``taken[0]`` counts the reads.
    """
    while True:
        for unit in draw(SERVICE_BATCH).tolist():
            scale = then if switch is not None and taken[0] >= switch else mean
            taken[0] += 1
            yield unit * scale


@st.composite
def cases(draw):
    servers = draw(st.sampled_from([1, 2, 3, 8]))
    size = draw(st.integers(1, 1500))
    grid = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    load = draw(st.floats(0.3, 1.6))
    rng = np.random.default_rng(seed)
    if grid:
        # Gaps of 0, 1/8 or 1/4: duplicate instants, all on a dyadic grid.
        arrivals = np.cumsum(rng.integers(0, 3, size)) / 8.0
        mean = max(1, round(load * servers)) / 8.0
    else:
        mean = 0.01
        arrivals = np.cumsum(rng.exponential(mean / (load * servers), size))
    return {
        "servers": servers,
        "queue_capacity": draw(st.sampled_from([0, 1, 2, 256])),
        "arrivals": arrivals,
        "mean": mean,
        "units": "grid" if grid else draw(st.sampled_from(["exp", "zeros"])),
        "aligned": draw(st.booleans()),
        "seed": seed,
        # A finite end at or just past the last arrival leaves a line waiting.
        "until": draw(
            st.sampled_from([_INF, float(arrivals[-1]), float(arrivals[-1]) + mean])
        ),
        "measure_from": float(arrivals[size // 3]) if draw(st.booleans()) else 0.0,
        "slices": draw(st.integers(1, 40)),
        "factor": draw(st.sampled_from([0.5, 1.0, 2.0])),
    }


def assert_same_outcome(ours: StationOutcome, theirs: StationOutcome) -> None:
    assert np.array_equal(ours.latency_ms, theirs.latency_ms, equal_nan=True)
    assert np.array_equal(ours.completed, theirs.completed)
    assert np.array_equal(ours.timestamp, theirs.timestamp)
    assert (ours.submitted, ours.dropped) == (theirs.submitted, theirs.dropped)
    assert ours.busy_seconds == theirs.busy_seconds
    assert ours.stats == theirs.stats


@settings(max_examples=250, deadline=None)
@given(cases())
def test_the_walk_is_the_heap_recursion(case):
    arrivals, mean, until = case["arrivals"], case["mean"], case["until"]
    servers, capacity, aligned = case["servers"], case["queue_capacity"], case["aligned"]
    rng = np.random.default_rng(case["seed"] + 1)
    muxes = rng.integers(MUXES, size=arrivals.size)
    parts = np.array_split(np.arange(arrivals.size), case["slices"])
    parts = [part for part in parts if part.size]
    # Buffered draws see the capacity factor change between two slices; an
    # aligned array comes scaled already.
    change = len(parts) if aligned else len(parts) // 2
    boundary = sum(part.size for part in parts[:change])
    draws = functools.partial(unit_draws, case["seed"], case["units"])

    if aligned:
        services = draws()(arrivals.size) * mean
        walk = StationWalk(servers, capacity)
    else:
        services = None
        walk = StationWalk(servers, capacity, draw=draws(), mean=mean)

    held = (np.empty(0), np.empty(0, dtype=np.int64))
    barriers = []
    for number, part in enumerate(parts):
        if number == change:
            walk.mean = mean / case["factor"]
        departures = walk.advance(
            arrivals[part], None if services is None else services[part], until=until
        )
        assert len(departures) == part.size
        # A barrier somewhere from this slice's last arrival to the next one.
        last = float(arrivals[part[-1]])
        following = arrivals[part[-1] + 1] if part[-1] + 1 < arrivals.size else until
        upto = float(min(following, until, last + mean))
        t = float(rng.choice([last, float(rng.uniform(last, upto)), upto]))
        held, per_mux = _mux_census(
            held, np.asarray(departures, dtype=np.float64), muxes[part], t, MUXES
        )
        barriers.append((part[-1] + 1, t, walk.in_system(t), per_mux))

    if aligned:
        source, taken = services, None
    else:
        # How many draws the requests before the change take, read off the
        # oracle itself: nothing after them decides their admission.
        taken = [0]
        heap_station(
            arrivals[:boundary],
            buffered(draws(), mean, taken),
            servers=servers,
            queue_capacity=capacity,
            until=until,
        )
        switch, taken = taken[0], [0]
        source = buffered(draws(), mean, taken, switch=switch, then=mean / case["factor"])
    theirs, departure = heap_station(
        arrivals,
        source,
        servers=servers,
        queue_capacity=capacity,
        measure_from=case["measure_from"],
        until=until,
        account=True,
    )
    ours = walk.outcome(measure_from=case["measure_from"], until=until, account=True)
    assert_same_outcome(ours, theirs)
    if taken is not None:
        # The walk's buffer stands where the oracle stopped reading.
        batches = -(-taken[0] // SERVICE_BATCH)
        assert batches * SERVICE_BATCH - len(walk.buf) == taken[0]
    for fed, t, plain, per_mux in barriers:
        # The heap's count: admitted requests (a drop's NaN never compares)
        # departing after ``t``.
        inside = departure[:fed] > t
        assert plain == np.count_nonzero(inside), (fed, t)
        assert np.array_equal(per_mux, np.bincount(muxes[:fed][inside], minlength=MUXES))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_simulate_station_is_the_heap_recursion_on_aligned_services(case):
    arrivals = case["arrivals"]
    services = unit_draws(case["seed"], case["units"])(arrivals.size) * case["mean"]
    how = {
        "servers": case["servers"],
        "queue_capacity": case["queue_capacity"],
        "measure_from": case["measure_from"],
        "until": case["until"],
    }
    theirs, _ = heap_station(arrivals, services, account=True, **how)
    assert_same_outcome(simulate_station(arrivals, services, account=True, **how), theirs)
    plain = simulate_station(arrivals, services, **how)  # as exact shards call it
    assert plain.stats is None
    assert np.array_equal(plain.latency_ms, theirs.latency_ms, equal_nan=True)


@pytest.mark.parametrize("queue_capacity", [0, 1])
def test_a_departure_at_an_arrival_instant_leaves_first(queue_capacity):
    # One worker: the first request leaves at exactly 1.0, when two more
    # arrive; the first of them takes the worker, the second waits or drops.
    arrivals = np.array([0.0, 1.0, 1.0, 1.5, 2.0])
    services = np.ones(arrivals.size)
    walk = StationWalk(1, queue_capacity)
    departures = walk.advance(arrivals, services)
    if queue_capacity:
        expected = [1.0, 2.0, 3.0, _NAN, 4.0]
    else:
        expected = [1.0, 2.0, _NAN, _NAN, 3.0]
    assert np.array_equal(departures, expected, equal_nan=True)
    assert walk.in_system(2.0) == (2 if queue_capacity else 1)
    theirs, departure = heap_station(
        arrivals, services, servers=1, queue_capacity=queue_capacity, account=True
    )
    assert np.array_equal(departure, expected, equal_nan=True)
    assert_same_outcome(walk.outcome(account=True), theirs)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    size=st.integers(0, 3000),
    servers=st.sampled_from([1, 2, 8]),
    grid=st.booleans(),
    until=st.sampled_from([_INF, 50.0]),
)
@example(seed=0, size=0, servers=2, grid=False, until=_INF)
def test_station_stats_merge_is_the_sort(seed, size, servers, grid, until):
    rng = np.random.default_rng(seed)
    if grid:
        arrivals = np.sort(rng.integers(0, 160, size)) / 4.0
        departures = arrivals + rng.integers(0, 8, size) / 4.0
    else:
        arrivals = np.sort(rng.uniform(0.0, 40.0, size))
        departures = arrivals + rng.exponential(1.0, size)
    admitted = rng.random(size) < 0.9
    departures = departures[admitted & (departures <= until)]
    if size or until < _INF:
        expected = heap_station_stats(
            arrivals, departures.copy(), admitted, servers=servers, until=until
        )
    else:  # no event: the sort has nothing to close, the station counted nothing
        expected = DipQueueStats()
    merged = _station_stats(arrivals, departures, admitted, servers=servers, until=until)
    assert merged == expected


def test_an_empty_station_with_no_close_counts_nothing():
    outcome = simulate_station(
        np.array([]), np.array([]), servers=2, queue_capacity=4, account=True
    )
    assert outcome.stats == DipQueueStats()
    assert StationWalk(2, 4).outcome(account=True).stats == DipQueueStats()
    closed = StationWalk(2, 4).outcome(until=3.0, account=True).stats
    assert closed == DipQueueStats()


def test_a_walk_without_a_draw_needs_aligned_services():
    with pytest.raises(ConfigurationError, match="aligned services"):
        StationWalk(2, 4).advance(np.array([0.0, 1.0]))
