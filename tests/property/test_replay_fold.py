"""Differential tests: the whole-column replay fold against the per-station one.

``RequestCluster._replay`` walks every station's sub-stream into one
departure column (:func:`repro.sim.queueing.replay_stations`) and builds
the record columns, the warm-up cut and the scatter back to arrival order
as whole-column passes; the collector then orders the rows by timestamp
with an unstable sort whose ties go back to row order.  The oracle is the
fold it replaced — each station's ``DipStation.replay`` and four
fancy-index writes per station, then a stable timestamp argsort — kept
verbatim below (``self`` the cluster or collector, the station method a
function).  Both folds run on twin clusters, and the collector columns,
the counters, and every station's ``DipQueueStats``, draw buffer,
generator state and busy workers must agree to the last bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_request_replay import build_cluster, cases

from repro.core.types import stable_group_order
from repro.lb.base import FlowKey
from repro.sim.queueing import StationWalk
from repro.sim.trace import MetricsCollector

_DRAIN_S = 30.0


def station_replay(self, arrivals, *, measure_from, until):
    """``DipStation.replay`` as it was."""
    walk = StationWalk(
        self._workers,
        self._queue_capacity,
        draw=self._svc_draw,
        mean=self._mean_service_time_s(),
        buf=self._svc_buf,
    )
    outcome = walk.run(
        arrivals, measure_from=measure_from, until=until, account=True
    )
    self._svc_buf = walk.buf
    stats = self.stats = outcome.stats
    held = stats.arrivals - stats.drops - stats.completions  # at ``until``
    self._busy_workers = min(self._workers, held)
    self._last_change = until
    return outcome


def adopt_run(self, dips, latency_ms, dip_index, completed, timestamp):
    """``MetricsCollector.adopt_run`` as it was (a stable timestamp sort)."""
    count = timestamp.size - int(np.count_nonzero(timestamp == np.inf))
    if not count:
        return
    order = timestamp.argsort(kind="stable")[:count].astype(np.int32)
    for column in (latency_ms, dip_index, completed, timestamp):
        column[:count] = column[order]
    del order
    order = stable_group_order(dip_index[:count], len(dips))
    grouped = dip_index[order]
    heads = np.flatnonzero(np.diff(grouped, prepend=-1))
    first = order[heads]
    seen = grouped[heads][first.argsort()]
    del order, grouped
    self._dip_ids = [dips[index] for index in seen.tolist()]
    self._dip_code = {dip: code for code, dip in enumerate(self._dip_ids)}
    code = np.empty(len(dips), dtype=np.int32)
    code[seen] = np.arange(seen.size, dtype=np.int32)
    dip_index[:count] = code[dip_index[:count]]
    self._lat, self._code = latency_ms, dip_index
    self._done, self._ts = completed, timestamp
    self._n = count


def per_station_replay(self, *, duration_s, warmup_s):
    """``RequestCluster._replay`` as it was."""
    self._begun = True
    total_duration = warmup_s + duration_s
    until = total_duration + _DRAIN_S

    self._arrival_clock = 0.0
    batches = [self._draw_arrivals()]
    while self._arrival_clock < total_duration:
        batches.append(self._draw_arrivals())
    times = np.concatenate([batch[0] for batch in batches])
    arrivals = int(times.searchsorted(total_duration, side="left"))
    times = times[:arrivals]

    flows = None
    if self._needs_flow:
        ips, address, port = self._client_ips, self._vip_address, self._vip_port
        clients, ports = (
            np.concatenate([batch[column] for batch in batches])[:arrivals]
            for column in (1, 2)
        )
        flows = (
            FlowKey(src_ip=ips[c], src_port=p, dst_ip=address, dst_port=port)
            for c, p in zip(clients.tolist(), ports.tolist())
        )
    del batches
    picks = self.policy.select_many(arrivals, flows)

    first = int(times.searchsorted(warmup_s, side="left"))
    measured = arrivals - first
    sizes = np.bincount(picks, minlength=len(self.policy.dips))
    by_pick = np.split(
        stable_group_order(picks, sizes.size).astype(np.int32), sizes.cumsum()[:-1]
    )
    del picks
    latency_ms = np.empty(measured, dtype=np.float64)
    station_index = np.empty(measured, dtype=np.int32)
    completed = np.empty(measured, dtype=bool)
    timestamp = np.empty(measured, dtype=np.float64)
    for index, station in enumerate(self._stations.values()):
        mine = by_pick[index]
        outcome = station_replay(station, times[mine], measure_from=warmup_s, until=until)
        rows = mine[mine.size - outcome.submitted :] - first
        latency_ms[rows] = outcome.latency_ms
        station_index[rows] = index
        completed[rows] = outcome.completed
        timestamp[rows] = outcome.timestamp
        self._dropped += outcome.dropped
    del by_pick, times
    latency_ms[~completed] = 0.0
    adopt_run(
        self.metrics, tuple(self._stations), latency_ms, station_index, completed, timestamp
    )
    self._measured_duration = duration_s
    self._total_duration = total_duration
    self._submitted = measured
    self._completed = self.metrics.total_requests - self._dropped
    self.scheduler.run_until(until)
    self._station_path = "replay"
    return self.finish()


def assert_same_fold(ours, theirs) -> None:
    assert (ours._submitted, ours._completed, ours._dropped) == (
        theirs._submitted,
        theirs._completed,
        theirs._dropped,
    )
    a, b = ours.metrics, theirs.metrics
    assert a.total_requests == b.total_requests
    n = a.total_requests
    assert a._dip_ids == b._dip_ids
    for column in ("_lat", "_code", "_done", "_ts"):
        mine, other = getattr(a, column)[:n], getattr(b, column)[:n]
        assert mine.dtype == other.dtype, column
        assert mine.tobytes() == other.tobytes(), column
    assert a.utilization() == b.utilization()
    assert repr(a.summaries()) == repr(b.summaries())
    for dip in ours.dips:
        mine, other = ours.station(dip), theirs.station(dip)
        assert mine.stats == other.stats, dip
        assert mine._svc_buf == other._svc_buf, dip
        assert mine._rng.bit_generator.state == other._rng.bit_generator.state, dip
        assert (mine._busy_workers, mine._last_change) == (
            other._busy_workers,
            other._last_change,
        ), dip


def fold_both(case) -> None:
    ours, theirs = build_cluster(case), build_cluster(case)
    duration_s = case["num_requests"] / ours.workload.rate_rps
    result = ours.run(num_requests=case["num_requests"], warmup_s=case["warmup_s"])
    assert result.station_path == "replay"
    per_station_replay(theirs, duration_s=duration_s, warmup_s=case["warmup_s"])
    assert_same_fold(ours, theirs)


def case(**overrides) -> dict:
    base = {
        "pool": "mixed_core",
        "num_dips": 5,
        "policy": "rr",
        "weights": [1.0, 0.5, 3.0, 0.25, 1.0],
        "load": 0.7,
        "warmup_s": 0.0,
        "queue_capacity": 256,
        "arrival": "poisson",
        "service": "exponential",
        "degraded": False,
        "num_requests": 5000,
        "seed": 17,
    }
    base.update(overrides)
    return base


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        # drops: an overloaded pool with a small queue, and with none
        {"load": 1.3, "queue_capacity": 4},
        {"load": 1.3, "queue_capacity": 0, "warmup_s": 0.4},
        # the warm-up cut, on multi-core DIPs and the 30-DIP testbed
        {"warmup_s": 0.4, "pool": "testbed", "num_dips": 30, "weights": [1.0] * 30},
        # non-exponential service, a degraded DIP and weighted picks
        {"service": "pareto", "policy": "wrr", "degraded": True},
        {"service": "lognormal", "policy": "wrandom", "load": 1.1, "queue_capacity": 4},
        {"service": "elephant", "policy": "hash", "arrival": "mmpp"},
        # a DIP that gets no request at all, and a run of one request
        {"policy": "wrr", "weights": [1.0, 0.0, 1.0, 0.0, 1.0]},
        {"num_requests": 1, "num_dips": 1, "weights": [1.0]},
    ],
)
def test_the_column_fold_is_the_per_station_fold(overrides):
    fold_both(case(**overrides))


@settings(max_examples=40, deadline=None)
@given(cases())
@example(case(load=1.4, queue_capacity=4, warmup_s=0.4, service="pareto"))
def test_the_column_fold_is_the_per_station_fold_on_drawn_runs(drawn):
    fold_both(drawn)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_an_unstable_sort_with_ties_put_back_is_the_stable_one(drawn):
    # Stamps on a coarse grid tie often; ``inf`` ones (in flight at the end)
    # are cut.  The collector must order the rows as the stable sort does.
    rng = np.random.default_rng(drawn["seed"])
    size = drawn["num_requests"]
    stamps = rng.integers(0, max(1, size // 8), size) / 4.0
    stamps[rng.random(size) < 0.05] = np.inf
    dips = tuple(f"d{k}" for k in range(drawn["num_dips"]))
    columns = (
        rng.exponential(3.0, size),
        rng.integers(0, len(dips), size).astype(np.int32),
        rng.random(size) < 0.9,
        stamps,
    )
    ours, theirs = MetricsCollector(), MetricsCollector()
    ours.adopt_run(dips, *(column.copy() for column in columns))
    adopt_run(theirs, dips, *(column.copy() for column in columns))
    n = ours.total_requests
    assert n == theirs.total_requests
    assert ours._dip_ids == theirs._dip_ids
    for column in ("_lat", "_code", "_done", "_ts"):
        assert getattr(ours, column)[:n].tobytes() == getattr(theirs, column)[:n].tobytes()
    assert repr(ours.summaries()) == repr(theirs.summaries())
