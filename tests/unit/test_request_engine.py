"""Tests for the rebuilt request-simulation hot path.

Covers the guarantees the streaming engine must keep: per-seed determinism
(bit-identical counters and summaries across runs), agreement with the
analytic M/M/c model ("agree on means by construction"), O(1) pending-event
accounting, bounded heap growth under streaming arrivals, and the columnar
metrics compatibility surface.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracles.trace import records

from repro.api.spec import HealthCheckSpec, RetryPolicy
from repro.backends import DipServer, custom_vm_type
from repro.exceptions import ConfigurationError
from repro.lb import FiveTupleHash, LeastConnection, RoundRobin, policy_registry
from repro.lb.base import make_policy, policy_seed_kwargs
from repro.sim import EventScheduler, MetricsCollector, RequestCluster, WorkloadGenerator


def make_dips(capacities, seed=0, cores=1):
    dips = {}
    for index, capacity in enumerate(capacities):
        vm = custom_vm_type(f"vm{index}", vcpus=cores, capacity_rps=capacity)
        dips[f"d{index}"] = DipServer(
            f"d{index}", vm, seed=seed + index, jitter_fraction=0.0
        )
    return dips


class TestSchedulerFastPath:
    def test_tuple_payload_dispatch(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(1.0, (seen.append, "a"))
        scheduler.schedule(2.0, lambda: seen.append("b"))
        scheduler.run_until(3.0)
        assert seen == ["a", "b"]

    def test_pending_events_counter_tracks_schedule_cancel_pop(self):
        scheduler = EventScheduler()
        assert scheduler.pending_events == 0
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        handle = scheduler.schedule_cancellable(3.0, lambda: None)
        assert scheduler.pending_events == 3
        handle.cancel()
        assert scheduler.pending_events == 2
        handle.cancel()  # idempotent
        assert scheduler.pending_events == 2
        scheduler.run_until(1.5)
        assert scheduler.pending_events == 1
        scheduler.run_until(10.0)
        assert scheduler.pending_events == 0

    def test_peak_pending_records_high_water_mark(self):
        scheduler = EventScheduler()
        for delay in (1.0, 2.0, 3.0):
            scheduler.schedule(delay, lambda: None)
        scheduler.run_until(10.0)
        assert scheduler.peak_pending_events == 3
        assert scheduler.pending_events == 0

    def test_cancel_after_fire_does_not_corrupt_pending_count(self):
        """Regression: cancelling an already-fired handle must be a no-op."""
        scheduler = EventScheduler()
        handle = scheduler.schedule_cancellable(1.0, lambda: None)
        scheduler.run_until(2.0)
        handle.cancel()
        assert scheduler.pending_events == 0
        scheduler.schedule(1.0, lambda: None)
        assert scheduler.pending_events == 1
        assert scheduler.peak_pending_events == 1

    def test_cancellable_events_keep_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(2.0, lambda: order.append("plain"))
        scheduler.schedule_cancellable(1.0, lambda: order.append("cancellable"))
        scheduler.run_until(5.0)
        assert order == ["cancellable", "plain"]

    def test_run_stream_merges_arrivals_with_heap_events(self):
        scheduler = EventScheduler()
        order = []
        stream = iter([1.0, 2.5, math.inf])

        def fire():
            order.append(("arrival", scheduler.now))
            return next(stream)

        scheduler.schedule(2.0, lambda: order.append(("event", scheduler.now)))
        executed = scheduler.run_stream(10.0, 0.5, fire)
        assert executed == 4
        assert order == [
            ("arrival", 0.5),
            ("arrival", 1.0),
            ("event", 2.0),
            ("arrival", 2.5),
        ]
        assert scheduler.now == 10.0

    def test_run_stream_with_no_arrivals_drains_heap(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append(True))
        executed = scheduler.run_stream(5.0, math.inf, lambda: math.inf)
        assert executed == 1
        assert fired == [True]


class TestWorkloadBatches:
    def test_batch_port_sequence_matches_scalar_wraparound(self):
        batched = WorkloadGenerator(rate_rps=10.0, seed=1)
        scalar = WorkloadGenerator(rate_rps=10.0, seed=1)
        scalar._next_port = batched._next_port = 64995
        _, _, ports = batched.next_batch(12)
        expected = [scalar.next_flow().src_port for _ in range(12)]
        assert ports.tolist() == expected

    def test_batch_advances_request_counter(self):
        generator = WorkloadGenerator(rate_rps=10.0, seed=1)
        generator.next_batch(64)
        generator.next_interarrival_batch(16)
        assert generator.requests_generated == 80

    def test_batch_interarrivals_match_rate(self):
        generator = WorkloadGenerator(rate_rps=100.0, seed=3)
        gaps, _, _ = generator.next_batch(4000)
        assert gaps.mean() == pytest.approx(0.01, rel=0.1)

    def test_same_seed_same_batches(self):
        a = WorkloadGenerator(rate_rps=50.0, seed=9)
        b = WorkloadGenerator(rate_rps=50.0, seed=9)
        ga, ca, pa = a.next_batch(256)
        gb, cb, pb = b.next_batch(256)
        assert np.array_equal(ga, gb)
        assert np.array_equal(ca, cb)
        assert np.array_equal(pa, pb)


class TestDeterminism:
    def _run(self, policy_cls, seed=11, requests=4000, warmup=0.5, duration=None):
        dips = make_dips([400.0, 400.0, 300.0], cores=2)
        cluster = RequestCluster(
            dips, policy_cls(list(dips)), rate_rps=600.0, seed=seed
        )
        return cluster.run(
            num_requests=requests, duration_s=duration, warmup_s=warmup
        )

    @pytest.mark.parametrize("policy_cls", [RoundRobin, LeastConnection, FiveTupleHash])
    def test_same_seed_bit_identical_runs(self, policy_cls):
        first = self._run(policy_cls)
        second = self._run(policy_cls)
        assert first.requests_submitted == second.requests_submitted
        assert first.requests_completed == second.requests_completed
        assert first.requests_dropped == second.requests_dropped
        assert first.metrics.request_share() == second.metrics.request_share()
        first_summaries = first.metrics.summaries()
        second_summaries = second.metrics.summaries()
        assert first_summaries.keys() == second_summaries.keys()
        for dip, summary in first_summaries.items():
            other = second_summaries[dip]
            assert summary.requests == other.requests
            # bit-identical, not approximately equal
            assert summary.mean_latency_ms == other.mean_latency_ms
            assert summary.p99_latency_ms == other.p99_latency_ms
            assert summary.drop_fraction == other.drop_fraction

    def test_a_segmented_run_replays_the_continuous_one(self):
        """begin + one run_to per window + finish == run(), to the bit."""
        whole = self._run(LeastConnection, requests=None, duration=6.0)
        dips = make_dips([400.0, 400.0, 300.0], cores=2)
        cluster = RequestCluster(
            dips, LeastConnection(list(dips)), rate_rps=600.0, seed=11
        )
        cluster.begin(duration_s=6.0, warmup_s=0.5)
        for stop in (0.5, 2.0, 2.0, 4.75, 6.5, 36.5):
            cluster.run_to(stop)
        parts = cluster.finish()
        assert parts.duration_s == whole.duration_s
        assert parts.requests_submitted == whole.requests_submitted
        assert parts.requests_dropped == whole.requests_dropped
        assert np.array_equal(parts.metrics.latencies_ms(), whole.metrics.latencies_ms())
        assert parts.metrics.summaries() == whole.metrics.summaries()

    def test_different_seeds_differ(self):
        first = self._run(RoundRobin, seed=11)
        second = self._run(RoundRobin, seed=12)
        assert (
            first.metrics.mean_latency_ms() != second.metrics.mean_latency_ms()
        )


#: how a run meets its DIP failure: the resilience layer it carries (each
#: changes what ``begin`` arms: the retrying arrival handler, per-DIP probe
#: cycles) and the failure's drain (a drain schedules the kill itself).
RESILIENCE = {
    "oracle": ({}, 0.0),
    "drain": ({}, 1.0),
    "retry": ({"retry": RetryPolicy(enabled=True, request_timeout_s=0.02)}, 0.0),
    "health": (
        {
            "health": HealthCheckSpec(
                enabled=True, probe_interval_s=0.5, probe_timeout_s=0.1
            )
        },
        0.0,
    ),
}


class TestSegmentedRuns:
    """A run advanced by ``run_to`` in pieces is the continuous run, for
    every policy and resilience layer, through a failure and a recovery."""

    @staticmethod
    def cluster(policy, resilience):
        layers, drain_s = RESILIENCE[resilience]
        dips = make_dips([400.0, 400.0, 300.0], cores=2)
        cluster = RequestCluster(
            dips,
            make_policy(policy, list(dips), **policy_seed_kwargs(policy, seed=11)),
            rate_rps=650.0,
            seed=11,
            **layers,
        )
        cluster.set_weights({"d0": 0.4, "d1": 0.4, "d2": 0.2})
        # Scheduled work makes run() take the event engine, as run_to does.
        cluster.scheduler.schedule_at(
            2.0, lambda: cluster.fail_dip("d2", drain_s=drain_s)
        )
        cluster.scheduler.schedule_at(4.0, lambda: cluster.recover_dip("d2"))
        return cluster

    @pytest.mark.parametrize("resilience", sorted(RESILIENCE))
    @pytest.mark.parametrize("policy", sorted(policy_registry()))
    def test_segments_replay_the_continuous_run(self, policy, resilience):
        whole = self.cluster(policy, resilience).run(duration_s=6.0, warmup_s=0.5)
        cluster = self.cluster(policy, resilience)
        cluster.begin(duration_s=6.0, warmup_s=0.5)
        # Stops at the warm-up end, on the failure instant (twice), between
        # events, at the horizon and past the 30 s completion drain.
        for stop in (0.5, 2.0, 2.0, 3.3, 4.0, 6.5, 36.5):
            cluster.run_to(stop)
        parts = cluster.finish()
        assert parts.station_path == whole.station_path == "events"
        assert parts.requests_submitted == whole.requests_submitted > 3000
        assert parts.requests_completed == whole.requests_completed
        assert parts.requests_dropped == whole.requests_dropped
        assert np.array_equal(parts.metrics.latencies_ms(), whole.metrics.latencies_ms())
        assert parts.metrics.summaries() == whole.metrics.summaries()
        assert parts.metrics.retry_summary() == whole.metrics.retry_summary()
        if resilience == "retry":
            assert whole.metrics.retry_summary()["retried_fraction"] > 0
        if resilience == "health":
            # Queued work is lost while the probes have not yet noticed.
            assert whole.requests_dropped > 0


class TestAnalyticAgreement:
    def test_mean_latency_matches_mmc_model_multicore(self):
        """Request-level mean latency tracks the analytic M/M/c mean.

        The 'agree on means by construction' claim in sim/queueing.py: a
        4-worker station at moderate load must reproduce the Erlang-C mean.
        """
        dips = make_dips([800.0], cores=4)
        rate = 0.6 * 800.0
        cluster = RequestCluster(dips, RoundRobin(list(dips)), rate_rps=rate, seed=5)
        result = cluster.run(num_requests=20_000, warmup_s=2.0)
        analytic = dips["d0"].latency_model.mean_latency_ms(rate)
        measured = result.metrics.mean_latency_ms()
        assert measured == pytest.approx(analytic, rel=0.1)

    def test_mean_latency_matches_under_degraded_capacity(self):
        """The cached mean service time must track antagonist changes."""
        dips = make_dips([500.0], cores=2)
        dips["d0"].set_capacity_ratio(0.6)
        rate = 0.5 * 500.0 * 0.6
        cluster = RequestCluster(dips, RoundRobin(list(dips)), rate_rps=rate, seed=5)
        result = cluster.run(num_requests=15_000, warmup_s=2.0)
        analytic = dips["d0"].latency_model.mean_latency_ms(rate)
        assert result.metrics.mean_latency_ms() == pytest.approx(analytic, rel=0.12)


class TestStreamingArrivals:
    def test_peak_heap_stays_bounded(self):
        """Peak scheduled events must be O(in-flight), not O(total requests)."""
        dips = make_dips([400.0] * 8, cores=2)
        cluster = RequestCluster(dips, RoundRobin(list(dips)), rate_rps=1800.0, seed=3)
        # begin / run_to / finish is the event engine whatever the policy
        # (run() would replay round robin and never touch the heap).
        cluster.begin(duration_s=30_000 / 1800.0)
        cluster.run_to(30_000 / 1800.0 + 30.0)
        result = cluster.finish()
        assert result.station_path == "events"
        assert result.requests_submitted >= 29_000
        # 8 DIPs x 2 workers + 8 x 256 queue slots + observation event is the
        # absolute ceiling; typical peaks are far below the request count.
        assert cluster.scheduler.peak_pending_events < 3000
        assert cluster.scheduler.pending_events == 0

    def test_a_cluster_runs_once(self):
        """A second run used to restart arrivals at clock 0 under a scheduler
        30 s ahead and append to the first run's records, silently."""
        dips = make_dips([400.0] * 4)
        for policy in (RoundRobin(list(dips)), LeastConnection(list(dips))):
            cluster = RequestCluster(dips, policy, rate_rps=800.0, seed=3)
            first = cluster.run(num_requests=5000)
            recorded = first.metrics.total_requests
            with pytest.raises(ConfigurationError, match="already run"):
                cluster.run(num_requests=5000)
            with pytest.raises(ConfigurationError, match="already run"):
                cluster.begin(duration_s=1.0)
            assert cluster.metrics.total_requests == recorded

    def test_warmup_requests_not_recorded(self):
        dips = make_dips([400.0])
        cluster = RequestCluster(dips, RoundRobin(list(dips)), rate_rps=200.0, seed=3)
        result = cluster.run(num_requests=1000, warmup_s=2.0)
        # ~400 warmup arrivals happened but were not recorded.
        assert result.metrics.total_requests == result.requests_submitted
        assert result.requests_submitted < cluster.workload.requests_generated


class TestColumnarMetrics:
    def test_recorded_rows_round_trip(self):
        metrics = MetricsCollector()
        metrics.record_request("a", 1.5, completed=True, timestamp=0.1)
        metrics.record_request("b", None, completed=False, timestamp=0.2)
        rows = records(metrics)
        assert len(rows) == 2
        assert rows[0].dip == "a"
        assert rows[0].latency_ms == pytest.approx(1.5)
        assert rows[1].dip == "b"
        assert math.isnan(rows[1].latency_ms)
        assert not rows[1].completed
        assert rows[1].timestamp == pytest.approx(0.2)

    def test_recorded_rows_span_committed_chunks_and_staging(self):
        """Rows read back in record order across a chunk flush, a query's
        flush and the staging lists."""
        metrics = MetricsCollector()
        rows = [
            ("a" if i % 3 else "b", float(i % 11), i % 4 != 0, i * 1e-3)
            for i in range(9_000)
        ]
        for index, (dip, latency, done, ts) in enumerate(rows):
            metrics.record_request(dip, latency, completed=done, timestamp=ts)
            if index == 4_000:
                assert metrics.total_requests == 4_001
        got = [(r.dip, r.latency_ms, r.completed, r.timestamp) for r in records(metrics)]
        assert got == rows

    def test_queries_see_staged_records(self):
        """Aggregates must include records still in the staging buffers."""
        metrics = MetricsCollector()
        for _ in range(10):
            metrics.record_request("a", 2.0)
        assert metrics.total_requests == 10
        assert metrics.mean_latency_ms() == pytest.approx(2.0)
        assert metrics.request_share() == {"a": 1.0}
        # interleave more records after a flush-inducing query
        metrics.record_request("b", 4.0)
        assert metrics.total_requests == 11
        assert metrics.request_share()["b"] == pytest.approx(1 / 11)

    def test_large_ingest_crosses_chunk_boundary(self):
        metrics = MetricsCollector()
        for i in range(20_000):
            metrics.record_request("a" if i % 2 else "b", float(i % 7), completed=i % 5 != 0)
        assert metrics.total_requests == 20_000
        assert metrics.drop_fraction() == pytest.approx(0.2)
        assert metrics.latencies_ms().size == 16_000

    def test_dip_filter_with_unknown_dip(self):
        metrics = MetricsCollector()
        metrics.record_request("a", 1.0)
        assert metrics.latencies_ms(dips=["ghost"]).size == 0
        assert metrics.drop_fraction(dips=["ghost"]) == 0.0
