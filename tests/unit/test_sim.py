"""Unit tests for the simulation substrate (engine, queueing, fluid, cluster)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import DipServer, custom_vm_type
from repro.exceptions import ConfigurationError, SimulationError
from repro.lb import LeastConnection, RoundRobin, WeightedRoundRobin
from repro.sim import (
    EventScheduler,
    MetricsCollector,
    RequestCluster,
    Vip,
    WorkloadGenerator,
    fraction_of_requests_improved,
    max_latency_gain,
)
from repro.sim.client import ClientPool
from repro.sim.queueing import DipStation
from repro.sim.request import Request, RequestOutcome
from repro.lb.least_connection import least_connection_split_array
from repro.lb.power_of_two import power_of_two_split_array
from repro.sim.fleet import one_vip_fleet
from repro.sim.fluid import equal_split_array, pool_arrays, weighted_split_array


def make_dips(capacities, seed=0, cores=1):
    dips = {}
    for index, capacity in enumerate(capacities):
        vm = custom_vm_type(f"vm{index}", vcpus=cores, capacity_rps=capacity)
        dips[f"d{index}"] = DipServer(f"d{index}", vm, seed=seed + index, jitter_fraction=0.0)
    return dips


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(2.0, lambda: order.append("b"))
        scheduler.schedule(1.0, lambda: order.append("a"))
        scheduler.run_until(5.0)
        assert order == ["a", "b"]

    def test_ties_run_in_insertion_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(1.0, lambda: order.append(1))
        scheduler.schedule(1.0, lambda: order.append(2))
        scheduler.run_until(2.0)
        assert order == [1, 2]

    def test_run_until_stops_at_boundary(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(10.0, lambda: fired.append(True))
        scheduler.run_until(5.0)
        assert not fired
        assert scheduler.now == 5.0

    def test_cancelled_event_not_run(self):
        scheduler = EventScheduler()
        fired = []
        handle = scheduler.schedule_cancellable(1.0, lambda: fired.append(True))
        handle.cancel()
        scheduler.run_until(2.0)
        assert not fired

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        scheduler = EventScheduler()
        seen = []

        def first():
            seen.append("first")
            scheduler.schedule(1.0, lambda: seen.append("second"))

        scheduler.schedule(1.0, first)
        scheduler.run_until(5.0)
        assert seen == ["first", "second"]

    def test_processed_counter(self):
        scheduler = EventScheduler()
        scheduler.schedule(0.5, lambda: None)
        scheduler.schedule(0.6, lambda: None)
        scheduler.run_until(1.0)
        assert scheduler.processed_events == 2

    def test_max_events_truncation_keeps_clock_at_last_event(self):
        """Regression: a truncated run must not advance past pending events."""
        scheduler = EventScheduler()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            scheduler.schedule(delay, lambda d=delay: fired.append(d))
        executed = scheduler.run_until(10.0, max_events=2)
        assert executed == 2
        assert fired == [1.0, 2.0]
        assert scheduler.now == 2.0  # not 10.0: an event at t=3 is still due
        # Resuming executes the pending event at its own (future) time.
        executed = scheduler.run_until(10.0)
        assert executed == 1
        assert fired == [1.0, 2.0, 3.0]
        assert scheduler.now == 10.0

    def test_max_events_truncation_without_pending_reaches_end_time(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        executed = scheduler.run_until(5.0, max_events=1)
        assert executed == 1
        assert scheduler.now == 5.0  # nothing else due before end_time

    def test_max_events_truncation_ignores_cancelled_pending(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        handle = scheduler.schedule_cancellable(2.0, lambda: None)
        handle.cancel()
        executed = scheduler.run_until(5.0, max_events=1)
        assert executed == 1
        assert scheduler.now == 5.0  # the only pending event was cancelled


    def test_max_events_stops_a_self_rearming_event(self):
        scheduler = EventScheduler()

        def rearm():
            scheduler.schedule(0.001, rearm)

        scheduler.schedule(0.001, rearm)
        assert scheduler.run_until(10.0, max_events=100) == 100
        assert scheduler.pending_events == 1
        assert scheduler.now == pytest.approx(0.1)


class TestWorkloadGenerator:
    def test_interarrival_mean_matches_rate(self):
        generator = WorkloadGenerator(rate_rps=100.0, seed=1)
        samples = [generator.next_interarrival_s() for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(0.01, rel=0.1)

    def test_flows_have_distinct_ports(self):
        generator = WorkloadGenerator(rate_rps=10.0, seed=1)
        flows = [generator.next_flow() for _ in range(100)]
        assert len({(f.src_ip, f.src_port) for f in flows}) == 100

    def test_clients_limited_to_pool(self):
        generator = WorkloadGenerator(rate_rps=10.0, clients=ClientPool(num_clients=2), seed=1)
        sources = {generator.next_flow().src_ip for _ in range(50)}
        assert len(sources) <= 2

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(rate_rps=0.0)


class TestFluidSplits:
    def test_equal_split(self):
        assert equal_split_array(2, 100.0).tolist() == [50.0, 50.0]

    def test_weighted_split(self):
        rates = weighted_split_array(np.array([0.75, 0.25]), 100.0)
        assert rates[0] == pytest.approx(75.0)

    def test_weighted_split_zero_weights_falls_back_to_equal(self):
        rates = weighted_split_array(np.array([0.0, 0.0]), 100.0)
        assert rates[0] == pytest.approx(50.0)

    def test_least_connection_shifts_traffic_from_slow_dip(self):
        """The fluid LC equilibrium sends less traffic to the slower DIP.

        (The §2.1 under-adaptation of real least-connection — where short
        per-request connections quantise the signal — is reproduced by the
        request-level simulator, not by this idealised fluid equilibrium.)
        """
        dips = make_dips([400.0, 400.0])
        dips["d1"].set_capacity_ratio(0.6)
        rates = least_connection_split_array(pool_arrays(dips).law, 0.7 * (400 + 240))
        assert rates[1] < rates[0]
        assert rates.sum() == pytest.approx(0.7 * 640, rel=1e-6)

    def test_least_connection_conserves_traffic(self):
        dips = make_dips([400.0, 800.0, 1200.0])
        rates = least_connection_split_array(pool_arrays(dips).law, 1000.0)
        assert rates.sum() == pytest.approx(1000.0, rel=1e-6)

    def test_power_of_two_conserves_traffic(self):
        dips = make_dips([400.0, 800.0])
        rates = power_of_two_split_array(pool_arrays(dips).law, 600.0)
        assert rates.sum() == pytest.approx(600.0, rel=1e-6)

    def test_power_of_two_favours_big_dip(self):
        dips = make_dips([400.0, 1200.0])
        rates = power_of_two_split_array(pool_arrays(dips).law, 800.0)
        assert rates[1] > rates[0]

    def test_split_for_policy_dispatch(self):
        for policy in ("rr", "hash", "random"):
            fleet = one_vip_fleet(make_dips([400.0, 400.0]), 100.0, policy)
            assert fleet.state().total_rates_rps["d0"] == pytest.approx(50.0)
        fleet = one_vip_fleet(make_dips([400.0, 400.0]), 100.0)
        fleet.set_weights("vip", {"d0": 0.9, "d1": 0.1})
        assert fleet.state().total_rates_rps["d0"] == pytest.approx(90.0)

    def test_split_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="no fluid model for policy 'bogus'"):
            one_vip_fleet(make_dips([400.0]), 100.0, "bogus")


class TestOneVipFleet:
    """A single-VIP system: one VIP, ``"vip"``, over the whole pool."""

    def test_weights_drive_rates(self):
        fleet = one_vip_fleet(make_dips([400.0, 400.0]), 400.0)
        fleet.set_weights("vip", {"d0": 0.75, "d1": 0.25})
        rates = fleet.state().total_rates_rps
        assert rates["d0"] == pytest.approx(300.0)
        assert rates["d1"] == pytest.approx(100.0)

    def test_state_reports_latency_and_util(self):
        state = one_vip_fleet(make_dips([400.0, 400.0]), 400.0).state()
        assert set(state.mean_latency_ms) == {"d0", "d1"}
        assert state.overall_mean_latency_ms() > 0

    def test_failed_dip_gets_no_traffic(self):
        fleet = one_vip_fleet(make_dips([400.0, 400.0]), 400.0)
        fleet.fail_dip("d0")
        assert fleet.state().total_rates_rps["d0"] == 0.0
        assert fleet.state().total_rates_rps["d1"] == pytest.approx(400.0)
        fleet.recover_dip("d0")
        assert fleet.state().total_rates_rps["d0"] > 0

    def test_traffic_scaling(self):
        fleet = one_vip_fleet(make_dips([400.0, 400.0]), 400.0)
        fleet.scale_traffic("vip", 1.5)
        assert fleet.vips["vip"].total_rate_rps == pytest.approx(600.0)
        assert fleet.state().total_rates_rps == {"d0": 300.0, "d1": 300.0}

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -1.0])
    def test_traffic_scaling_refusal_names_the_factor(self, factor):
        """A refused factor is named as such, and leaves the rate as it was."""
        fleet = one_vip_fleet(make_dips([400.0, 400.0]), 400.0)
        with pytest.raises(ConfigurationError, match=r"^factor must be finite and >= 0"):
            fleet.scale_traffic("vip", factor)
        assert fleet.vips["vip"].total_rate_rps == 400.0
        assert fleet.state().total_rates_rps == {"d0": 200.0, "d1": 200.0}

    def test_capacity_change_updates_latency(self):
        fleet = one_vip_fleet(make_dips([400.0, 400.0]), 560.0)
        before = fleet.state().mean_latency_ms["d0"]
        fleet.set_capacity_ratio("d0", 0.6)
        after = fleet.state().mean_latency_ms["d0"]
        assert after > before

    def test_unknown_dip_weight_rejected(self):
        fleet = one_vip_fleet(make_dips([400.0]), 100.0)
        with pytest.raises(ConfigurationError):
            fleet.set_weights("vip", {"ghost": 0.5})

    def test_overall_latency_request_weighted(self):
        fleet = one_vip_fleet(make_dips([400.0, 400.0]), 500.0)
        fleet.set_weights("vip", {"d0": 0.9, "d1": 0.1})
        state = fleet.state()
        # d0 is much hotter; the request-weighted mean must lean toward d0.
        assert state.overall_mean_latency_ms() > (
            0.5 * state.mean_latency_ms["d0"] + 0.5 * state.mean_latency_ms["d1"]
        ) - state.mean_latency_ms["d0"] * 0.5


class TestRequestCluster:
    def test_latency_matches_analytic_model(self):
        """The DES and the fluid model must agree on mean latency."""
        dips = make_dips([400.0], cores=1)
        cluster = RequestCluster(
            dips, RoundRobin(list(dips)), rate_rps=200.0, seed=3
        )
        result = cluster.run(num_requests=4000, warmup_s=2.0)
        analytic = dips["d0"].latency_model.mean_latency_ms(200.0)
        measured = result.metrics.mean_latency_ms()
        assert measured == pytest.approx(analytic, rel=0.2)

    def test_utilization_matches_offered_load(self):
        dips = make_dips([400.0])
        cluster = RequestCluster(dips, RoundRobin(list(dips)), rate_rps=200.0, seed=3)
        result = cluster.run(num_requests=3000, warmup_s=2.0)
        util = result.metrics.utilization()["d0"]
        assert util == pytest.approx(0.5, abs=0.07)

    def test_weighted_policy_splits_requests(self):
        dips = make_dips([400.0, 400.0])
        policy = WeightedRoundRobin(list(dips), weights={"d0": 0.8, "d1": 0.2})
        cluster = RequestCluster(dips, policy, rate_rps=300.0, seed=3)
        cluster.run(num_requests=3000)
        share = cluster.request_share()
        assert share["d0"] == pytest.approx(0.8, abs=0.03)

    def test_set_weights_on_running_cluster(self):
        dips = make_dips([400.0, 400.0])
        policy = WeightedRoundRobin(list(dips))
        cluster = RequestCluster(dips, policy, rate_rps=100.0, seed=3)
        cluster.set_weights({"d0": 1.0, "d1": 0.0})
        cluster.run(num_requests=500)
        assert cluster.request_share().get("d1", 0.0) == 0.0

    def test_overload_produces_drops(self):
        dips = make_dips([100.0])
        cluster = RequestCluster(
            dips, RoundRobin(list(dips)), rate_rps=300.0, seed=3, queue_capacity=16
        )
        result = cluster.run(duration_s=20.0)
        assert result.requests_dropped > 0
        assert result.drop_fraction > 0.1

    def test_least_connection_uses_live_counts(self):
        dips = make_dips([400.0, 200.0])
        policy = LeastConnection(list(dips))
        cluster = RequestCluster(dips, policy, rate_rps=400.0, seed=3)
        cluster.run(num_requests=4000, warmup_s=1.0)
        share = cluster.request_share()
        # LC sends more requests to the faster DIP (it frees slots sooner).
        assert share["d0"] > share["d1"]

    def test_requires_one_request_budget(self):
        dips = make_dips([400.0])
        cluster = RequestCluster(dips, RoundRobin(list(dips)), rate_rps=10.0)
        with pytest.raises(ConfigurationError):
            cluster.run()
        with pytest.raises(ConfigurationError):
            cluster.run(num_requests=10, duration_s=1.0)

    def test_failed_dip_requests_marked_failed(self):
        dips = make_dips([400.0, 400.0])
        dips["d1"].fail()
        policy = RoundRobin(list(dips))
        cluster = RequestCluster(dips, policy, rate_rps=100.0, seed=3)
        result = cluster.run(num_requests=200)
        assert result.requests_dropped > 0


class TestDipStation:
    def test_a_request_of_four_fields_is_served_in_order(self):
        """A request built from its first four fields (id, flow, arrival,
        DIP), as a benchmark probe builds it, is served whole: one worker
        takes the first and queues the second, and both complete in order."""
        dips = make_dips([400.0])
        scheduler = EventScheduler()
        done = []
        station = DipStation(dips["d0"], scheduler, seed=3, completion_sink=done.append)
        first, second = Request(1, None, 0.0, "d0"), Request(2, None, 0.0, "d0")
        finish = station.submit(first)
        assert finish > 0.0
        assert station.submit(second) is None
        scheduler.run_until(1.0)
        assert [r.request_id for r in done] == [1, 2]
        assert all(r.outcome is RequestOutcome.COMPLETED for r in done)
        assert first.completion_time == finish < second.completion_time
        assert not hasattr(first, "__dict__")


class TestMetricsCollector:
    def test_mean_and_percentiles(self):
        metrics = MetricsCollector()
        for latency in (1.0, 2.0, 3.0, 4.0):
            metrics.record_request("a", latency)
        assert metrics.mean_latency_ms() == pytest.approx(2.5)
        assert metrics.percentile_latency_ms(50) == pytest.approx(2.5)

    def test_dip_filter(self):
        metrics = MetricsCollector()
        metrics.record_request("a", 1.0)
        metrics.record_request("b", 9.0)
        assert metrics.mean_latency_ms(dips=["a"]) == pytest.approx(1.0)

    def test_percentiles_rise_with_the_quantile(self):
        metrics = MetricsCollector()
        for latency in range(100, 0, -1):
            metrics.record_request("a", float(latency))
        levels = [metrics.percentile_latency_ms(q) for q in (0, 10, 50, 90, 99, 100)]
        assert levels == sorted(levels)
        assert (levels[0], levels[-1]) == (1.0, 100.0)

    def test_drop_fraction(self):
        metrics = MetricsCollector()
        metrics.record_request("a", 1.0)
        metrics.record_request("a", None, completed=False)
        assert metrics.drop_fraction() == pytest.approx(0.5)

    def test_request_share(self):
        metrics = MetricsCollector()
        metrics.record_request("a", 1.0)
        metrics.record_request("a", 1.0)
        metrics.record_request("b", 1.0)
        assert metrics.request_share()["a"] == pytest.approx(2 / 3)

    def test_summaries(self):
        metrics = MetricsCollector()
        metrics.record_request("a", 1.0)
        metrics.record_utilization({"a": 0.4})
        summary = metrics.summaries()["a"]
        assert summary.requests == 1
        assert summary.cpu_utilization == pytest.approx(0.4)

    def test_comparison_helpers(self):
        slow, fast = MetricsCollector(), MetricsCollector()
        for latency in range(1, 101):
            slow.record_request("a", float(latency))
            fast.record_request("a", float(latency) * 0.5)
        assert fraction_of_requests_improved(slow, fast) == pytest.approx(1.0)
        assert max_latency_gain(slow, fast) == pytest.approx(0.5, abs=0.05)

    def test_empty_metrics(self):
        metrics = MetricsCollector()
        assert metrics.request_share() == {}
        assert metrics.drop_fraction() == 0.0


class TestVip:
    def test_add_dip(self):
        vip = Vip(vip_id="v1")
        dip = DipServer("d1", custom_vm_type("t", vcpus=1, capacity_rps=100.0))
        vip.add_dip(dip)
        assert vip.dip_ids() == ("d1",)
        with pytest.raises(ConfigurationError):
            vip.add_dip(dip)

    def test_healthy_and_capacity(self):
        vip = Vip(vip_id="v1")
        a = DipServer("a", custom_vm_type("t", vcpus=1, capacity_rps=100.0))
        b = DipServer("b", custom_vm_type("t", vcpus=1, capacity_rps=300.0))
        vip.add_dip(a)
        vip.add_dip(b)
        b.fail()
        assert vip.healthy_dip_ids() == ("a",)
        assert vip.total_capacity_rps == pytest.approx(100.0)
