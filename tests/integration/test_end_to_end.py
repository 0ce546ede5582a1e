"""Integration tests: KnapsackLB weights evaluated on the request-level
simulator, working through different LB facades (§6.2, §6.5)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api.runners import execute
from repro.api.spec import ExperimentSpec
from repro.core import FleetController
from repro.lb import (
    AzureTrafficManagerSim,
    HAProxySim,
    LeastConnection,
    MuxPool,
    NginxSim,
    RoundRobin,
    WeightedRoundRobin,
)
from repro.sim import FluidCluster, RequestCluster
from repro.workloads import build_three_dip_pool


def compute_klb_weights(dips, load_fraction=0.75, seed=3):
    """Run the controller against a fluid twin of the pool and return weights."""
    total_capacity = sum(d.capacity_rps for d in dips.values())
    fluid = FluidCluster(
        dips=dips, total_rate_rps=total_capacity * load_fraction, policy_name="wrr"
    )
    plane = FleetController(fluid.fleet)
    plane.onboard_vip("vip")
    assignment = plane.converge_all()["vip"]
    return dict(assignment.weights), total_capacity * load_fraction


class TestKlbVersusBaselinesOnRequestSim:
    @pytest.fixture(scope="class")
    def pool_and_weights(self):
        dips = build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=21)
        weights, rate = compute_klb_weights(dips, load_fraction=0.75)
        return dips, weights, rate

    def run_policy(self, dips_factory, policy_factory, rate, requests=6000, seed=5):
        dips = dips_factory()
        policy = policy_factory(list(dips))
        cluster = RequestCluster(dips, policy, rate_rps=rate, seed=seed)
        return cluster.run(num_requests=requests, warmup_s=2.0)

    def test_klb_latency_beats_rr_and_scaled_out_lc(self, pool_and_weights):
        """Fig. 14: KLB cuts latency vs RR and (scaled-out) LC on the 3-DIP pool.

        Least connection is evaluated through a MUX pool (Fig. 1: production
        LBs run many MUX instances, each with only local connection counts);
        a single omniscient LC instance is a stronger baseline than any real
        deployment and is covered separately below.
        """
        _, weights, rate = pool_and_weights

        def fresh_dips():
            return build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=21)

        rr = self.run_policy(fresh_dips, RoundRobin, rate)
        lc8 = self.run_policy(
            fresh_dips,
            lambda dips: MuxPool(lambda: LeastConnection(dips), num_muxes=8),
            rate,
        )
        klb = self.run_policy(
            fresh_dips,
            lambda dips: WeightedRoundRobin(dips, weights=weights),
            rate,
        )
        assert klb.metrics.mean_latency_ms() < rr.metrics.mean_latency_ms()
        assert klb.metrics.mean_latency_ms() < lc8.metrics.mean_latency_ms()

    def test_klb_competitive_with_ideal_single_mux_lc(self, pool_and_weights):
        """An idealised single-MUX LC pools queues adaptively and is a very
        strong baseline; KLB's static weights must stay within a small factor
        of it (the paper's testbed LC was much weaker than this)."""
        _, weights, rate = pool_and_weights

        def fresh_dips():
            return build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=21)

        lc = self.run_policy(fresh_dips, LeastConnection, rate)
        klb = self.run_policy(
            fresh_dips,
            lambda dips: WeightedRoundRobin(dips, weights=weights),
            rate,
        )
        assert klb.metrics.mean_latency_ms() < lc.metrics.mean_latency_ms() * 2.0

    def test_klb_keeps_slow_dip_cooler(self, pool_and_weights):
        _, weights, rate = pool_and_weights
        dips = build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=21)
        policy = WeightedRoundRobin(list(dips), weights=weights)
        cluster = RequestCluster(dips, policy, rate_rps=rate, seed=6)
        result = cluster.run(num_requests=6000, warmup_s=2.0)
        utils = result.metrics.utilization()
        assert utils["DIP-LC"] <= max(utils["DIP-HC-1"], utils["DIP-HC-2"]) + 0.12

    def test_klb_drop_fraction_lower_than_rr(self, pool_and_weights):
        _, weights, rate = pool_and_weights

        def fresh_dips():
            return build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=21)

        rr = self.run_policy(fresh_dips, RoundRobin, rate)
        klb = self.run_policy(
            fresh_dips, lambda dips: WeightedRoundRobin(dips, weights=weights), rate
        )
        assert klb.drop_fraction <= rr.drop_fraction + 1e-9


class TestWorkingThroughFacades:
    """§6.5: KnapsackLB programs HAProxy, Nginx and DNS (Azure TM) alike."""

    WEIGHTS = {"DIP-HC-1": 0.2, "DIP-HC-2": 0.3, "DIP-LC": 0.5}

    def request_share(self, facade, rate=300.0, requests=8000, seed=9):
        dips = build_three_dip_pool(capacity_ratio=1.0, cores=1, seed=31)
        cluster = RequestCluster(dips, facade.policy, rate_rps=rate, seed=seed)
        cluster.run(num_requests=requests)
        return cluster.request_share()

    def test_haproxy_honours_programmed_weights(self):
        lb = HAProxySim(list(self.WEIGHTS), algorithm="weighted-roundrobin")
        lb.set_weights(self.WEIGHTS)
        share = self.request_share(lb)
        for dip, weight in self.WEIGHTS.items():
            assert share[dip] == pytest.approx(weight, abs=0.03)

    def test_nginx_honours_programmed_weights(self):
        """Table 5, row 1: Nginx splits 20/30/50."""
        lb = NginxSim(list(self.WEIGHTS), algorithm="weighted-roundrobin")
        lb.set_weights(self.WEIGHTS)
        share = self.request_share(lb)
        assert share["DIP-LC"] == pytest.approx(0.5, abs=0.03)

    def test_azure_traffic_manager_approximates_weights(self):
        """Table 5, row 2: DNS splits roughly follow the weights (cache skew)."""
        tm = AzureTrafficManagerSim(list(self.WEIGHTS), cache_ttl_s=5.0, seed=13)
        tm.set_weights(self.WEIGHTS)
        share = self.request_share(tm)
        for dip, weight in self.WEIGHTS.items():
            assert share[dip] == pytest.approx(weight, abs=0.12)

    def test_mux_pool_end_to_end(self):
        dips = build_three_dip_pool(capacity_ratio=1.0, cores=1, seed=31)
        pool = MuxPool(lambda: WeightedRoundRobin(list(dips)), num_muxes=3)
        pool.program_weights(self.WEIGHTS)
        cluster = RequestCluster(dips, pool, rate_rps=300.0, seed=9)
        cluster.run(num_requests=6000)
        share = cluster.request_share()
        assert share["DIP-LC"] == pytest.approx(0.5, abs=0.05)


# -- golden per-seed gate: weighted picks through the request engine ---------------
#
# ``req_serial_klb_wrr`` (the benchmark's workload file, read here, never edited)
# and its ``wrandom`` / ``dns`` variants, recorded at commit 3a7c161 — before the
# three weight-programmed policies began picking from a cached weight plan.  A
# plan changes when a pick is computed, never which DIP it returns, so these
# move only with a change that means to move the serial pick sequence.

KLB_WRR_SPEC = (
    Path(__file__).resolve().parents[2]
    / "benchmarks/observatory/workloads/req_serial_klb_wrr.json"
)


class TestGoldenWeightedRequestRuns:
    @pytest.mark.parametrize(
        "seed, mean_latency_ms",
        [
            (17, 3.568222258127605),
            (1026, 3.4985327679451816),
            (2035, 3.3952463131588257),
        ],
    )
    def test_klb_wrr_workload(self, seed, mean_latency_ms):
        spec = ExperimentSpec.from_file(KLB_WRR_SPEC).with_overrides({"seed": seed})
        assert execute(spec).metrics["mean_latency_ms"] == mean_latency_ms

    @pytest.mark.parametrize(
        "policy, mean_latency_ms, p99_latency_ms",
        [
            ("wrandom", 5.3370588732707, 28.708704254017498),
            # 8 clients behind a 30 s resolver cache pin 8 of the 30 DIPs.
            ("dns", 208.4890567708998, 686.6348950183504),
        ],
    )
    def test_random_laws_on_the_same_pool(self, policy, mean_latency_ms, p99_latency_ms):
        spec = ExperimentSpec.from_file(KLB_WRR_SPEC).with_overrides(
            {"policy.name": policy, "workload.num_requests": 20_000}
        )
        metrics = execute(spec).metrics
        assert metrics["mean_latency_ms"] == mean_latency_ms
        assert metrics["p99_latency_ms"] == p99_latency_ms
