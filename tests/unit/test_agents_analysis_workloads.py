"""Unit tests for the agent baseline, analysis helpers and workload builders."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.agents import CpuAgentBalancer
from repro.analysis import format_series, format_table, format_weights
from repro.backends import DipServer, custom_vm_type
from repro.core.controller import KnapsackLBController
from repro.exceptions import ConfigurationError
from repro.experiments.other_lbs import run_agent_baseline
from repro.sim import FluidCluster
from repro.workloads import (
    TABLE8_VIP_MIX,
    build_graded_three_dip_pool,
    build_heterogeneous_pair,
    build_testbed_cluster,
    build_testbed_dips,
    build_three_dip_pool,
    build_uniform_pool,
    table8_vip_counts,
)


def small_cluster(capacities=(400.0, 300.0), rate_fraction=0.7):
    dips = {}
    for index, capacity in enumerate(capacities):
        vm = custom_vm_type(f"vm{index}", vcpus=1, capacity_rps=capacity)
        dips[f"d{index}"] = DipServer(f"d{index}", vm, seed=index, jitter_fraction=0.0)
    total = sum(capacities)
    return FluidCluster(dips=dips, total_rate_rps=total * rate_fraction, policy_name="wrr")


class TestCpuAgentBalancer:
    def test_converges_to_uniform_utilization(self):
        cluster = small_cluster((400.0, 300.0, 200.0))
        balancer = CpuAgentBalancer(cluster, tolerance=0.02)
        balancer.run()
        assert balancer.history[-1].spread <= balancer.tolerance
        utils = list(cluster.state().utilization.values())
        assert max(utils) - min(utils) <= 0.03

    def test_needs_multiple_iterations(self):
        """§6.4: the CPU-feedback loop converges over several iterations."""
        cluster = small_cluster((400.0, 400.0, 400.0, 300.0))
        balancer = CpuAgentBalancer(cluster, tolerance=0.01)
        balancer.run()
        assert balancer.iterations_to_converge >= 2

    def test_spread_monotonically_non_increasing(self):
        cluster = small_cluster((400.0, 250.0))
        balancer = CpuAgentBalancer(cluster)
        history = balancer.run()
        spreads = [h.spread for h in history]
        assert spreads[-1] <= spreads[0]

    def test_weights_stay_normalised(self):
        cluster = small_cluster((400.0, 250.0))
        balancer = CpuAgentBalancer(cluster)
        for step in balancer.run():
            assert sum(step.weights.values()) == pytest.approx(1.0)

    def test_respects_initial_weights(self):
        cluster = small_cluster((400.0, 400.0))
        balancer = CpuAgentBalancer(cluster, max_iterations=1)
        history = balancer.run(initial_weights={"d0": 0.9, "d1": 0.1})
        assert history[0].weights["d0"] == pytest.approx(0.9)

    def test_invalid_config(self):
        cluster = small_cluster()
        with pytest.raises(ConfigurationError):
            CpuAgentBalancer(cluster, tolerance=0.0)
        with pytest.raises(ConfigurationError):
            CpuAgentBalancer(cluster, gain=0.0)

    def test_baseline_reports_the_klb_ilp_computations(self, monkeypatch):
        """§6.4's KnapsackLB column counts the controller's ILP
        computations: one per ``compute_weights`` call."""
        calls = []
        compute = KnapsackLBController.compute_weights

        def counted(self, **kwargs):
            calls.append(self.vip)
            return compute(self, **kwargs)

        monkeypatch.setattr(KnapsackLBController, "compute_weights", counted)
        result = run_agent_baseline()
        assert calls
        assert result.klb_ilp_runs == len(calls)


class TestAnalysis:
    def test_format_table(self):
        text = format_table(["x", "y"], [[1, 2.5], ["long-value", 3]], title="T")
        assert "T" in text
        assert "long-value" in text
        assert text.count("|") > 4

    def test_format_series(self):
        text = format_series("latency", {10: 1.5, 20: 2.5})
        assert "latency:" in text
        assert "10=1.500" in text

    def test_format_weights(self):
        text = format_weights({"b": 0.25, "a": 0.75})
        assert text.startswith("a=0.750")


class TestWorkloads:
    def test_testbed_composition_matches_table3(self):
        layout = build_testbed_dips()
        assert len(layout.dips) == 30
        by_type = Counter(server.vm_type.name for server in layout.dips.values())
        assert by_type == {"DS1v2": 16, "DS2v2": 8, "DS3v2": 4, "F8sv2": 2}

    def test_testbed_by_core_count(self):
        dips = build_testbed_dips().dips.values()
        assert {server.vm_type.vcpus for server in dips} == {1, 2, 4, 8}

    def test_testbed_cluster_load_fraction(self):
        cluster = build_testbed_cluster(load_fraction=0.7)
        assert cluster.total_rate_rps == pytest.approx(cluster.total_capacity_rps * 0.7)

    def test_testbed_cluster_invalid_load(self):
        with pytest.raises(ConfigurationError):
            build_testbed_cluster(load_fraction=0.0)

    def test_three_dip_pool(self):
        dips = build_three_dip_pool(capacity_ratio=0.6)
        assert dips["DIP-LC"].capacity_rps == pytest.approx(
            dips["DIP-HC-1"].capacity_rps * 0.6
        )

    def test_three_dip_pool_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            build_three_dip_pool(capacity_ratio=0.0)

    def test_graded_three_dip_pool(self):
        dips = build_graded_three_dip_pool((1.0, 0.8, 0.6))
        capacities = sorted((d.capacity_rps for d in dips.values()), reverse=True)
        assert capacities[1] == pytest.approx(capacities[0] * 0.8)
        assert capacities[2] == pytest.approx(capacities[0] * 0.6)

    def test_heterogeneous_pair(self):
        dips = build_heterogeneous_pair()
        ratio = dips["DIP-F"].capacity_rps / dips["DIP-DS"].capacity_rps
        assert 1.1 <= ratio <= 1.25

    def test_uniform_pool(self):
        dips = build_uniform_pool(12)
        assert len(dips) == 12
        capacities = {round(d.capacity_rps, 3) for d in dips.values()}
        assert len(capacities) == 1

    def test_uniform_pool_invalid(self):
        with pytest.raises(ConfigurationError):
            build_uniform_pool(0)

    def test_table8_totals(self):
        counts = table8_vip_counts()
        assert sum(size * count for size, count in counts.items()) == 60_000
        assert counts[5] == 2000
        assert sum(counts.values()) == sum(v for _, v in TABLE8_VIP_MIX)
