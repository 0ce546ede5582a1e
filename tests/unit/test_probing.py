"""Unit tests for KLM probing and the latency store."""

from __future__ import annotations

import pytest
from oracles.probes import ServerDeployment

from repro.backends import DipServer, custom_vm_type
from repro.core.config import ProbeConfig
from repro.core.types import LatencySample
from repro.exceptions import ConfigurationError
from repro.probing import KLM, KLM_REQUESTS_PER_SECOND_PER_CORE, LatencyStore
from repro.sim.fluid import FluidCluster


def make_dip(name="d1", capacity=400.0, seed=1):
    vm = custom_vm_type("probe-vm", vcpus=1, capacity_rps=capacity)
    return DipServer(name, vm, seed=seed, jitter_fraction=0.0)


class TestLatencyStore:
    def test_write_and_latest(self):
        store = LatencyStore()
        store.write("vip", LatencySample(dip="d1", latency_ms=3.0, timestamp=1.0))
        store.write("vip", LatencySample(dip="d1", latency_ms=4.0, timestamp=2.0))
        latest = store.samples("vip", "d1")[-1]
        assert latest.latency_ms == pytest.approx(4.0)

    def test_latest_missing(self):
        assert LatencyStore().samples("vip", "d1") == []

    def test_samples_filtered_by_dip_and_time(self):
        store = LatencyStore()
        store.write("vip", LatencySample(dip="d1", latency_ms=3.0, timestamp=1.0))
        store.write("vip", LatencySample(dip="d2", latency_ms=5.0, timestamp=2.0))
        store.write("vip", LatencySample(dip="d1", latency_ms=4.0, timestamp=3.0))
        assert len(store.samples("vip", "d1")) == 2
        assert len(store.samples("vip", since=2.0)) == 2

    def test_samples_sorted_by_time(self):
        store = LatencyStore()
        store.write("vip", LatencySample(dip="d1", latency_ms=3.0, timestamp=5.0))
        store.write("vip", LatencySample(dip="d2", latency_ms=3.0, timestamp=1.0))
        samples = store.samples("vip")
        assert [s.timestamp for s in samples] == [1.0, 5.0]

    def test_samples_per_dip(self):
        store = LatencyStore()
        store.write("vip", LatencySample(dip="d1", latency_ms=3.0, timestamp=1.0))
        store.write("vip", LatencySample(dip="d2", latency_ms=5.0, timestamp=2.0))
        store.write("vip", LatencySample(dip="d1", latency_ms=4.0, timestamp=3.0))
        assert store.dips("vip") == ("d1", "d2")
        assert [s.latency_ms for s in store.samples("vip", "d1")] == [3.0, 4.0]
        assert [s.dip for s in store.samples("vip")] == ["d1", "d2", "d1"]

    def test_retention_limit(self):
        store = LatencyStore(max_samples_per_dip=5)
        for index in range(20):
            store.write("vip", LatencySample(dip="d1", latency_ms=1.0, timestamp=index))
        assert len(store.samples("vip")) == 5
        assert store.stats.evictions > 0

    def test_vips_and_dips(self):
        store = LatencyStore()
        store.write("vip-a", LatencySample(dip="d1", latency_ms=1.0, timestamp=0.0))
        store.write("vip-b", LatencySample(dip="d9", latency_ms=1.0, timestamp=0.0))
        assert set(store.vips()) == {"vip-a", "vip-b"}
        assert store.dips("vip-b") == ("d9",)

    def test_clear(self):
        store = LatencyStore()
        store.write("vip", LatencySample(dip="d1", latency_ms=1.0, timestamp=0.0))
        store.clear("vip")
        assert store.vips() == ()

    def test_stats_counters(self):
        store = LatencyStore()
        store.write("vip", LatencySample(dip="d1", latency_ms=1.0, timestamp=0.0))
        store.samples("vip", "d1")
        assert store.stats.writes == 1
        assert store.stats.reads == 1

    def test_invalid_retention(self):
        with pytest.raises(ConfigurationError):
            LatencyStore(max_samples_per_dip=0)


class TestKLM:
    def make_klm(self, dips, rates=None, deployment=None, **probe_kwargs):
        """A KLM probing ``dips`` offered ``rates`` (0 by default), or
        ``deployment``'s DIPs."""
        store = LatencyStore()
        if deployment is None:
            deployment = ServerDeployment(dips, {dip: 0.0 for dip in dips} | (rates or {}))
        return (
            KLM(
                vip="vip-1",
                deployment=deployment,
                store=store,
                config=ProbeConfig(**probe_kwargs) if probe_kwargs else ProbeConfig(),
            ),
            store,
        )

    def test_probe_writes_sample(self):
        dip = make_dip()
        klm, store = self.make_klm({"d1": dip}, {"d1": 200.0})
        outcome = klm.probe_dip("d1", now=10.0)
        assert not outcome.failed
        assert outcome.latency_ms == pytest.approx(
            dip.latency_model.mean_latency_ms(200.0), rel=0.05
        )
        assert len(store.samples("vip-1", "d1")) == 1

    def test_probe_latency_reflects_load(self):
        """Through a fleet's view, a probe sees the fleet's last write."""
        cluster = FluidCluster({"d1": make_dip()}, 50.0)
        klm, _ = self.make_klm({}, deployment=cluster.fleet.view("vip"))
        light = klm.probe_dip("d1", now=0.0).latency_ms
        cluster.set_total_rate(380.0)
        heavy = klm.probe_dip("d1", now=5.0).latency_ms
        assert heavy > light

    def test_probe_round(self):
        dips = {f"d{i}": make_dip(f"d{i}", seed=i) for i in range(3)}
        klm, store = self.make_klm(dips)
        outcomes = klm.probe_round(tuple(dips), now=0.0)
        assert set(outcomes) == set(dips)
        assert len(store.samples("vip-1")) == 3

    def test_probe_batch_size_is_the_config(self):
        """A round probes the DIPs it names, one batch of the configured
        size each: one sample per batch, one draw per served request."""
        vm = custom_vm_type("probe-vm", vcpus=1, capacity_rps=400.0)
        dips = {f"d{i}": DipServer(f"d{i}", vm, seed=i) for i in range(3)}
        twins = {f"d{i}": DipServer(f"d{i}", vm, seed=i) for i in range(3)}
        klm, store = self.make_klm(dips, requests_per_probe=100)
        klm.probe_round(("d0", "d2"), now=0.0)
        klm.probe_round(("d0",), now=5.0)
        assert [len(store.samples("vip-1", dip)) for dip in dips] == [2, 0, 1]
        for dip, batches in zip(twins, (2, 0, 1)):
            twins[dip]._rng.standard_normal(100 * batches)
            assert dips[dip]._rng.bit_generator.state == twins[dip]._rng.bit_generator.state

    def test_failed_dip_recorded(self):
        dip = make_dip()
        dip.fail()
        klm, store = self.make_klm({"d1": dip})
        outcome = klm.probe_dip("d1", now=0.0)
        assert outcome.failed
        assert store.samples("vip-1") == []
        assert klm.consecutive_failures["d1"] == 1

    def test_failure_counter_resets_on_success(self):
        dip = make_dip()
        klm, _ = self.make_klm({"d1": dip})
        dip.fail()
        klm.probe_dip("d1", now=0.0)
        dip.recover()
        klm.probe_dip("d1", now=5.0)
        assert klm.consecutive_failures["d1"] == 0

    def test_failures_threshold(self):
        dip = make_dip()
        dip.fail()
        klm, _ = self.make_klm({"d1": dip})
        for tick in range(3):
            klm.probe_dip("d1", now=float(tick))
        assert klm.failures(3) == ("d1",)
        assert klm.failures(4) == ()

    def test_overloaded_probe_marks_drop(self):
        dip = make_dip()
        klm, _ = self.make_klm({"d1": dip}, {"d1": 1500.0})
        outcome = klm.probe_dip("d1", now=0.0)
        assert outcome.dropped

    def test_constant_matches_paper(self):
        assert KLM_REQUESTS_PER_SECOND_PER_CORE == pytest.approx(4500.0)
