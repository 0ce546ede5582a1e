"""Unit tests for KLM probing."""

from __future__ import annotations

import pytest
from oracles.probes import ServerDeployment

from repro.backends import DipServer, custom_vm_type
from repro.core.config import ProbeConfig
from repro.probing import KLM, KLM_REQUESTS_PER_SECOND_PER_CORE
from repro.sim.fluid import FluidCluster


def make_dip(name="d1", capacity=400.0, seed=1):
    vm = custom_vm_type("probe-vm", vcpus=1, capacity_rps=capacity)
    return DipServer(name, vm, seed=seed, jitter_fraction=0.0)


class TestKLM:
    def make_klm(self, dips, rates=None, deployment=None, **probe_kwargs):
        """A KLM probing ``dips`` offered ``rates`` (0 by default), or
        ``deployment``'s DIPs."""
        if deployment is None:
            deployment = ServerDeployment(dips, {dip: 0.0 for dip in dips} | (rates or {}))
        return KLM(
            deployment=deployment,
            config=ProbeConfig(**probe_kwargs) if probe_kwargs else ProbeConfig(),
        )

    def test_probe_measures_the_offered_load(self):
        dip = make_dip()
        klm = self.make_klm({"d1": dip}, {"d1": 200.0})
        outcome = klm.probe_dip("d1", now=10.0)
        assert not outcome.failed
        assert outcome.timestamp == 10.0
        assert outcome.latency_ms == pytest.approx(
            dip.latency_model.mean_latency_ms(200.0), rel=0.05
        )

    def test_probe_latency_reflects_load(self):
        """Through a fleet's view, a probe sees the fleet's last write."""
        cluster = FluidCluster({"d1": make_dip()}, 50.0)
        klm = self.make_klm({}, deployment=cluster.fleet.view("vip"))
        light = klm.probe_dip("d1", now=0.0).latency_ms
        cluster.set_total_rate(380.0)
        heavy = klm.probe_dip("d1", now=5.0).latency_ms
        assert heavy > light

    def test_probe_round(self):
        dips = {f"d{i}": make_dip(f"d{i}", seed=i) for i in range(3)}
        klm = self.make_klm(dips)
        outcomes = klm.probe_round(tuple(dips))
        assert list(outcomes) == list(dips)
        assert all(latency > 0 and not dropped for latency, dropped in outcomes.values())

    def test_probe_batch_size_is_the_config(self):
        """A round probes the DIPs it names, one batch of the configured
        size each: one draw per served request."""
        vm = custom_vm_type("probe-vm", vcpus=1, capacity_rps=400.0)
        dips = {f"d{i}": DipServer(f"d{i}", vm, seed=i) for i in range(3)}
        twins = {f"d{i}": DipServer(f"d{i}", vm, seed=i) for i in range(3)}
        klm = self.make_klm(dips, requests_per_probe=100)
        klm.probe_round(("d0", "d2"))
        klm.probe_round(("d0",))
        for dip, batches in zip(twins, (2, 0, 1)):
            twins[dip]._rng.standard_normal(100 * batches)
            assert dips[dip]._rng.bit_generator.state == twins[dip]._rng.bit_generator.state

    def test_failed_dip_recorded(self):
        dip = make_dip()
        dip.fail()
        klm = self.make_klm({"d1": dip})
        outcome = klm.probe_dip("d1", now=0.0)
        assert outcome.failed
        assert outcome.latency_ms is None
        assert klm.consecutive_failures["d1"] == 1

    def test_failure_counter_resets_on_success(self):
        dip = make_dip()
        klm = self.make_klm({"d1": dip})
        dip.fail()
        klm.probe_dip("d1", now=0.0)
        dip.recover()
        klm.probe_dip("d1", now=5.0)
        assert klm.consecutive_failures["d1"] == 0

    def test_failures_threshold(self):
        dip = make_dip()
        dip.fail()
        klm = self.make_klm({"d1": dip})
        for tick in range(3):
            klm.probe_dip("d1", now=float(tick))
        assert klm.failures(3) == ("d1",)
        assert klm.failures(4) == ()

    def test_overloaded_probe_marks_drop(self):
        dip = make_dip()
        klm = self.make_klm({"d1": dip}, {"d1": 1500.0})
        outcome = klm.probe_dip("d1", now=0.0)
        assert outcome.dropped

    def test_round_answers_in_the_order_named(self):
        dips = {f"d{i}": make_dip(f"d{i}", seed=i) for i in range(3)}
        klm = self.make_klm(dips)
        assert list(klm.probe_round(("d2", "d0", "d1"))) == ["d2", "d0", "d1"]

    def test_empty_round_draws_nothing(self):
        dip = make_dip()
        before = dip._rng.bit_generator.state
        klm = self.make_klm({"d1": dip})
        assert klm.probe_round(()) == {}
        assert klm.consecutive_failures == {}
        assert dip._rng.bit_generator.state == before

    def test_fully_dropped_batch_is_a_drop_without_latency(self):
        """Every request dropped: a drop signal with no sample, and still an
        answer, so the DIP's failure count resets."""
        dip = make_dip()
        klm = self.make_klm({"d1": dip}, {"d1": 1e9})
        klm.consecutive_failures["d1"] = 2
        assert klm.probe_round(("d1",)) == {"d1": (None, True)}
        assert klm.consecutive_failures["d1"] == 0
        outcome = klm.probe_dip("d1", now=3.0)
        assert outcome.dropped
        assert not outcome.failed
        assert outcome.latency_ms is None

    def test_failures_count_per_dip_in_one_round(self):
        dips = {"up": make_dip("up", seed=1), "down": make_dip("down", seed=2)}
        dips["down"].fail()
        klm = self.make_klm(dips)
        for _ in range(2):
            results = klm.probe_round(("up", "down"))
        assert results["down"] == (None, False)
        assert results["up"][0] is not None
        assert klm.consecutive_failures == {"up": 0, "down": 2}

    def test_probe_dip_is_a_one_dip_round(self):
        klm = self.make_klm({"d1": make_dip(seed=3)}, {"d1": 300.0})
        twin = self.make_klm({"d1": make_dip(seed=3)}, {"d1": 300.0})
        for now in (0.0, 5.0):
            outcome = klm.probe_dip("d1", now=now)
            latency, dropped = twin.probe_round(("d1",))["d1"]
            assert (outcome.latency_ms, outcome.dropped) == (latency, dropped)
            assert not outcome.failed
            assert outcome.timestamp == now

    def test_rounds_keep_one_count_per_probed_dip(self):
        """A KLM's only record across rounds is one failure count per DIP
        it has probed: fifty rounds keep no more than one."""
        dips = {f"d{i}": make_dip(f"d{i}", seed=i) for i in range(3)}
        klm = self.make_klm(dips)
        for _ in range(50):
            klm.probe_round(("d0", "d1"))
        assert klm.consecutive_failures == {"d0": 0, "d1": 0}
        kept = [
            name
            for name, value in vars(klm).items()
            if isinstance(value, (list, dict, set, tuple))
        ]
        assert kept == ["consecutive_failures"]

    def test_constant_matches_paper(self):
        assert KLM_REQUESTS_PER_SECOND_PER_CORE == pytest.approx(4500.0)
