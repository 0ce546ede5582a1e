"""Unit tests for the multi-VIP fleet substrate and its control plane.

Covers the Fleet abstraction (shared DIPs, contention, deployment views),
measurement round packing with interleaved VIPs (§4.6 at fleet scale) and
the FleetController lifecycle.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest
from oracles.probes import serve_probe_round

from repro.backends import DipServer, custom_vm_type
from repro.core import FleetController, VipPhase
from repro.core.scheduler import MeasurementPriority, MeasurementScheduler
from repro.exceptions import ConfigurationError
from repro.sim import Fleet, FluidCluster
from repro.lb.least_connection import least_connection_split_array
from repro.sim.fluid import pool_arrays, weighted_split_array
from repro.workloads import build_shared_dip_fleet, build_testbed_cluster


def make_fleet(num_dips=6, capacity=400.0, cores=1):
    fleet = Fleet()
    vm = custom_vm_type(f"vm-{cores}", vcpus=cores, capacity_rps=capacity)
    for index in range(num_dips):
        fleet.add_dip(
            DipServer(f"d{index}", vm, seed=index, jitter_fraction=0.0)
        )
    return fleet


class TestFleet:
    def test_unknown_dip_rejected(self):
        fleet = make_fleet(2)
        with pytest.raises(ConfigurationError):
            fleet.create_vip("v", dip_ids=["nope"], total_rate_rps=10.0)

    def test_duplicate_vip_rejected(self):
        fleet = make_fleet(2)
        fleet.create_vip("v", dip_ids=["d0"], total_rate_rps=10.0)
        with pytest.raises(ConfigurationError):
            fleet.create_vip("v", dip_ids=["d1"], total_rate_rps=10.0)

    def test_shared_dip_carries_sum_of_vip_rates(self):
        fleet = make_fleet(3)
        fleet.create_vip("a", dip_ids=["d0", "d1"], total_rate_rps=200.0, policy_name="rr")
        fleet.create_vip("b", dip_ids=["d1", "d2"], total_rate_rps=100.0, policy_name="rr")
        state = fleet.apply()
        assert state.total_rates_rps["d0"] == pytest.approx(100.0)
        assert state.total_rates_rps["d1"] == pytest.approx(150.0)  # 100 + 50
        assert state.total_rates_rps["d2"] == pytest.approx(50.0)
        assert fleet.shared_dip_ids() == ("d1",)
        assert state.per_vip_rates["a"]["d1"] == pytest.approx(100.0)
        assert state.per_vip_rates["b"]["d1"] == pytest.approx(50.0)

    def test_contention_raises_latency_on_shared_dip(self):
        fleet = make_fleet(3)
        fleet.create_vip("a", dip_ids=["d0", "d1"], total_rate_rps=300.0, policy_name="rr")
        solo = fleet.apply().mean_latency_ms["d1"]
        fleet.create_vip("b", dip_ids=["d1", "d2"], total_rate_rps=300.0, policy_name="rr")
        shared = fleet.apply().mean_latency_ms["d1"]
        assert shared > solo

    def test_load_dependent_policy_avoids_contended_dip(self):
        """An LC tenant steers away from the DIP another VIP is loading."""
        fleet = make_fleet(3)
        fleet.create_vip("heavy", dip_ids=["d0"], total_rate_rps=350.0, policy_name="rr")
        fleet.create_vip("lc", dip_ids=["d0", "d1", "d2"], total_rate_rps=300.0, policy_name="lc")
        state = fleet.apply()
        lc_rates = state.per_vip_rates["lc"]
        assert lc_rates["d0"] < lc_rates["d1"]
        assert lc_rates["d0"] < lc_rates["d2"]

    def test_failed_dip_gets_no_rate_and_infinite_latency(self):
        fleet = make_fleet(3)
        fleet.create_vip("a", dip_ids=["d0", "d1", "d2"], total_rate_rps=300.0, policy_name="rr")
        fleet.fail_dip("d2")
        state = fleet.state()
        assert state.total_rates_rps["d2"] == 0.0
        assert state.mean_latency_ms["d2"] == float("inf")
        assert state.total_rates_rps["d0"] == pytest.approx(150.0)

    def test_all_dips_failed_raises(self):
        fleet = make_fleet(1)
        fleet.create_vip("a", dip_ids=["d0"], total_rate_rps=10.0)
        fleet.dips["d0"].fail()
        with pytest.raises(ConfigurationError):
            fleet.apply()

    def test_view_satisfies_deployment_protocol(self):
        fleet = make_fleet(4)
        fleet.create_vip("a", dip_ids=["d0", "d1"], total_rate_rps=100.0)
        view = fleet.view("a")
        assert set(view.dips) == {"d0", "d1"}
        assert view.healthy_dip_ids() == ("d0", "d1")
        view.set_weights({"d0": 0.7, "d1": 0.3})
        state = fleet.state()
        assert state.per_vip_rates["a"]["d0"] == pytest.approx(70.0)
        with pytest.raises(ConfigurationError):
            view.set_weights({"d3": 1.0})  # not this VIP's DIP

    def test_advance_moves_shared_clock(self):
        fleet = make_fleet(2)
        fleet.create_vip("a", dip_ids=["d0"], total_rate_rps=10.0)
        fleet.advance(3.0)
        fleet.advance(2.0)
        assert fleet.time == pytest.approx(5.0)

    def test_vip_mean_latency_weighs_own_rates(self):
        fleet = make_fleet(2)
        fleet.create_vip("a", dip_ids=["d0", "d1"], total_rate_rps=200.0, policy_name="rr")
        state = fleet.apply()
        assert state.vip_mean_latency_ms("a") == pytest.approx(
            state.overall_mean_latency_ms()
        )


class TestFleetRefusesNonFiniteInputs:
    """A NaN, infinite or negative weight, rate or factor never reaches a split."""

    def make(self):
        fleet = make_fleet(3)
        fleet.create_vip("a", dip_ids=["d0", "d1", "d2"], total_rate_rps=300.0)
        return fleet, dict(fleet.apply().total_rates_rps)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -0.5])
    def test_set_weights(self, weight):
        fleet, before = self.make()
        with pytest.raises(ConfigurationError, match=r"VIP 'a'.*DIP 'd1'.*finite"):
            fleet.set_weights("a", {"d0": 0.5, "d1": weight})
        assert fleet.vips["a"].weights == {"d0": 1 / 3, "d1": 1 / 3, "d2": 1 / 3}
        assert fleet.state().total_rates_rps == before

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_set_total_rate(self, rate):
        fleet, before = self.make()
        with pytest.raises(ConfigurationError, match="finite"):
            fleet.set_total_rate("a", rate)
        assert fleet.vips["a"].total_rate_rps == 300.0
        assert fleet.state().total_rates_rps == before

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 1e308])
    def test_scale_traffic(self, factor):
        fleet, before = self.make()
        with pytest.raises(ConfigurationError, match="finite"):
            fleet.scale_traffic("a", factor)
        assert fleet.vips["a"].total_rate_rps == 300.0
        assert fleet.state().total_rates_rps == before


    @pytest.mark.parametrize(
        "write",
        [
            lambda fleet: fleet.set_weights("a", {"d0": 0.0, "d1": 1.0}),
            lambda fleet: fleet.set_total_rate("a", 1.4e308),
        ],
        ids=["weights", "rate"],
    )
    def test_an_overflowing_total_leaves_the_state(self, write):
        """Finite rates whose sum on a shared DIP overflows: the write is
        refused as the full evaluation refuses it, and the last state, the
        stacked splits and the written VIP's rate and weights stay bit for
        bit as they were."""
        fleet = make_fleet(3)
        fleet.create_vip("a", dip_ids=["d0", "d1"], total_rate_rps=1e308,
                         weights={"d0": 0.25, "d1": 0.75})
        fleet.create_vip("b", dip_ids=["d1", "d2"], total_rate_rps=1.79e308, policy_name="rr")
        before = fleet.apply()
        total, stacked = before._total.tobytes(), fleet._stacked[1].tobytes()
        rates, per_vip = dict(before.total_rates_rps), dict(before.per_vip_rates)
        vip = fleet.vips["a"]
        weights, rate = vip.weights, (vip.total_rate_rps.hex(), list(vip.weights.items()))
        with pytest.raises(ConfigurationError, match=r"^rate_rps must be finite and >= 0, got inf$"):
            write(fleet)
        after = fleet.state()
        assert after is before and after.time == 0.0
        assert (after._total.tobytes(), fleet._stacked[1].tobytes()) == (total, stacked)
        assert after.total_rates_rps == rates and after.per_vip_rates == per_vip
        assert vip.weights is weights
        assert (vip.total_rate_rps.hex(), list(vip.weights.items())) == rate

    def test_a_write_after_a_refused_one_is_the_full_evaluation(self):
        """Two VIPs sharing a DIP: a refused rate write, then an accepted one
        to the other VIP, gives the state a full ``apply()`` gives."""
        fleet = make_fleet(3)
        fleet.create_vip("a", dip_ids=["d0", "d1"], total_rate_rps=1e308,
                         weights={"d0": 0.25, "d1": 0.75})
        fleet.create_vip("b", dip_ids=["d1", "d2"], total_rate_rps=1.79e308, policy_name="rr")
        fleet.apply()
        with pytest.raises(ConfigurationError, match=r"^rate_rps must be finite and >= 0, got inf$"):
            fleet.set_total_rate("a", 1.4e308)
        fleet.set_total_rate("b", 1.0)
        written = fleet.state()
        full = fleet.apply()
        assert fleet.vips["a"].total_rate_rps == 1e308
        assert written._total.tobytes() == full._total.tobytes()
        assert written.per_vip_rates == full.per_vip_rates


def test_no_fleet_entry_point_stores_an_attribute_on_a_server(monkeypatch):
    """The evaluation is the only record of a DIP's load: every entry point
    of the fleet, the probe round included, leaves a server's attributes to
    the server's own methods (its health, and the scaled latency model it
    keeps), and a server has no rate field."""
    fleet, newcomer = make_mixed_fleet(), make_fleet(7).dips["d6"]
    stores: list[tuple[str, str]] = []
    original = DipServer.__setattr__

    def recording(self, name, value):
        stores.append((name, sys._getframe(1).f_code.co_qualname))
        original(self, name, value)

    monkeypatch.setattr(DipServer, "__setattr__", recording)
    for mutate in MUTATORS:
        mutate(fleet)
    fleet.scale_traffic("e", 1.5)
    fleet.set_antagonist_copies("d4", 2)
    fleet.probe_round(list(fleet.dips), 10)
    fleet.add_dip(newcomer)
    fleet.create_vip("n", dip_ids=["d5", "d6"], total_rate_rps=100.0)
    fleet.state()
    fleet.remove_vip("w")
    fleet.view("n").probe_round(["d6"], 5)
    assert {name for name, _ in stores} == {"failed", "_scaled"}
    assert {caller.split(".")[0] for _, caller in stores} == {"DipServer"}
    assert not {"offered_rate_rps", "rate_rps"} & {f.name for f in dataclasses.fields(DipServer)}


def make_mixed_fleet():
    """Three overlapping VIPs: a weighted, an equal and a load-dependent split."""
    fleet = make_fleet(6)
    fleet.create_vip(
        "w",
        dip_ids=["d0", "d1", "d2", "d3"],
        total_rate_rps=400.0,
        weights={"d0": 0.4, "d1": 0.3, "d2": 0.2, "d3": 0.1},
    )
    fleet.create_vip("e", dip_ids=["d2", "d3", "d4", "d5"], total_rate_rps=300.0, policy_name="rr")
    fleet.create_vip("l", dip_ids=["d1", "d3", "d4"], total_rate_rps=200.0, policy_name="lc")
    fleet.apply()
    return fleet


#: one call per mutating entry point of :class:`Fleet`.
MUTATORS = (
    lambda fleet: fleet.set_weights("w", {"d0": 0.1, "d1": 0.2, "d2": 0.3, "d3": 0.4}),
    lambda fleet: fleet.set_total_rate("e", 350.0),
    lambda fleet: fleet.fail_dip("d3"),
    lambda fleet: fleet.recover_dip("d3"),
    lambda fleet: fleet.set_capacity_ratio("d2", 0.6),
    lambda fleet: fleet.advance(5.0),
)


def eager_snapshot(fleet):
    """The snapshot every ``apply`` used to build, recomputed on the spot.

    Reference for the lazy :class:`FleetState`: the per-DIP dicts of the
    former ``Fleet._state_from``, from the evaluation's rates read now and
    each server's scalar law at its rate.
    """
    servers = fleet.dips
    state = fleet.state()
    totals = dict(zip(state._pool.ids, state._total.tolist()))
    per_vip = {}
    for vip_id, vip in fleet.vips.items():
        healthy = vip.healthy_dip_ids()
        if vip.policy_name == "wrr":
            rates = weighted_split_array(
                np.array([vip.weights.get(d, 0.0) for d in healthy]), vip.total_rate_rps
            )
        elif vip.policy_name == "rr":
            rates = np.full(len(healthy), vip.total_rate_rps / len(healthy))
        else:
            continue  # load-dependent: checked against the fleet total below
        per_vip[vip_id] = {d: float(r) for d, r in zip(healthy, rates)}
    return {
        "time": fleet.time,
        "total_rates_rps": totals,
        "utilization": {
            d: 0.0 if s.failed else min(1.0, s.latency_model.utilization(totals[d]))
            for d, s in servers.items()
        },
        "mean_latency_ms": {
            d: float("inf")
            if s.failed
            else s.latency_model.mean_latency_ms(totals[d], scv_correction=s.scv_correction)
            for d, s in servers.items()
        },
        "per_vip_rates": per_vip,
    }


class TestLazyFleetState:
    def test_held_states_equal_eager_snapshots_field_by_field(self):
        """Each state is read only after every later mutation has run."""
        fleet = make_mixed_fleet()
        held = []
        for mutate in MUTATORS:
            mutate(fleet)
            held.append((fleet.state(), eager_snapshot(fleet)))
        assert len({id(state) for state, _ in held}) == len(MUTATORS)
        for state, expected in held:
            assert state.time == expected["time"]
            assert state.total_rates_rps == expected["total_rates_rps"]
            assert state.utilization == expected["utilization"]
            assert state.mean_latency_ms == expected["mean_latency_ms"]
            per_vip = state.per_vip_rates
            assert list(per_vip) == ["w", "e", "l"]
            assert per_vip["w"] == expected["per_vip_rates"]["w"]
            assert per_vip["e"] == expected["per_vip_rates"]["e"]
            # The lc VIP carries what the two static splits leave of the total.
            assert sum(per_vip["l"].values()) == pytest.approx(200.0)
            for dip, rate in per_vip["l"].items():
                others = per_vip["w"].get(dip, 0.0) + per_vip["e"].get(dip, 0.0)
                assert rate == pytest.approx(state.total_rates_rps[dip] - others)

    def test_failed_dip_is_idle_and_unreachable_in_its_own_state_only(self):
        fleet = make_mixed_fleet()
        fleet.fail_dip("d3")
        during = fleet.state()
        fleet.recover_dip("d3")
        after = fleet.state()
        assert during.utilization["d3"] == 0.0
        assert during.mean_latency_ms["d3"] == float("inf")
        assert "d3" not in during.per_vip_rates["l"]
        assert after.utilization["d3"] > 0.0
        assert after.mean_latency_ms["d3"] < float("inf")

    def test_probes_see_every_write_without_state_being_read(self):
        quiet, read = make_mixed_fleet(), make_mixed_fleet()
        for mutate in MUTATORS:
            mutate(quiet)
            mutate(read)
            ids = list(quiet.dips)
            rates = read.state().total_rates_rps
            pairs = [(read.dips[d], rates[d]) for d in ids]
            assert quiet.probe_round(ids, 20) == serve_probe_round(pairs, 20)
            assert quiet.time == read.time

    def test_derived_means_read_the_lazy_fields(self):
        fleet = make_mixed_fleet()
        state = fleet.state()
        total = sum(state.total_rates_rps.values())
        assert total == pytest.approx(900.0)
        assert state.overall_mean_latency_ms() == pytest.approx(
            sum(r * state.mean_latency_ms[d] for d, r in state.total_rates_rps.items())
            / total
        )
        rows = state.dip_summaries()
        assert rows["d3"]["vips"] == 3.0
        assert rows["d0"]["rate_rps"] == state.total_rates_rps["d0"]


def corrected_dips(scv: float) -> dict:
    """Three unlike DIPs serving a workload of correction ``scv``."""
    dips = {}
    for i, (cores, capacity) in enumerate([(1, 800.0), (4, 2000.0), (8, 3000.0)]):
        vm = custom_vm_type(f"vm{i}", vcpus=cores, capacity_rps=capacity)
        dips[f"d{i}"] = DipServer(f"d{i}", vm, seed=i, scv_correction=scv)
    return dips


class TestTheFixedPointSeesTheWorkloadCorrection:
    """An lc / wlc VIP's fixed point runs on its DIPs' law rows, workload
    correction included, as the state that reports their latency does."""

    WEIGHTS = {"d0": 1.0, "d1": 2.0, "d2": 3.0}

    def split(self, policy: str, scv: float) -> list[str]:
        cluster = FluidCluster(
            corrected_dips(scv), 4080.0, policy_name=policy, weights=self.WEIGHTS
        )
        return [rate.hex() for rate in cluster.state().per_vip_rates["vip"].values()]

    @pytest.mark.parametrize("policy", ["lc", "wlc"])
    def test_the_split_is_the_whole_pool_fixed_point(self, policy):
        weights = np.array(list(self.WEIGHTS.values())) if policy == "wlc" else None
        law = pool_arrays(corrected_dips(3.0)).law
        direct = least_connection_split_array(law, 4080.0, weights=weights)
        assert self.split(policy, 3.0) == [rate.hex() for rate in direct.tolist()]
        assert self.split(policy, 3.0) != self.split(policy, 1.0)

    def test_the_lc_split_is_pinned(self):
        # {438.0, 1621.2, 2020.7} rps; dropping the correction gave the
        # scv = 1 split {503.8, 1712.0, 1864.2}.
        assert self.split("lc", 3.0) == [
            "0x1.b605e522337e4p+8",
            "0x1.954f12558bb79p+10",
            "0x1.f92f7461e768dp+10",
        ]


class TestFluidClusterIsOneVipFleet:
    def test_single_vip_cluster_behaviour_unchanged(self):
        vm = custom_vm_type("vm", vcpus=1, capacity_rps=400.0)
        dips = {f"d{i}": DipServer(f"d{i}", vm, seed=i) for i in range(3)}
        cluster = FluidCluster(dips=dips, total_rate_rps=600.0, policy_name="rr")
        state = cluster.state()
        for rate in state.total_rates_rps.values():
            assert rate == pytest.approx(200.0)
        cluster.set_weights({"d0": 0.5, "d1": 0.25, "d2": 0.25})
        cluster.policy_name = "rr"  # weights ignored under rr
        assert cluster.total_capacity_rps == pytest.approx(1200.0)

    def test_a_failed_dip_leaves_the_overall_mean_finite(self):
        """A failed DIP's rate 0 and latency inf add nothing (0 × inf was NaN)."""
        cluster = build_testbed_cluster(load_fraction=0.7, seed=1)
        cluster.fail_dip("DIP-3")
        state = cluster.state()
        assert state.total_rates_rps["DIP-3"] == 0.0
        assert state.mean_latency_ms["DIP-3"] == float("inf")
        overall = state.overall_mean_latency_ms()
        assert np.isfinite(overall)
        assert overall == pytest.approx(state.vip_mean_latency_ms("vip"), rel=1e-12, abs=0.0)


class TestInterleavedRoundPacking:
    """§4.6 round packing when several VIPs share DIPs (satellite task)."""

    def test_excluded_dip_not_measured_but_stays_queued(self):
        scheduler = MeasurementScheduler("vip-1")
        scheduler.submit("a", 0.3)
        scheduler.submit("b", 0.3)
        plan = scheduler.plan_round(["a", "b", "c"], exclude={"a"})
        assert "a" not in plan.measured
        assert plan.measured == {"b": pytest.approx(0.3)}
        # The excluded request is deferred, not dropped.
        assert {r.dip for r in scheduler.pending} == {"a"}
        follow_up = scheduler.plan_round(["a", "b", "c"])
        assert set(follow_up.measured) == {"a"}

    def test_excluded_dip_may_still_get_filler(self):
        scheduler = MeasurementScheduler("vip-1")
        scheduler.submit("a", 0.4)
        plan = scheduler.plan_round(["a", "b"], exclude={"b"})
        assert plan.measured == {"a": pytest.approx(0.4)}
        assert plan.filler["b"] == pytest.approx(0.6)

    def test_no_dip_measured_twice_across_vips_in_one_round(self):
        first = MeasurementScheduler("vip-1")
        second = MeasurementScheduler("vip-2")
        for scheduler in (first, second):
            scheduler.submit("shared-1", 0.2)
            scheduler.submit("shared-2", 0.2)

        claimed: set[str] = set()
        plan_one = first.plan_round(["shared-1", "shared-2"], exclude=claimed)
        claimed.update(plan_one.measured)
        plan_two = second.plan_round(["shared-1", "shared-2"], exclude=claimed)
        assert not set(plan_one.measured) & set(plan_two.measured)
        # vip-2's excluded requests survive to the next fleet round.
        remaining = {r.dip for r in second.pending}
        assert remaining == set(plan_one.measured)

    def test_priorities_respected_under_exclusion(self):
        scheduler = MeasurementScheduler("vip-1")
        scheduler.submit("cold", 0.8, priority=MeasurementPriority.NORMAL)
        scheduler.submit("hot", 0.8, priority=MeasurementPriority.OVERUTILIZED)
        plan = scheduler.plan_round(["cold", "hot"], exclude={"hot"})
        # The over-utilized DIP is claimed elsewhere; the normal one fits now.
        assert set(plan.measured) == {"cold"}
        follow_up = scheduler.plan_round(["cold", "hot"])
        assert set(follow_up.measured) == {"hot"}


class TestSharedDipFleetBuilder:
    def test_single_vip_fleet_default_pool_size(self):
        """Regression: the default pool_size must clamp to the fleet size."""
        fleet = build_shared_dip_fleet(num_vips=1, num_dips=4, seed=1)
        assert len(fleet.vips) == 1
        (vip,) = fleet.vips.values()
        assert len(vip.dips) == 4

    def test_state_reflects_vip_added_after_apply(self):
        fleet = build_shared_dip_fleet(num_vips=2, num_dips=4, seed=2)
        fleet.apply()
        fleet.create_vip(
            "late", dip_ids=list(fleet.dips)[:2], total_rate_rps=50.0
        )
        assert "late" in fleet.state().per_vip_rates


class TestFleetController:
    def make_plane(self, num_vips=3, num_dips=9):
        fleet = build_shared_dip_fleet(
            num_vips=num_vips,
            num_dips=num_dips,
            load_fraction=0.4,
            core_choices=(1, 2),
            seed=5,
        )
        return fleet, FleetController(fleet)

    def test_onboard_requires_fleet_vip(self):
        fleet, plane = self.make_plane()
        with pytest.raises(ConfigurationError):
            plane.onboard_vip("not-a-vip")

    def test_measurement_interleaves_and_never_double_measures(self):
        fleet, plane = self.make_plane()
        for vip_id in fleet.vips:
            plane.onboard_vip(vip_id)
        report = plane.run_measurement_phase()
        assert report.rounds > 0
        assert report.interleaved_rounds > 0
        assert set(report.reports) == set(fleet.vips)
        for entry in plane.round_log:
            measured = [d for per_vip in entry.measured.values() for d in per_vip]
            assert len(measured) == len(set(measured))  # no DIP twice/round

    def test_all_vips_reach_steady_state_with_assignments(self):
        fleet, plane = self.make_plane()
        for vip_id in fleet.vips:
            plane.onboard_vip(vip_id)
        assignments = plane.converge_all()
        assert set(assignments) == set(fleet.vips)
        for vip_id, assignment in assignments.items():
            assert sum(assignment.weights.values()) == pytest.approx(1.0)
            assert plane.phases[vip_id] is VipPhase.STEADY

    def test_control_step_advances_fleet_once(self):
        fleet, plane = self.make_plane(num_vips=2, num_dips=6)
        for vip_id in fleet.vips:
            plane.onboard_vip(vip_id)
        plane.converge_all(settle_steps=0)
        before = fleet.time
        plane.control_step()
        interval = plane.config.control_interval_s
        assert fleet.time == pytest.approx(before + interval)
        for controller in plane.controllers.values():
            assert controller.time == pytest.approx(fleet.time)

    def test_shared_failure_seen_by_every_sharing_vip(self):
        fleet, plane = self.make_plane()
        for vip_id in fleet.vips:
            plane.onboard_vip(vip_id)
        plane.converge_all(settle_steps=2)
        shared = fleet.shared_dip_ids()
        assert shared
        victim = shared[0]
        owners = [v for v, vip in fleet.vips.items() if victim in vip.dips]
        assert len(owners) >= 2
        fleet.dips[victim].fail()
        for _ in range(plane.config.dynamics.failure_probe_threshold + 1):
            plane.control_step()
        for vip_id in owners:
            assert victim in plane.controllers[vip_id].failed_dips
            weights = plane.controllers[vip_id].current_weights
            assert weights.get(victim, 0.0) == 0.0
