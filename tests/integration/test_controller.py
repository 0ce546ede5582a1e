"""Integration tests: the KnapsackLB controller end to end on one-VIP fleets.

A single VIP converges as a one-VIP fleet: a ``FleetController`` over it
drives the VIP and advances the clock.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import kernels
from repro.core import curve
from repro.api import get_spec, run
from repro.core import FleetController, KnapsackLBConfig
from repro.core.config import CurveConfig, ExplorationConfig, IlpConfig
from repro.core.curve import WeightLatencyCurve
from repro.exceptions import ConfigurationError
from repro.experiments import run_scenario
from repro.workloads import build_testbed_cluster, build_three_dip_pool
from repro.workloads.generators import build_mixed_core_pool
from repro.sim.fleet import Fleet, one_vip_fleet


def converged(fleet, *, config=None, settle_steps=3):
    """The control plane and controller of a one-VIP ``fleet``'s converged VIP."""
    plane = FleetController(fleet, config=config)
    controller = plane.onboard_vip("vip")
    plane.converge_all(settle_steps=settle_steps)
    return plane, controller


@pytest.fixture(scope="module")
def converged_testbed():
    """A converged controller on the 30-DIP testbed (shared across tests)."""
    fleet = build_testbed_cluster(load_fraction=0.70, seed=7)
    _, controller = converged(fleet)
    return fleet, controller, controller.last_assignment


class TestConvergence:
    def test_weights_sum_to_one(self, converged_testbed):
        _, _, assignment = converged_testbed
        assert sum(assignment.weights.values()) == pytest.approx(1.0)

    def test_weights_scale_with_capacity(self, converged_testbed):
        """Fig. 11: larger DIPs get larger weights (roughly 1:2:4:10)."""
        fleet, _, assignment = converged_testbed
        mean_by_core: dict[int, float] = {}
        for cores in (1, 2, 4, 8):
            dips = [d for d, s in fleet.dips.items() if s.vm_type.vcpus == cores]
            mean_by_core[cores] = sum(assignment.weights.get(d, 0.0) for d in dips) / len(dips)
        assert mean_by_core[1] < mean_by_core[2] < mean_by_core[4] < mean_by_core[8]
        ratio_2 = mean_by_core[2] / mean_by_core[1]
        ratio_8 = mean_by_core[8] / mean_by_core[1]
        assert 1.5 <= ratio_2 <= 2.6
        assert 7.0 <= ratio_8 <= 13.0

    def test_no_dip_overloaded(self, converged_testbed):
        fleet, _, _ = converged_testbed
        assert all(util <= 1.0 for util in fleet.state().utilization.values())

    def test_utilization_roughly_uniform_across_types(self, converged_testbed):
        """Fig. 12(a): KnapsackLB equalises CPU utilization across DIP types."""
        fleet, _, _ = converged_testbed
        utils = fleet.state().utilization
        type_means = []
        for cores in (1, 2, 4, 8):
            dips = [d for d, s in fleet.dips.items() if s.vm_type.vcpus == cores]
            type_means.append(sum(utils[d] for d in dips) / len(dips))
        assert max(type_means) - min(type_means) <= 0.25
        assert max(utils.values()) <= 1.0

    def test_latency_beats_equal_split(self, converged_testbed):
        fleet, _, assignment = converged_testbed
        klb_latency = fleet.state().overall_mean_latency_ms()
        fleet.set_weights("vip", {d: 1 / len(fleet.dips) for d in fleet.dips})
        rr_latency = fleet.state().overall_mean_latency_ms()
        fleet.set_weights("vip", dict(assignment.weights))  # restore
        assert klb_latency < rr_latency

    def test_exploration_took_few_iterations(self, converged_testbed):
        """§6.1: 8-10 iterations; fewer than 10 measurements per DIP."""
        _, controller, _ = converged_testbed
        iterations = [e.iteration for e in controller.explorations.values()]
        assert max(iterations) <= 25
        measurements = [e.measurements for e in controller.explorations.values()]
        assert sum(measurements) / len(measurements) <= 15

    def test_every_dip_has_curve(self, converged_testbed):
        fleet, controller, _ = converged_testbed
        assert set(controller.curves) == set(fleet.dips)

    def test_status_reports_all_dips(self, converged_testbed):
        fleet, controller, _ = converged_testbed
        status = controller.status()
        assert set(status) == set(fleet.dips)
        assert all(entry["has_curve"] for entry in status.values())


class TestControllerOnSmallPool:
    def test_three_dip_pool_klb_vs_equal(self):
        """Fig. 14: on the 1×/0.8×/0.6× pool KLB equalises utilization."""
        dips = build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=5)
        total_capacity = sum(d.capacity_rps for d in dips.values())
        fleet = one_vip_fleet(dips, total_capacity * 0.75)
        _, controller = converged(fleet)
        utils = fleet.state().utilization
        assert max(utils.values()) - min(utils.values()) <= 0.25
        # The low-capacity DIP receives the smallest weight.
        weights = controller.last_assignment.weights
        assert weights["DIP-LC"] < weights["DIP-HC-1"]

    def test_theta_constraint_respected(self):
        dips = build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=5)
        total_capacity = sum(d.capacity_rps for d in dips.values())
        fleet = one_vip_fleet(dips, total_capacity * 0.6)
        config = KnapsackLBConfig(ilp=IlpConfig(theta=0.15))
        _, controller = converged(fleet, config=config, settle_steps=0)
        assignment = controller.last_assignment
        values = list(assignment.weights.values())
        # Normalisation can stretch the spread slightly beyond theta.
        assert max(values) - min(values) <= 0.15 * 1.5 + 1e-9


class TestExplorationBudget:
    """``exploration.max_iterations`` caps the weights each DIP is proposed."""

    @staticmethod
    def measure(max_iterations):
        dips = build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=5)
        total_capacity = sum(d.capacity_rps for d in dips.values())
        fleet = one_vip_fleet(dips, total_capacity * 0.75)
        config = KnapsackLBConfig(
            exploration=ExplorationConfig(alpha=0.2, max_iterations=max_iterations)
        )
        plane = FleetController(fleet, config=config)
        plane.onboard_vip("vip")
        return plane.run_measurement_phase().reports["vip"]

    @pytest.mark.parametrize("max_iterations", [2, 3, 4, 5, 6])
    def test_the_budget_ends_the_walk(self, max_iterations):
        report = self.measure(max_iterations)
        history = report.weight_history
        assert set(history) == {"DIP-LC", "DIP-HC-1", "DIP-HC-2"}
        assert all(1 <= len(weights) <= max_iterations for weights in history.values())
        # Uncapped, DIP-LC's walk takes 8 proposals: the budget stops it.
        assert len(history["DIP-LC"]) == report.iterations == max_iterations

    def test_the_smallest_budget_the_config_accepts_fits_every_curve(self):
        smallest = CurveConfig().min_points - 1
        dips = build_three_dip_pool(capacity_ratio=0.6, cores=1, seed=5)
        total_capacity = sum(d.capacity_rps for d in dips.values())
        fleet = one_vip_fleet(dips, total_capacity * 0.75)
        config = KnapsackLBConfig(exploration=ExplorationConfig(alpha=0.2, max_iterations=smallest))
        plane = FleetController(fleet, config=config)
        controller = plane.onboard_vip("vip")
        plane.converge_all()
        assert set(controller.curves) == {"DIP-LC", "DIP-HC-1", "DIP-HC-2"}
        assert controller.last_assignment is not None

    def test_a_budget_the_walk_never_reaches_changes_nothing(self):
        needed, generous = self.measure(9), self.measure(25)
        assert needed.iterations == generous.iterations == 8
        assert needed.weight_history == generous.weight_history
        assert needed.w_max == generous.w_max


class TestControlLoop:
    def make_converged(self, load=0.7):
        fleet = build_testbed_cluster(load_fraction=load, seed=11)
        return (fleet, *converged(fleet))

    def test_steady_state_remains_stable(self):
        """After convergence the control loop must not oscillate or overload."""
        fleet, plane, controller = self.make_converged()
        for _ in range(4):
            report = plane.control_step()["vip"]
            # Residual curve-calibration events are tolerable, but they must
            # stay few and must never push a DIP into overload.
            assert len(report.events) <= 3
            assert not report.failed_dips
            assert max(fleet.state().utilization.values()) <= 1.0

    def test_failure_detected_and_weights_recomputed(self):
        """Fig. 15: failed DIPs are removed and their weight redistributed."""
        fleet, plane, controller = self.make_converged()
        before = dict(controller.last_assignment.weights)
        fleet.fail_dip("DIP-25")
        fleet.fail_dip("DIP-26")
        report = plane.control_step()["vip"]
        assert set(report.failed_dips) == {"DIP-25", "DIP-26"}
        assert report.reprogrammed
        after = controller.last_assignment.weights
        assert after.get("DIP-25", 0.0) == 0.0
        assert after.get("DIP-26", 0.0) == 0.0
        assert sum(after.values()) == pytest.approx(1.0)
        # The freed weight is redistributed across the surviving DIPs without
        # overloading any of them (the ILP makes latency-informed decisions,
        # so the split is *not* uniform — Fig. 15).
        gains = {d: after.get(d, 0.0) - before.get(d, 0.0) for d in after}
        assert sum(gains.values()) > 0.05  # the failed DIPs' weight moved
        spread = max(gains.values()) - min(g for d, g in gains.items() if d not in ("DIP-25", "DIP-26"))
        assert spread > 1e-4  # not an equal split
        assert max(fleet.state().utilization.values()) <= 1.0

    def test_capacity_change_rescales_and_reprograms(self):
        """Fig. 16: capacity loss on DIP-25..28 shrinks their weights."""
        fleet, plane, controller = self.make_converged()
        before = dict(controller.last_assignment.weights)
        for dip in ("DIP-25", "DIP-26", "DIP-27", "DIP-28"):
            fleet.set_capacity_ratio(dip, 0.75)
        report = plane.control_step()["vip"]
        assert report.reprogrammed
        after = controller.last_assignment.weights
        for dip in ("DIP-25", "DIP-26", "DIP-27", "DIP-28"):
            assert after[dip] < before[dip]
        assert max(fleet.state().utilization.values()) <= 1.0

    def test_traffic_increase_detected(self):
        """Fig. 17: +10 % traffic is detected as a cluster-wide event."""
        fleet, plane, controller = self.make_converged(load=0.7)
        fleet.scale_traffic("vip", 1.25)
        report = plane.control_step()["vip"]
        kinds = {event.kind.value for event in report.events}
        assert "traffic_increase" in kinds or "capacity_change" in kinds
        assert report.reprogrammed

    def test_recover_dip_allows_reexploration(self):
        fleet, plane, controller = self.make_converged()
        fleet.fail_dip("DIP-29")
        plane.control_step()
        assert "DIP-29" in controller.failed_dips
        fleet.recover_dip("DIP-29")
        controller.recover_dip("DIP-29")
        assert "DIP-29" not in controller.failed_dips


class TestIlpRuns:
    """``ilp_runs`` counts the VIP's ILP computations (§6.4): one per
    :meth:`compute_weights` that solves, kept as one integer however long
    the VIP runs."""

    @staticmethod
    def small_pool() -> Fleet:
        dips = build_three_dip_pool(seed=5)
        total_capacity = sum(d.capacity_rps for d in dips.values())
        return one_vip_fleet(dips, total_capacity * 0.7)

    def test_each_computation_is_one_run(self):
        _, controller = converged(self.small_pool())
        runs = controller.ilp_runs
        assert runs >= 1
        controller.compute_weights()
        controller.compute_weights(force_multistep=True)
        assert controller.ilp_runs == runs + 2

    def test_only_reprogramming_ticks_run_the_ilp(self):
        fleet = build_testbed_cluster(load_fraction=0.7, seed=11)
        plane, controller = converged(fleet)
        runs = controller.ilp_runs
        reports = [plane.control_step()["vip"] for _ in range(3)]
        fleet.fail_dip("DIP-25")
        reports.append(plane.control_step()["vip"])
        assert reports[-1].reprogrammed
        assert controller.ilp_runs == runs + sum(r.reprogrammed for r in reports)

    def test_a_computation_with_no_curves_is_no_run(self):
        plane = FleetController(self.small_pool())
        controller = plane.onboard_vip("vip")
        with pytest.raises(ConfigurationError, match="no fitted curves"):
            controller.compute_weights()
        assert controller.ilp_runs == 0


class TestCurveKernelCallsPerTick:
    """A control tick evaluates each VIP's curves as one bank: drift check,
    §4.5 rescale and ILP grid each cost O(1) kernel calls, not O(DIPs).
    A call is a compiled bank prediction or bank inversion.  The bank is
    kept with the VIP's curves: a tick that fits no curve stacks none (no
    ``bank_row`` read, no ``_bank`` / ``_stack`` call)."""

    @staticmethod
    def tick(num_dips, perturb, monkeypatch):
        dips = build_mixed_core_pool(num_dips, seed=5)
        capacity = sum(dip.capacity_rps for dip in dips.values())
        fleet = one_vip_fleet(dips, 0.6 * capacity)
        plane, _ = converged(fleet, settle_steps=0)
        perturb(fleet)
        calls, stacked = [], []
        predict_bank, bisect_bank = kernels.predict_bank, kernels.bisect_bank

        def counting(*args):
            calls.append("predict_bank")
            return predict_bank(*args)

        def counting_bisect(*args):
            calls.append("bisect_bank")
            return bisect_bank(*args)

        def stacking(name, build):
            def counted(*args):
                stacked.append(name)
                return build(*args)

            return counted

        row = WeightLatencyCurve.bank_row
        monkeypatch.setattr(kernels, "predict_bank", counting)
        monkeypatch.setattr(kernels, "bisect_bank", counting_bisect)
        monkeypatch.setattr(curve, "_bank", stacking("_bank", curve._bank))
        monkeypatch.setattr(curve, "_stack", stacking("_stack", curve._stack))
        monkeypatch.setattr(
            WeightLatencyCurve,
            "bank_row",
            property(stacking("bank_row", lambda c: row.__get__(c, WeightLatencyCurve))),
        )
        report = plane.control_step()["vip"]
        monkeypatch.undo()
        rescaled = sum(len(event.dips) for event in report.events)
        assert "bisect_bank" in calls  # the rescale ran in the kernel
        assert stacked == []  # ... on the kept bank
        return len(calls), rescaled, report.reprogrammed

    @pytest.mark.parametrize(
        "perturb",
        [
            lambda fleet: fleet.scale_traffic("vip", 1.25),
            lambda fleet: [fleet.set_capacity_ratio(d, 0.6) for d in ("DIP-1", "DIP-3")],
        ],
        ids=["traffic", "capacity"],
    )
    def test_no_more_calls_at_30_dips_than_at_7(self, perturb, monkeypatch):
        small = self.tick(7, perturb, monkeypatch)
        large = self.tick(30, perturb, monkeypatch)
        assert small[2] and large[2]  # both ticks rescaled and re-solved
        assert large[1] > small[1] >= 1
        assert large[0] <= small[0]


#: (policy, seed, load) -> (sha-1 of the converged weights as
#: ``dip=float.hex`` pairs sorted by DIP and joined by ``;``, the clock at
#: convergence), recorded on the Table 3 testbed while a single VIP still
#: converged through its own controller loop (``KnapsackLBController.converge``,
#: since removed).  The fleet path must land on the same bits.
CONVERGED_TESTBED = {
    ("wrr", 7, 0.7): ("7a63659ae18eafd7321018dc503fc28e7d9a242e", 145.0),
    ("wrr", 7, 0.95): ("e16cd1cd260a5a3b19fe27de29b25b8f0e68c6e1", 150.0),
    ("wrr", 11, 0.7): ("6e8aacff754830315db856ec0d1c4bdfb860db51", 150.0),
    ("wrr", 11, 0.95): ("436a60ca7d6d2f03d8fde376dd0d698a752c9eda", 150.0),
    ("wlc", 7, 0.7): ("98e07e2bdb68243ec8aacd29df1bc2f3cd2112e8", 300.0),
    ("wlc", 7, 0.95): ("c6e277a84f4045380bf0ef5232972f2c89100965", 220.0),
    ("wlc", 11, 0.7): ("28cde3884aa5f1800d6a8bd56bfc7f8e8ab928f1", 330.0),
    ("wlc", 11, 0.95): ("e8d55f1151629d4d25a615b7353e8131e7e8d730", 240.0),
}


class TestOneConvergencePath:
    @pytest.mark.parametrize("policy, seed, load", sorted(CONVERGED_TESTBED))
    def test_fleet_path_reproduces_the_single_vip_loop(self, policy, seed, load):
        fleet = build_testbed_cluster(load_fraction=load, policy_name=policy, seed=seed)
        _, controller = converged(fleet)
        weights = ";".join(
            f"{dip}={weight.hex()}"
            for dip, weight in sorted(controller.last_assignment.weights.items())
        )
        digest = hashlib.sha1(weights.encode()).hexdigest()
        assert (digest, controller.time) == CONVERGED_TESTBED[policy, seed, load]

    def test_the_testbed_scenario_is_the_testbed_spec(self):
        """``single_vip_testbed`` and ``testbed_klb`` are one convergence; the
        scenario reads its mean before the equal-split excursion, the spec
        after, an ulp of weight apart."""
        scenario = run_scenario("single_vip_testbed").metrics
        spec = run(get_spec("testbed_klb")).metrics
        for key in scenario.keys() & spec.keys():
            assert spec[key] == pytest.approx(scenario[key], rel=1e-12, abs=0.0), key
        assert {"mean_latency_ms", "latency_gain", "max_utilization"} <= scenario.keys()
