"""Integration: the multi-VIP control plane end to end on a shared fleet.

The acceptance scenario of the fleet-scale refactor: 8 VIPs sharing 32
DIPs run measurement, per-VIP ILP weights and dynamics through one
FleetController, with rounds from different VIPs interleaved on the shared
clock.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, run
from repro.experiments import get_scenario, list_scenarios, run_scenario
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def shared_dip_result():
    """The 8-VIP / 32-DIP shared-fleet scenario, run once for all tests."""
    return run_scenario("multi_vip_shared_dips")


class TestScenarioRegistry:
    def test_builtin_scenarios_registered(self):
        names = {spec.name for spec in list_scenarios()}
        assert {
            "single_vip_testbed",
            "multi_vip_shared_dips",
            "staggered_vip_onboarding",
            "per_vip_traffic_mix",
            "datacenter_scale_fluid",
            "request_vs_fluid_crosscheck",
        } <= names

    def test_request_vs_fluid_crosscheck_agrees_on_means(self):
        """The two simulators agree on mean latency (reduced request count)."""
        result = run_scenario("request_vs_fluid_crosscheck", num_requests=60_000)
        assert result.metrics["mean_rel_delta"] < 0.05
        # streaming arrivals: the heap never scales with the request count.
        assert result.metrics["peak_scheduled_events"] < 3000
        assert result.metrics["max_share_deviation"] < 0.02

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            run_scenario("definitely-not-a-scenario")

    def test_defaults_can_be_overridden(self):
        spec = get_scenario("multi_vip_shared_dips")
        assert spec.defaults["num_vips"] == 8
        result = run_scenario(
            "multi_vip_shared_dips",
            num_vips=2,
            num_dips=6,
            settle_steps=2,
            control_steps=1,
        )
        assert result.params["num_vips"] == 2
        assert result.metrics["vips_with_assignment"] == 2.0


class TestMultiVipSharedDips:
    def test_acceptance_scale(self, shared_dip_result):
        """≥8 VIPs sharing ≥32 DIPs, end to end through FleetController."""
        assert shared_dip_result.params["num_vips"] >= 8
        assert shared_dip_result.params["num_dips"] >= 32
        assert shared_dip_result.metrics["vips_with_assignment"] == 8.0
        assert shared_dip_result.metrics["shared_dips"] >= 1.0

    def test_measurement_rounds_interleave(self, shared_dip_result):
        metrics = shared_dip_result.metrics
        assert metrics["measurement_rounds"] > 0
        # The whole point of the fleet scheduler: most rounds carry
        # measurements from more than one VIP.
        assert metrics["interleaved_rounds"] >= metrics["measurement_rounds"] * 0.5

    def test_no_dip_measured_twice_per_round(self, shared_dip_result):
        plane = shared_dip_result.detail["plane"]
        assert plane.round_log
        for entry in plane.round_log:
            measured = [d for per_vip in entry.measured.values() for d in per_vip]
            assert len(measured) == len(set(measured))

    def test_squeeze_arrives_as_timeline_event(self, shared_dip_result):
        """The antagonist squeeze is a declarative timeline event now."""
        squeezed = shared_dip_result.detail["squeezed_dip"]
        labels = [
            label for window in shared_dip_result.windows for label in window.events
        ]
        assert any("capacity_ratio" in label and squeezed in label for label in labels)

    def test_converged_fleet_is_healthy(self, shared_dip_result):
        metrics = shared_dip_result.metrics
        assert metrics["converged_max_utilization"] <= 1.0
        assert metrics["converged_latency_ms"] < 50.0

    def test_dynamics_react_to_shared_capacity_squeeze(self, shared_dip_result):
        metrics = shared_dip_result.metrics
        assert metrics["post_squeeze_events"] >= 1.0
        assert metrics["post_squeeze_reprograms"] >= 1.0
        assert metrics["final_max_utilization"] <= 1.0


class TestStaggeredOnboarding:
    def test_late_vips_join_live_fleet(self):
        result = run_scenario(
            "staggered_vip_onboarding", num_vips=4, num_dips=12, initial_vips=2
        )
        assert result.metrics["steady_vips"] == 4.0
        assert result.metrics["total_rounds"] > result.metrics["first_wave_rounds"]
        assert result.metrics["max_utilization"] <= 1.0


class TestPerVipTrafficMix:
    def test_controlled_vips_converge_amid_background_tenants(self):
        result = run_scenario("per_vip_traffic_mix", num_vips=4, num_dips=12)
        assert result.metrics["measurement_rounds"] > 0
        assert result.metrics["max_utilization"] <= 1.0
        assert result.metrics["controlled_mean_latency_ms"] < 50.0


# -- golden per-seed gate ---------------------------------------------------------
#
# A cut-down ``fleet_dynamics`` (benchmarks/observatory/workloads) whose outputs
# were recorded at commit 3ed685c, before the control loop's per-element loops
# (probe draws, candidate grids, the fleet snapshot) went into array form.
# Array kernels must do the same operations per element as the scalar code they
# replace, so these values may move only with a change that means to move them.

GOLDEN_SPEC = {
    "name": "fleet_dynamics_golden",
    "runner": "fleet",
    "seed": 17,
    "pool": {"kind": "testbed"},
    "workload": {"load_fraction": 0.55},
    "policy": {"name": "wrr"},
    "fleet": {"num_vips": 3},
    "controller": {
        "enabled": True,
        "settle_steps": 3,
        "config": {"ilp": {"backend": "dp"}},
    },
    "timeline": {
        "window_s": 5.0,
        "horizon_s": 20.0,
        "events": [
            {"time_s": 5.0, "kind": "capacity_ratio", "dip": "DIP-4", "value": 0.6},
            {"time_s": 10.0, "kind": "dip_fail", "dip": "DIP-6"},
            {"time_s": 15.0, "kind": "dip_recover", "dip": "DIP-6"},
        ],
    },
}

# fmt: off
GOLDEN_METRICS = {
    "final_latency_ms": 3.8185867554981856, "max_utilization": 0.9805148517170021,
    "mean_latency_ms": 5.498370051272294, "measurement_rounds": 33.0, "num_vips": 3.0,
    "shared_dips": 30.0, "timeline_events": 3.0, "vips_with_assignment": 3.0,
}
GOLDEN_WINDOW_MEAN_LATENCY_MS = [
    3.9098101114862094, 3.740684569576608, 10.524398768528174, 3.8185867554981856,
]
GOLDEN_WINDOW_DIP_SHARE = [
    {
        "DIP-1": 0.011187768424147222, "DIP-2": 0.01126298574120802,
        "DIP-3": 0.01115053800857466, "DIP-4": 0.010195505613169939,
        "DIP-5": 0.022432244670595985, "DIP-6": 0.011390141604556526,
        "DIP-7": 0.023261088926612092, "DIP-8": 0.011741826898013789,
        "DIP-9": 0.011727662391194663, "DIP-10": 0.011671067848874114,
        "DIP-13": 0.01087537917263134, "DIP-16": 0.01144350701232273,
        "DIP-17": 0.0259887970829763, "DIP-18": 0.04193021593244947,
        "DIP-19": 0.03008991291646272, "DIP-20": 0.02563356636910085,
        "DIP-21": 0.02907939945845137, "DIP-22": 0.011476189948219766,
        "DIP-23": 0.0387923553506536, "DIP-24": 0.011884083685129498,
        "DIP-25": 0.07358854426680714, "DIP-26": 0.07770187398492202,
        "DIP-27": 0.0694728402371537, "DIP-28": 0.07010261466962811,
        "DIP-29": 0.16818446587199085, "DIP-30": 0.16773542391415358,
    },
    {
        "DIP-1": 0.011339067813590472, "DIP-2": 0.01141530234281686,
        "DIP-3": 0.011301333907157955, "DIP-4": 0.010216783001551306,
        "DIP-5": 0.009151357610435293, "DIP-6": 0.01151360322022506,
        "DIP-7": 0.008294746175333746, "DIP-8": 0.011766331363088389,
        "DIP-9": 0.011752137295821334, "DIP-10": 0.011695424644198222,
        "DIP-13": 0.010893746839718037, "DIP-16": 0.011462834203013753,
        "DIP-17": 0.026038495671157593, "DIP-18": 0.04146000814724412,
        "DIP-19": 0.037116602666397006, "DIP-20": 0.043169321789407716,
        "DIP-21": 0.03470891531371745, "DIP-22": 0.011495572337840081,
        "DIP-23": 0.039061774499808355, "DIP-24": 0.021226103630847447,
        "DIP-25": 0.06954563092529553, "DIP-26": 0.07449747450448356,
        "DIP-27": 0.07029768201535729, "DIP-28": 0.062160041282744063,
        "DIP-29": 0.16942985357874088, "DIP-30": 0.1689898552200085,
    },
    {
        "DIP-1": 0.011603715048793782, "DIP-2": 0.011681728847508496,
        "DIP-3": 0.011565100454973644, "DIP-4": 0.0035390126691109925,
        "DIP-5": 0.04367417982065545, "DIP-7": 0.008351423903780754,
        "DIP-8": 0.011846730319212899, "DIP-9": 0.010603555603581774,
        "DIP-10": 0.011775339097039164, "DIP-13": 0.01088628119410411,
        "DIP-16": 0.011454978553424127, "DIP-17": 0.02613054304864719,
        "DIP-18": 0.04090647957555458, "DIP-19": 0.03625575796209529,
        "DIP-20": 0.018340577784470957, "DIP-21": 0.03505251412523546,
        "DIP-22": 0.011487694252323107, "DIP-23": 0.03945452776418757,
        "DIP-24": 0.021275077310821972, "DIP-25": 0.06970547076963728,
        "DIP-26": 0.07478684638534171, "DIP-27": 0.0717051845602902,
        "DIP-28": 0.06575347555450528, "DIP-29": 0.1712916674310623,
        "DIP-30": 0.1708721379636418,
    },
    {
        "DIP-1": 0.011350282882905066, "DIP-2": 0.0066302119737240445,
        "DIP-3": 0.011312511655205658, "DIP-4": 0.0035246145227968277,
        "DIP-5": 0.005095283832008827, "DIP-6": 0.014215958255180815,
        "DIP-7": 0.008317446906651649, "DIP-8": 0.011798532990627655,
        "DIP-9": 0.01056041601655421, "DIP-10": 0.02345486443410065,
        "DIP-13": 0.010999562204077265, "DIP-16": 0.01157417734285605,
        "DIP-17": 0.026189443080815014, "DIP-18": 0.03945845360856952,
        "DIP-19": 0.036134994867968714, "DIP-20": 0.04001714381508041,
        "DIP-21": 0.03071798197236081, "DIP-22": 0.011607233476412846,
        "DIP-23": 0.0392888517893715, "DIP-24": 0.03934388527589707,
        "DIP-25": 0.05989575267803085, "DIP-26": 0.07155151783890104,
        "DIP-27": 0.06800161349628843, "DIP-28": 0.06869620077769577,
        "DIP-29": 0.170357330058996, "DIP-30": 0.16990573424692332,
    },
]
GOLDEN_FINAL_WEIGHTS = {
    "VIP-1": {
        "DIP-2": 0.06017261806669675, "DIP-4": 0.009058834850994955,
        "DIP-5": 0.05238284578874884, "DIP-6": 0.013808383939360883,
        "DIP-7": 0.042754393379442694, "DIP-8": 0.06064831269054642,
        "DIP-9": 0.05428398710441398, "DIP-10": 0.03207042461986132,
        "DIP-17": 0.07533987439501798, "DIP-18": 0.19694052278760937,
        "DIP-19": 0.1754145827568965, "DIP-20": 0.22712521962041038,
    },
    "VIP-2": {
        "DIP-13": 0.02606271147864169, "DIP-16": 0.027424222809310818,
        "DIP-17": 0.02732620854850673, "DIP-18": 0.002866413253440736,
        "DIP-19": 0.004762113045239411, "DIP-20": 0.0006549579371486484,
        "DIP-21": 0.01986329379183963, "DIP-22": 0.027502547060358824,
        "DIP-24": 0.046566231929773196, "DIP-25": 0.24286796679791722,
        "DIP-26": 0.12027559687709705, "DIP-27": 0.017417336744439835,
        "DIP-28": 0.022701945607595586, "DIP-29": 0.20838472290009735,
        "DIP-30": 0.20532373121859326,
    },
    "VIP-3": {
        "DIP-1": 0.02932095196775252, "DIP-2": 0.013284427811074057,
        "DIP-3": 0.02922337833328343, "DIP-6": 0.022844940943376305,
        "DIP-21": 0.05896151127049275, "DIP-23": 0.09030832841609773,
        "DIP-24": 0.004697927262031674, "DIP-25": 0.0030536957582401637,
        "DIP-26": 0.027480604056940278, "DIP-27": 0.1566778683682819,
        "DIP-28": 0.136198574305822, "DIP-29": 0.21288856755698557,
        "DIP-30": 0.21505922394962165,
    },
}
# fmt: on


class TestGoldenFleetDynamics:
    def test_per_seed_outputs_equal_recorded_values(self):
        result = run(ExperimentSpec.from_dict(GOLDEN_SPEC))
        exact = {"rel": 1e-12, "abs": 0.0}
        assert result.metrics == pytest.approx(GOLDEN_METRICS, **exact)
        assert [
            w.metrics["mean_latency_ms"] for w in result.windows
        ] == pytest.approx(GOLDEN_WINDOW_MEAN_LATENCY_MS, **exact)
        assert len(result.windows) == len(GOLDEN_WINDOW_DIP_SHARE)
        for window, share in zip(result.windows, GOLDEN_WINDOW_DIP_SHARE):
            assert window.dip_share == pytest.approx(share, **exact)
        controllers = result.detail["plane"].controllers
        assert set(controllers) == set(GOLDEN_FINAL_WEIGHTS)
        for vip, weights in GOLDEN_FINAL_WEIGHTS.items():
            assert controllers[vip].current_weights == pytest.approx(weights, **exact)


# -- golden per-seed gate, one-VIP case --------------------------------------------
#
# A cut-down ``ctl_cold_100`` on ``runner="fluid"`` and one saturated ``wlc``
# case, recorded at commit e39c180 — while a fluid run still had its own
# runner, stepper and per-VIP converge — and now executed by the fleet path as
# its one-VIP case.  The two paths differ by summation order only (declared
# rate vs the sum of per-DIP rates, dict fold vs array fold), hence ``rel``.
#
# The ``wlc`` case holds one oddity in place: after measuring the equal-split
# latency, the prepare step re-programs the *raw* ``assignment.weights``, not
# the normalised weights the LB held.  They differ by an ulp, and at max
# utilization 1.0 the least-connection fixed point turns that ulp into
# 17.09 ms vs 19.58 ms (DIP-10 at 405 vs 985 rps).

ONE_VIP_SPEC = {
    "name": "golden_one_vip",
    "runner": "fluid",
    "seed": 17,
    "pool": {"kind": "mixed_core", "num_dips": 16},
    "workload": {"load_fraction": 0.7},
    "policy": {"name": "wrr"},
    "controller": {
        "enabled": True,
        "settle_steps": 0,
        "config": {"ilp": {"backend": "dp"}},
    },
    "timeline": {
        "window_s": 5.0,
        "horizon_s": 20.0,
        "events": [
            {"time_s": 5.0, "kind": "capacity_ratio", "dip": "DIP-3", "value": 0.6},
            {"time_s": 10.0, "kind": "dip_fail", "dip": "DIP-7"},
            {"time_s": 15.0, "kind": "dip_recover", "dip": "DIP-7"},
        ],
    },
}
WLC_SPEC = {
    "name": "golden_wlc",
    "runner": "fluid",
    "seed": 17,
    "pool": {"kind": "testbed"},
    "workload": {"load_fraction": 0.7},
    "policy": {"name": "wlc"},
    "controller": {"enabled": True, "config": {"ilp": {"backend": "dp"}}},
}

# fmt: off
ONE_VIP_METRICS = {
    "objective_ms": 4.018184582686658, "equal_split_latency_ms": 67.60530422046074,
    "latency_gain": 16.354535756365497, "timeline_events": 3.0,
    "mean_latency_ms": 12.762575817748676, "final_latency_ms": 28.076642866751087,
    "max_utilization": 1.0, "total_rate_rps": 15119.999999999998,
}
ONE_VIP_WINDOW_MEAN_LATENCY_MS = [
    4.133734226857979, 4.008407794807858, 14.831518382577775, 28.076642866751087,
]
ONE_VIP_WINDOW_DIP_SHARE = [
    {
        "DIP-1": 0.07988529095062562, "DIP-2": 0.18814570171590894,
        "DIP-5": 0.02339385166532859, "DIP-6": 0.08054273610893238,
        "DIP-7": 0.1848533207549183, "DIP-8": 0.013948876491673578,
        "DIP-10": 0.0015502732310143448, "DIP-11": 0.023217379291944725,
        "DIP-12": 0.023298752374890794, "DIP-13": 0.18790933450481895,
        "DIP-14": 0.023315973590960333, "DIP-15": 0.08005586496818264,
        "DIP-16": 0.08988264435080075,
    },
    {
        "DIP-1": 0.07989219197216978, "DIP-2": 0.18816195499014168,
        "DIP-5": 0.025444647629294704, "DIP-6": 0.08054969392495206,
        "DIP-7": 0.18486928961143567, "DIP-8": 0.01395008148818846,
        "DIP-10": 0.0015504071539035181, "DIP-11": 0.024833964574107508,
        "DIP-12": 0.026326147305674633, "DIP-13": 0.18792556736008345,
        "DIP-14": 0.026530687478274514, "DIP-15": 0.08006278072504235,
        "DIP-16": 0.0799025857867317,
    },
    {
        "DIP-1": 0.09801151024488577, "DIP-2": 0.23083654264534684,
        "DIP-5": 0.031215420183550082, "DIP-6": 0.09881813174055837,
        "DIP-8": 0.017113919657791573, "DIP-10": 0.0019020350161564339,
        "DIP-11": 0.030466235976153343, "DIP-12": 0.03229684143924014,
        "DIP-13": 0.23054654298388697, "DIP-14": 0.03254777073192055,
        "DIP-15": 0.09822078803395502, "DIP-16": 0.09802426134655506,
    },
    {
        "DIP-1": 0.0603410883785194, "DIP-2": 0.11997640601743714,
        "DIP-4": 0.0020877138961293644, "DIP-5": 0.06412181430101706,
        "DIP-6": 0.05734721068458997, "DIP-7": 0.2329400357813877,
        "DIP-8": 0.029295766104453835, "DIP-9": 0.001709358603216089,
        "DIP-10": 0.001709358603216089, "DIP-11": 0.06258286174675147,
        "DIP-12": 0.06634323860127597, "DIP-13": 0.1198256798077586,
        "DIP-14": 0.06685869030473944, "DIP-15": 0.05764184522407995,
        "DIP-16": 0.05721893194542804,
    },
]
ONE_VIP_FINAL_WEIGHTS = {
    "DIP-1": 0.0697275675144266, "DIP-2": 0.22202622673005598,
    "DIP-5": 0.01092248224325626, "DIP-6": 0.08162336319910492,
    "DIP-7": 0.10581041443490284, "DIP-8": 0.02787704849457813,
    "DIP-10": 0.001565661591403946, "DIP-11": 0.014213783636919794,
    "DIP-12": 0.011300878702227495, "DIP-13": 0.2956665615698745,
    "DIP-14": 0.011388680523490787, "DIP-15": 0.07684047166399711,
    "DIP-16": 0.07103685969576166,
}
WLC_METRICS = {
    "objective_ms": 6.631996769839967, "equal_split_latency_ms": 68.05144600509797,
    "latency_gain": 3.4764436538607963, "mean_latency_ms": 17.09331785188194,
    "max_utilization": 1.0, "total_rate_rps": 17102.847999999998,
}
WLC_DIP_10 = {
    "rate_rps": 405.23586829719096, "utilization": 1.0,
    "mean_latency_ms": 162.5,
}
# fmt: on


class TestGoldenOneVip:
    exact = {"rel": 1e-12, "abs": 0.0}

    def test_per_seed_outputs_equal_recorded_values(self):
        result = run(ExperimentSpec.from_dict(ONE_VIP_SPEC))
        recorded = {key: result.metrics[key] for key in ONE_VIP_METRICS}
        assert recorded == pytest.approx(ONE_VIP_METRICS, **self.exact)
        assert [
            w.metrics["mean_latency_ms"] for w in result.windows
        ] == pytest.approx(ONE_VIP_WINDOW_MEAN_LATENCY_MS, **self.exact)
        assert len(result.windows) == len(ONE_VIP_WINDOW_DIP_SHARE)
        for window, share in zip(result.windows, ONE_VIP_WINDOW_DIP_SHARE):
            assert window.dip_share == pytest.approx(share, **self.exact)
        controllers = result.detail["plane"].controllers
        assert set(controllers) == {"vip"}
        assert controllers["vip"].current_weights == pytest.approx(
            ONE_VIP_FINAL_WEIGHTS, **self.exact
        )

    def test_saturated_wlc_keeps_the_raw_weight_restore(self):
        result = run(ExperimentSpec.from_dict(WLC_SPEC))
        recorded = {key: result.metrics[key] for key in WLC_METRICS}
        assert recorded == pytest.approx(WLC_METRICS, **self.exact)
        assert result.dip_summaries["DIP-10"] == pytest.approx(
            WLC_DIP_10 | {"vips": 1.0}, **self.exact
        )
