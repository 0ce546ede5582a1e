"""The timeline & observer layer: spec validation, application, determinism.

Covers the tentpole guarantees of the timeline redesign:

* `EventSpec` / `TimelineSpec` validate eagerly with per-kind rules and
  round-trip through JSON inside `ExperimentSpec` and `RunResult`;
* the same timeline executes on all three substrates by flipping
  ``spec.runner`` only, with events applied at their declared times in the
  same order everywhere;
* per-substrate determinism: same spec + seed → bit-identical metrics and
  windows on re-run;
* the vectorized fluid path rebuilds `PoolArrays` after a mid-run
  `capacity_ratio` event (the stale-capacity regression);
* the request engine's arrival rescaling preserves the sorted-stream
  invariant, and observers stream events/rounds/windows live.
"""

from __future__ import annotations

import json
import logging
import math

import pytest

from repro import api
from repro.api.spec import EventSpec, TimelineSpec
from repro.api.timeline import (
    BaseObserver,
    ObserverSet,
    WindowedMetricsObserver,
    check_timeline_supported,
)
from repro.exceptions import ConfigurationError
from repro.lb import policy_registry


def timeline_spec(runner: str = "fluid", **overrides) -> api.ExperimentSpec:
    """A small uniform-pool spec with a fault + surge + recovery timeline."""
    base = dict(
        name="timeline-test",
        runner=runner,
        pool=api.PoolSpec(kind="uniform", num_dips=6),
        workload=api.WorkloadSpec(load_fraction=0.6, num_requests=8_000),
        timeline=api.TimelineSpec(
            events=(
                api.EventSpec(time_s=10.0, kind="dip_fail", dip="DIP-2"),
                api.EventSpec(time_s=20.0, kind="arrival_scale", value=1.2),
                api.EventSpec(time_s=30.0, kind="dip_recover", dip="DIP-2"),
            ),
            window_s=5.0,
            horizon_s=45.0,
        ),
        seed=11,
    )
    base.update(overrides)
    return api.ExperimentSpec(**base)


class TestEventSpecValidation:
    def test_kinds_are_validated(self):
        with pytest.raises(ConfigurationError, match="kind must be one of"):
            EventSpec(time_s=1.0, kind="explode")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(kind="dip_fail"), "needs the dip field"),
            (dict(kind="dip_fail", dip="D", value=2.0), "does not take a value"),
            (dict(kind="capacity_ratio", dip="D"), "value in \\(0, 1\\]"),
            (dict(kind="capacity_ratio", dip="D", value=1.5), "value in \\(0, 1\\]"),
            (dict(kind="arrival_scale", value=-1.0), "positive value"),
            (dict(kind="arrival_scale", dip="D", value=1.1), "does not take a dip"),
            (dict(kind="vip_onboard"), "needs the vip field"),
            (dict(kind="dip_recover", dip="D", vip="V"), "does not take a vip"),
            (dict(kind="antagonist_phase", dip="D", value=1.5), "integer"),
        ],
    )
    def test_per_kind_field_rules(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            EventSpec(time_s=1.0, **kwargs)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="time_s"):
            EventSpec(time_s=-1.0, kind="dip_fail", dip="D")

    def test_label_is_compact(self):
        event = EventSpec(time_s=30.0, kind="capacity_ratio", dip="DIP-3", value=0.5)
        assert event.label() == "t=30s capacity_ratio DIP-3 0.5"


class TestTimelineSpec:
    def test_horizon_must_cover_events(self):
        with pytest.raises(ConfigurationError, match="does not cover"):
            TimelineSpec(
                events=(EventSpec(time_s=50.0, kind="dip_fail", dip="D"),),
                horizon_s=40.0,
            )

    def test_derived_horizon_extends_past_last_event(self):
        timeline = TimelineSpec(
            events=(EventSpec(time_s=12.0, kind="dip_fail", dip="D"),),
            window_s=4.0,
        )
        assert timeline.duration_s() == 12.0 + TimelineSpec.TAIL_WINDOWS * 4.0

    def test_ordered_events_stable_on_ties(self):
        events = (
            EventSpec(time_s=5.0, kind="dip_fail", dip="B"),
            EventSpec(time_s=1.0, kind="dip_fail", dip="C"),
            EventSpec(time_s=5.0, kind="dip_fail", dip="A"),
        )
        ordered = TimelineSpec(events=events).ordered_events()
        assert [e.dip for e in ordered] == ["C", "B", "A"]

    def test_mapping_events_coerce_to_eventspec(self):
        timeline = TimelineSpec(
            events=({"time_s": 3.0, "kind": "dip_fail", "dip": "D"},)
        )
        assert isinstance(timeline.events[0], EventSpec)

    def test_empty_means_no_timed_phase(self):
        assert TimelineSpec().empty
        assert not TimelineSpec(horizon_s=10.0).empty

    def test_unknown_event_key_names_indexed_path(self):
        with pytest.raises(ConfigurationError, match=r"timeline\.events\[0\]"):
            api.ExperimentSpec.from_dict(
                {
                    "name": "x",
                    "timeline": {
                        "events": [{"time_s": 1.0, "kind": "dip_fail", "dipz": "D"}]
                    },
                }
            )

    def test_scenario_runner_rejects_timelines(self):
        with pytest.raises(ConfigurationError, match="cannot carry timeline"):
            api.ExperimentSpec(
                name="x",
                runner="scenario",
                scenario="single_vip_testbed",
                timeline=TimelineSpec(horizon_s=10.0),
            )


class TestProvenanceRoundTrip:
    def test_spec_round_trips_timeline_through_json(self):
        spec = timeline_spec()
        restored = api.ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert restored == spec
        assert restored.timeline.events == spec.timeline.events

    def test_run_result_round_trips_windows_and_timeline(self, tmp_path):
        result = api.execute(timeline_spec())
        path = result.save(tmp_path / "result.json")
        restored = api.RunResult.load(path)
        assert restored.spec.timeline == result.spec.timeline
        assert restored.windows == result.windows
        assert restored.metrics_equal(result)
        # A reloaded artifact re-runs to the same trajectory.
        rerun = api.execute(restored.spec)
        assert rerun.windows == result.windows


class TestCrossSubstrateTimeline:
    @pytest.mark.parametrize("runner", ["fluid", "request", "fleet"])
    def test_events_fire_at_declared_times(self, runner):
        result = api.execute(timeline_spec(runner))
        by_window = {w.start_s: w.events for w in result.windows if w.events}
        assert set(by_window) == {10.0, 20.0, 30.0}
        assert by_window[10.0] == ("t=10s dip_fail DIP-2",)
        assert by_window[20.0] == ("t=20s arrival_scale 1.2",)
        assert by_window[30.0] == ("t=30s dip_recover DIP-2",)

    @pytest.mark.parametrize("runner", ["fluid", "request", "fleet"])
    def test_rerun_is_bit_identical(self, runner):
        first = api.execute(timeline_spec(runner))
        second = api.execute(timeline_spec(runner))
        assert first.metrics == second.metrics
        assert first.windows == second.windows

    def test_application_order_identical_across_substrates(self):
        orders = []
        for runner in ("fluid", "request", "fleet"):
            result = api.execute(timeline_spec(runner))
            orders.append(
                [label for w in result.windows for label in w.events]
            )
        assert orders[0] == orders[1] == orders[2]

    def test_fault_and_recovery_visible_in_trajectory(self):
        result = api.execute(timeline_spec("request"))
        share = [w.dip_share.get("DIP-2", 0.0) for w in result.windows]
        # DIP-2 serves traffic before the fault, none during the outage
        # windows, and serves again after recovery.
        assert share[1] > 0.0
        assert share[4] == 0.0 and share[5] == 0.0
        assert share[-1] > 0.0

    def test_fluid_controller_reacts_to_outage(self):
        result = api.execute(timeline_spec("fluid"))
        events = sum(w.metrics["controller_events"] for w in result.windows)
        assert events >= 1.0
        fault_window = next(w for w in result.windows if w.start_s == 10.0)
        assert "DIP-2" not in {d for d, s in fault_window.dip_share.items() if s > 0}

    def test_recovered_dip_gets_traffic_back_under_controller(self):
        """dip_recover restores the retired curve and reprograms (§4.5)."""
        result = api.execute(timeline_spec("fluid"))
        outage_window = next(w for w in result.windows if w.start_s == 25.0)
        recovered_window = result.windows[-1]
        assert outage_window.dip_share.get("DIP-2", 0.0) == 0.0
        assert recovered_window.dip_share.get("DIP-2", 0.0) > 0.0

    def test_same_window_grid_on_every_substrate(self):
        counts = {
            runner: len(api.execute(timeline_spec(runner)).windows)
            for runner in ("fluid", "request", "fleet")
        }
        assert len(set(counts.values())) == 1, counts

    def test_timeline_metrics_report_run_average_and_final(self):
        result = api.execute(timeline_spec("fluid"))
        series = [v for v in result.window_series("mean_latency_ms") if v == v]
        assert min(series) <= result.metrics["mean_latency_ms"] <= max(series)
        assert result.metrics["final_latency_ms"] == series[-1]


class TestStaleCapacityRegression:
    """`PoolArrays` must be rebuilt after mid-run capacity changes."""

    def test_fluid_state_reflects_squeezed_capacity(self):
        spec = timeline_spec(
            timeline=api.TimelineSpec(
                events=(
                    api.EventSpec(
                        time_s=5.0, kind="capacity_ratio", dip="DIP-1", value=0.5
                    ),
                ),
                window_s=5.0,
                horizon_s=15.0,
            ),
            controller=api.ControllerSpec(enabled=False),
        )
        fleet = api.build_cluster(spec)
        per_dip_rate = fleet.vips["vip"].total_rate_rps / len(fleet.dips)
        before = fleet.state().utilization["DIP-1"]
        assert before == pytest.approx(
            per_dip_rate / fleet.dips["DIP-1"].capacity_rps
        )
        result = api.execute(spec)
        squeezed = result.windows[-1]
        # Same rate over half the capacity: utilization doubles.  A stale
        # PoolArrays would keep reporting the pre-squeeze value.
        base_capacity = fleet.dips["DIP-1"].base_capacity_rps
        expected = min(1.0, per_dip_rate / (0.5 * base_capacity))
        assert result.dip_summaries["DIP-1"]["utilization"] == pytest.approx(
            expected
        )
        assert squeezed.metrics["mean_latency_ms"] > result.windows[0].metrics[
            "mean_latency_ms"
        ]

    def test_antagonist_phase_event_squeezes_and_clears(self):
        spec = timeline_spec(
            timeline=api.TimelineSpec(
                events=(
                    api.EventSpec(
                        time_s=5.0, kind="antagonist_phase", dip="DIP-1", value=4
                    ),
                    api.EventSpec(
                        time_s=15.0, kind="antagonist_phase", dip="DIP-1", value=0
                    ),
                ),
                window_s=5.0,
                horizon_s=25.0,
            ),
            controller=api.ControllerSpec(enabled=False),
        )
        result = api.execute(spec)
        series = result.window_series("mean_latency_ms")
        assert series[1] > series[0]  # squeeze raises latency
        assert series[-1] == pytest.approx(series[0])  # clearing restores it


class TestRequestSubstrate:
    def test_arrival_scale_changes_throughput(self):
        calm = timeline_spec(
            "request",
            timeline=api.TimelineSpec(window_s=5.0, horizon_s=40.0),
            controller=api.ControllerSpec(enabled=False),
        )
        surged = timeline_spec(
            "request",
            timeline=api.TimelineSpec(
                events=(
                    api.EventSpec(time_s=20.0, kind="arrival_scale", value=2.0),
                ),
                window_s=5.0,
                horizon_s=40.0,
            ),
            controller=api.ControllerSpec(enabled=False),
        )
        base = api.execute(calm)
        surge = api.execute(surged)
        base_reqs = base.window_series("requests")
        surge_reqs = surge.window_series("requests")
        # Before the surge the two runs are the same draw stream ...
        assert surge_reqs[0] == base_reqs[0]
        # ... after it, roughly twice the arrivals land per window.
        tail_ratio = sum(surge_reqs[-3:]) / sum(base_reqs[-3:])
        assert 1.6 < tail_ratio < 2.4

    def test_windows_cover_whole_measured_phase(self):
        result = api.execute(timeline_spec("request"))
        assert result.windows[0].start_s == 0.0
        assert result.windows[-1].end_s == pytest.approx(45.0)
        starts = [w.start_s for w in result.windows]
        assert starts == sorted(starts)

    def test_no_timeline_run_unchanged(self):
        """Empty timelines keep the request path on its original code."""
        spec = timeline_spec("request", timeline=api.TimelineSpec())
        result = api.execute(spec)
        assert result.windows == ()
        assert "timeline_events" not in result.metrics


#: request-substrate variants a window-by-window drive must not perturb:
#: every policy, every non-Poisson arrival and non-exponential service
#: kind, a MUX pool, and each resilience layer.
REQUEST_VARIANTS = {
    **{
        f"policy-{name}": {"policy.name": name}
        for name in sorted(policy_registry())
    },
    **{
        f"arrival-{kind}": {"workload.arrival.kind": kind}
        for kind in ("flash_crowd", "mmpp")
    },
    **{
        f"service-{kind}": {"workload.service.kind": kind}
        for kind in ("elephant", "lognormal", "pareto")
    },
    "muxes-2": {"policy.num_muxes": 2},
    "health": {"health.enabled": True},
    "retry": {"retry.enabled": True, "retry.request_timeout_s": 0.05},
}


class TestRequestWindowsCloseAtTheirBoundary:
    """A request run driven one window at a time: each window's row, folded
    as soon as the engine reaches its end, is the batch run's window, and
    the segmented run's outcome is the batch run's."""

    @pytest.mark.parametrize("variant", sorted(REQUEST_VARIANTS))
    def test_windows_fold_live_and_match_the_batch_runner(self, variant):
        from repro.api.runners import build_request_cluster
        from repro.api.timeline import schedule_request_timeline, window_from_row

        spec = api.ExperimentSpec.from_dict(
            {
                "name": "windowed",
                "runner": "request",
                "seed": 5,
                "pool": {"num_dips": 4, "vm": {"capacity_rps": 200.0}},
                "controller": {"enabled": False},
                "timeline": {
                    "window_s": 5.0,
                    "horizon_s": 20.0,
                    "events": [
                        {"time_s": 5.0, "kind": "dip_fail", "dip": "DIP-1"},
                        {"time_s": 7.5, "kind": "arrival_scale", "value": 1.3},
                        {"time_s": 12.5, "kind": "dip_recover", "dip": "DIP-1"},
                    ],
                },
            }
        ).with_overrides(REQUEST_VARIANTS[variant])
        batch = api.execute(spec)

        cluster = build_request_cluster(spec)
        timeline, warmup = spec.timeline, spec.workload.warmup_s
        events = timeline.ordered_events()
        handles = schedule_request_timeline(
            cluster, timeline, BaseObserver(), offset_s=warmup
        )
        cluster.begin(duration_s=timeline.duration_s(), warmup_s=warmup)
        cluster.run_to(warmup)
        live = []
        for index in range(4):
            start, end = warmup + 5.0 * index, warmup + 5.0 * (index + 1)
            cluster.run_to(end)
            (row,) = cluster.metrics.window_rows(
                window_s=timeline.window_s, start_s=start, end_s=end
            )
            live.append(window_from_row(row, events, offset_s=warmup).to_dict())
        cluster.run_to(warmup + timeline.duration_s() + 30.0)
        for handle in handles:
            handle.cancel()
        run = cluster.finish()

        assert json.dumps(live) == json.dumps([w.to_dict() for w in batch.windows])
        assert [w["events"] for w in live] == [
            [],
            ["t=5s dip_fail DIP-1", "t=7.5s arrival_scale 1.3"],
            ["t=12.5s dip_recover DIP-1"],
            [],
        ]
        assert json.dumps(run.metrics.summary_rows()) == json.dumps(batch.dip_summaries)
        assert run.requests_submitted == batch.metrics["requests_submitted"]


class TestFleetSubstrate:
    def test_vip_onboard_and_offboard_via_timeline(self):
        spec = api.ExperimentSpec(
            name="fleet-join-leave",
            runner="fleet",
            pool=api.PoolSpec(kind="mixed_core", num_dips=12),
            workload=api.WorkloadSpec(load_fraction=0.5),
            fleet=api.FleetSpec(num_vips=4),
            timeline=api.TimelineSpec(
                events=(
                    api.EventSpec(time_s=10.0, kind="vip_onboard", vip="VIP-4"),
                    api.EventSpec(time_s=30.0, kind="vip_offboard", vip="VIP-1"),
                ),
                window_s=10.0,
                horizon_s=50.0,
            ),
            seed=23,
        )
        result = api.execute(spec)
        plane = result.detail["plane"]
        # VIP-4 was deferred out of initial convergence, then onboarded.
        assert result.metrics["vips_with_assignment"] == 3.0
        assert "VIP-4" in plane.steady_vips()
        # VIP-1 left: the fleet and the plane both forgot it.
        assert "VIP-1" not in plane.controllers
        assert result.metrics["num_vips"] == 3.0
        vips_series = result.window_series("num_vips")
        assert vips_series[0] == 4.0 and vips_series[-1] == 3.0

    def test_vip_events_rejected_on_single_vip_substrates(self):
        spec = timeline_spec(
            "fluid",
            timeline=api.TimelineSpec(
                events=(
                    api.EventSpec(time_s=5.0, kind="vip_onboard", vip="VIP-2"),
                )
            ),
        )
        with pytest.raises(ConfigurationError, match="needs the fleet runner"):
            api.execute(spec)

    def test_unknown_dip_named_before_running(self):
        spec = timeline_spec(
            "fluid",
            timeline=api.TimelineSpec(
                events=(
                    api.EventSpec(time_s=5.0, kind="dip_fail", dip="DIP-99"),
                )
            ),
        )
        with pytest.raises(ConfigurationError, match="unknown DIP 'DIP-99'"):
            api.execute(spec)

    def test_onboard_needs_controller(self):
        timeline = api.TimelineSpec(
            events=(api.EventSpec(time_s=5.0, kind="vip_onboard", vip="V"),)
        )
        with pytest.raises(ConfigurationError, match="controller.enabled"):
            check_timeline_supported(
                timeline,
                "fleet",
                dips=["D"],
                vips=["V"],
                controller_enabled=False,
            )


class TestObservers:
    def test_observers_stream_events_rounds_and_windows(self):
        recorder = WindowedMetricsObserver()

        class Rounds(BaseObserver):
            def __init__(self):
                self.times = []

            def on_round(self, time_s, metrics):
                self.times.append(time_s)

        rounds = Rounds()
        result = api.execute(
            timeline_spec(controller=api.ControllerSpec(enabled=False)),
            observers=[recorder, rounds],
        )
        assert [w for w in recorder.windows] == list(result.windows)
        assert [t for t, _ in recorder.applied_events] == [10.0, 20.0, 30.0]
        assert rounds.times == [w.end_s for w in result.windows]

    def test_request_runner_notifies_live_events(self):
        fired = []

        class Events(BaseObserver):
            def on_event(self, time_s, event):
                fired.append((time_s, event.kind))

        api.execute(timeline_spec("request"), observers=[Events()])
        assert fired == [
            (10.0, "dip_fail"),
            (20.0, "arrival_scale"),
            (30.0, "dip_recover"),
        ]

    def test_raising_observer_is_isolated_and_dropped(self, caplog):
        """A crashing telemetry consumer must never abort the run."""

        class Broken(BaseObserver):
            def on_window(self, window):
                raise RuntimeError("telemetry consumer crashed")

        recorder = WindowedMetricsObserver()
        observers = ObserverSet([Broken(), recorder])
        with caplog.at_level(logging.ERROR, logger="repro.api.observers"):
            result = api.execute(
                timeline_spec(controller=api.ControllerSpec(enabled=False)),
                observers=observers.observers,
            )
        # run completed; healthy observer saw every window
        assert len(result.windows) == 9
        assert list(recorder.windows) == list(result.windows)

    def test_observer_set_drops_only_the_raiser(self, caplog):
        class Broken(BaseObserver):
            def on_round(self, time_s, metrics):
                raise ValueError("boom")

        healthy = WindowedMetricsObserver()
        fanout = ObserverSet([Broken(), healthy])
        with caplog.at_level(logging.ERROR, logger="repro.api.observers"):
            fanout.on_round(1.0, {"x": 1.0})
        assert any("dropping it" in rec.message for rec in caplog.records)
        assert fanout.observers == (healthy,)
        # subsequent notifications reach the survivor without re-raising
        window = api.RunWindow(start_s=0.0, end_s=5.0, metrics={})
        fanout.on_window(window)
        assert list(healthy.windows) == [window]

    def test_windowed_observer_maxlen_keeps_only_newest(self):
        ring = WindowedMetricsObserver(maxlen=3)
        for index in range(6):
            ring.on_window(
                api.RunWindow(
                    start_s=float(index), end_s=index + 1.0, metrics={}
                )
            )
            ring.on_event(
                float(index),
                EventSpec(time_s=index + 1.0, kind="arrival_scale", value=2.0),
            )
        assert [w.start_s for w in ring.windows] == [3.0, 4.0, 5.0]
        assert [t for t, _ in ring.applied_events] == [3.0, 4.0, 5.0]


class TestScenarioTimelines:
    def test_outage_scenario_shows_fault_and_recovery(self):
        from repro.experiments.scenarios import run_scenario

        result = run_scenario("dip_outage_recovery", num_dips=6)
        assert result.metrics["outage_degradation"] > 1.0
        assert result.metrics["recovery_ratio"] < result.metrics[
            "outage_degradation"
        ]
        assert result.windows  # the trajectory rides along

    def test_no_fault_twin_is_flat(self):
        from repro.experiments.scenarios import run_scenario

        result = run_scenario(
            "dip_outage_recovery", num_dips=6, inject_fault=False
        )
        assert result.metrics["outage_degradation"] == pytest.approx(1.0, rel=1e-6)

    def test_diurnal_surge_peaks_and_returns(self):
        from repro.experiments.scenarios import run_scenario

        result = run_scenario("diurnal_surge", num_dips=6)
        assert result.metrics["surge_degradation"] > 1.0
        assert result.metrics["final_latency_ms"] == pytest.approx(
            result.metrics["baseline_latency_ms"], rel=0.25
        )

    def test_diurnal_surge_runs_on_request_engine(self):
        from repro.experiments.scenarios import run_scenario

        result = run_scenario(
            "diurnal_surge", num_dips=4, substrate="request", step_s=10.0
        )
        assert result.metrics["surge_degradation"] > 1.0


def test_window_rows_bucket_and_share():
    from repro.sim.trace import MetricsCollector

    collector = MetricsCollector()
    collector.record_request("A", 10.0, True, 0.5)
    collector.record_request("B", 20.0, True, 1.5)
    collector.record_request("A", None, False, 1.7)
    rows = collector.window_rows(window_s=1.0, start_s=0.0, end_s=3.0)
    assert len(rows) == 3
    assert rows[0]["metrics"]["requests"] == 1.0
    assert rows[1]["metrics"]["requests"] == 2.0
    assert rows[1]["metrics"]["drop_fraction"] == pytest.approx(0.5)
    assert rows[1]["dip_share"] == {"A": 0.5, "B": 0.5}
    assert rows[2]["metrics"]["requests"] == 0.0
    assert math.isnan(rows[2]["metrics"]["mean_latency_ms"])


def test_window_rows_leave_out_a_record_that_rounds_past_the_last_window():
    from repro.sim.trace import MetricsCollector

    # 256 windows (the tolerance rounds 256.0000000005 down), and a record
    # before ``end_s`` whose index reads 256: one past what a uint8 holds.
    end_s = 256.0 + 5e-10
    collector = MetricsCollector()
    for timestamp in (0.5, 256.0000000001, 255.5):
        collector.record_request("A", 10.0, True, timestamp)
    rows = collector.window_rows(window_s=1.0, start_s=0.0, end_s=end_s)
    requests = [row["metrics"]["requests"] for row in rows]
    assert len(rows) == 256
    assert requests[0] == requests[255] == 1.0
    assert sum(requests) == 2.0


class TestStepperWeightOverrides:
    """`TimelineStepper.set_weights`: validation, boundary application,
    and the provenance trail (the hook the live service's ``POST /weights``
    drives)."""

    def stepper(self):
        from repro.api.runners import build_cluster
        from repro.api.timeline import fleet_timeline_stepper

        spec = timeline_spec()
        fleet = build_cluster(spec)
        return fleet, fleet_timeline_stepper(
            fleet, spec.timeline, BaseObserver(), seed=spec.seed
        )

    def test_vip_may_be_omitted_on_a_one_vip_fleet(self):
        from repro.api.runners import prepare_fleet
        from repro.api.timeline import fleet_timeline_stepper

        spec = timeline_spec(
            runner="fleet",
            fleet=api.FleetSpec(num_vips=1),
            controller=api.ControllerSpec(enabled=False),
        )
        fleet, _, _, _ = prepare_fleet(spec)
        stepper = fleet_timeline_stepper(fleet, spec.timeline, BaseObserver())
        (vip,) = fleet.vips
        target = next(iter(fleet.dips))
        label = stepper.set_weights(
            None, {d: 1.0 for d in fleet.dips} | {target: 50.0}
        )
        # The VIP the validation resolved is the VIP the override reaches.
        window = stepper.step()
        assert label in window.events
        assert window.dip_share[target] > 0.5
        assert stepper.weight_overrides[0][1] == vip

    def test_override_applies_at_the_next_window_boundary(self):
        fleet, stepper = self.stepper()
        stepper.step()  # clock -> 5.0
        target = next(iter(fleet.dips))
        label = stepper.set_weights(
            None, {d: 1.0 for d in fleet.dips} | {target: 50.0}
        )
        assert "set_weights" in label
        window = stepper.step()
        assert label in window.events
        assert window.dip_share[target] > 0.5
        assert stepper.weight_overrides[0][0] == 5.0  # applied at the boundary

    def test_queued_overrides_do_not_apply_early(self):
        fleet, stepper = self.stepper()
        stepper.set_weights(None, {next(iter(fleet.dips)): 2.0})
        assert stepper.weight_overrides == []  # queued, not yet applied
        stepper.step()
        assert len(stepper.weight_overrides) == 1

    def test_explicit_vip_must_match_the_scope(self):
        fleet, stepper = self.stepper()
        first = next(iter(fleet.dips))
        assert "set_weights" in stepper.set_weights("vip", {first: 1.0})
        with pytest.raises(ConfigurationError, match="unknown VIP"):
            stepper.set_weights("vip-9", {first: 1.0})

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({}, "non-empty"),
            ({"DIP-404": 1.0}, "unknown DIP"),
            ({"DIP-1": -1.0}, "finite and >= 0"),
            ({"DIP-1": float("nan")}, "finite and >= 0"),
            ({"DIP-1": 0.0, "DIP-2": 0.0}, "positive value"),
            ({"DIP-1": "heavy"}, "must be a number"),
        ],
    )
    def test_bad_override_bodies_rejected_at_submission(self, weights, message):
        _, stepper = self.stepper()
        with pytest.raises(ConfigurationError, match=message):
            stepper.set_weights(None, weights)

    def test_request_batch_runner_has_no_weight_hook(self):
        from repro.api.timeline import TimelineStepper

        spec = timeline_spec()
        stepper = TimelineStepper(
            spec.timeline,
            BaseObserver(),
            advance=lambda dt: None,
            tick=lambda: None,
            snapshot=lambda: ({}, {}, {}),
            apply_event=lambda event: None,
        )
        with pytest.raises(ConfigurationError, match="weight overrides"):
            stepper.set_weights(None, {"DIP-1": 1.0})


#: the DIPs each VIP of a three-VIP, six-DIP fleet spans (pool_size 4).
FLEET_SCOPES = {
    "VIP-1": ("DIP-1", "DIP-2", "DIP-3", "DIP-4"),
    "VIP-2": ("DIP-3", "DIP-4", "DIP-5", "DIP-6"),
    "VIP-3": ("DIP-5", "DIP-6", "DIP-1", "DIP-2"),
}


class TestFleetWeightOverrides:
    """`set_weights` on a controller-off fleet whose VIPs share DIPs: what
    an override reaches, how long it holds, and what it is invariant to."""

    @staticmethod
    def stepper():
        from repro.api.runners import prepare_fleet
        from repro.api.timeline import fleet_timeline_stepper

        spec = api.ExperimentSpec.from_dict(
            {
                "name": "fleet-overrides",
                "runner": "fleet",
                "pool": {"num_dips": 6},
                "fleet": {"num_vips": 3},
                "controller": {"enabled": False},
                "timeline": {"window_s": 5.0, "horizon_s": 20.0},
                "seed": 3,
            }
        )
        fleet, _, _, _ = prepare_fleet(spec)
        return fleet_timeline_stepper(
            fleet, spec.timeline, BaseObserver(), seed=spec.seed
        )

    def test_the_scopes_are_the_fleet_layout(self):
        stepper = self.stepper()
        for vip, dips in FLEET_SCOPES.items():
            assert "set_weights" in stepper.set_weights(vip, {dip: 1.0 for dip in dips})
        outside = next(iter(set(FLEET_SCOPES["VIP-2"]) - set(FLEET_SCOPES["VIP-1"])))
        with pytest.raises(ConfigurationError, match="unknown DIP"):
            stepper.set_weights("VIP-1", {outside: 1.0})
        with pytest.raises(ConfigurationError, match="explicit vip"):
            stepper.set_weights(None, {"DIP-1": 1.0})

    @pytest.mark.parametrize("vip", sorted(FLEET_SCOPES))
    def test_an_override_moves_only_its_own_vips_dips(self, vip):
        base = self.stepper().run()
        stepper = self.stepper()
        first, *rest = FLEET_SCOPES[vip]
        stepper.set_weights(vip, {first: 1.0} | {dip: 0.0 for dip in rest})
        moved = stepper.run()
        for before, after in zip(base, moved):
            assert after.dip_share[first] > before.dip_share[first]
            for dip in rest:
                assert after.dip_share[dip] < before.dip_share[dip]
            for dip in set(before.dip_share) - set(FLEET_SCOPES[vip]):
                assert after.dip_share[dip] == before.dip_share[dip]

    def test_an_override_holds_until_the_next_one(self):
        stepper = self.stepper()
        first = stepper.set_weights("VIP-1", {"DIP-1": 3.0, "DIP-2": 1.0, "DIP-3": 1.0, "DIP-4": 1.0})
        held = [stepper.step(), stepper.step()]
        second = stepper.set_weights("VIP-1", {"DIP-1": 1.0, "DIP-2": 1.0, "DIP-3": 1.0, "DIP-4": 1.0})
        restored = [stepper.step(), stepper.step()]
        base = self.stepper().run()
        assert [w.events for w in held + restored] == [(first,), (), (second,), ()]
        assert held[0].dip_share == held[1].dip_share != base[0].dip_share
        assert [w.to_dict() for w in restored] == [
            dict(w.to_dict(), events=list(w.events) + ([second] if i == 0 else []))
            for i, w in enumerate(base[2:])
        ]

    def test_the_later_of_two_queued_overrides_wins(self):
        stepper = self.stepper()
        labels = [
            stepper.set_weights("VIP-2", {"DIP-5": 1.0, "DIP-3": 0.0, "DIP-4": 0.0, "DIP-6": 0.0}),
            stepper.set_weights("VIP-2", {"DIP-6": 1.0, "DIP-3": 0.0, "DIP-4": 0.0, "DIP-5": 0.0}),
        ]
        only_last = self.stepper()
        only_last.set_weights("VIP-2", {"DIP-6": 1.0, "DIP-3": 0.0, "DIP-4": 0.0, "DIP-5": 0.0})
        window, expected = stepper.step(), only_last.step()
        assert window.events == tuple(labels)
        assert window.dip_share == expected.dip_share
        assert window.metrics == expected.metrics
        assert [vip for _, vip, _ in stepper.weight_overrides] == ["VIP-2", "VIP-2"]

    @pytest.mark.parametrize("scale", [1e-3, 7.0, 1e6])
    def test_an_override_is_read_as_proportions(self, scale):
        shape = {"DIP-1": 1.0, "DIP-2": 3.0, "DIP-3": 0.5, "DIP-4": 1.0}
        plain, scaled = self.stepper(), self.stepper()
        plain.set_weights("VIP-1", shape)
        scaled.set_weights("VIP-1", {dip: scale * w for dip, w in shape.items()})
        for a, b in zip(plain.run(), scaled.run()):
            assert b.dip_share == pytest.approx(a.dip_share, rel=1e-12)
            assert b.metrics == pytest.approx(a.metrics, rel=1e-12)

    @pytest.mark.parametrize("dip", sorted(FLEET_SCOPES["VIP-1"]))
    def test_a_dip_weighted_zero_by_every_vip_gets_no_traffic(self, dip):
        stepper = self.stepper()
        for vip, dips in FLEET_SCOPES.items():
            if dip in dips:
                stepper.set_weights(vip, {d: float(d != dip) for d in dips})
        for window in stepper.run():
            # A share row lists only the DIPs that carry traffic.
            assert dip not in window.dip_share
            assert len(window.dip_share) == 5
            assert sum(window.dip_share.values()) == pytest.approx(1.0)

