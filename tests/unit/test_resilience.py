"""First-class failure semantics: probes, retries, chaos, fault tolerance.

Covers the resilience layer end to end:

* spec validation for the health / retry / chaos sections and graceful
  ``drain_s`` events, plus the timeline edge cases (t=0 events, duplicate
  events, failing an already-failed DIP);
* the probe state machine's closed-form ``detection_delay_s`` against the
  request engine's observed detection window — requests keep landing on a
  dead DIP until the unhealthy threshold crosses, then stop;
* the fluid/request crosscheck scenario: both substrates walk the same
  seeded probe grid, so their per-window loss trajectories agree;
* retry/timeout/backoff semantics — retries recover blackholed traffic,
  tiny timeouts mark ``timed_out``, exhausted budgets mark ``gave_up`` —
  and bit-identical repeats per seed;
* seeded chaos schedules: deterministic expansion, idempotent arming,
  manual-event exclusion, and bit-identical execution per seed;
* per-point sweep error capture (inline and pooled) with
  ``failed_runs`` provenance;
* the fault-tolerant worker pool: crashed and hung workers are recycled
  and their tasks re-dispatched mid-sweep, results converge to the
  no-crash baseline, and the accounting lands in provenance;
* the shard fan-out: an exact plan's worker that dies is started again
  and the run converges to the no-crash baseline; a worker that raises,
  or keeps dying, fails the run at once, naming the shard group, instead
  of waiting out the barrier timeout.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from functools import partial
from pathlib import Path

import pytest

from repro.api.result import RunResult
from repro.api.runners import execute, expand_spec_chaos
from repro.api.spec import (
    ChaosSpec,
    ControllerSpec,
    EventSpec,
    ExperimentSpec,
    HealthCheckSpec,
    PolicySpec,
    PoolSpec,
    RetryPolicy,
    TimelineSpec,
    WorkloadSpec,
    expand_chaos_events,
)
from repro.api.registry import get_spec
from repro.api.sweep import Sweep, SweepAxis
from repro.exceptions import ConfigurationError
from repro.parallel import WorkerPool, plan_shards, run_request_sharded
from repro.parallel.pool import _spec_for_error_row

SRC = Path(__file__).resolve().parents[2] / "src"

def request_spec(
    *,
    name: str = "resilience-test",
    num_dips: int = 4,
    num_requests: int = 20_000,
    policy: str = "rr",
    seed: int = 7,
    **spec_kwargs,
) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        runner="request",
        pool=PoolSpec(kind="uniform", num_dips=num_dips),
        workload=WorkloadSpec(
            load_fraction=0.6, num_requests=num_requests, warmup_s=1.0
        ),
        policy=PolicySpec(name=policy),
        controller=ControllerSpec(enabled=False),
        seed=seed,
        **spec_kwargs,
    )


def outage_timeline(
    fail_at: float = 4.0,
    recover_at: float | None = None,
    horizon: float = 12.0,
    *,
    drain_s: float = 0.0,
) -> TimelineSpec:
    events = [
        EventSpec(time_s=fail_at, kind="dip_fail", dip="DIP-1", drain_s=drain_s)
    ]
    if recover_at is not None:
        events.append(EventSpec(time_s=recover_at, kind="dip_recover", dip="DIP-1"))
    return TimelineSpec(events=tuple(events), window_s=1.0, horizon_s=horizon)


def window_at(result: RunResult, start_s: float):
    for window in result.windows:
        if window.start_s == pytest.approx(start_s):
            return window
    raise AssertionError(f"no window starting at {start_s}: {result.windows}")


# -- spec validation --------------------------------------------------------------


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(probe_interval_s=0.0), "probe_interval_s must be positive"),
            (dict(probe_timeout_s=0.0), "probe_timeout_s must be in"),
            (
                dict(probe_interval_s=1.0, probe_timeout_s=1.5),
                "probe_timeout_s must be in",
            ),
            (dict(unhealthy_threshold=0), "unhealthy_threshold must be >= 1"),
            (dict(healthy_threshold=0), "healthy_threshold must be >= 1"),
        ],
    )
    def test_health_field_rules(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            HealthCheckSpec(enabled=True, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(request_timeout_s=0.0), "request_timeout_s must be positive"),
            (dict(max_retries=-1), "max_retries must be >= 0"),
            (dict(backoff_base_s=-0.1), "backoff_base_s must be >= 0"),
            (dict(backoff_multiplier=0.5), "backoff_multiplier must be >= 1"),
            (dict(jitter_fraction=1.5), "jitter_fraction must be in"),
            (dict(retry_budget=-1.0), "retry_budget must be >= 0"),
        ],
    )
    def test_retry_field_rules(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            RetryPolicy(enabled=True, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(failure_rate_per_min=0.0), "failure_rate_per_min"),
            (dict(mean_outage_s=0.0), "mean_outage_s"),
            (dict(flap_probability=1.0), "flap_probability"),
            (dict(rack_size=-1), "rack_size"),
            (dict(max_concurrent_failures=0), "max_concurrent_failures"),
        ],
    )
    def test_chaos_field_rules(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            ChaosSpec(seed=1, **kwargs)

    def test_retry_needs_the_request_runner(self):
        with pytest.raises(ConfigurationError, match="runner 'request'"):
            ExperimentSpec(
                name="bad", runner="fluid", retry=RetryPolicy(enabled=True)
            )

    def test_chaos_needs_an_explicit_horizon(self):
        with pytest.raises(ConfigurationError, match="horizon_s"):
            request_spec(timeline=TimelineSpec(chaos=ChaosSpec(seed=3)))

    def test_scenario_runner_rejects_health_and_retry(self):
        with pytest.raises(ConfigurationError, match="health/retry"):
            ExperimentSpec(
                name="bad",
                runner="scenario",
                scenario="dip_outage_recovery",
                health=HealthCheckSpec(enabled=True),
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(time_s=0.0, kind="dip_fail", dip="D"), "must be > 0"),
            (
                dict(time_s=1.0, kind="dip_fail", dip="D", drain_s=-1.0),
                "drain_s must be >= 0",
            ),
            (
                dict(time_s=1.0, kind="dip_recover", dip="D", drain_s=2.0),
                "does not take a drain_s",
            ),
        ],
    )
    def test_event_drain_and_time_rules(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            EventSpec(**kwargs)

    def test_duplicate_events_rejected(self):
        event = EventSpec(time_s=2.0, kind="dip_fail", dip="DIP-1")
        with pytest.raises(ConfigurationError, match="duplicate"):
            TimelineSpec(events=(event, event), horizon_s=10.0)

    def test_failing_an_already_failed_dip_rejected(self):
        with pytest.raises(ConfigurationError, match="already failed"):
            TimelineSpec(
                events=(
                    EventSpec(time_s=2.0, kind="dip_fail", dip="DIP-1"),
                    EventSpec(time_s=4.0, kind="dip_fail", dip="DIP-1"),
                ),
                horizon_s=10.0,
            )

    def test_recovering_a_never_failed_dip_rejected(self):
        with pytest.raises(ConfigurationError, match="no earlier event"):
            TimelineSpec(
                events=(EventSpec(time_s=2.0, kind="dip_recover", dip="DIP-1"),),
                horizon_s=10.0,
            )

    def test_horizon_must_cover_the_drain(self):
        with pytest.raises(ConfigurationError, match="drain ending"):
            TimelineSpec(
                events=(
                    EventSpec(
                        time_s=8.0, kind="dip_fail", dip="DIP-1", drain_s=4.0
                    ),
                ),
                horizon_s=10.0,
            )


# -- probe math -------------------------------------------------------------------


class TestProbeMath:
    def test_probe_phase_is_seeded_and_in_range(self):
        health = HealthCheckSpec(enabled=True, probe_interval_s=1.5)
        phases = [health.probe_phase_s(7, index) for index in range(8)]
        assert all(0.0 <= phase < 1.5 for phase in phases)
        assert phases == [health.probe_phase_s(7, index) for index in range(8)]
        assert len(set(phases)) > 1  # DIPs are not probed in lock-step
        assert health.probe_phase_s(8, 0) != phases[0]

    @pytest.mark.parametrize("seed", [0, 7, 17, 123])
    @pytest.mark.parametrize("fail_time", [0.05, 4.0, 6.283])
    def test_detection_delay_bounds(self, seed, fail_time):
        health = HealthCheckSpec(
            enabled=True,
            probe_interval_s=1.0,
            probe_timeout_s=0.2,
            unhealthy_threshold=3,
        )
        delay = health.detection_delay_s(seed, 0, fail_time)
        # First failing probe lands within one interval of the failure;
        # the threshold crossing adds (U-1) intervals plus the timeout.
        assert 2 * 1.0 + 0.2 <= delay <= 3 * 1.0 + 0.2

    def test_detection_delay_matches_manual_grid_walk(self):
        health = HealthCheckSpec(
            enabled=True,
            probe_interval_s=0.7,
            probe_timeout_s=0.1,
            unhealthy_threshold=2,
        )
        fail_time = 5.3
        for index in range(4):
            t = health.probe_phase_s(11, index)
            fails = 0
            while True:
                if t >= fail_time:
                    fails += 1
                    if fails == health.unhealthy_threshold:
                        break
                t += health.probe_interval_s
            expected = t + health.probe_timeout_s - fail_time
            assert health.detection_delay_s(11, index, fail_time) == pytest.approx(
                expected
            )


# -- detection on the request engine ----------------------------------------------


class TestDetectionDelay:
    def test_requests_blackhole_until_the_threshold_crosses(self):
        spec = request_spec(
            health=HealthCheckSpec(enabled=True),
            timeline=outage_timeline(fail_at=4.0, horizon=12.0),
        )
        delay = spec.health.detection_delay_s(spec.seed, 0, 4.0)
        result = execute(spec)

        # Before the failure: nothing lost.
        assert window_at(result, 2.0).metrics["drop_fraction"] < 0.02
        # Inside the detection window the LB still routes ~1/4 of the
        # traffic into the dead DIP and loses all of it.
        assert window_at(result, 5.0).metrics["drop_fraction"] > 0.15
        # Once the unhealthy threshold crosses, the bleeding stops.
        first_clean = int(4.0 + delay) + 1
        for start in range(first_clean + 1, 12):
            assert window_at(result, float(start)).metrics["drop_fraction"] < 0.02

        # Total loss matches the closed form: victim share x detection
        # window, spread over the timed phase.
        predicted = (1.0 / 4) * delay / 12.0
        assert result.metrics["drop_fraction"] == pytest.approx(
            predicted, rel=0.35
        )

    def test_oracle_mode_detects_immediately(self):
        health_on = execute(
            request_spec(
                health=HealthCheckSpec(enabled=True),
                timeline=outage_timeline(fail_at=4.0, horizon=12.0),
            )
        )
        oracle = execute(
            request_spec(timeline=outage_timeline(fail_at=4.0, horizon=12.0))
        )
        # The oracle only loses what was queued at the instant of death;
        # probe-based detection pays the whole detection window.
        assert oracle.metrics["drop_fraction"] < 0.2 * health_on.metrics[
            "drop_fraction"
        ]

    def test_fluid_and_request_detection_windows_agree(self):
        result = execute(get_spec("failure_crosscheck"))
        assert result.metrics["max_window_drop_delta"] < 0.01
        assert result.metrics["fluid_lost_fraction"] == pytest.approx(
            result.metrics["request_lost_fraction"], rel=0.05
        )
        assert result.metrics["predicted_peak_drop_fraction"] == pytest.approx(
            result.metrics["fluid_lost_fraction"], rel=0.05
        )

    def test_simultaneous_blackholes_do_not_depend_on_the_hash_seed(self):
        # Five DIPs fail at one instant on the analytic fleet; their lost
        # rates are summed in pool order, so the windows are the same bytes
        # whatever order the process's string hashing puts the set in (the
        # set order read 0.4130434782608696 under one seed and
        # 0.41304347826086957 under the other).
        script = textwrap.dedent(
            """
            import json
            from repro import api

            failed = ["DIP-1", "DIP-3", "DIP-6", "DIP-9", "DIP-12"]
            spec = api.ExperimentSpec.from_dict({
                "name": "five-down",
                "runner": "fleet",
                "seed": 5,
                "pool": {"kind": "mixed_core", "num_dips": 12},
                "fleet": {"num_vips": 3},
                "workload": {"load_fraction": 0.6137},
                "controller": {"enabled": False},
                "health": {"enabled": True},
                "timeline": {
                    "window_s": 1.0,
                    "horizon_s": 6.0,
                    "events": [
                        {"time_s": 2.0, "kind": "dip_fail", "dip": dip}
                        for dip in failed
                    ],
                },
            })
            windows = json.loads(api.run(spec).to_json())["windows"]
            print(json.dumps(windows, sort_keys=True))
            """
        )
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), env.get("PYTHONPATH")])
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        drops = [w["metrics"]["drop_fraction"] for w in json.loads(outputs[0])]
        assert max(drops) > 0.3


# -- retry / timeout / backoff ----------------------------------------------------


class TestRetryPolicy:
    def outage_spec(self, **retry_kwargs) -> ExperimentSpec:
        return request_spec(
            health=HealthCheckSpec(enabled=True),
            retry=RetryPolicy(enabled=True, **retry_kwargs),
            timeline=outage_timeline(fail_at=3.0, recover_at=8.0, horizon=12.0),
        )

    def test_retries_recover_blackholed_traffic(self):
        with_retry = execute(self.outage_spec(request_timeout_s=0.5))
        without = execute(
            request_spec(
                health=HealthCheckSpec(enabled=True),
                timeline=outage_timeline(
                    fail_at=3.0, recover_at=8.0, horizon=12.0
                ),
            )
        )
        assert without.metrics["drop_fraction"] > 0.03
        assert with_retry.metrics["drop_fraction"] < 0.01
        # The recovered traffic shows up as retried requests instead.
        assert with_retry.metrics["retried_fraction"] > 0.02
        assert with_retry.metrics["attempts_mean"] > 1.0

    def test_exhausted_retries_mark_gave_up(self):
        result = execute(
            self.outage_spec(max_retries=0, request_timeout_s=0.5)
        )
        assert result.metrics["gave_up_fraction"] > 0.02
        assert result.metrics["attempts_mean"] == pytest.approx(1.0)

    def test_tiny_timeouts_mark_timed_out(self):
        result = execute(
            request_spec(
                retry=RetryPolicy(
                    enabled=True, request_timeout_s=0.003, retry_budget=0.5
                ),
                timeline=TimelineSpec(window_s=2.0, horizon_s=6.0),
            )
        )
        assert result.metrics["timed_out_fraction"] > 0.05
        assert result.metrics["attempts_mean"] > 1.0

    def test_retry_runs_are_bit_identical_per_seed(self):
        spec = self.outage_spec()
        first, second = execute(spec), execute(spec)
        assert first.metrics == second.metrics
        assert [w.to_dict() for w in first.windows] == [
            w.to_dict() for w in second.windows
        ]


# -- graceful draining ------------------------------------------------------------


class TestDraining:
    def test_drained_dip_fail_loses_nothing(self):
        # Under probe-based health an abrupt death blackholes the victim's
        # share until detection; a drain is operator-initiated, so the LB
        # stops routing at the event instant and nothing is ever lost.
        abrupt = execute(
            request_spec(
                health=HealthCheckSpec(enabled=True),
                timeline=outage_timeline(fail_at=4.0, horizon=8.0),
            )
        )
        drained = execute(
            request_spec(
                health=HealthCheckSpec(enabled=True),
                timeline=outage_timeline(fail_at=4.0, horizon=8.0, drain_s=2.0),
            )
        )
        assert abrupt.metrics["drop_fraction"] > 0.03
        assert drained.metrics["drop_fraction"] == 0.0

    def test_drained_vip_offboard_runs_on_the_fleet(self):
        from repro.api.spec import FleetSpec

        spec = ExperimentSpec(
            name="fleet-drain",
            runner="fleet",
            pool=PoolSpec(kind="mixed_core", num_dips=12),
            workload=WorkloadSpec(load_fraction=0.5),
            fleet=FleetSpec(num_vips=4),
            timeline=TimelineSpec(
                events=(
                    EventSpec(
                        time_s=10.0, kind="vip_offboard", vip="VIP-1", drain_s=5.0
                    ),
                ),
                window_s=10.0,
                horizon_s=40.0,
            ),
            seed=23,
        )
        result = execute(spec)
        assert len(result.windows) == 4
        assert any("vip_offboard" in e for w in result.windows for e in w.events)

    def test_drain_forces_the_serial_fallback(self):
        plan = plan_shards(
            request_spec(
                timeline=outage_timeline(fail_at=4.0, horizon=8.0, drain_s=2.0)
            ),
            shards=4,
        )
        assert plan.mode == "serial"
        assert "drain" in plan.fallback_reason

    def test_health_and_retry_force_the_serial_fallback(self):
        for kwargs in (
            dict(health=HealthCheckSpec(enabled=True)),
            dict(retry=RetryPolicy(enabled=True)),
        ):
            plan = plan_shards(
                request_spec(
                    timeline=TimelineSpec(window_s=1.0, horizon_s=8.0), **kwargs
                ),
                shards=4,
            )
            assert plan.mode == "serial"
            assert plan.fallback_reason is not None


# -- chaos schedules --------------------------------------------------------------


class TestChaos:
    DIPS = tuple(f"DIP-{i}" for i in range(1, 9))

    def test_expansion_is_deterministic_per_seed(self):
        chaos = ChaosSpec(seed=42)
        first = expand_chaos_events(chaos, dip_ids=self.DIPS, horizon_s=120.0)
        second = expand_chaos_events(chaos, dip_ids=self.DIPS, horizon_s=120.0)
        assert first == second and len(first) > 0
        other = expand_chaos_events(
            ChaosSpec(seed=43), dip_ids=self.DIPS, horizon_s=120.0
        )
        assert first != other

    def test_expansion_yields_a_valid_timeline(self):
        events = expand_chaos_events(
            ChaosSpec(seed=42, flap_probability=0.5),
            dip_ids=self.DIPS,
            horizon_s=120.0,
        )
        assert all(0 < e.time_s < 120.0 for e in events)
        # The fail/recover alternation satisfies the timeline validator.
        TimelineSpec(events=events, horizon_s=120.0)

    def test_manually_failed_dips_are_exempt(self):
        manual = (EventSpec(time_s=5.0, kind="dip_fail", dip="DIP-1"),)
        events = expand_chaos_events(
            ChaosSpec(seed=42, failure_rate_per_min=20.0),
            dip_ids=self.DIPS,
            horizon_s=120.0,
            manual_events=manual,
        )
        assert events and all(e.dip != "DIP-1" for e in events)

    def test_expand_spec_chaos_merges_and_disarms(self):
        spec = request_spec(
            timeline=TimelineSpec(
                events=(EventSpec(time_s=5.0, kind="dip_fail", dip="DIP-1"),),
                window_s=5.0,
                horizon_s=60.0,
                chaos=ChaosSpec(seed=9, failure_rate_per_min=4.0),
            ),
            num_dips=8,
        )
        expanded = expand_spec_chaos(spec)
        assert not expanded.timeline.chaos.enabled
        assert len(expanded.timeline.events) > 1
        assert expanded.timeline.events[0].dip == "DIP-1"
        # Idempotent: a second expansion is a no-op.
        assert expand_spec_chaos(expanded) is expanded

    def test_chaos_runs_are_bit_identical_per_seed(self):
        spec = request_spec(
            num_dips=8,
            timeline=TimelineSpec(
                window_s=2.0,
                horizon_s=10.0,
                chaos=ChaosSpec(
                    seed=5, failure_rate_per_min=30.0, mean_outage_s=3.0
                ),
            ),
        )
        first, second = execute(spec), execute(spec)
        assert first.metrics == second.metrics
        assert [w.to_dict() for w in first.windows] == [
            w.to_dict() for w in second.windows
        ]
        assert first.metrics["timeline_events"] > 0


# -- sweep error capture ----------------------------------------------------------


def sweep_base() -> ExperimentSpec:
    return ExperimentSpec(
        name="error-capture",
        runner="fluid",
        pool=PoolSpec(kind="uniform", num_dips=4),
        workload=WorkloadSpec(load_fraction=0.5),
        controller=ControllerSpec(enabled=False),
    )


class TestSweepErrorCapture:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_one_bad_point_does_not_abort_the_sweep(self, max_workers):
        sweep = Sweep(
            base=sweep_base(),
            axes=(
                SweepAxis(path="workload.load_fraction", values=(0.4, 2.5, 0.6)),
            ),
        )
        results = sweep.run(max_workers=max_workers)
        assert len(results) == 3
        good = [r for r in results if r.error is None]
        bad = [r for r in results if r.error is not None]
        assert len(good) == 2 and len(bad) == 1
        assert "load_fraction" in bad[0].error
        assert bad[0].metrics == {} and bad[0].spec.name.endswith("=2.5")
        for result in results:
            assert result.provenance.failed_runs == 1
        assert all(r.metrics["mean_latency_ms"] > 0 for r in good)

    def test_error_rows_round_trip_through_json(self):
        row = RunResult.error_result(sweep_base(), "ValueError: boom")
        from dataclasses import replace

        row = replace(
            row,
            provenance=replace(
                row.provenance, retries=2, degraded_to="inline", failed_runs=1
            ),
        )
        loaded = RunResult.from_dict(row.to_dict())
        assert loaded.error == "ValueError: boom"
        assert loaded.provenance.retries == 2
        assert loaded.provenance.degraded_to == "inline"
        assert loaded.provenance.failed_runs == 1

    def test_spec_for_error_row_survives_invalid_overrides(self):
        base = sweep_base()
        spec = _spec_for_error_row(
            base, {"name": "error-capture/x=1", "no.such.path": 1}
        )
        assert spec.name == "error-capture/x=1"
        assert spec.pool == base.pool


# -- the fault-tolerant pool ------------------------------------------------------


def _square(value: int) -> int:
    return value * value


def _crash_until_flag(flag_path: str, value: int) -> int:
    """Die hard (kill the whole worker) until ``flag_path`` exists."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8"):
            pass
        os._exit(1)
    return _square(value)


def _hang_until_flag(flag_path: str, value: int) -> int:
    """Hang past any reasonable deadline until ``flag_path`` exists."""
    import time

    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8"):
            pass
        time.sleep(60.0)
    return _square(value)


def _crash_in_workers(parent_pid: int, value: int) -> int:
    if os.getpid() != parent_pid:
        os._exit(1)
    return _square(value)


def _raise_value_error(value: int) -> int:
    raise ValueError(f"bad payload {value}")


def _call_with_flag(flag_path: str, func, payload):
    """Picklable wrapper: crash the worker once, then delegate to ``func``."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8"):
            pass
        os._exit(1)
    return func(payload)


def _inject_shard_failure(monkeypatch, failure) -> None:
    """Call ``failure()`` wherever a shard group but the first simulates.

    Patches the shard simulation in this process, so only forked workers
    inherit it; skips under any other start method.
    """
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("injects through a fork-inherited monkeypatch")
    from repro.parallel.epoch import EpochShardSim

    original = EpochShardSim.advance_to

    def advance_to(self, t):
        if 0 not in self._walks:  # every group but the first
            failure()
        return original(self, t)

    monkeypatch.setattr(EpochShardSim, "advance_to", advance_to)


class CrashOncePool(WorkerPool):
    """A WorkerPool whose first-ever task kills its worker process."""

    def __init__(self, flag_path, **kwargs) -> None:
        super().__init__(**kwargs)
        self._flag_path = str(flag_path)

    def map(self, func, payloads, **kwargs):
        return super().map(
            partial(_call_with_flag, self._flag_path, func), payloads, **kwargs
        )


class TestFaultTolerantPool:
    def test_crashed_worker_is_recycled_and_tasks_retried(self, tmp_path):
        flag = str(tmp_path / "crashed")
        with WorkerPool(max_workers=2, retry_backoff_s=0.0) as pool:
            results = pool.map(partial(_crash_until_flag, flag), list(range(6)))
        assert results == [v * v for v in range(6)]
        assert pool.last_map_stats["crashes"] >= 1
        assert pool.last_map_stats["retries"] >= 1
        assert pool.last_map_stats["degraded_to"] is None

    def test_hung_worker_times_out_and_tasks_retry(self, tmp_path):
        flag = str(tmp_path / "hung")
        with WorkerPool(
            max_workers=2, task_timeout_s=1.0, retry_backoff_s=0.0
        ) as pool:
            results = pool.map(partial(_hang_until_flag, flag), list(range(4)))
        assert results == [v * v for v in range(4)]
        assert pool.last_map_stats["timeouts"] >= 1
        assert pool.last_map_stats["retries"] >= 1

    def test_always_crashing_task_degrades_to_inline(self):
        with WorkerPool(
            max_workers=2, max_task_retries=1, retry_backoff_s=0.0
        ) as pool:
            results = pool.map(
                partial(_crash_in_workers, os.getpid()), list(range(3))
            )
        assert results == [v * v for v in range(3)]
        assert pool.last_map_stats["degraded_to"] == "inline"
        assert pool.last_map_stats["crashes"] >= 1

    def test_genuine_task_exceptions_propagate(self):
        with WorkerPool(max_workers=2, retry_backoff_s=0.0) as pool:
            with pytest.raises(ValueError, match="bad payload"):
                pool.map(_raise_value_error, list(range(4)))

    def test_crash_mid_sweep_converges_to_the_baseline(self, tmp_path):
        base = sweep_base()
        overrides = [
            {"workload.load_fraction": value, "name": f"sweep/load={value}"}
            for value in (0.4, 0.5, 0.6)
        ]
        with WorkerPool(max_workers=2) as pool:
            baseline = pool.run_specs(base, overrides)
        with CrashOncePool(
            str(tmp_path / "sweep-crash"), max_workers=2, retry_backoff_s=0.0
        ) as pool:
            crashed = pool.run_specs(base, overrides)
        assert [r.error for r in crashed] == [None, None, None]
        assert [r.metrics for r in crashed] == [r.metrics for r in baseline]
        assert all(r.provenance.retries >= 1 for r in crashed)
        assert all(r.provenance.failed_runs == 0 for r in crashed)

    def test_crash_mid_sharded_run_converges_to_the_baseline(
        self, monkeypatch, tmp_path
    ):
        """An exact plan's fan-out starts a worker that died once again."""
        spec = request_spec(num_dips=8, num_requests=40_000)
        plan = plan_shards(spec, shards=2)
        assert plan.mode == "exact"
        baseline = run_request_sharded(spec, plan, workers=2)
        flag = tmp_path / "shard-crash"

        def crash_once() -> None:
            if not flag.exists():
                flag.touch()
                os._exit(1)

        _inject_shard_failure(monkeypatch, crash_once)
        crashed = run_request_sharded(spec, plan, workers=2)
        assert flag.exists()
        assert crashed.metrics == baseline.metrics
        assert crashed.dip_summaries == baseline.dip_summaries


class TestShardWorkerFailure:
    """A sharded run's worker that fails or dies fails the run at once.

    The parent sees a worker that exited without reporting as soon as its
    pipe closes, aborts the barrier its siblings wait at, and names the
    shard group.  An exact plan's dead worker is started again first (see
    ``TestFaultTolerantPool``), so one that dies every time fails the run
    after its restarts; a worker that raises is never restarted.  Both
    failures are injected into the second group only.
    """

    inject = staticmethod(_inject_shard_failure)

    @staticmethod
    def raise_error() -> None:
        raise RuntimeError("injected shard failure")

    @staticmethod
    def exit_hard() -> None:
        os._exit(7)

    @pytest.mark.parametrize("policy", ["lc", "rr"])
    def test_a_worker_that_raises_fails_the_run(self, monkeypatch, policy):
        self.inject(monkeypatch, self.raise_error)
        spec = request_spec(num_dips=8, policy=policy)
        start = time.monotonic()
        with pytest.raises(
            ConfigurationError,
            match=r"shard group 1 of 2 \(DIPs DIP-5\.\.DIP-8\) failed: "
            "RuntimeError: injected shard failure",
        ):
            execute(spec, shards=2, workers=2)
        assert time.monotonic() - start < 60.0

    @pytest.mark.parametrize(
        ("policy", "suffix"), [("lc", "$"), ("rr", " after 2 restarts$")]
    )
    def test_a_worker_that_dies_fails_the_run(self, monkeypatch, policy, suffix):
        self.inject(monkeypatch, self.exit_hard)
        spec = request_spec(num_dips=8, policy=policy)
        start = time.monotonic()
        with pytest.raises(
            ConfigurationError,
            match=r"shard group 1 of 2 \(DIPs DIP-5\.\.DIP-8\) died without "
            r"reporting \(exit code 7\)" + suffix,
        ):
            execute(spec, shards=2, workers=2)
        assert time.monotonic() - start < 60.0
