"""The robustness envelope: spec wiring, divergence guard, planner screens.

Covers the cross-substrate contract for bursty / heavy-tailed workloads:

* ``ArrivalSpec`` / ``ServiceSpec`` validation reports dotted paths;
* the fluid twin applies the Allen-Cunneen correction and stamps a
  ``model_divergence`` warning into provenance exactly when the workload
  breaks the M/M/c assumptions (silent on the Poisson baseline);
* the shard planner downgrades non-Poisson / non-exponential runs to
  serial with a logged reason, and the downgraded run's metrics are
  bit-identical to the serial path;
* ``arrival_scale`` timeline events rescale non-Poisson generators;
* the robustness scenarios and CLI surfaces expose the new kinds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.cli import main as cli_main
from repro.api.result import RunResult
from repro.api.runners import execute
from repro.api.spec import (
    ArrivalSpec,
    EventSpec,
    ExperimentSpec,
    PoolSpec,
    ServiceSpec,
    TimelineSpec,
    WorkloadSpec,
)
from repro.backends import DipServer, custom_vm_type
from repro.backends.latency_model import LatencyModel
from repro.exceptions import ConfigurationError
from repro.sim.fluid import FluidCluster
from repro.workloads.divergence import (
    MAX_CORRECTION,
    arrival_scv,
    assess_divergence,
    scv_correction,
    service_scv,
)


def _spec(runner="fluid", *, arrival=None, service=None, **workload_kwargs):
    workload_kwargs.setdefault("load_fraction", 0.6)
    if arrival is not None:
        workload_kwargs["arrival"] = arrival
    if service is not None:
        workload_kwargs["service"] = service
    return ExperimentSpec(
        name="robustness-test",
        runner=runner,
        pool=PoolSpec(kind="uniform", num_dips=4),
        workload=WorkloadSpec(**workload_kwargs),
        seed=11,
    )


BURSTY = dict(
    arrival=ArrivalSpec(kind="mmpp"),
    service=ServiceSpec(kind="pareto", tail_index=2.2),
)


# -- spec validation ----------------------------------------------------------


class TestSpecValidation:
    def test_arrival_kind_dotted_path(self):
        with pytest.raises(ConfigurationError, match="workload.arrival.kind"):
            ExperimentSpec.from_dict(
                {"name": "x", "workload": {"arrival": {"kind": "fractal"}}}
            )

    def test_service_kind_dotted_path(self):
        with pytest.raises(ConfigurationError, match="workload.service.kind"):
            ExperimentSpec.from_dict(
                {"name": "x", "workload": {"service": {"kind": "bimodal"}}}
            )

    def test_mismatched_fields_name_their_kind(self):
        with pytest.raises(
            ConfigurationError, match="workload.arrival.burst_"
        ):
            ArrivalSpec(kind="mmpp", burst_height=2.0)
        with pytest.raises(
            ConfigurationError, match="workload.service.tail_index"
        ):
            ServiceSpec(kind="lognormal", tail_index=3.0)

    def test_mmpp_defaults_fill_in(self):
        spec = ArrivalSpec(kind="mmpp")
        assert len(spec.state_rates) == 2
        assert len(spec.switch_rates) == 2

    def test_trace_requires_path(self):
        with pytest.raises(
            ConfigurationError, match="workload.arrival.trace_path"
        ):
            ArrivalSpec(kind="trace")

    def test_divergence_tolerance_validated(self):
        with pytest.raises(
            ConfigurationError, match="divergence_tolerance"
        ):
            WorkloadSpec(divergence_tolerance=-1.0)

    def test_preserve_rate_trace_rejects_arrival_scale_events(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(
            "timestamp\n" + "\n".join(str(i * 0.01) for i in range(50)) + "\n"
        )
        arrival = ArrivalSpec(
            kind="trace", trace_path=str(trace), preserve_rate=True
        )
        with pytest.raises(ConfigurationError, match="arrival_scale"):
            ExperimentSpec(
                name="x",
                runner="request",
                workload=WorkloadSpec(arrival=arrival),
                timeline=TimelineSpec(
                    events=(
                        EventSpec(
                            time_s=1.0, kind="arrival_scale", value=2.0
                        ),
                    ),
                    horizon_s=10.0,
                ),
            )

    def test_spec_round_trips_through_dict(self):
        spec = _spec("request", **BURSTY)
        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone.workload.arrival == spec.workload.arrival
        assert clone.workload.service == spec.workload.service


# -- the SCV correction and divergence guard ----------------------------------


class TestDivergenceModel:
    def test_poisson_exponential_is_exactly_one(self):
        assert scv_correction(WorkloadSpec(), 1000.0) == 1.0
        assert assess_divergence(WorkloadSpec(), 1000.0) is None

    def test_service_scv_values(self):
        assert service_scv(ServiceSpec()) == 1.0
        assert service_scv(ServiceSpec(kind="lognormal", scv=3.0)) == 3.0
        assert service_scv(
            ServiceSpec(kind="pareto", tail_index=1.5)
        ) == float("inf")

    def test_infinite_variance_is_clamped(self):
        workload = WorkloadSpec(
            service=ServiceSpec(kind="pareto", tail_index=1.5)
        )
        corr = scv_correction(workload, 1000.0)
        assert corr == MAX_CORRECTION
        assert np.isfinite(corr)

    def test_arrival_scv_grows_with_rate(self):
        arrival = ArrivalSpec(kind="mmpp")
        assert arrival_scv(arrival, 2000.0) > arrival_scv(arrival, 200.0) > 1.0

    def test_latency_model_correction_scales_waiting_only(self):
        model = LatencyModel(servers=4, capacity_rps=1000.0, idle_latency_ms=4.0)
        base = model.mean_latency_ms(600.0)
        corrected = model.mean_latency_ms(600.0, scv_correction=2.0)
        assert corrected > base
        # Idle latency is variability-independent; only the wait doubled.
        assert corrected - model.idle_latency_ms == pytest.approx(
            2.0 * (base - model.idle_latency_ms)
        )
        # Factor 1.0 is bit-identical, not merely close.
        assert model.mean_latency_ms(600.0, scv_correction=1.0) == base

    def test_vectorized_fluid_applies_dip_corrections(self):
        vm = custom_vm_type("t-4c", vcpus=4, capacity_rps=1000.0)
        dips = {
            f"d{i}": DipServer(f"d{i}", vm, jitter_fraction=0.0)
            for i in range(3)
        }
        cluster = FluidCluster(dips, 1800.0, policy_name="rr")
        base = np.array(list(cluster.state().mean_latency_ms.values()))
        for dip in dips.values():
            dip.scv_correction = 3.0
        corrected = np.array(list(cluster.apply().mean_latency_ms.values()))
        assert (corrected > base).all()


class TestDivergenceGuard:
    def test_fires_on_bursty_fluid_run(self):
        result = execute(_spec("fluid", **BURSTY))
        warning = result.provenance.model_divergence
        assert warning is not None
        assert "mmpp" in warning and "pareto" in warning
        assert "request-level results are authoritative" in warning

    def test_silent_on_poisson_baseline(self):
        assert execute(_spec("fluid")).provenance.model_divergence is None
        assert execute(_spec("request")).provenance.model_divergence is None

    def test_round_trips_through_result_artifact(self):
        result = execute(_spec("fluid", **BURSTY))
        clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert (
            clone.provenance.model_divergence
            == result.provenance.model_divergence
        )

    def test_correction_shifts_the_fluid_mean(self):
        calm = execute(_spec("fluid")).metrics["mean_latency_ms"]
        bursty = execute(_spec("fluid", **BURSTY)).metrics["mean_latency_ms"]
        assert bursty > calm

    def test_tolerance_is_tunable(self):
        spec = _spec("fluid", **BURSTY, divergence_tolerance=1e9)
        assert execute(spec).provenance.model_divergence is None


# -- the planner screens ------------------------------------------------------


class TestPlannerScreens:
    def test_non_poisson_downgrades_with_reason(self):
        from repro.parallel.planner import plan_shards

        plan = plan_shards(
            _spec("request", arrival=ArrivalSpec(kind="mmpp")), shards=4
        )
        assert plan.mode == "serial"
        assert "Poisson" in plan.fallback_reason

    def test_non_exponential_downgrades_with_reason(self):
        from repro.parallel.planner import plan_shards

        plan = plan_shards(
            _spec("request", service=ServiceSpec(kind="pareto")), shards=4
        )
        assert plan.mode == "serial"
        assert "exponential" in plan.fallback_reason

    def test_poisson_exponential_still_shards(self):
        from repro.parallel.planner import plan_shards

        spec = _spec("request")
        object.__setattr__(spec.policy, "name", spec.policy.name)  # no-op
        plan = plan_shards(spec, shards=2)
        assert plan.mode in ("exact", "epoch")

    def test_downgraded_run_matches_serial_bitwise(self):
        spec = _spec("request", num_requests=4000, **BURSTY)
        serial = execute(spec)
        sharded = execute(spec, shards=4)
        assert sharded.metrics == serial.metrics
        assert sharded.provenance.fallback_reason is not None


# -- timeline composition -----------------------------------------------------


class TestArrivalScaleOnBursty:
    def test_arrival_scale_event_rescales_mmpp_request_run(self):
        def run(events=()):
            return execute(
                ExperimentSpec(
                    name="scale-test",
                    runner="request",
                    pool=PoolSpec(kind="uniform", num_dips=4),
                    workload=WorkloadSpec(
                        load_fraction=0.4, arrival=ArrivalSpec(kind="mmpp")
                    ),
                    timeline=TimelineSpec(
                        events=events, window_s=5.0, horizon_s=30.0
                    ),
                    seed=11,
                )
            )

        surged = run(
            (EventSpec(time_s=10.0, kind="arrival_scale", value=2.0),)
        )
        flat = run()
        assert (
            surged.metrics["requests_submitted"]
            > 1.3 * flat.metrics["requests_submitted"]
        )


# -- scenarios and CLI --------------------------------------------------------


class TestScenariosAndCli:
    def test_robustness_envelope_smoke(self):
        from repro.experiments.scenarios import run_scenario

        result = run_scenario("robustness_envelope", num_requests=300)
        assert result.metrics["policies"] >= 9
        assert result.metrics["grid_cells"] == result.metrics["policies"] * 6
        assert result.metrics["worst_p99_degradation"] >= 1.0
        assert "table" in result.detail

    def test_chaos_under_burst_smoke(self):
        from repro.experiments.scenarios import run_scenario

        result = run_scenario("chaos_under_burst", horizon_s=30.0)
        assert result.metrics["bursty_p99_latency_ms"] > 0
        assert result.metrics["p99_ratio"] > 0
        assert result.windows

    def test_cli_list_names_workload_kinds(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mmpp" in out
        assert "flash_crowd" in out
        assert "pareto" in out
        assert "workload.arrival.kind" in out

    def test_cli_validate_reports_dotted_path(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "workload": {"arrival": {"kind": "mmpp", "burst_height": 1}},
                }
            )
        )
        code = cli_main(["validate", str(path)])
        err = capsys.readouterr().err
        assert code != 0
        assert "workload.arrival.burst_" in err

    def test_cli_run_stamps_divergence_into_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code = cli_main(
            [
                "run",
                "fluid_uniform_pool",
                "--set",
                "workload.arrival.kind=mmpp",
                "--set",
                "workload.service.kind=pareto",
                "--set",
                "controller.enabled=false",
                "-o",
                str(out_file),
            ]
        )
        assert code == 0
        artifact = json.loads(out_file.read_text())
        assert artifact["provenance"]["model_divergence"]
