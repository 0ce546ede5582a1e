"""Runner execution, RunResult serialization and reproducibility."""

from __future__ import annotations

import pytest

from repro.api import (
    ControllerSpec,
    ExperimentSpec,
    FleetSpec,
    PolicySpec,
    PoolSpec,
    RunResult,
    VmSpec,
    WorkloadSpec,
    execute,
    get_spec,
    list_specs,
    run,
    runner_for,
)
from repro.exceptions import ConfigurationError


def small_spec(**kwargs) -> ExperimentSpec:
    base = dict(
        name="small",
        runner="fluid",
        pool=PoolSpec(kind="uniform", num_dips=4, vm=VmSpec(vcpus=2)),
        workload=WorkloadSpec(load_fraction=0.5, num_requests=2_000, warmup_s=0.5),
        policy=PolicySpec(name="wrr"),
        controller=ControllerSpec(enabled=False),
        fleet=FleetSpec(num_vips=2),
        seed=9,
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestRunnersShareOneSpec:
    """The acceptance shape: one spec, three substrates, flip one field."""

    @pytest.mark.parametrize("kind", ["fluid", "request", "fleet"])
    def test_same_spec_runs_on_every_substrate(self, kind):
        result = run(small_spec().with_overrides({"runner": kind}))
        assert result.runner == kind
        assert result.seed == 9
        assert result.metrics["mean_latency_ms"] > 0
        assert result.dip_summaries  # every substrate reports per-DIP rows
        assert result.provenance.wall_clock_s >= 0

    def test_fluid_controller_reports_gain(self):
        result = run(
            get_spec("testbed_klb").with_overrides({"controller.settle_steps": 1})
        )
        assert result.metrics["latency_gain"] > 1.5
        # One detail shape on the analytic substrate: a fluid run is the
        # fleet with one VIP, named "vip".
        assert set(result.detail) == {"assignments", "plane"}
        assert set(result.detail["assignments"]) == {"vip"}
        assert result.metrics["num_vips"] == 1.0
        assert result.metrics["vips_with_assignment"] == 1.0

    def test_fluid_and_fleet_share_one_runner(self):
        assert runner_for("fluid") is runner_for("fleet")

    @pytest.mark.parametrize("kind", ["fluid", "fleet"])
    def test_analytic_runs_apply_the_workload_correction_from_the_start(self, kind):
        # A static, uncontrolled run reads the state of the very first
        # evaluation; the Allen-Cunneen factor must already be on the pool
        # (the fleet twin once stamped it after building, and reported the
        # uncorrected M/M/c latency beside its own divergence warning).
        bursty = {"workload.arrival.kind": "mmpp", "workload.service.kind": "pareto"}
        spec = small_spec(runner=kind, fleet=FleetSpec(num_vips=1))
        plain = run(spec).metrics["mean_latency_ms"]
        result = run(spec.with_overrides(bursty))
        assert result.provenance.model_divergence is not None
        assert result.metrics["mean_latency_ms"] > 2 * plain

    @pytest.mark.parametrize("kind", ["fluid", "request", "fleet"])
    def test_controller_needs_weighted_policy_on_every_substrate(self, kind):
        # An unweighted policy would silently ignore the programmed weights,
        # so the spec itself rejects the combination — on every runner.
        with pytest.raises(ConfigurationError, match="weighted"):
            small_spec(
                runner=kind,
                policy=PolicySpec(name="rr"),
                controller=ControllerSpec(enabled=True),
            )

    def test_fleet_runner_honours_the_pool_spec(self):
        spec = small_spec(runner="fleet", pool=PoolSpec(kind="testbed"))
        result = run(spec)
        # The Table 3 testbed: 30 DIPs of four VM sizes, not a generic
        # uniform fleet — heterogeneous capacities must show through.
        assert len(result.dip_summaries) == 30
        rates = {round(row["rate_rps"], 6) for row in result.dip_summaries.values()}
        assert len(rates) > 1

    def test_request_runner_executes_control_steps(self):
        spec = small_spec(
            runner="request",
            controller=ControllerSpec(enabled=True, settle_steps=1, control_steps=2),
            workload=WorkloadSpec(load_fraction=0.5, num_requests=1_500),
        )
        result = run(spec)
        assert result.metrics["mean_latency_ms"] > 0

    def test_unknown_runner_kind(self):
        with pytest.raises(ConfigurationError, match="unknown runner"):
            runner_for("quantum")


class TestScenarioBridge:
    def test_registry_bridges_every_scenario(self):
        names = {name for name, _ in list_specs()}
        assert "single_vip_testbed" in names
        assert "multi_vip_shared_dips" in names

    def test_scenario_spec_runs_and_carries_metrics(self):
        spec = get_spec("single_vip_testbed")
        assert spec.runner == "scenario"
        result = execute(spec)
        assert result.metrics["latency_gain"] > 1.0
        assert result.detail is not None

    def test_scenario_seed_comes_from_spec_level(self):
        spec = get_spec("single_vip_testbed")
        assert "seed" not in spec.params
        assert spec.seed == 7  # the scenario's registered default

    def test_unknown_scenario_param_raises(self):
        spec = get_spec("single_vip_testbed").with_overrides({"bogus": 1})
        with pytest.raises(ConfigurationError, match="bogus"):
            execute(spec)

    def test_unknown_spec_name_lists_registry(self):
        with pytest.raises(ConfigurationError, match="registered specs"):
            get_spec("no_such_spec")


class TestResultArtifact:
    def test_serialization_is_stable(self, tmp_path):
        result = run(small_spec())
        path = result.save(tmp_path / "r.json")
        loaded = RunResult.load(path)
        assert loaded.to_json() == result.to_json()
        assert loaded.metrics == result.metrics
        assert loaded.dip_summaries == result.dip_summaries
        assert loaded.spec == result.spec

    def test_rejects_wrong_schema_and_broken_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v9"}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="schema"):
            RunResult.load(path)
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="bad.json"):
            RunResult.load(path)

    def test_metrics_equal_tolerance(self, tmp_path):
        result = run(small_spec())
        loaded = RunResult.load(result.save(tmp_path / "r.json"))
        assert result.metrics_equal(loaded)
        bumped = RunResult(
            spec=result.spec,
            runner=result.runner,
            seed=result.seed,
            metrics={**result.metrics, "mean_latency_ms": result.metrics["mean_latency_ms"] * 1.5},
            dip_summaries=result.dip_summaries,
            provenance=result.provenance,
        )
        assert not result.metrics_equal(bumped)
        assert result.metrics_equal(bumped, rel_tol=0.6)


class TestReproducibility:
    """A saved artifact re-runs to identical metrics for the same seed."""

    @pytest.mark.parametrize("kind", ["fluid", "request"])
    def test_saved_spec_reproduces_metrics(self, kind, tmp_path):
        first = run(small_spec().with_overrides({"runner": kind}))
        loaded = RunResult.load(first.save(tmp_path / "first.json"))
        again = run(loaded.spec)
        assert again.metrics == first.metrics
        assert again.dip_summaries == first.dip_summaries

    def test_different_seed_changes_request_metrics(self):
        base = small_spec(runner="request")
        a = run(base)
        b = run(base.with_overrides({"seed": 10}))
        assert a.metrics["mean_latency_ms"] != b.metrics["mean_latency_ms"]
