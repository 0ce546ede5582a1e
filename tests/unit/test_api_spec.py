"""Spec construction, validation, file loading and overrides."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ControllerSpec,
    ExperimentSpec,
    FleetSpec,
    PolicySpec,
    PoolSpec,
    VmSpec,
    WorkloadSpec,
)
from repro.api.spec import EventSpec
from repro.core.config import KnapsackLBConfig
from repro.exceptions import ConfigurationError

NAN, INF = float("nan"), float("inf")


def sample_spec(**kwargs) -> ExperimentSpec:
    base = dict(
        name="sample",
        runner="fluid",
        pool=PoolSpec(kind="uniform", num_dips=4, vm=VmSpec(vcpus=2)),
        workload=WorkloadSpec(load_fraction=0.5, num_requests=2_000),
        policy=PolicySpec(name="wrr"),
        controller=ControllerSpec(enabled=False),
        fleet=FleetSpec(num_vips=2),
        seed=9,
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = sample_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = sample_spec()
        path = spec.save(tmp_path / "spec.json")
        assert ExperimentSpec.from_file(path) == spec

    def test_json_text_is_stable(self):
        spec = sample_spec()
        assert spec.to_json() == ExperimentSpec.from_dict(spec.to_dict()).to_json()

    def test_toml_file_round_trip(self, tmp_path):
        spec = sample_spec()
        path = tmp_path / "spec.toml"
        path.write_text(_as_toml(spec.to_dict()), encoding="utf-8")
        assert ExperimentSpec.from_file(path) == spec

    def test_partial_dict_fills_defaults(self):
        spec = ExperimentSpec.from_dict({"name": "tiny"})
        assert spec.runner == "fluid"
        assert spec.pool == PoolSpec()
        assert spec.controller.config == KnapsackLBConfig()

    def test_nested_controller_config_round_trips(self):
        spec = sample_spec(
            controller=ControllerSpec(
                enabled=True,
                config=KnapsackLBConfig.from_dict({"ilp": {"weights_per_dip": 6}}),
            )
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.controller.config.ilp.weights_per_dip == 6
        assert again == spec


class TestValidation:
    def test_unknown_top_level_field_names_the_key(self):
        with pytest.raises(ConfigurationError, match="runnner"):
            ExperimentSpec.from_dict({"name": "x", "runnner": "fluid"})

    def test_unknown_nested_field_names_the_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"pool\.num_dipz"):
            ExperimentSpec.from_dict({"name": "x", "pool": {"num_dipz": 4}})

    def test_bad_value_error_names_the_field(self):
        with pytest.raises(ConfigurationError, match="pool.num_dips"):
            ExperimentSpec.from_dict({"name": "x", "pool": {"num_dips": 0}})
        with pytest.raises(ConfigurationError, match="workload.load_fraction"):
            WorkloadSpec(load_fraction=2.5)
        with pytest.raises(ConfigurationError, match="fleet.num_vips"):
            FleetSpec(num_vips=0)

    def test_unknown_policy_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="wrr"):
            PolicySpec(name="nope")

    def test_unknown_runner_and_pool_kind(self):
        with pytest.raises(ConfigurationError, match="runner"):
            sample_spec(runner="quantum")
        with pytest.raises(ConfigurationError, match="pool.kind"):
            PoolSpec(kind="nope")

    def test_scenario_requires_scenario_runner(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            sample_spec(scenario="single_vip_testbed")  # runner stays fluid
        with pytest.raises(ConfigurationError, match="scenario"):
            sample_spec(runner="scenario")  # no scenario named

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError, match="pool"):
            ExperimentSpec.from_dict({"name": "x", "pool": 7})

    def test_missing_file_and_bad_suffix(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            ExperimentSpec.from_file(tmp_path / "nope.json")
        path = tmp_path / "spec.yaml"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=".json or .toml"):
            ExperimentSpec.from_file(path)

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="broken.json"):
            ExperimentSpec.from_file(path)


class TestOverrides:
    def test_nested_override_replaces_one_field(self):
        spec = sample_spec()
        out = spec.with_overrides({"workload.load_fraction": 0.8})
        assert out.workload.load_fraction == 0.8
        assert out.workload.num_requests == spec.workload.num_requests
        assert spec.workload.load_fraction == 0.5  # original untouched

    def test_runner_flip_is_one_override(self):
        assert sample_spec().with_overrides({"runner": "request"}).runner == "request"

    def test_unknown_override_path_raises(self):
        with pytest.raises(ConfigurationError, match="workload.load_fractoin"):
            sample_spec().with_overrides({"workload.load_fractoin": 0.8})

    def test_derived_specs_do_not_share_params(self):
        spec = ExperimentSpec(
            name="scen",
            runner="scenario",
            scenario="single_vip_testbed",
            params={"load_fraction": 0.7},
        )
        derived = spec.with_overrides({"seed": 1})
        assert derived.params == spec.params
        assert derived.params is not spec.params

    def test_controller_with_unweighted_policy_is_rejected(self):
        with pytest.raises(ConfigurationError, match="weighted"):
            sample_spec(
                policy=PolicySpec(name="lc"),
                controller=ControllerSpec(enabled=True),
            )

    def test_scenario_bare_key_lands_in_params(self):
        spec = ExperimentSpec(
            name="scen",
            runner="scenario",
            scenario="single_vip_testbed",
            params={"load_fraction": 0.7, "seed": 7},
        )
        out = spec.with_overrides({"load_fraction": 0.5})
        assert out.params["load_fraction"] == 0.5
        assert out.params["seed"] == 7


class TestNonFiniteValues:
    """NaN is inside no declared range, so it fails each field's own rule.

    An ``x <= 0`` check is false for NaN; these fields used to let it through
    (and ``health.probe_interval_s`` blamed it on ``probe_timeout_s``).
    """

    @pytest.mark.parametrize(
        ("document", "message"),
        [
            (
                {"retry": {"request_timeout_s": NAN}},
                "spec.retry: retry.request_timeout_s must be positive",
            ),
            ({"sync_interval_s": NAN}, "spec.sync_interval_s must be positive"),
            (
                {"workload": {"warmup_s": NAN}},
                "spec.workload: workload.warmup_s must be >= 0",
            ),
            (
                {"controller": {"config": {"ilp": {"time_limit_s": NAN}}}},
                "spec.controller.config.ilp.time_limit_s must be positive",
            ),
            (
                {"health": {"probe_interval_s": NAN}},
                "spec.health: health.probe_interval_s must be positive",
            ),
        ],
        ids=["request_timeout_s", "sync_interval_s", "warmup_s", "time_limit_s",
             "probe_interval_s"],
    )
    def test_nan_spec_field_is_rejected(self, document, message):
        with pytest.raises(ConfigurationError) as error:
            ExperimentSpec.from_dict({"name": "nan", **document})
        assert str(error.value) == message

    @pytest.mark.parametrize(
        ("event", "message"),
        [
            (
                {"time_s": NAN, "kind": "dip_fail", "dip": "DIP-0"},
                "event time_s must be > 0 (events fire strictly inside the "
                "timed phase)",
            ),
            (
                {"time_s": 1.0, "kind": "dip_fail", "dip": "DIP-0", "drain_s": NAN},
                "event drain_s must be >= 0",
            ),
            (
                {"time_s": 1.0, "kind": "arrival_scale", "value": NAN},
                "event 'arrival_scale' needs a positive value",
            ),
            (
                {"time_s": 1.0, "kind": "antagonist_phase", "dip": "D0", "value": NAN},
                "event 'antagonist_phase' needs a non-negative integer value "
                "(antagonist copies)",
            ),
            (
                {"time_s": 1.0, "kind": "antagonist_phase", "dip": "D0", "value": INF},
                "event 'antagonist_phase' needs a non-negative integer value "
                "(antagonist copies)",
            ),
        ],
        ids=["time_s", "drain_s", "arrival_scale", "antagonist_nan", "antagonist_inf"],
    )
    def test_non_finite_event_field_is_rejected(self, event, message):
        with pytest.raises(ConfigurationError) as error:
            EventSpec.from_dict(event)
        assert str(error.value) == f"timeline.events: {message}"


def _as_toml(data: dict, prefix: str = "") -> str:
    """Minimal TOML encoder for the spec tree (tests only)."""
    lines: list[str] = []
    tables: list[tuple[str, dict]] = []
    for key, value in data.items():
        if isinstance(value, dict):
            tables.append((f"{prefix}{key}", value))
        elif value is None:
            continue  # TOML has no null; loaders fall back to the default
        else:
            lines.append(f"{key} = {json.dumps(value)}")
    text = "\n".join(lines) + "\n"
    for name, table in tables:
        text += f"\n[{name}]\n" + _as_toml(table, prefix=f"{name}.")
    return text
