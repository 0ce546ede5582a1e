"""Unit tests for repro.core.config."""

from __future__ import annotations

import pytest

from repro.core.config import (
    DEFAULT_CONFIG,
    SOLVER_BACKENDS,
    CurveConfig,
    DynamicsConfig,
    ExplorationConfig,
    IlpConfig,
    KnapsackLBConfig,
    ProbeConfig,
    SchedulerConfig,
)
from repro.exceptions import ConfigurationError


class TestExplorationConfig:
    def test_defaults_match_paper(self):
        config = ExplorationConfig()
        assert config.convergence_fraction == pytest.approx(0.05)
        assert config.alpha == pytest.approx(1.0)
        assert config.drop_latency_multiplier == pytest.approx(5.0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 2.0])
    def test_invalid_convergence_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            ExplorationConfig(convergence_fraction=fraction)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            ExplorationConfig(alpha=0.0)

    def test_invalid_drop_multiplier(self):
        with pytest.raises(ConfigurationError):
            ExplorationConfig(drop_latency_multiplier=1.0)

    def test_invalid_max_iterations(self):
        with pytest.raises(ConfigurationError):
            ExplorationConfig(max_iterations=0)


class TestCurveConfig:
    def test_defaults(self):
        config = CurveConfig()
        assert config.degree == 2
        assert config.enforce_monotone

    def test_invalid_degree(self):
        with pytest.raises(ConfigurationError):
            CurveConfig(degree=0)

    def test_invalid_min_points(self):
        with pytest.raises(ConfigurationError):
            CurveConfig(min_points=1)

    @pytest.mark.parametrize("min_points", [3, 4, 6])
    def test_the_exploration_budget_must_reach_the_fit_points(self, min_points):
        curve = CurveConfig(min_points=min_points)
        # The idle point plus one per iteration.
        KnapsackLBConfig(exploration=ExplorationConfig(max_iterations=min_points - 1), curve=curve)
        with pytest.raises(ConfigurationError, match=f"curve.min_points - 1 \\({min_points - 1}\\)"):
            KnapsackLBConfig(exploration=ExplorationConfig(max_iterations=min_points - 2), curve=curve)


class TestIlpConfig:
    def test_defaults_match_paper(self):
        config = IlpConfig()
        assert config.weights_per_dip == 10
        assert config.theta is None
        assert config.multistep_min_dips == 100
        assert config.refine_window_fraction == pytest.approx(0.10)

    def test_invalid_weights_per_dip(self):
        with pytest.raises(ConfigurationError):
            IlpConfig(weights_per_dip=1)

    def test_negative_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            IlpConfig(theta=-0.1)

    def test_theta_zero_allowed(self):
        assert IlpConfig(theta=0.0).theta == 0.0

    def test_invalid_refine_window(self):
        with pytest.raises(ConfigurationError):
            IlpConfig(refine_window_fraction=0.0)

    def test_invalid_time_limit(self):
        with pytest.raises(ConfigurationError):
            IlpConfig(time_limit_s=0.0)

    def test_every_solver_backend_name_is_accepted(self):
        for backend in SOLVER_BACKENDS:
            assert IlpConfig(backend=backend).backend == backend
        assert SOLVER_BACKENDS[:2] == ("auto", "mckp")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend must be one of .*'mckp'.*got 'higs'"):
            IlpConfig(backend="higs")

    @pytest.mark.parametrize("backend", ["dp", "mckp"])
    def test_theta_needs_a_backend_that_can_express_it(self, backend):
        with pytest.raises(ConfigurationError, match="cannot express a finite theta"):
            IlpConfig(backend=backend, theta=0.2)
        assert IlpConfig(backend=backend, theta=None).theta is None
        assert IlpConfig(backend="auto", theta=0.2).theta == 0.2


class TestDynamicsConfig:
    def test_defaults_match_paper(self):
        config = DynamicsConfig()
        assert config.capacity_change_threshold == pytest.approx(0.20)
        assert config.max_refresh_fraction == pytest.approx(0.05)
        assert config.drain_recalibration_interval_s == pytest.approx(7200.0)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            DynamicsConfig(capacity_change_threshold=1.0)

    def test_invalid_quorum(self):
        with pytest.raises(ConfigurationError):
            DynamicsConfig(traffic_change_quorum=0.0)

    def test_invalid_failure_threshold(self):
        with pytest.raises(ConfigurationError):
            DynamicsConfig(failure_probe_threshold=0)

    def test_invalid_refresh_fraction(self):
        with pytest.raises(ConfigurationError):
            DynamicsConfig(max_refresh_fraction=1.5)


class TestProbeConfig:
    def test_defaults_match_paper(self):
        config = ProbeConfig()
        assert config.interval_s == pytest.approx(5.0)
        assert config.requests_per_probe == 100

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            ProbeConfig(interval_s=0.0)

    def test_invalid_requests(self):
        with pytest.raises(ConfigurationError):
            ProbeConfig(requests_per_probe=0)

    def test_invalid_timeout(self):
        with pytest.raises(ConfigurationError):
            ProbeConfig(timeout_s=-1.0)


class TestSchedulerConfig:
    def test_defaults_match_paper(self):
        config = SchedulerConfig()
        assert config.round_duration_s == pytest.approx(10.0)

    def test_invalid_round_duration(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(round_duration_s=0.0)

    def test_invalid_multiplier(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(overutilized_latency_multiplier=1.0)


class TestKnapsackLBConfig:
    def test_default_control_interval(self):
        assert KnapsackLBConfig().control_interval_s == pytest.approx(5.0)

    def test_invalid_control_interval(self):
        with pytest.raises(ConfigurationError):
            KnapsackLBConfig(control_interval_s=0.0)

    def test_default_config_singleton_is_usable(self):
        assert DEFAULT_CONFIG.ilp.weights_per_dip == 10

    def test_sub_configs_composable(self):
        config = KnapsackLBConfig(ilp=IlpConfig(weights_per_dip=20, theta=0.5))
        assert config.ilp.weights_per_dip == 20
        assert config.probe.interval_s == pytest.approx(5.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            KnapsackLBConfig().control_interval_s = 1.0  # type: ignore[misc]


class TestConfigSerde:
    """to_dict/from_dict round-tripping of the config tree."""

    def test_round_trip_is_identity(self):
        config = KnapsackLBConfig(
            ilp=IlpConfig(weights_per_dip=12, theta=0.4),
            exploration=ExplorationConfig(alpha=2.0),
        )
        assert KnapsackLBConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_plain_data(self):
        import json

        json.dumps(KnapsackLBConfig().to_dict())  # must not raise

    def test_partial_dict_keeps_defaults(self):
        config = KnapsackLBConfig.from_dict({"ilp": {"weights_per_dip": 4}})
        assert config.ilp.weights_per_dip == 4
        assert config.ilp.backend == "auto"
        assert config.probe == ProbeConfig()

    def test_none_round_trips_for_optional_fields(self):
        config = KnapsackLBConfig.from_dict({"ilp": {"theta": None}})
        assert config.ilp.theta is None

    def test_unknown_field_names_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"config\.ilp\.wieghts"):
            KnapsackLBConfig.from_dict({"ilp": {"wieghts": 4}})

    def test_unknown_section_lists_valid_fields(self):
        with pytest.raises(ConfigurationError, match="exploration"):
            KnapsackLBConfig.from_dict({"explorations": {}})

    def test_invalid_value_error_carries_section(self):
        with pytest.raises(ConfigurationError, match=r"config\.ilp"):
            KnapsackLBConfig.from_dict({"ilp": {"weights_per_dip": 1}})

    def test_invalid_value_error_names_the_field_by_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"config\.ilp\.backend must be one of"):
            KnapsackLBConfig.from_dict({"ilp": {"backend": "higs"}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError, match="config.curve"):
            KnapsackLBConfig.from_dict({"curve": 3})
