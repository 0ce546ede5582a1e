"""Unit tests for dynamics detection and reaction (§4.5)."""

from __future__ import annotations

import pytest

from repro.core.config import DynamicsConfig
from repro.core.curve import WeightLatencyCurve
from repro.core.dynamics import (
    DynamicsDetector,
    DynamicsEventKind,
    Observation,
    relative_deviation,
    rescale_all_curves,
)
from repro.exceptions import ConfigurationError


def linear_curve(l0=2.0, slope=20.0, w_max=0.4) -> WeightLatencyCurve:
    return WeightLatencyCurve(coefficients=(slope, l0), l0_ms=l0, w_max=w_max)


@pytest.fixture
def curves():
    return {f"d{i}": linear_curve() for i in range(5)}


@pytest.fixture
def detector():
    return DynamicsDetector(DynamicsConfig())


def observations_at(curves, weight, factor):
    """Observations whose latency is ``factor`` × the curve estimate."""
    return [
        Observation(dip=d, weight=weight, observed_latency_ms=c.predict(weight) * factor)
        for d, c in curves.items()
    ]


class TestRelativeDeviation:
    def test_positive(self):
        assert relative_deviation(12.0, 10.0) == pytest.approx(0.2)

    def test_negative(self):
        assert relative_deviation(8.0, 10.0) == pytest.approx(-0.2)

    def test_zero_estimate_rejected(self):
        with pytest.raises(ConfigurationError):
            relative_deviation(1.0, 0.0)


class TestDetector:
    def test_no_events_when_matching(self, detector, curves):
        events = detector.detect(observations_at(curves, 0.2, 1.0), curves)
        assert events == []

    def test_small_deviation_below_threshold_ignored(self, detector, curves):
        events = detector.detect(observations_at(curves, 0.2, 1.1), curves)
        assert events == []

    def test_traffic_increase_when_all_dips_slower(self, detector, curves):
        events = detector.detect(observations_at(curves, 0.2, 1.4), curves)
        assert len(events) == 1
        assert events[0].kind is DynamicsEventKind.TRAFFIC_INCREASE
        assert set(events[0].dips) == set(curves)
        assert events[0].magnitude == pytest.approx(0.4, rel=0.05)

    def test_traffic_decrease_when_all_dips_faster(self, detector, curves):
        events = detector.detect(observations_at(curves, 0.2, 0.6), curves)
        assert len(events) == 1
        assert events[0].kind is DynamicsEventKind.TRAFFIC_DECREASE

    def test_single_dip_deviation_is_capacity_change(self, detector, curves):
        observations = observations_at(curves, 0.2, 1.0)
        observations[0] = Observation(
            dip="d0", weight=0.2, observed_latency_ms=curves["d0"].predict(0.2) * 1.5
        )
        events = detector.detect(observations, curves)
        assert len(events) == 1
        assert events[0].kind is DynamicsEventKind.CAPACITY_CHANGE
        assert events[0].dips == ("d0",)

    def test_two_of_five_deviating_are_capacity_changes(self, detector, curves):
        observations = observations_at(curves, 0.2, 1.0)
        for index in (0, 1):
            dip = f"d{index}"
            observations[index] = Observation(
                dip=dip, weight=0.2, observed_latency_ms=curves[dip].predict(0.2) * 1.5
            )
        events = detector.detect(observations, curves)
        assert len(events) == 2
        assert all(e.kind is DynamicsEventKind.CAPACITY_CHANGE for e in events)

    def test_unknown_dip_observation_ignored(self, detector, curves):
        events = detector.detect(
            [Observation(dip="ghost", weight=0.2, observed_latency_ms=100.0)], curves
        )
        assert events == []

    def test_empty_observations(self, detector, curves):
        assert detector.detect([], curves) == []

    def test_quorum_boundary(self, curves):
        """4 of 5 DIPs deviating meets the 0.8 quorum → one traffic event."""
        detector = DynamicsDetector(DynamicsConfig(traffic_change_quorum=0.8))
        observations = observations_at(curves, 0.2, 1.5)
        observations[0] = Observation(
            dip="d0", weight=0.2, observed_latency_ms=curves["d0"].predict(0.2)
        )
        events = detector.detect(observations, curves)
        assert len(events) == 1
        assert events[0].kind is DynamicsEventKind.TRAFFIC_INCREASE
        assert len(events[0].dips) == 4


class TestRescaling:
    def test_capacity_loss_shrinks_weights(self):
        curve = linear_curve()
        obs = Observation(dip="d", weight=0.2, observed_latency_ms=curve.predict(0.2) * 1.5)
        adjusted = rescale_all_curves({"d": curve}, [obs])["d"]
        # After the shift the curve predicts the observed latency at w=0.2.
        assert adjusted.predict(0.2) == pytest.approx(obs.observed_latency_ms, rel=0.05)
        assert adjusted.w_max < curve.w_max

    def test_rescale_all_curves_only_touches_observed(self, curves):
        observations = [
            Observation(dip="d0", weight=0.2, observed_latency_ms=curves["d0"].predict(0.2) * 1.4)
        ]
        updated = rescale_all_curves(curves, observations)
        assert updated["d0"].w_max != curves["d0"].w_max
        assert updated["d1"] is curves["d1"]

    def test_rescale_all_preserves_keys(self, curves):
        updated = rescale_all_curves(curves, observations_at(curves, 0.2, 1.4))
        assert set(updated) == set(curves)
