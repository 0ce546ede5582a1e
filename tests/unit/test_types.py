"""Unit tests for repro.core.types."""

from __future__ import annotations

import math

import pytest

from repro.core.types import (
    MeasurementPoint,
    WeightAssignment,
    equal_weights,
    left_to_right_sum,
    normalize_weights,
    validate_weight,
)
from repro.exceptions import ConfigurationError
from repro.solver import SolveResult, SolveStatus


class TestLeftToRightSum:
    """Sums behind band verdicts and goldens: the builtin ``sum`` is
    compensated from Python 3.12 on (and reads 1.0 here), these are not."""

    TENTHS = {f"d{i}": 0.1 for i in range(10)}

    def test_ten_tenths_on_every_python(self):
        assert left_to_right_sum([0.1] * 10) == 0.9999999999999999
        assert WeightAssignment("vip", self.TENTHS).total_weight == 0.9999999999999999
        result = SolveResult(status=SolveStatus.OPTIMAL, weights=self.TENTHS)
        assert result.total_weight == 0.9999999999999999
        assert normalize_weights(self.TENTHS)["d0"] == 0.1 / 0.9999999999999999

    def test_empty_and_generators(self):
        assert left_to_right_sum([]) == 0.0
        assert left_to_right_sum(w for w in (0.5, 0.25)) == 0.75


class TestValidateWeight:
    def test_accepts_zero(self):
        assert validate_weight(0.0) == 0.0

    def test_accepts_one(self):
        assert validate_weight(1.0) == 1.0

    def test_accepts_interior(self):
        assert validate_weight(0.37) == pytest.approx(0.37)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            validate_weight(-0.01)

    def test_rejects_above_one(self):
        with pytest.raises(ConfigurationError):
            validate_weight(1.01)

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            validate_weight(math.nan)

    def test_message_mentions_name(self):
        with pytest.raises(ConfigurationError, match="my_weight"):
            validate_weight(2.0, name="my_weight")


class TestMeasurementPoint:
    def test_valid(self):
        point = MeasurementPoint(weight=0.2, latency_ms=5.0)
        assert not point.dropped

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            MeasurementPoint(weight=0.2, latency_ms=-5.0)

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ConfigurationError):
            MeasurementPoint(weight=1.2, latency_ms=5.0)


class TestWeightAssignment:
    def test_total_weight(self):
        a = WeightAssignment(vip="v", weights={"a": 0.4, "b": 0.6})
        assert a.total_weight == pytest.approx(1.0)

    def test_normalized_rescales(self):
        a = WeightAssignment(vip="v", weights={"a": 0.4, "b": 0.4})
        n = a.normalized()
        assert n.total_weight == pytest.approx(1.0)
        assert n.weights["a"] == pytest.approx(0.5)

    def test_normalized_is_a_copy_with_the_same_vip(self):
        a = WeightAssignment(vip="v", weights={"a": 0.6, "b": 0.2}, objective_ms=3.0)
        n = a.normalized()
        assert a.total_weight == pytest.approx(0.8)
        assert n is not a and n.vip == "v" and n.objective_ms == 3.0
        assert n.weights == {"a": pytest.approx(0.75), "b": pytest.approx(0.25)}

    def test_normalized_all_zero_raises(self):
        a = WeightAssignment(vip="v", weights={"a": 0.0, "b": 0.0})
        with pytest.raises(ConfigurationError):
            a.normalized()

    def test_weight_for_missing_dip_is_zero(self):
        a = WeightAssignment(vip="v", weights={"a": 1.0})
        assert a.weight_for("missing") == 0.0

    def test_rejects_invalid_weight(self):
        with pytest.raises(ConfigurationError):
            WeightAssignment(vip="v", weights={"a": 1.4})


class TestNormalizeWeights:
    def test_basic(self):
        result = normalize_weights({"a": 2.0, "b": 2.0})
        assert result == {"a": 0.5, "b": 0.5}

    def test_zero_sum_raises(self):
        with pytest.raises(ConfigurationError):
            normalize_weights({"a": 0.0})

    def test_preserves_ratios(self):
        result = normalize_weights({"a": 1.0, "b": 3.0})
        assert result["b"] == pytest.approx(3 * result["a"])


class TestEqualWeights:
    def test_three_dips(self):
        result = equal_weights(["a", "b", "c"])
        assert all(w == pytest.approx(1 / 3) for w in result.values())

    def test_empty(self):
        assert equal_weights([]) == {}

    def test_sums_to_one(self):
        result = equal_weights([f"d{i}" for i in range(7)])
        assert sum(result.values()) == pytest.approx(1.0)
