"""Unit tests for weight-latency curve fitting (§4.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from repro.core.config import CurveConfig
from repro.core.curve import (
    CurveBank,
    WeightLatencyCurve,
    _nnls,
    fit_curve,
    weights_for_latencies,
)
from repro.core.types import MeasurementPoint
from repro.exceptions import ConfigurationError, CurveFitError


def shifted(curve: WeightLatencyCurve, weight: float, observed: float) -> WeightLatencyCurve:
    """The §4.5 shift of one curve to ``observed`` at ``weight``."""
    return CurveBank({"d": curve}).shifted(("d",), (weight,), (observed,))["d"]


def quad_points(a: float, b: float, c: float, weights):
    return [
        MeasurementPoint(weight=w, latency_ms=a * w * w + b * w + c) for w in weights
    ]


class TestFitCurve:
    def test_recovers_quadratic(self):
        points = quad_points(100.0, 5.0, 2.0, [0.0, 0.05, 0.1, 0.15, 0.2])
        curve = fit_curve(points)
        assert curve.predict(0.12) == pytest.approx(100 * 0.12**2 + 5 * 0.12 + 2, rel=1e-3)

    def test_degree_two_by_default(self):
        points = quad_points(50.0, 1.0, 3.0, [0.0, 0.1, 0.2, 0.3])
        assert fit_curve(points).degree == 2

    def test_degree_reduced_with_few_points(self):
        points = quad_points(50.0, 1.0, 3.0, [0.0, 0.1, 0.2])[:3]
        curve = fit_curve(points, config=CurveConfig(degree=5, min_points=3))
        assert curve.degree <= 2

    def test_requires_min_points(self):
        points = quad_points(50.0, 1.0, 3.0, [0.0, 0.1])
        with pytest.raises(CurveFitError):
            fit_curve(points)

    def test_dropped_points_excluded(self):
        points = quad_points(100.0, 5.0, 2.0, [0.0, 0.05, 0.1, 0.15])
        points.append(MeasurementPoint(weight=0.5, latency_ms=1000.0, dropped=True))
        curve = fit_curve(points)
        # The outlier dropped point must not bend the fit.
        assert curve.predict(0.1) == pytest.approx(100 * 0.01 + 5 * 0.1 + 2, rel=0.05)

    def test_exact_fit_passes_through_its_points(self):
        points = quad_points(100.0, 5.0, 2.0, [0.0, 0.05, 0.1, 0.15, 0.2])
        curve = fit_curve(points)
        predicted = curve.predict_many([p.weight for p in points])
        assert np.abs(predicted - [p.latency_ms for p in points]).max() < 0.2

    def test_kept_outlier_bends_the_fit(self):
        """The twin of the dropped-point test: counted, the outlier moves it."""
        points = quad_points(100.0, 5.0, 2.0, [0.0, 0.05, 0.1, 0.15])
        points.append(MeasurementPoint(weight=0.5, latency_ms=1000.0))
        curve = fit_curve(points)
        assert abs(curve.predict(0.1) - (100 * 0.01 + 5 * 0.1 + 2)) > 0.05 * 3.5

    def test_fit_points_are_the_usable_points(self):
        points = quad_points(100.0, 5.0, 2.0, [0.0, 0.05, 0.1, 0.15])
        dropped = MeasurementPoint(weight=0.2, latency_ms=9.0, dropped=True)
        curve = fit_curve([*points[:2], dropped, *points[2:]])
        assert curve.fit_points == tuple(points)

    def test_dropped_only_raises(self):
        points = [
            MeasurementPoint(weight=w, latency_ms=10.0, dropped=True)
            for w in (0.1, 0.2, 0.3)
        ]
        with pytest.raises(CurveFitError):
            fit_curve(points)

    def test_w_max_defaults_to_largest_weight(self):
        points = quad_points(10.0, 1.0, 2.0, [0.0, 0.1, 0.25])
        assert fit_curve(points).w_max == pytest.approx(0.25)

    def test_explicit_l0_and_wmax(self):
        points = quad_points(10.0, 1.0, 2.0, [0.0, 0.1, 0.25])
        curve = fit_curve(points, l0_ms=1.5, w_max=0.4)
        assert curve.l0_ms == pytest.approx(1.5)
        assert curve.w_max == pytest.approx(0.4)

    def test_fit_points_recorded(self):
        points = quad_points(10.0, 1.0, 2.0, [0.0, 0.1, 0.25])
        assert len(fit_curve(points).fit_points) == 3


@st.composite
def vandermonde_systems(draw):
    """What ``fit_curve`` hands NNLS: 1–20 points, degree 0–3, weights that
    repeat, targets of either sign and any size."""
    rows = draw(st.integers(1, 20))
    distinct = draw(st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=rows))
    weights = draw(st.lists(st.sampled_from(distinct), min_size=rows, max_size=rows))
    targets = draw(
        st.lists(
            st.floats(-1e3, 1e3) | st.floats(-1e12, 1e12), min_size=rows, max_size=rows
        )
    )
    degree = draw(st.integers(0, 3))
    return np.vander(np.array(weights), degree + 1, increasing=True), np.array(targets)


def nnls_outcome(solver, design, target):
    """The solution and residual as raw bytes, or the exception type raised."""
    try:
        x, rnorm = solver(design, target)
    except (ValueError, RuntimeError) as error:
        return type(error)
    return x.tobytes(), np.float64(rnorm).tobytes()


class TestCompiledNnls:
    """``_nnls`` is ``scipy.optimize.nnls`` without importing the package."""

    @given(vandermonde_systems())
    def test_bit_equal_to_scipy(self, system):
        design, target = system
        assert nnls_outcome(_nnls, design, target) == nnls_outcome(
            scipy_nnls, design, target
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["design", "target"])
    def test_non_finite_input_raises_value_error_on_both(self, bad, where):
        design = np.vander(np.array([0.1, 0.2, 0.3]), 3, increasing=True)
        target = np.array([1.0, 2.0, 4.0])
        (design if where == "design" else target)[1] = bad
        assert nnls_outcome(_nnls, design, target) is ValueError
        assert nnls_outcome(scipy_nnls, design, target) is ValueError


class TestPrediction:
    def test_never_below_l0(self, simple_curve):
        assert simple_curve.predict(0.0) >= simple_curve.l0_ms

    def test_monotone_on_grid(self, simple_curve):
        grid = [i / 100 for i in range(0, 30)]
        predictions = simple_curve.predict_many(grid)
        assert all(b >= a - 1e-9 for a, b in zip(predictions, predictions[1:]))

    def test_monotone_correction_for_decreasing_fit(self):
        # A fit that initially decreases (negative linear term) must be
        # flattened by the monotone envelope.
        curve = WeightLatencyCurve(coefficients=(100.0, -10.0, 5.0), l0_ms=1.0, w_max=0.3)
        low = curve.predict(0.02)
        higher = curve.predict(0.06)
        assert higher >= low

    def test_monotone_correction_concave(self):
        # Concave parabola (a < 0) peaks mid-range; the envelope must not
        # decrease past the vertex.
        curve = WeightLatencyCurve(coefficients=(-100.0, 60.0, 2.0), l0_ms=1.0, w_max=0.5)
        at_vertex = curve.predict(0.3)
        beyond = curve.predict(0.5)
        assert beyond >= at_vertex - 1e-9

    def test_monotone_can_be_disabled(self):
        curve = WeightLatencyCurve(
            coefficients=(-100.0, 60.0, 2.0),
            l0_ms=0.0,
            w_max=0.5,
            enforce_monotone=False,
        )
        assert curve.predict(0.5) < curve.predict(0.3)

    def test_negative_weight_rejected(self, simple_curve):
        with pytest.raises(ConfigurationError):
            simple_curve.predict(-0.1)

    def test_predict_many_matches_predict(self, simple_curve):
        grid = [0.0, 0.05, 0.1]
        assert simple_curve.predict_many(grid).tolist() == [
            simple_curve.predict(w) for w in grid
        ]

    def test_high_degree_envelope_uses_grid(self):
        curve = WeightLatencyCurve(
            coefficients=(5.0, -3.0, 0.5, 1.0), l0_ms=0.5, w_max=1.0
        )
        values = [curve.predict(w) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestInversion:
    def test_round_trip(self, simple_curve):
        weight = 0.12
        latency = simple_curve.predict(weight)
        recovered = weights_for_latencies([simple_curve], [latency])[0]
        assert simple_curve.predict(recovered) == pytest.approx(latency, rel=1e-3)

    def test_latency_below_idle_maps_to_zero(self, simple_curve):
        assert weights_for_latencies([simple_curve], [0.1])[0] == 0.0

    def test_latency_above_range_returns_upper(self, simple_curve):
        upper = 0.3
        recovered = weights_for_latencies([simple_curve], [10_000.0], upper=upper)[0]
        assert recovered == pytest.approx(upper)

    def test_one_target_per_curve(self, simple_curve):
        # One target for two curves used to be broadcast to both.
        with pytest.raises(ConfigurationError, match="one target"):
            weights_for_latencies([simple_curve, simple_curve], [5.0])

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_target_is_refused(self, simple_curve, target):
        # A NaN target used to return ``upper``, so a NaN observation rescaled
        # the curve by ``w / upper``.
        with pytest.raises(ConfigurationError, match="finite"):
            weights_for_latencies([simple_curve], [target])
        with pytest.raises(ConfigurationError, match="finite"):
            shifted(simple_curve, 0.2, target)

    @pytest.mark.parametrize("upper", [float("nan"), float("inf"), [0.3, float("nan")]])
    def test_a_non_finite_upper_is_refused(self, simple_curve, upper):
        # ``upper=nan`` used to return NaN.
        with pytest.raises(ConfigurationError, match="upper"):
            weights_for_latencies([simple_curve, simple_curve], [5.0, 6.0], upper=upper)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_tol_must_be_finite_and_not_negative(self, simple_curve, tol):
        with pytest.raises(ConfigurationError, match="tol"):
            weights_for_latencies([simple_curve], [5.0], tol=tol)


class TestRescaling:
    def test_rescaled_shifts_weight_axis(self, simple_curve):
        shifted = simple_curve.rescaled(0.5)
        # Half the traffic capacity: the latency seen at w is the old latency at 2w.
        assert shifted.predict(0.05) == pytest.approx(simple_curve.predict(0.1), rel=1e-6)

    def test_rescaled_updates_w_max(self, simple_curve):
        shifted = simple_curve.rescaled(0.5)
        assert shifted.w_max == pytest.approx(simple_curve.w_max * 0.5)

    def test_rescaled_rejects_nonpositive(self, simple_curve):
        with pytest.raises(ConfigurationError):
            simple_curve.rescaled(0.0)

    def test_rescale_for_latency_shift_matches_observation(self, simple_curve):
        # Latency observed at weight 0.10 is what the curve predicted for 0.15:
        # capacity effectively dropped; the new curve must predict the observed
        # latency at 0.10.
        observed = simple_curve.predict(0.15)
        adjusted = shifted(simple_curve, 0.10, observed)
        assert adjusted.predict(0.10) == pytest.approx(observed, rel=0.02)

    def test_rescale_traffic_decrease_direction(self, simple_curve):
        # Observed latency at weight 0.15 matches what the curve predicted at
        # 0.10: there is more headroom, so predictions at a given weight drop.
        observed = simple_curve.predict(0.10)
        adjusted = shifted(simple_curve, 0.15, observed)
        assert adjusted.predict(0.15) <= simple_curve.predict(0.15) + 1e-9

    def test_rescale_requires_positive_weight(self, simple_curve):
        with pytest.raises(ConfigurationError):
            shifted(simple_curve, 0.0, 5.0)

    def test_paper_example_delta(self):
        """The §4.5 worked example: 5 ms at w=0.5, now 7 ms; w(7ms)=0.625 → δ=0.8."""
        # Linear curve: latency = 5 + 16*(w - 0.5) → 7 ms at 0.625.
        curve = WeightLatencyCurve(coefficients=(16.0, -3.0), l0_ms=1.0, w_max=1.0)
        assert curve.predict(0.5) == pytest.approx(5.0)
        assert weights_for_latencies([curve], [7.0])[0] == pytest.approx(0.625, rel=1e-3)
        adjusted = shifted(curve, 0.5, 7.0)
        assert adjusted.weight_scale == pytest.approx(0.8, rel=1e-3)


class TestValidation:
    def test_requires_coefficients(self):
        with pytest.raises(ConfigurationError):
            WeightLatencyCurve(coefficients=(), l0_ms=1.0, w_max=0.1)

    def test_rejects_negative_l0(self):
        with pytest.raises(ConfigurationError):
            WeightLatencyCurve(coefficients=(1.0,), l0_ms=-1.0, w_max=0.1)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigurationError):
            WeightLatencyCurve(coefficients=(1.0,), l0_ms=1.0, w_max=0.1, weight_scale=0.0)
