"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.backends.latency_model import LatencyModel, erlang_c, scaled_model
from repro.core.curve import (
    WeightLatencyCurve,
    fit_curve,
    predict_curves,
    weights_for_latencies,
)
from repro.core.exploration import ExplorationState
from repro.core.config import ExplorationConfig
from repro.core.types import MeasurementPoint, normalize_weights
from repro.exceptions import ConfigurationError
from repro.lb.base import FlowKey
from repro.lb.round_robin import WeightedRoundRobin
from repro.solver import AssignmentProblem, DipCandidates, SolveStatus, solve_branch_and_bound, solve_greedy

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

weights_in_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
latencies = st.floats(min_value=0.1, max_value=500.0, allow_nan=False)


@st.composite
def measurement_points(draw, min_size=3, max_size=10):
    """A sorted set of distinct-weight measurement points."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    raw_weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    values = draw(st.lists(latencies, min_size=size, max_size=size))
    return [
        MeasurementPoint(weight=w, latency_ms=l)
        for w, l in zip(sorted(raw_weights), values)
    ]


@st.composite
def assignment_problems(draw):
    """Small feasible-ish multiple-choice knapsack instances."""
    num_dips = draw(st.integers(min_value=1, max_value=4))
    dips = []
    for index in range(num_dips):
        count = draw(st.integers(min_value=2, max_value=4))
        weight_values = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
        )
        latency_values = draw(st.lists(latencies, min_size=count, max_size=count))
        dips.append(
            DipCandidates(
                dip=f"d{index}",
                weights=tuple(weight_values),
                latencies_ms=tuple(latency_values),
            )
        )
    return AssignmentProblem(
        dips=tuple(dips), total_weight=1.0, total_weight_tolerance=0.05
    )


# ---------------------------------------------------------------------------
# curve fitting
# ---------------------------------------------------------------------------


class TestCurveProperties:
    @given(points=measurement_points())
    @settings(max_examples=60, deadline=None)
    def test_fitted_curve_is_monotone_and_above_l0(self, points):
        curve = fit_curve(points)
        grid = [i / 50 for i in range(26)]
        values = [curve.predict(w) for w in grid]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert all(v >= curve.l0_ms - 1e-9 for v in values)

    @given(points=measurement_points(), delta=st.floats(min_value=0.2, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_rescaling_round_trips(self, points, delta):
        curve = fit_curve(points)
        back = curve.rescaled(delta).rescaled(1.0 / delta)
        for weight in (0.0, 0.1, 0.3):
            assert back.predict(weight) == pytest.approx(curve.predict(weight), rel=1e-6)

    @given(points=measurement_points(), latency=st.floats(min_value=0.5, max_value=400.0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_is_consistent(self, points, latency):
        curve = fit_curve(points)
        weight = weights_for_latencies([curve], [latency], upper=1.0)[0]
        assert 0.0 <= weight <= 1.0
        if 0.0 < weight < 1.0:
            # At the returned weight the curve has just reached the latency.
            assert curve.predict(weight) >= latency - 1e-6


def scalar_predict(curve: WeightLatencyCurve, weight: float) -> float:
    """``predict`` one weight at a time, as it was before the array kernel.

    The reference ``predict_many`` is held to: one scalar ``np.polyval`` per
    point of interest and Python ``max`` over the candidates.
    """
    if weight < 0:
        raise ConfigurationError("weight must be >= 0")

    def raw(w: float) -> float:
        return float(np.polyval(curve.coefficients, w / curve.weight_scale))

    value = raw(weight)
    if curve.enforce_monotone:
        candidates = [raw(0.0), value]
        if curve.degree == 2:
            a, b, _ = curve.coefficients
            if a < 0 and abs(a) > 1e-15:
                vertex = -b / (2 * a) * curve.weight_scale
                if 0.0 < vertex < weight:
                    candidates.append(raw(vertex))
        elif curve.degree > 2:
            grid = np.linspace(0.0, weight, 64)
            candidates.extend(
                float(v) for v in np.polyval(curve.coefficients, grid / curve.weight_scale)
            )
        value = max(candidates)
    return max(curve.l0_ms, value)


class TestPredictManyMatchesScalarReference:
    @given(
        coefficients=st.lists(
            st.floats(min_value=-300.0, max_value=300.0), min_size=2, max_size=4
        ),
        l0_ms=st.floats(min_value=0.0, max_value=20.0),
        weight_scale=st.floats(min_value=0.1, max_value=5.0),
        enforce_monotone=st.booleans(),
        weights=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=12),
    )
    # A concave parabola whose vertex (0.3; 0.6 once rescaled) lies inside
    # (0, w) for some weights, on the boundary for one and outside for others,
    # then one whose vertex is negative.
    @example((-100.0, 60.0, 2.0), 1.0, 1.0, True, [0.1, 0.3, 0.5, 1.0])
    @example((-100.0, 60.0, 2.0), 1.0, 2.0, True, [0.3, 0.6, 0.7, 1.2])
    @example((-100.0, 60.0, 2.0), 1.0, 1.0, False, [0.1, 0.5])
    @example((-100.0, -60.0, 2.0), 0.5, 1.0, True, [0.2, 0.9])
    @example((5.0, -3.0, 0.5, 1.0), 0.5, 0.7, True, [0.25, 0.5, 1.0])
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_last_bit(
        self, coefficients, l0_ms, weight_scale, enforce_monotone, weights
    ):
        curve = WeightLatencyCurve(
            coefficients=tuple(coefficients),
            l0_ms=l0_ms,
            w_max=1.0,
            weight_scale=weight_scale,
            enforce_monotone=enforce_monotone,
        )
        weights = [0.0, *weights]
        expected = [scalar_predict(curve, w) for w in weights]
        assert curve.predict_many(weights).tolist() == expected
        assert [curve.predict(w) for w in weights] == expected
        with pytest.raises(ConfigurationError):
            curve.predict_many([*weights, -0.1])


@st.composite
def bank_curves(draw):
    """One curve of a bank: degree 0-3, envelope on or off, maybe rescaled."""
    degree = draw(st.integers(min_value=0, max_value=3))
    curve = WeightLatencyCurve(
        coefficients=tuple(
            draw(
                st.lists(
                    st.floats(min_value=-300.0, max_value=300.0),
                    min_size=degree + 1,
                    max_size=degree + 1,
                )
            )
        ),
        l0_ms=draw(st.floats(min_value=0.0, max_value=20.0)),
        w_max=draw(st.floats(min_value=0.0, max_value=1.0)),
        weight_scale=draw(st.floats(min_value=0.1, max_value=5.0)),
        enforce_monotone=draw(st.booleans()),
    )
    if draw(st.booleans()):
        curve = curve.rescaled(draw(st.floats(min_value=0.2, max_value=3.0)))
    return curve


def curve(coefficients, *, scale=1.0, monotone=True, l0=1.0, w_max=0.5):
    return WeightLatencyCurve(
        coefficients=coefficients,
        l0_ms=l0,
        w_max=w_max,
        weight_scale=scale,
        enforce_monotone=monotone,
    )


#: a bank mixing every case of the envelope: concave parabolas whose vertex
#: (0.3; 0.6 once rescaled) lies inside (0, w) for some weights, on w for one
#: and outside for others, one with a negative vertex, one without the
#: envelope, a degree-3 scan, a line and a constant.
MIXED_BANK = [
    curve((-100.0, 60.0, 2.0)),
    curve((-100.0, 60.0, 2.0)).rescaled(2.0),
    curve((-100.0, -60.0, 2.0), l0=0.5),
    curve((-100.0, 60.0, 2.0), monotone=False),
    curve((5.0, -3.0, 0.5, 1.0), scale=0.7, l0=0.5),
    curve((20.0, 2.0)),
    curve((4.0,)),
]


@st.composite
def banks(draw):
    """Curves and a weight row for each, all rows one width (maybe zero)."""
    curves = draw(st.lists(bank_curves(), min_size=1, max_size=8))
    width = draw(st.integers(min_value=0, max_value=6))
    row = st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=width, max_size=width)
    weights = draw(st.lists(row, min_size=len(curves), max_size=len(curves)))
    return curves, np.array(weights).reshape(len(curves), width)


class TestPredictCurvesMatchesScalarReference:
    """The bank kernel, row by row, against ``predict`` one weight at a time."""

    @given(bank=banks())
    @example(bank=(MIXED_BANK, np.tile([0.0, 0.1, 0.3, 0.6, 0.7, 1.2], (len(MIXED_BANK), 1))))
    @example(bank=(MIXED_BANK, np.zeros((len(MIXED_BANK), 0))))
    @settings(max_examples=150, deadline=None)
    def test_every_row_equal_to_the_last_bit(self, bank):
        curves, weights = bank
        expected = [[scalar_predict(c, w) for w in row] for c, row in zip(curves, weights.tolist())]
        got = predict_curves(curves, weights)
        assert got.shape == weights.shape
        assert got.tolist() == expected

    def test_a_dense_row_through_the_scan(self):
        # The cubic's envelope holds its interior peak (w ≈ 0.083) up to
        # w ≈ 0.25, where the scan's points decide the last bit.
        weights = np.linspace(0.05, 0.3, 200)
        got = predict_curves(MIXED_BANK[4:5], weights[None, :])[0].tolist()
        assert got == [scalar_predict(MIXED_BANK[4], w) for w in weights.tolist()]

    def test_refusals(self):
        with pytest.raises(ConfigurationError):
            predict_curves(MIXED_BANK, [[0.1, -0.1]] * len(MIXED_BANK))
        with pytest.raises(ConfigurationError):
            predict_curves(MIXED_BANK, [[0.1]])  # not one row per curve


def bisection_oracle(
    curve: WeightLatencyCurve, latency_ms: float, *, upper: float | None = None, tol: float = 1e-6
) -> float:
    """A curve's inversion as it was before the bank kernel, one curve at a
    time over :func:`scalar_predict`."""
    upper = upper if upper is not None else max(curve.w_max, 1e-3) * 2.0
    if latency_ms <= scalar_predict(curve, 0.0):
        return 0.0
    if scalar_predict(curve, upper) < latency_ms:
        return upper
    lo, hi = 0.0, upper
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if scalar_predict(curve, mid) >= latency_ms:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return hi


class TestWeightsForLatenciesMatchesBisection:
    """Four levels of every curve's bisection tree per kernel call, against
    one bisection per curve: the same halvings, the same weight."""

    @given(
        curves=st.lists(bank_curves(), min_size=1, max_size=6),
        data=st.data(),
        upper=st.sampled_from(["default", "shared", "per-curve"]),
        tol=st.sampled_from([1e-6, 1e-3, 0.1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_weight_per_curve(self, curves, data, upper, tol):
        latencies = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1000.0),
                min_size=len(curves),
                max_size=len(curves),
            )
        )
        if upper == "default":
            uppers, kwargs = [None] * len(curves), {}
        elif upper == "shared":
            shared = data.draw(st.floats(min_value=0.0, max_value=3.0))
            uppers, kwargs = [shared] * len(curves), {"upper": shared}
        else:
            uppers = data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=3.0),
                    min_size=len(curves),
                    max_size=len(curves),
                )
            )
            kwargs = {"upper": uppers}
        expected = [
            bisection_oracle(c, latency, upper=u, tol=tol)
            for c, latency, u in zip(curves, latencies, uppers)
        ]
        assert weights_for_latencies(curves, latencies, tol=tol, **kwargs).tolist() == expected

    def test_both_early_returns_and_the_walk_in_one_bank(self):
        # At/below the prediction at 0, past the prediction at ``upper``, and
        # in between, for every kind of row of the mixed bank.
        latencies = [0.0, 1e6, 3.0, 4.0, 2.5, 5.0, 4.0]
        got = weights_for_latencies(MIXED_BANK, latencies).tolist()
        assert got == [bisection_oracle(c, x) for c, x in zip(MIXED_BANK, latencies)]
        assert got[0] == 0.0 and got[1] == max(MIXED_BANK[1].w_max, 1e-3) * 2.0
        assert 0.0 < got[5] < 1.0

    def test_the_200_halving_cap(self):
        # With no tolerance every bisection runs its 200 halvings: from
        # [0, 1] the bracket stops shrinking at adjacent floats long before,
        # from [0, 1e300] it is still 2**-200 of that wide when the cap ends it.
        latencies = [3.0, 3.5, 2.5, 2.5, 1.2, 5.0, 4.0]
        got = weights_for_latencies(MIXED_BANK, latencies, upper=1.0, tol=0.0).tolist()
        assert got == [
            bisection_oracle(c, x, upper=1.0, tol=0.0) for c, x in zip(MIXED_BANK, latencies)
        ]
        line = MIXED_BANK[5]
        capped = weights_for_latencies([line], [5.0], upper=1e300, tol=0.0)[0]
        assert capped == bisection_oracle(line, 5.0, upper=1e300, tol=0.0)
        assert 1e300 * 2.0**-201 < capped <= 1e300 * 2.0**-200

    def test_empty_bank_and_a_negative_upper(self):
        assert weights_for_latencies([], []).shape == (0,)
        with pytest.raises(ConfigurationError):
            weights_for_latencies(MIXED_BANK[:1], [3.0], upper=-1.0)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


class TestSolverProperties:
    @given(problem=assignment_problems())
    @settings(max_examples=40, deadline=None)
    def test_branch_and_bound_solutions_are_feasible(self, problem):
        result = solve_branch_and_bound(problem)
        if result.status.has_solution:
            assert abs(result.total_weight - 1.0) <= problem.total_weight_tolerance + 1e-9
            assert set(result.weights) == set(problem.dip_ids())
            assert result.objective_ms == pytest.approx(
                problem.objective_of(result.selection)
            )
        else:
            assert result.status in (SolveStatus.INFEASIBLE, SolveStatus.TIMEOUT)

    @given(problem=assignment_problems())
    @settings(max_examples=40, deadline=None)
    def test_greedy_never_beats_exact(self, problem):
        exact = solve_branch_and_bound(problem)
        heuristic = solve_greedy(problem)
        if exact.status.has_solution and heuristic.status.has_solution:
            assert heuristic.objective_ms >= exact.objective_ms - 1e-6

    @given(problem=assignment_problems())
    @settings(max_examples=30, deadline=None)
    def test_exact_solution_is_optimal_over_enumeration(self, problem):
        assume(problem.num_variables <= 4 ** 3)
        result = solve_branch_and_bound(problem)
        # Brute-force enumeration for small instances.
        import itertools

        best = None
        ranges = [range(c.count) for c in problem.dips]
        for combo in itertools.product(*ranges):
            selection = {c.dip: j for c, j in zip(problem.dips, combo)}
            total = sum(problem.weights_of(selection).values())
            if abs(total - problem.total_weight) <= problem.total_weight_tolerance:
                cost = problem.objective_of(selection)
                if best is None or cost < best:
                    best = cost
        if best is None:
            assert not result.status.has_solution
        else:
            assert result.status.has_solution
            assert result.objective_ms == pytest.approx(best, rel=1e-9)


# ---------------------------------------------------------------------------
# latency model
# ---------------------------------------------------------------------------


class TestLatencyModelProperties:
    @given(
        servers=st.integers(min_value=1, max_value=16),
        capacity=st.floats(min_value=50.0, max_value=5000.0),
        load_a=st.floats(min_value=0.0, max_value=1.5),
        load_b=st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_latency_monotone_in_load(self, servers, capacity, load_a, load_b):
        model = LatencyModel(servers=servers, capacity_rps=capacity, idle_latency_ms=1000 * servers / capacity)
        low, high = sorted((load_a, load_b))
        assert model.mean_latency_ms(high * capacity) >= model.mean_latency_ms(low * capacity) - 1e-9

    @given(
        servers=st.integers(min_value=1, max_value=8),
        load=st.floats(min_value=0.0, max_value=7.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_erlang_c_is_probability(self, servers, load):
        assume(load <= servers)
        value = erlang_c(servers, load)
        assert 0.0 <= value <= 1.0

    @given(
        capacity=st.floats(min_value=100.0, max_value=2000.0),
        factor=st.floats(min_value=0.1, max_value=1.0),
        load=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_loss_never_reduces_latency(self, capacity, factor, load):
        model = LatencyModel(servers=2, capacity_rps=capacity, idle_latency_ms=2000 / capacity)
        squeezed = scaled_model(model, factor)
        rate = load * capacity * factor
        assert squeezed.mean_latency_ms(rate) >= model.mean_latency_ms(rate) - 1e-9


# ---------------------------------------------------------------------------
# weights and WRR
# ---------------------------------------------------------------------------


class TestWeightProperties:
    @given(
        raw=st.dictionaries(
            st.sampled_from([f"d{i}" for i in range(6)]),
            st.floats(min_value=0.0, max_value=10.0),
            min_size=1,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_normalize_weights_sums_to_one(self, raw):
        assume(sum(raw.values()) > 0)
        normalized = normalize_weights(raw)
        assert math.isclose(sum(normalized.values()), 1.0, rel_tol=1e-9)
        for dip, value in normalized.items():
            assert value >= 0

    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=5
        ),
        requests=st.integers(min_value=200, max_value=600),
    )
    @settings(max_examples=25, deadline=None)
    def test_smooth_wrr_tracks_weights(self, weights, requests):
        assume(sum(weights) > 0.1)
        dips = [f"d{i}" for i in range(len(weights))]
        weight_map = dict(zip(dips, weights))
        policy = WeightedRoundRobin(dips, weights=weight_map)
        counts = {dip: 0 for dip in dips}
        for index in range(requests):
            flow = FlowKey(src_ip="10.0.0.1", src_port=index + 1, dst_ip="vip", dst_port=80)
            counts[policy.select(flow)] += 1
        total_weight = sum(weights)
        for dip, weight in weight_map.items():
            expected = weight / total_weight
            assert counts[dip] / requests == pytest.approx(expected, abs=0.05)


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------


class TestExplorationProperties:
    @given(
        l0=st.floats(min_value=0.5, max_value=10.0),
        capacity_weight=st.floats(min_value=0.05, max_value=0.6),
        initial=st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_exploration_terminates_and_respects_capacity(
        self, l0, capacity_weight, initial
    ):
        state = ExplorationState(
            dip="d",
            l0_ms=l0,
            initial_weight=initial,
            config=ExplorationConfig(max_iterations=30),
        )
        iterations = 0
        while not state.done and iterations < 60:
            weight = state.propose()
            latency = l0 * (1.0 + 3.0 * (weight / capacity_weight) ** 2)
            dropped = weight > capacity_weight * 1.05
            state.observe(weight, latency, dropped=dropped)
            iterations += 1
        assert state.done
        assert iterations <= 30
        # w_max never exceeds the true capacity-equivalent weight by much.
        assert state.effective_w_max() <= min(1.0, capacity_weight * 1.05) + 1e-9
        # Every proposal stays within [min_weight, 1].
        for step in state.history:
            assert 0 < step.next_weight <= 1.0
