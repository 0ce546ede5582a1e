"""``grouped_quantiles`` is ``np.quantile`` / ``np.percentile`` per group, bit for bit.

Every quantile a run reports — the per-DIP p50 / p90 / p99, the headline and
window p50 / p99 and the comparison grids — comes from
:func:`repro.core.types.grouped_quantiles`: one sort per group on a copy and
numpy's ``linear`` interpolation (Hyndman & Fan's method 7).  The
oracle is numpy itself, called on each group alone, and results are
compared as their int64 bit patterns, so a ``-0.0`` for ``0.0`` or one ulp
of a different rounding fails.  The draws cover groups of one, two and
hundreds of values, empty groups, ties, ``±0.0`` (where numpy's answer
depends on how its partition left equal values), subnormal and huge
values, NaNs, every quantile set the code uses and arbitrary ``q``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.trace import dip_summary, records

from repro.core.types import grouped_quantiles
from repro.sim.trace import (
    MetricsCollector,
    fraction_of_requests_improved,
    max_latency_gain,
)

#: the percentile sets ``src/`` asks for, and the quantile grids.
PERCENTILE_SETS = [[50, 90, 99], [50, 99], [50, 90, 95, 99], [50], [99], [0, 100]]
QUANTILE_GRIDS = [
    np.linspace(0, 1, 100),
    np.linspace(0.01, 0.99, 99),
    np.linspace(0.05, 0.99, 95),
]

#: values that compare equal with different bits, or sit at the float edges.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, 1.0]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def grouped(draw):
    """Values in contiguous groups and the groups' bounds."""
    sizes = draw(
        st.lists(
            st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 12), st.integers(100, 700)),
            min_size=1,
            max_size=8,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["spread", "ties", "special", "signed zeros", "nan"]))
    total = sum(sizes)
    if kind == "spread":
        values = rng.exponential(3.0, total) * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    elif kind == "ties":  # few distinct values: long runs of equal ones
        values = rng.choice(rng.exponential(3.0, 3), total)
    elif kind == "special":
        values = rng.choice(SPECIAL, total)
    elif kind == "signed zeros":
        values = rng.choice([0.0, -0.0, 0.0, -0.0, 1.5, -2.0], total)
    else:
        values = rng.choice([np.nan, 1.0, 2.0, 3.0, -0.0, 0.0], total)
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    return values, bounds


@st.composite
def fractions(draw):
    how = draw(st.sampled_from(["percentiles", "grid", "arbitrary"]))
    if how == "percentiles":
        return np.true_divide(draw(st.sampled_from(PERCENTILE_SETS)), 100)
    if how == "grid":
        return draw(st.sampled_from(QUANTILE_GRIDS))
    return np.array(
        draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=True), min_size=1, max_size=7))
    )


@settings(max_examples=400, deadline=None)
@given(grouped(), fractions())
def test_each_group_is_numpys_quantile(case, q):
    values, bounds = case
    with np.errstate(all="ignore"):  # inf - inf, as numpy's own lerp meets it
        result = grouped_quantiles(values, bounds, q)
    assert result.shape == (len(bounds) - 1, q.size)
    for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo == hi:
            assert np.isnan(result[g]).all()
            continue
        with np.errstate(all="ignore"):
            expected = np.quantile(values[lo:hi], q)
        assert bits(result[g]) == bits(expected), (values[lo:hi], q)


@settings(max_examples=200, deadline=None)
@given(grouped(), st.sampled_from(PERCENTILE_SETS))
def test_a_percentile_is_the_quantile_numpy_divides_it_to(case, percentiles):
    values, bounds = case
    with np.errstate(all="ignore"):
        result = grouped_quantiles(values, bounds, np.true_divide(percentiles, 100))
    for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo < hi:
            with np.errstate(all="ignore"):
                expected = np.percentile(values[lo:hi], percentiles)
            assert bits(result[g]) == bits(expected)


def test_the_input_is_left_as_it_was():
    values = np.array([3.0, -0.0, 1.0, 0.0, 2.0])
    before = values.copy()
    grouped_quantiles(values, [0, 2, 5], np.array([0.5]))
    assert bits(values) == bits(before)


@pytest.mark.parametrize("q", [[-0.01], [1.01], [np.nan], [0.5, 2.0]])
def test_an_out_of_range_quantile_is_refused_as_numpy_refuses_it(q):
    with pytest.raises(ValueError, match=r"^Quantiles must be in the range \[0, 1\]$"):
        grouped_quantiles(np.arange(4.0), [0, 4], np.array(q))
    with pytest.raises(ValueError, match=r"^Quantiles must be in the range \[0, 1\]$"):
        np.quantile(np.arange(4.0), q)


@pytest.mark.parametrize("percentile", [-1, 100.5, float("nan")])
def test_an_out_of_range_percentile_is_refused_with_numpys_text(percentile):
    metrics = MetricsCollector()
    metrics.record_request("d", 1.0)
    message = r"^Percentiles must be in the range \[0, 100\]$"
    with pytest.raises(ValueError, match=message):
        metrics.percentile_latency_ms(percentile)
    with pytest.raises(ValueError, match=message):
        np.percentile(np.ones(1), percentile)


def collector(latencies, dips="abc") -> MetricsCollector:
    metrics = MetricsCollector()
    for index, latency in enumerate(latencies):
        dip = dips[index % len(dips)]
        metrics.record_request(dip, latency, completed=index % 7 != 3, timestamp=index * 0.01)
    return metrics


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 400))
def test_the_collector_folds_are_numpys(seed, size):
    rng = np.random.default_rng(seed)
    latencies = rng.exponential(3.0, size)
    if seed % 3 == 0:  # ties, zeros and a subnormal
        latencies = rng.choice([latencies[0], 0.0, 5e-324], size)
    metrics = collector(latencies.tolist())
    completed = metrics.latencies_ms()
    for p in (0, 50, 99, 99.9, 100):
        assert bits(metrics.percentile_latency_ms(p)) == bits(np.percentile(completed, p))
    head = metrics.headline(submitted=size, dropped=0, duration_s=1.0)
    assert bits([head["p50_latency_ms"], head["p99_latency_ms"]]) == bits(
        np.percentile(completed, [50, 99])
    )
    for dip, row in metrics.summaries().items():
        mine = metrics.latencies_ms(dips=[dip])
        expected = np.percentile(mine, [50, 90, 99]) if mine.size else [np.nan] * 3
        got = [row.p50_latency_ms, row.p90_latency_ms, row.p99_latency_ms]
        assert bits(got) == bits(expected)
        assert repr(row) == repr(dip_summary(metrics, dip))
    windows = metrics.window_rows(window_s=0.37, start_s=0.0, end_s=size * 0.01)
    for w, window in enumerate(windows):
        # The collector's own bucketing of a timestamp into a window.
        rows = [
            r.latency_ms
            for r in records(metrics)
            if r.completed and np.floor(r.timestamp / 0.37) == w
        ]
        got = [window["metrics"]["p50_latency_ms"], window["metrics"]["p99_latency_ms"]]
        expected = np.percentile(rows, [50, 99]) if rows else [np.nan] * 2
        assert bits(got) == bits(expected)


def test_the_comparisons_read_the_same_quantiles():
    rng = np.random.default_rng(7)
    base = collector(rng.exponential(4.0, 900).tolist())
    better = collector(rng.exponential(3.0, 700).tolist())
    a, b = np.sort(base.latencies_ms()), np.sort(better.latencies_ms())
    grid = np.linspace(0.01, 0.99, 99)
    assert fraction_of_requests_improved(base, better) == float(
        np.mean(np.quantile(b, grid) < np.quantile(a, grid))
    )
    grid = np.linspace(0.05, 0.99, 95)
    base_q, new_q = np.quantile(a, grid), np.quantile(b, grid)
    assert bits(max_latency_gain(base, better)) == bits(
        np.max((base_q - new_q) / np.maximum(base_q, 1e-9))
    )
