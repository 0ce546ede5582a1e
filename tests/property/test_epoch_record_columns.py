"""Differential tests: the grouped per-DIP fold and the epoch stations' columns.

``MetricsCollector.summaries`` groups the records by DIP once;
:func:`masked_summary` is the per-DIP pass over all records it replaced,
kept here as the oracle, and every value must be the same bit.
An epoch shard's station is a ``StationWalk`` that records a departure per
arrival and derives its columns at the end; fed one stream in any number of
slices it must return one block, and without a capacity change that block
is the one a single pass over the stream returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.trace import dip_summary, records

from repro.parallel.epoch import _mux_census
from repro.parallel.kernel import service_seed
from repro.parallel.shard import station_block
from repro.sim.queueing import StationWalk
from repro.sim.trace import DipSummary, MetricsCollector

DIPS = [f"DIP-{i + 1}" for i in range(12)]  # "DIP-10" sorts before "DIP-2"


def masked_summary(collector: MetricsCollector, dip: str, rows) -> DipSummary:
    """One DIP's summary from masks over every record."""
    latencies = collector.latencies_ms(dips=[dip])
    requests = sum(1 for record in rows if record.dip == dip)
    if latencies.size:
        p50, p90, p99 = np.percentile(latencies, [50, 90, 99])
        mean = float(latencies.mean())
    else:
        mean = p50 = p90 = p99 = float("nan")
    return DipSummary(
        dip=dip,
        requests=requests,
        mean_latency_ms=mean,
        p50_latency_ms=float(p50),
        p90_latency_ms=float(p90),
        p99_latency_ms=float(p99),
        cpu_utilization=collector.utilization().get(dip, float("nan")),
        drop_fraction=collector.drop_fraction(dips=[dip]),
    )


def same_bits(a: DipSummary, b: DipSummary) -> bool:
    return repr(a) == repr(b)  # so that NaN equals NaN


def rows_for(rng: np.random.Generator, count: int):
    """Interleaved rows over eight DIPs; DIP-3 only ever drops."""
    names = rng.choice(DIPS[:8], size=count)
    completed = (rng.random(count) < 0.85) & (names != "DIP-3")
    latency = np.where(completed, rng.exponential(3.0, count), np.nan)
    return names, latency, completed, np.sort(rng.uniform(0.0, 10.0, count))


def assert_fold_matches(collector: MetricsCollector, expected_dips: set[str]) -> None:
    summaries = collector.summaries()
    assert list(summaries) == sorted(expected_dips)
    rows = records(collector)
    for dip, row in summaries.items():
        assert same_bits(row, masked_summary(collector, dip, rows)), dip
        assert same_bits(row, dip_summary(collector, dip)), dip
    assert repr(collector.summary_rows()) == repr(
        {dip: row.to_row() for dip, row in summaries.items()}
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("resilience", [False, True])
def test_summaries_after_record_request(seed, resilience):
    rng = np.random.default_rng(seed)
    collector = MetricsCollector()
    if resilience:
        collector.enable_resilience_columns()
    count = int(rng.choice([0, 1, 300, 9000]))  # 9000 crosses a staging flush
    names, latency, completed, stamps = rows_for(rng, count)
    for row in range(count):
        if resilience and row % 3 == 0:
            collector.record_request_full(
                str(names[row]),
                None if np.isnan(latency[row]) else float(latency[row]),
                bool(completed[row]),
                float(stamps[row]),
                attempts=2,
                timed_out=row % 2 == 0,
                gave_up=not completed[row],
            )
        else:
            collector.record_request(
                str(names[row]),
                None if np.isnan(latency[row]) else float(latency[row]),
                bool(completed[row]),
                float(stamps[row]),
            )
    collector.record_utilization({"DIP-1": 0.5, "DIP-12": 0.25})  # DIP-12: no record
    assert_fold_matches(collector, set(names.tolist()) | {"DIP-1", "DIP-12"})


@pytest.mark.parametrize("seed", range(4))
def test_summaries_after_extend_columns(seed):
    rng = np.random.default_rng(100 + seed)
    collector = MetricsCollector()
    names, latency, completed, stamps = rows_for(rng, 4000)
    # Merge order is pool order, not sorted-id order; DIP-9 arrives empty.
    for dip in ["DIP-9", *DIPS[:8][::-1]]:
        rows = names == dip
        collector.extend_columns(dip, latency[rows], completed[rows], stamps[rows])
    collector.record_utilization({dip: 0.1 for dip in DIPS[:9]})
    assert_fold_matches(collector, set(DIPS[:9]))
    # ... and staged rows on top of merged columns un-group the codes.
    collector.record_request("DIP-8", 1.5, True, 11.0)
    collector.record_request("DIP-2", None, False, 11.5)
    assert_fold_matches(collector, set(DIPS[:9]))


@pytest.mark.parametrize("seed", range(4))
def test_summaries_after_adopt_run(seed):
    rng = np.random.default_rng(200 + seed)
    collector = MetricsCollector()
    names, latency, completed, stamps = rows_for(rng, 3000)
    index = np.array([DIPS.index(name) for name in names], dtype=np.int32)
    rng.shuffle(stamps)
    stamps[rng.random(stamps.size) < 0.01] = np.inf  # still in a station: no row
    collector.adopt_run(DIPS, latency, index, completed, stamps)
    recorded = {record.dip for record in records(collector)}
    assert_fold_matches(collector, recorded)


def test_headline_is_the_three_single_folds():
    rng = np.random.default_rng(9)
    collector = MetricsCollector()
    names, latency, completed, stamps = rows_for(rng, 5000)
    for dip in DIPS[:8]:
        rows = names == dip
        collector.extend_columns(dip, latency[rows], completed[rows], stamps[rows])
    headline = collector.headline(submitted=5000, dropped=40, duration_s=10.0)
    assert headline == {
        "mean_latency_ms": collector.mean_latency_ms(),
        "p50_latency_ms": collector.percentile_latency_ms(50),
        "p99_latency_ms": collector.percentile_latency_ms(99),
        "drop_fraction": 40 / 5000,
        "requests_submitted": 5000.0,
        "duration_s": 10.0,
    }
    empty = MetricsCollector().headline(submitted=0, dropped=0, duration_s=1.0)
    assert np.isnan(empty["mean_latency_ms"]) and np.isnan(empty["p99_latency_ms"])
    assert empty["drop_fraction"] == 0.0


# -- stations ---------------------------------------------------------------------------------


MEAN = 2.0 / 800.0


def station(*, queue_capacity: int) -> StationWalk:
    """The walk an epoch shard drives for DIP 3 (two workers, 800 rps) at seed 11."""
    draws = np.random.default_rng(service_seed(11, 3))
    return StationWalk(2, queue_capacity, draw=draws.standard_exponential, mean=MEAN)


def feed(sim: StationWalk, arrivals, muxes, slices: int, held: list) -> list:
    """``arrivals`` in ``slices`` calls, reading the barrier count after each
    (per MUX through ``held``, the census the shard carries, when given MUXes)."""
    counts = []
    for part in np.array_split(np.arange(arrivals.size), slices):
        if part.size:
            departures = sim.advance(arrivals[part])
            t = float(arrivals[part[-1]])
            if muxes is None:
                counts.append(sim.in_system(t))
            else:
                held[0], per_mux = _mux_census(held[0], departures, muxes[part], t, 3)
                counts.append(np.sum(per_mux))
    return counts


def finish(sim: StationWalk, measure_from: float) -> dict:
    return station_block("DIP-1", 2, sim.outcome(measure_from=measure_from))


def blocks_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[key], b[key], equal_nan=True)
        if isinstance(a[key], np.ndarray)
        else a[key] == b[key]
        for key in a
    )


@pytest.mark.parametrize("track_mux", [False, True])
@pytest.mark.parametrize("queue_capacity", [3, 256])
def test_station_blocks_do_not_depend_on_the_slicing(track_mux, queue_capacity):
    rng = np.random.default_rng(4)
    # 1.2x the station's capacity, 2.4x once it halves: the 3-slot queue drops
    # throughout, the 256-slot one after it has filled.
    arrivals = np.cumsum(rng.exponential(1.0 / 960.0, 3000))
    muxes = rng.integers(3, size=arrivals.size) if track_mux else None
    change = 1700  # a capacity event lands between two epochs
    blocks, at_change = [], []
    for slices in (1, 7, 500):
        sim = station(queue_capacity=queue_capacity)
        held = [(np.empty(0), np.empty(0, dtype=np.int64))]
        head_muxes, tail_muxes = np.split(muxes, [change]) if track_mux else (None, None)
        head = feed(sim, arrivals[:change], head_muxes, slices, held)
        sim.mean = MEAN / 0.5  # what a capacity event of factor 0.5 sets
        feed(sim, arrivals[change:], tail_muxes, slices, held)
        blocks.append(finish(sim, 0.4))
        at_change.append(head[-1])
    assert blocks_equal(blocks[0], blocks[1]) and blocks_equal(blocks[0], blocks[2])
    assert at_change[0] == at_change[1] == at_change[2]
    block = blocks[0]
    assert block["submitted"] == block["latency_ms"].size
    assert block["submitted"] == int((arrivals >= 0.4).sum())
    assert block["dropped"] == int((~block["completed"]).sum())
    assert 0 < block["dropped"] < block["submitted"]
    assert np.isnan(block["latency_ms"][~block["completed"]]).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    load=st.sampled_from([0.5, 0.95, 1.4]),
    queue_capacity=st.sampled_from([0, 2, 256]),
    slices=st.integers(1, 40),
    measure_from=st.sampled_from([0.0, 0.2]),
)
def test_station_is_simulate_station_carried_across_epochs(
    seed, load, queue_capacity, slices, measure_from
):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / (800.0 * load), 1200))
    sim = station(queue_capacity=queue_capacity)
    feed(sim, arrivals, None, slices, [])
    block = finish(sim, measure_from)

    # One pass over the stream, as a serial replay walks it.
    outcome = station(queue_capacity=queue_capacity).run(
        arrivals, measure_from=measure_from
    )
    assert np.array_equal(block["latency_ms"], outcome.latency_ms, equal_nan=True)
    assert np.array_equal(block["completed"], outcome.completed)
    assert np.array_equal(block["timestamp"], outcome.timestamp)
    assert (block["submitted"], block["dropped"]) == (outcome.submitted, outcome.dropped)
    assert block["busy_seconds"] == outcome.busy_seconds
