"""Parallel execution layer: shard-count scaling and sweep throughput.

The PR 2 streaming engine saturates one core; this bench measures what the
parallel layer adds on top, on the same 64-DIP / 2M-request workload:

* **kernel scaling** — sharded runs at 1/2/4 shards with ``workers=1``
  (every shard in-process).  The per-DIP M/M/c/K recursion is the
  single-core win: it needs no event heap, no callbacks and no per-request
  objects, so even one shard on one core beats the serial DES;
* **process fan-out** — 4 shards across 4 worker processes, each
  sending its record columns back on a pipe for the columnar merge.  This
  is the multi-core win; its speedup
  over ``workers=1`` is reported separately and the ≥2.5x floor is
  enforced only when the machine actually has ≥4 usable cores (CI does);
* **sweep throughput** — a 6-point request-level sweep through the warm
  :class:`~repro.parallel.pool.WorkerPool` vs the serial path;
* **stateful epoch sharding** — ``lc`` (routes on global connection
  counts, so it cannot shard exactly) through the epoch-synchronized
  engine: serial DES vs 4 epoch shards inline and across 4 workers.
  The ≥2x floor is enforced only on ≥4-cpu machines; the bit-identical
  repeat and inline==process checks are enforced everywhere;
* **timeline epoch sharding** — a ``dip_fail``/``dip_recover`` timeline
  under ``lc``, epoch-sharded vs serial, with the per-window event
  application asserted to line up between the two engines;
* **staleness cross-check** — :func:`repro.parallel.staleness_crosscheck`
  over ``sync_interval_s`` ∈ {0.001, 0.05, 0.25, 1.0}: the relative
  mean/p50/p99 and absolute drop-fraction error of the bounded-stale
  global view vs the serial engine (the 1ms row demonstrates sync→0
  convergence).  Ceilings on the ≤0.25s rows are enforced on every
  machine — staleness error is a property of the model, not the host.

Emits ``BENCH_parallel_engine.json``.  The acceptance floor is ≥3x
requests/s at 4 shards against the serial *event engine* (kernel +
whatever fan-out the hardware offers), plus bit-identical merged metrics
across repeats for the fixed seed and shard count.  The event engine is
driven explicitly (``begin`` / ``run_to`` / ``finish``): a plain serial
``execute`` of this ``rr`` spec replays each DIP's sub-stream through the
very recursion the shards run, so against it 4 in-process shards are only
≈1.6x ahead (bulk arrival generation, no event-order merge) — recorded as
``speedup_4shards_vs_replay``, without a floor: it is the evidence for
ROADMAP item 3(b) that exact-mode sharding no longer buys one run much.

Run directly (``PYTHONPATH=src python benchmarks/bench_parallel_engine.py``)
or under pytest-benchmark.  ``BENCH_PARALLEL_ENGINE_REQUESTS`` overrides
the request count for quick local runs; recorded JSON should come from the
full 2M-request setting.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from _harness import save_json, save_report

from repro.api.runners import build_request_cluster, execute
from repro.api.spec import (
    ControllerSpec,
    EventSpec,
    ExperimentSpec,
    PolicySpec,
    PoolSpec,
    TimelineSpec,
    VmSpec,
    WorkloadSpec,
)
from repro.api.sweep import Sweep
from repro.parallel import (
    ShardPlan,
    plan_shards,
    run_request_sharded,
    staleness_crosscheck,
)
from repro.parallel.pool import WorkerPool
from repro.workloads import split_dip_ids

NUM_DIPS = 64
NUM_REQUESTS = int(os.environ.get("BENCH_PARALLEL_ENGINE_REQUESTS", 2_000_000))
LOAD_FRACTION = 0.7
SPEEDUP_FLOOR = 3.0
WORKER_SCALING_FLOOR = 2.5
SWEEP_POINTS = 6
#: Epoch sharding pays per-barrier synchronization the exact engine does
#: not, so its floor is lower than the exact-decomposition floor above.
EPOCH_SPEEDUP_FLOOR = 2.0
#: The 1ms row shows sync→0 convergence (~1.4% mean error); the others
#: show the saturation regime the default 0.25s already sits in.
STALENESS_SYNC_INTERVALS = (0.001, 0.05, 0.25, 1.0)
STALENESS_LOAD_FRACTION = 0.6
#: Always-enforced error ceilings for the staleness table rows with
#: ``sync_interval_s <= 0.25`` (the default and tighter).  Calibrated from
#: the lc curve at 60% load on the 8-DIP spec — measured ~1.4% mean error
#: at 1ms, ~16-17% in the saturated 0.05-0.25s band — with ~1.7x headroom
#: for seed-to-seed noise (~0.6%).
STALENESS_CEILING = {
    "mean_rel": 0.30,
    "p50_rel": 0.35,
    "p99_rel": 0.25,
    "drop_abs": 0.02,
}


def bench_spec(num_requests: int = NUM_REQUESTS) -> ExperimentSpec:
    return ExperimentSpec(
        name="bench-parallel-engine",
        runner="request",
        pool=PoolSpec(
            kind="uniform",
            num_dips=NUM_DIPS,
            vm=VmSpec(name="bench-4core", vcpus=4, capacity_rps=1600.0),
        ),
        workload=WorkloadSpec(
            load_fraction=LOAD_FRACTION, num_requests=num_requests, warmup_s=1.0
        ),
        policy=PolicySpec(name="rr"),
        controller=ControllerSpec(enabled=False),
        seed=7,
    )


def stateful_spec(num_requests: int) -> ExperimentSpec:
    """The bench workload under ``lc`` — epoch-shardable, never exact."""
    return replace(
        bench_spec(num_requests),
        name="bench-parallel-epoch-lc",
        policy=PolicySpec(name="lc"),
    )


def timeline_spec(num_requests: int) -> ExperimentSpec:
    """``lc`` plus a mid-run DIP failure/recovery (epoch time-slicing)."""
    return replace(
        stateful_spec(num_requests),
        name="bench-parallel-epoch-timeline",
        timeline=TimelineSpec(
            events=(
                EventSpec(time_s=2.0, kind="dip_fail", dip="DIP-1"),
                EventSpec(time_s=4.0, kind="dip_recover", dip="DIP-1"),
            ),
            window_s=1.0,
            horizon_s=6.0,
        ),
    )


def staleness_spec(num_requests: int) -> ExperimentSpec:
    """A small 8-DIP ``lc`` workload for the sync-interval error table."""
    return ExperimentSpec(
        name="bench-epoch-staleness",
        runner="request",
        pool=PoolSpec(
            kind="uniform",
            num_dips=8,
            vm=VmSpec(name="bench-2core", vcpus=2, capacity_rps=800.0),
        ),
        workload=WorkloadSpec(
            load_fraction=STALENESS_LOAD_FRACTION,
            num_requests=num_requests,
            warmup_s=1.0,
        ),
        policy=PolicySpec(name="lc"),
        controller=ControllerSpec(enabled=False),
        seed=7,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed(func, *, repeats: int = 2):
    """Best-of-N wall time (same treatment for every configuration)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return result, best


def _one_shard_plan(spec: ExperimentSpec) -> ShardPlan:
    """A degenerate single-shard plan (the kernel with no fan-out at all).

    ``plan_shards`` maps ``shards=1`` to the serial engine by design — one
    shard is not a parallel run — so the kernel-only baseline builds its
    plan directly.
    """
    reference = plan_shards(spec, shards=2)
    assert reference.mode == "exact", reference.fallback_reason
    dip_ids = tuple(d for s in reference.dip_slices for d in s)
    return ShardPlan(
        shards=1,
        mode="exact",
        dip_slices=split_dip_ids(dip_ids, 1),
    )


def _event_engine_metrics(spec: ExperimentSpec) -> dict[str, float]:
    """``spec`` on the serial event engine, folded to the headline metrics."""
    cluster = build_request_cluster(spec)
    warmup = spec.workload.warmup_s
    duration = spec.workload.num_requests / cluster.workload.rate_rps
    cluster.begin(duration_s=duration, warmup_s=warmup)
    cluster.run_to(warmup + duration + 30.0)
    run = cluster.finish()
    return {
        "requests_submitted": float(run.requests_submitted),
        "mean_latency_ms": run.metrics.mean_latency_ms(),
        "p99_latency_ms": run.metrics.percentile_latency_ms(99),
    }


def run_parallel_engine_bench(*, num_requests: int = NUM_REQUESTS) -> dict:
    spec = bench_spec(num_requests)
    usable_cpus = _usable_cpus()

    # -- serial baselines: the PR 2 streaming DES, and the replay execute() runs --
    serial_metrics, serial_wall = _timed(lambda: _event_engine_metrics(spec))
    serial_rps = serial_metrics["requests_submitted"] / serial_wall
    replay_result, replay_wall = _timed(lambda: execute(spec))
    assert replay_result.provenance.station_path == "replay"
    replay_rps = replay_result.metrics["requests_submitted"] / replay_wall

    # -- kernel scaling: shards in-process (workers=1) ----------------------------
    sharded: dict[str, dict] = {}
    results = {}
    for shards in (1, 2, 4):
        plan = (
            _one_shard_plan(spec)
            if shards == 1
            else plan_shards(spec, shards=shards)
        )
        result, wall = _timed(
            lambda plan=plan: run_request_sharded(spec, plan, workers=1)
        )
        results[shards] = result
        sharded[str(shards)] = {
            "wall_s": wall,
            "requests_per_s": result.metrics["requests_submitted"] / wall,
            "mean_latency_ms": result.metrics["mean_latency_ms"],
            "p99_latency_ms": result.metrics["p99_latency_ms"],
        }

    # -- determinism: fixed seed + shard count => bit-identical metrics -----------
    repeat = run_request_sharded(spec, plan_shards(spec, shards=4), workers=1)
    bit_identical = (
        repeat.metrics == results[4].metrics
        and repeat.dip_summaries == results[4].dip_summaries
    )

    # -- process fan-out: 4 shards across 4 workers (columns back on pipes) -------
    plan4 = plan_shards(spec, shards=4)
    fanout_result, fanout_wall = _timed(
        lambda: run_request_sharded(spec, plan4, workers=4)
    )
    fanout_rps = fanout_result.metrics["requests_submitted"] / fanout_wall
    fanout_identical = fanout_result.metrics == results[4].metrics
    worker_scaling = fanout_rps / sharded["4"]["requests_per_s"]
    enforce_worker_floor = usable_cpus >= 4

    # -- sweep throughput through the warm pool -----------------------------------
    sweep_spec = bench_spec(max(20_000, num_requests // 40))
    sweep = Sweep.from_axes(
        sweep_spec,
        {"workload.load_fraction": [0.4 + 0.06 * i for i in range(SWEEP_POINTS)]},
    )
    _, sweep_serial_wall = _timed(lambda: sweep.run(), repeats=1)
    sweep_workers = min(4, usable_cpus) if usable_cpus > 1 else 2
    with WorkerPool(max_workers=sweep_workers) as pool:
        pool.map(len, [[0]] * sweep_workers)  # warm the interpreters
        _, sweep_pool_wall = _timed(lambda: sweep.run(pool=pool), repeats=1)

    # -- stateful epoch sharding: lc, serial DES vs 4 epoch shards ----------------
    lc_requests = max(20_000, num_requests // 4)
    lc_spec = stateful_spec(lc_requests)
    lc_serial, lc_serial_wall = _timed(lambda: execute(lc_spec))
    lc_plan = plan_shards(lc_spec, shards=4)
    assert lc_plan.mode == "epoch", lc_plan.fallback_reason
    lc_epoch, lc_epoch_wall = _timed(
        lambda: run_request_sharded(lc_spec, lc_plan, workers=1)
    )
    lc_fanout, lc_fanout_wall = _timed(
        lambda: run_request_sharded(lc_spec, lc_plan, workers=4)
    )
    lc_repeat = run_request_sharded(lc_spec, lc_plan, workers=1)
    lc_serial_rps = lc_serial.metrics["requests_submitted"] / lc_serial_wall
    lc_epoch_rps = lc_epoch.metrics["requests_submitted"] / lc_epoch_wall
    lc_fanout_rps = lc_fanout.metrics["requests_submitted"] / lc_fanout_wall
    lc_speedup = max(lc_epoch_rps, lc_fanout_rps) / lc_serial_rps
    lc_mean_rel = abs(
        lc_epoch.metrics["mean_latency_ms"] - lc_serial.metrics["mean_latency_ms"]
    ) / max(lc_serial.metrics["mean_latency_ms"], 1e-9)
    stateful_lc = {
        "num_requests": lc_requests,
        "sync_interval_s": lc_spec.sync_interval_s,
        "serial_wall_s": lc_serial_wall,
        "serial_requests_per_s": lc_serial_rps,
        "epoch_wall_s": lc_epoch_wall,
        "epoch_requests_per_s": lc_epoch_rps,
        "fanout_wall_s": lc_fanout_wall,
        "fanout_requests_per_s": lc_fanout_rps,
        "speedup_vs_serial": lc_speedup,
        "speedup_floor": EPOCH_SPEEDUP_FLOOR,
        "floor_enforced": usable_cpus >= 4,
        "mean_latency_rel_diff": lc_mean_rel,
        "bit_identical_repeat": (
            lc_repeat.metrics == lc_epoch.metrics
            and lc_repeat.dip_summaries == lc_epoch.dip_summaries
        ),
        "fanout_identical_to_inline": lc_fanout.metrics == lc_epoch.metrics,
    }

    # -- timeline epoch sharding: dip_fail/dip_recover under lc -------------------
    tl_spec = timeline_spec(lc_requests)
    tl_serial, tl_serial_wall = _timed(lambda: execute(tl_spec), repeats=1)
    tl_plan = plan_shards(tl_spec, shards=4)
    assert tl_plan.mode == "epoch", tl_plan.fallback_reason
    tl_epoch, tl_epoch_wall = _timed(
        lambda: run_request_sharded(tl_spec, tl_plan, workers=1), repeats=1
    )
    tl_repeat = run_request_sharded(tl_spec, tl_plan, workers=1)
    timeline = {
        # With a timeline the run lasts exactly the horizon; the spec's
        # num_requests does not apply.
        "horizon_s": tl_spec.timeline.horizon_s,
        "events": [e.kind for e in tl_spec.timeline.events],
        "serial_wall_s": tl_serial_wall,
        "epoch_wall_s": tl_epoch_wall,
        "serial_mean_latency_ms": tl_serial.metrics["mean_latency_ms"],
        "epoch_mean_latency_ms": tl_epoch.metrics["mean_latency_ms"],
        "serial_drop_fraction": tl_serial.metrics["drop_fraction"],
        "epoch_drop_fraction": tl_epoch.metrics["drop_fraction"],
        "windows": len(tl_epoch.windows),
        "window_events_match_serial": (
            [w.events for w in tl_epoch.windows]
            == [w.events for w in tl_serial.windows]
        ),
        "bit_identical_repeat": (
            tl_repeat.metrics == tl_epoch.metrics
            and [w.metrics for w in tl_repeat.windows]
            == [w.metrics for w in tl_epoch.windows]
        ),
    }

    # -- staleness: epoch error vs serial as a function of sync_interval_s --------
    staleness_requests = max(20_000, num_requests // 50)
    staleness = staleness_crosscheck(
        staleness_spec(staleness_requests),
        shards=4,
        sync_intervals=STALENESS_SYNC_INTERVALS,
        workers=1,
    )
    staleness["num_requests"] = staleness_requests
    staleness["ceiling"] = dict(STALENESS_CEILING)
    staleness["ceiling_max_interval_s"] = 0.25

    best_shards4_rps = max(sharded["4"]["requests_per_s"], fanout_rps)
    speedup = best_shards4_rps / serial_rps
    latency_rel_diff = abs(
        results[4].metrics["mean_latency_ms"] - serial_metrics["mean_latency_ms"]
    ) / max(serial_metrics["mean_latency_ms"], 1e-9)

    return {
        "scale": {
            "num_dips": NUM_DIPS,
            "num_requests": num_requests,
            "load_fraction": LOAD_FRACTION,
            "usable_cpus": usable_cpus,
        },
        "serial_engine": {
            "wall_s": serial_wall,
            "requests_per_s": serial_rps,
            "mean_latency_ms": serial_metrics["mean_latency_ms"],
            "p99_latency_ms": serial_metrics["p99_latency_ms"],
        },
        "serial_replay": {
            "wall_s": replay_wall,
            "requests_per_s": replay_rps,
            "metrics_identical_to_event_engine": all(
                replay_result.metrics[key] == value
                for key, value in serial_metrics.items()
            ),
        },
        "sharded_workers_1": sharded,
        "process_fanout": {
            "shards": 4,
            "workers": 4,
            "wall_s": fanout_wall,
            "requests_per_s": fanout_rps,
            "scaling_vs_1_worker": worker_scaling,
            "scaling_floor": WORKER_SCALING_FLOOR,
            "floor_enforced": enforce_worker_floor,
            "metrics_identical_to_inline": fanout_identical,
        },
        "sweep": {
            "points": SWEEP_POINTS,
            "requests_per_point": sweep_spec.workload.num_requests,
            "serial_wall_s": sweep_serial_wall,
            "pool_wall_s": sweep_pool_wall,
            "pool_workers": sweep_workers,
            "serial_specs_per_s": SWEEP_POINTS / sweep_serial_wall,
            "pool_specs_per_s": SWEEP_POINTS / sweep_pool_wall,
        },
        "stateful_lc": stateful_lc,
        "timeline": timeline,
        "staleness": staleness,
        "speedup_4shards_vs_serial": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_4shards_vs_replay": best_shards4_rps / replay_rps,
        "latency_rel_diff": latency_rel_diff,
        "bit_identical_repeat": bit_identical,
    }


def _render(results: dict) -> str:
    scale = results["scale"]
    serial = results["serial_engine"]
    fanout = results["process_fanout"]
    lines = [
        f"scale                      : {scale['num_dips']} DIPs, "
        f"{scale['num_requests']:,} requests @ {scale['load_fraction']:.0%} load "
        f"({scale['usable_cpus']} usable cpus)",
        f"serial engine (PR 2 DES)   : {serial['wall_s']:.2f} s "
        f"({serial['requests_per_s']:,.0f} req/s)",
        f"serial replay (execute)    : {results['serial_replay']['wall_s']:.2f} s "
        f"({results['serial_replay']['requests_per_s']:,.0f} req/s; 4 shards are "
        f"{results['speedup_4shards_vs_replay']:.2f}x that, no floor)",
    ]
    for shards, row in results["sharded_workers_1"].items():
        lines.append(
            f"sharded x{shards} (in-process)  : {row['wall_s']:.2f} s "
            f"({row['requests_per_s']:,.0f} req/s)"
        )
    lines += [
        f"4 shards x 4 workers       : {fanout['wall_s']:.2f} s "
        f"({fanout['requests_per_s']:,.0f} req/s, "
        f"{fanout['scaling_vs_1_worker']:.2f}x vs 1 worker, floor "
        f"{fanout['scaling_floor']}x "
        f"{'enforced' if fanout['floor_enforced'] else 'not enforced (<4 cpus)'})",
        f"sweep ({results['sweep']['points']} pts)             : "
        f"{results['sweep']['serial_specs_per_s']:.2f} specs/s serial vs "
        f"{results['sweep']['pool_specs_per_s']:.2f} specs/s with "
        f"{results['sweep']['pool_workers']} pooled workers",
        f"speedup (4 shards)         : {results['speedup_4shards_vs_serial']:.1f}x "
        f"(floor {results['speedup_floor']:.0f}x)",
        f"mean latency               : serial {serial['mean_latency_ms']:.3f} ms vs "
        f"sharded {results['sharded_workers_1']['4']['mean_latency_ms']:.3f} ms "
        f"({results['latency_rel_diff']:.2%} apart)",
        f"bit-identical repeat       : {results['bit_identical_repeat']}",
    ]
    lc = results["stateful_lc"]
    tl = results["timeline"]
    lines += [
        f"epoch lc ({lc['num_requests']:,} reqs)   : serial "
        f"{lc['serial_wall_s']:.2f} s vs epoch x4 {lc['epoch_wall_s']:.2f} s "
        f"inline / {lc['fanout_wall_s']:.2f} s x4 workers "
        f"({lc['speedup_vs_serial']:.1f}x, floor {lc['speedup_floor']:.0f}x "
        f"{'enforced' if lc['floor_enforced'] else 'not enforced (<4 cpus)'}; "
        f"mean {lc['mean_latency_rel_diff']:.2%} from serial at "
        f"sync={lc['sync_interval_s']:g}s)",
        f"epoch timeline (dip_fail)  : serial {tl['serial_wall_s']:.2f} s vs "
        f"epoch {tl['epoch_wall_s']:.2f} s, {tl['windows']} windows, "
        f"window events match serial: {tl['window_events_match_serial']}, "
        f"bit-identical repeat: {tl['bit_identical_repeat']}",
        "staleness vs sync interval : mean_rel / p99_rel / drop_abs "
        f"(ceiling {results['staleness']['ceiling']['mean_rel']:.0%} / "
        f"{results['staleness']['ceiling']['p99_rel']:.0%} / "
        f"{results['staleness']['ceiling']['drop_abs']:.2f} on "
        f"intervals <= {results['staleness']['ceiling_max_interval_s']:g}s)",
    ]
    for interval, row in sorted(results["staleness"]["epoch"].items()):
        lines.append(
            f"  sync={float(interval):<5g}s            : "
            f"{row['mean_rel']:.2%} / {row['p99_rel']:.2%} / "
            f"{row['drop_abs']:.4f}"
        )
    return "\n".join(lines)


def _check(results: dict) -> None:
    assert results["speedup_4shards_vs_serial"] >= results["speedup_floor"], (
        f"parallel-engine speedup {results['speedup_4shards_vs_serial']:.2f}x "
        f"below floor {results['speedup_floor']}x"
    )
    # Both paths estimate the same M/M/c/K system; means must agree closely.
    assert results["latency_rel_diff"] < 0.05
    # The serial replay is the event engine's run, to the last bit.
    assert results["serial_replay"]["metrics_identical_to_event_engine"]
    # Fixed seed + shard count must reproduce the merged metrics exactly,
    # and the process fan-out must match the in-process path.
    assert results["bit_identical_repeat"]
    assert results["process_fanout"]["metrics_identical_to_inline"]
    fanout = results["process_fanout"]
    if fanout["floor_enforced"]:
        assert fanout["scaling_vs_1_worker"] >= fanout["scaling_floor"], (
            f"4-worker scaling {fanout['scaling_vs_1_worker']:.2f}x below "
            f"floor {fanout['scaling_floor']}x on "
            f"{results['scale']['usable_cpus']} cpus"
        )
    # Epoch sharding: determinism holds on any machine; the speedup floor
    # only where the hardware can express it.
    lc = results["stateful_lc"]
    assert lc["bit_identical_repeat"]
    assert lc["fanout_identical_to_inline"]
    if lc["floor_enforced"]:
        assert lc["speedup_vs_serial"] >= lc["speedup_floor"], (
            f"epoch lc speedup {lc['speedup_vs_serial']:.2f}x below floor "
            f"{lc['speedup_floor']}x on {results['scale']['usable_cpus']} cpus"
        )
    tl = results["timeline"]
    assert tl["window_events_match_serial"]
    assert tl["bit_identical_repeat"]
    # Staleness ceilings are a property of the epoch model, not the host:
    # enforce them everywhere for every interval at or under the default.
    ceiling = results["staleness"]["ceiling"]
    max_interval = results["staleness"]["ceiling_max_interval_s"]
    for interval, row in results["staleness"]["epoch"].items():
        if float(interval) > max_interval:
            continue
        for key, limit in ceiling.items():
            assert row[key] <= limit, (
                f"staleness {key}={row[key]:.4f} at sync={interval}s "
                f"exceeds ceiling {limit}"
            )


def test_parallel_engine_speedup(benchmark):
    results = benchmark.pedantic(run_parallel_engine_bench, rounds=1, iterations=1)
    save_report("parallel_engine", _render(results))
    save_json("BENCH_parallel_engine", results)
    _check(results)


if __name__ == "__main__":
    bench_results = run_parallel_engine_bench()
    save_report("parallel_engine", _render(bench_results))
    save_json("BENCH_parallel_engine", bench_results)
    _check(bench_results)
    print("ok")
