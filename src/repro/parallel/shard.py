"""Execute a shard plan and fold the shards into one ``RunResult``.

One worker task per shard: the worker deterministically regenerates the
VIP-wide arrival stream from the run seed (see
:mod:`repro.parallel.kernel`), keeps its own DIPs' sub-streams, runs the
per-station kernel, and hands the arrival-ordered record columns back —
either inline (``workers <= 1``, no processes at all) or through
``multiprocessing.shared_memory`` so the parent merges raw numpy buffers
instead of unpickling per-request rows.

The merge is deterministic by construction: shard slices are contiguous in
pool order and shards are folded in index order, so the merged columnar
metrics (summaries, percentiles, ``window_rows``) are bit-identical across
repeats for a fixed seed — and in fact independent of the shard count,
because every per-DIP stream is keyed by the DIP's global pool index.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.parallel.kernel import (
    StationOutcome,
    build_dip_arrival_streams,
    service_seed,
    simulate_station,
)
from repro.sim.trace import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runners import us lazily)
    from multiprocessing import shared_memory

    from repro.api.result import RunResult
    from repro.api.spec import ExperimentSpec
    from repro.parallel.planner import ShardPlan
    from repro.parallel.pool import WorkerPool

#: queue length per DIP station, matching RequestCluster's default.
QUEUE_CAPACITY = 256


def open_segment(
    name: str | None, *, create_bytes: int | None = None
) -> shared_memory.SharedMemory:
    """Attach to segment ``name``, or create it with ``create_bytes`` bytes.

    Every segment is opened here, and here ``multiprocessing`` is imported:
    only a process fan-out moves columns through shared memory, so an
    inline run (``workers=1``) never loads it.
    """
    from multiprocessing import shared_memory

    if create_bytes is None:
        return shared_memory.SharedMemory(name=name)
    return shared_memory.SharedMemory(name=name, create=True, size=create_bytes)


def _unregister_shm(shm: shared_memory.SharedMemory) -> None:
    """Detach ``shm`` from this process's resource tracker.

    The worker creates the segment but the *parent* unlinks it after the
    merge; without this the worker-side tracker would double-free it at
    executor shutdown and spam warnings.
    """
    try:  # pragma: no cover - depends on resource_tracker internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def run_shard_task(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Simulate one shard (module-level so process pools can pickle it).

    Returns per-DIP record columns plus counters; with ``use_shm`` the
    columns live in one shared-memory segment (latency, timestamp and
    completed regions, one block per DIP) and only the segment name plus
    block offsets cross the process boundary.
    """
    stations: list[tuple[str, int, int, float]] = payload["stations"]
    seed = payload["seed"]
    streams = build_dip_arrival_streams(
        seed=seed,
        rate_rps=payload["rate_rps"],
        horizon_s=payload["horizon_s"],
        num_dips=payload["num_dips"],
        routing=payload["routing"],
        probabilities=payload["probabilities"],
        wanted={index for _, index, _, _ in stations},
    )
    blocks = []
    for dip_id, index, servers, mean_service_s in stations:
        arrivals = streams[index]
        services = np.random.default_rng(
            service_seed(seed, index)
        ).standard_exponential(arrivals.size)
        services *= mean_service_s
        outcome = simulate_station(
            arrivals,
            services,
            servers=servers,
            queue_capacity=payload["queue_capacity"],
            measure_from=payload["measure_from"],
        )
        blocks.append(station_block(dip_id, servers, outcome))
    if not payload.get("use_shm"):
        return {"blocks": blocks}
    return publish_blocks(blocks, shm_name=payload.get("shm_name"))


def station_block(dip_id: str, servers: int, outcome: StationOutcome) -> dict[str, Any]:
    """One DIP's record block, the unit a shard hands the merge."""
    return {
        "dip": dip_id,
        "count": int(outcome.latency_ms.size),
        "submitted": outcome.submitted,
        "dropped": outcome.dropped,
        "busy_seconds": outcome.busy_seconds,
        "servers": servers,
        "latency_ms": outcome.latency_ms,
        "completed": outcome.completed,
        "timestamp": outcome.timestamp,
    }


def publish_blocks(
    blocks: list[dict[str, Any]], *, shm_name: str | None
) -> dict[str, Any]:
    """Move per-DIP record columns into one shared-memory segment.

    ``blocks`` carry their ``latency_ms``/``completed``/``timestamp``
    arrays inline; this packs them into the segment (layout: latency
    f8[total] | timestamp f8[total] | completed u1[total]), replaces the
    arrays with block offsets, and returns the result dict the merge
    consumes.  The segment name is assigned by the *parent* so a failed
    dispatch can still discard every segment its surviving workers
    created; it is detached from this process's resource tracker because
    the parent unlinks it after the merge.
    """
    total = sum(block["count"] for block in blocks)
    try:
        shm = open_segment(shm_name, create_bytes=max(1, total * 17))
    except FileExistsError:
        # Stale segment from a crashed earlier run under the same name.
        _discard_shm(shm_name)
        shm = open_segment(shm_name, create_bytes=max(1, total * 17))
    try:
        lat = np.ndarray((total,), dtype=np.float64, buffer=shm.buf)
        ts = np.ndarray((total,), dtype=np.float64, buffer=shm.buf, offset=total * 8)
        done = np.ndarray((total,), dtype=np.uint8, buffer=shm.buf, offset=total * 16)
        offset = 0
        for block in blocks:
            end = offset + block["count"]
            lat[offset:end] = block.pop("latency_ms")
            ts[offset:end] = block.pop("timestamp")
            done[offset:end] = block.pop("completed")
            block["offset"] = offset
            offset = end
        del lat, ts, done
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    name = shm.name
    _unregister_shm(shm)
    shm.close()
    return {"blocks": blocks, "shm": name, "total": total}


def _discard_shm(name: str) -> None:
    """Best-effort unlink of a segment this process has not merged."""
    try:
        segment = open_segment(name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - racing another cleanup
        pass


def merge_shard_outcomes(
    shard_results: list[dict[str, Any]],
    *,
    collector: MetricsCollector | None = None,
) -> tuple[MetricsCollector, dict[str, Any]]:
    """Fold shard results (in shard order) into one columnar collector.

    Returns the collector plus the aggregate counters.  Shared-memory
    segments are consumed (closed and unlinked) here — the workers
    deliberately detached them from their resource trackers, so this loop
    is the segments' only owner and unlinks every one of them even when
    the merge fails partway through.
    """
    collector = collector or MetricsCollector()
    submitted = completed = dropped = 0
    busy: dict[DipId, tuple[float, int]] = {}
    pending = list(shard_results)
    try:
        for result in shard_results:
            shm = None
            lat = ts = done = None
            if "shm" in result:
                shm = open_segment(result["shm"])
            try:
                if shm is not None:
                    total = result["total"]
                    lat = np.ndarray((total,), dtype=np.float64, buffer=shm.buf)
                    ts = np.ndarray(
                        (total,), dtype=np.float64, buffer=shm.buf, offset=total * 8
                    )
                    done = np.ndarray(
                        (total,), dtype=np.uint8, buffer=shm.buf, offset=total * 16
                    )
                for block in result["blocks"]:
                    count = block["count"]
                    if shm is None:
                        columns = (
                            block["latency_ms"],
                            block["completed"],
                            block["timestamp"],
                        )
                    else:
                        offset = block["offset"]
                        columns = (
                            lat[offset : offset + count],
                            done[offset : offset + count].astype(bool),
                            ts[offset : offset + count],
                        )
                    collector.extend_columns(block["dip"], *columns)
                    submitted += block["submitted"]
                    dropped += block["dropped"]
                    completed += block["submitted"] - block["dropped"]
                    busy[block["dip"]] = (
                        block["busy_seconds"],
                        block["servers"],
                    )
            finally:
                if shm is not None:
                    del lat, ts, done
                    shm.close()
                    shm.unlink()
            pending.remove(result)
    except BaseException:
        # A failed merge must not strand the still-unconsumed segments in
        # /dev/shm (nothing else will ever unlink them).
        for result in pending[1:] if pending else []:
            if "shm" in result:
                _discard_shm(result["shm"])
        raise
    counters = {
        "submitted": submitted,
        "completed": completed,
        "dropped": dropped,
        "busy": busy,
    }
    return collector, counters


def run_request_sharded(
    spec: "ExperimentSpec",
    plan: "ShardPlan",
    *,
    workers: int | None = None,
    pool: "WorkerPool | None" = None,
    dips: Mapping[DipId, Any] | None = None,
) -> "RunResult":
    """Execute ``spec`` as ``plan.shards`` independent DIP shards.

    ``workers`` bounds the process fan-out (``None`` picks
    ``min(shards, cpu_count)``; ``<= 1`` runs every shard in-process, which
    still gets the kernel's per-request speedup).  A caller-provided
    :class:`~repro.parallel.pool.WorkerPool` is reused warm and left open;
    a caller-built ``dips`` pool skips rebuilding it from the spec.
    """
    from repro.api.result import RunClock, RunResult
    from repro.api.runners import pool_from_spec, replay_controller_weights

    if plan.mode != "exact":
        raise ConfigurationError(
            f"plan mode is {plan.mode!r}, not 'exact'"
            + (f": {plan.fallback_reason}" if plan.fallback_reason else "")
        )
    clock = RunClock()
    if dips is None:
        dips = pool_from_spec(spec.pool, spec.seed)
    dip_ids = list(dips)
    if tuple(dip_ids) != tuple(d for s in plan.dip_slices for d in s):
        raise ConfigurationError("shard plan does not cover the spec's pool")
    total_capacity = sum(d.capacity_rps for d in dips.values())
    rate = spec.workload.load_fraction * total_capacity
    duration = spec.workload.num_requests / rate
    warmup = spec.workload.warmup_s
    horizon = warmup + duration

    weights = replay_controller_weights(spec)
    if plan.routing == "iid-weighted" and weights is not None:
        probabilities = [weights.get(d, 0.0) for d in dip_ids]
    else:
        probabilities = None

    index_of = {dip_id: i for i, dip_id in enumerate(dip_ids)}
    if pool is not None:
        # A caller-provided pool defines the real fan-out; record its width.
        workers = pool.max_workers
    elif workers is None:
        workers = min(plan.shards, os.cpu_count() or 1)
    use_processes = workers > 1 or pool is not None
    run_tag = f"repro-{os.getpid()}-{os.urandom(4).hex()}"
    payloads = []
    for shard_index, dip_slice in enumerate(plan.dip_slices):
        stations = []
        for dip_id in dip_slice:
            model = dips[dip_id].latency_model
            stations.append(
                (
                    dip_id,
                    index_of[dip_id],
                    model.servers,
                    model.servers / model.capacity_rps,
                )
            )
        payloads.append(
            {
                "stations": stations,
                "seed": spec.seed,
                "rate_rps": rate,
                "horizon_s": horizon,
                "measure_from": warmup,
                "num_dips": len(dip_ids),
                "routing": plan.routing,
                "probabilities": probabilities,
                "queue_capacity": QUEUE_CAPACITY,
                "use_shm": use_processes,
                "shm_name": f"{run_tag}-s{shard_index}",
            }
        )

    if use_processes:
        from repro.parallel.pool import WorkerPool

        own_pool = pool is None
        pool = pool or WorkerPool(max_workers=workers)
        try:
            shard_results = pool.map(run_shard_task, payloads)
        except BaseException:
            # A worker died mid-fan-out: the shards that *did* finish have
            # already detached their segments from every resource tracker,
            # so discard them by their parent-assigned names.
            for payload in payloads:
                _discard_shm(payload["shm_name"])
            raise
        finally:
            if own_pool:
                pool.close()
    else:
        shard_results = [run_shard_task(payload) for payload in payloads]

    collector, counters = merge_shard_outcomes(shard_results)
    for dip_id, (busy_seconds, servers) in counters["busy"].items():
        collector.record_utilization(
            {dip_id: min(1.0, busy_seconds / (servers * horizon))}
        )

    metrics = collector.headline(
        submitted=counters["submitted"],
        dropped=counters["dropped"],
        duration_s=duration,
    )
    return RunResult(
        spec=spec,
        runner=spec.runner,
        seed=spec.seed,
        metrics={k: float(v) for k, v in metrics.items()},
        dip_summaries=collector.summary_rows(),
        provenance=clock.provenance(
            shards=plan.shards,
            workers=max(1, workers),
            shard_mode="exact",
        ),
        detail={"plan": plan, "collector": collector},
    )
