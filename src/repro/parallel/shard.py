"""Execute a shard plan and fold the shards into one ``RunResult``.

Every shard runs the one shard simulation,
:class:`~repro.parallel.epoch.EpochShardSim`: it replays the VIP-wide
arrival stream and routing from the run seed and walks its own DIPs'
stations.  What differs is the dispatch:

* an **exact** plan's shards never exchange state, so each is an
  independent :class:`~repro.parallel.pool.WorkerPool` task
  (:func:`run_shard_task`; a crashed worker's task is retried) that hands
  its arrival-ordered record columns back through
  ``multiprocessing.shared_memory`` — the parent merges raw numpy buffers
  instead of unpickling per-request rows;
* an **epoch** plan's shards meet at every barrier of the epoch schedule,
  so they run as barrier-connected processes
  (:func:`repro.parallel.epoch._run_epoch_processes`);
* ``workers <= 1`` runs every shard as one coalesced simulation in this
  process, with no processes and no shared memory at all.

The merge is deterministic by construction: shard slices are contiguous in
pool order and shards are folded in index order, so the merged columnar
metrics (summaries, percentiles, ``window_rows``) are bit-identical across
repeats for a fixed seed — and independent of the shard count and of the
dispatch, because every shard replays the same routing and every per-DIP
service stream is keyed by the DIP's global pool index.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro import kernels
from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.parallel.kernel import StationOutcome
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
    """Simulate one exact shard (module-level so process pools can pickle it).

    The shard exchanges nothing with its siblings, so it is the inline
    simulation of its own stations, advanced through its one-boundary
    schedule.  Its per-DIP record columns go into one shared-memory segment
    (latency, timestamp and completed regions, one block per DIP) and only
    the segment name plus block offsets cross the process boundary.
    """
    # Imported here: epoch imports this module's segment helpers at load.
    from repro.parallel.epoch import _run_epoch_inline

    blocks = _run_epoch_inline(payload)["blocks"]
    return publish_blocks(blocks, shm_name=payload["shm_name"])


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
    observers: Sequence[Any] = (),
) -> "RunResult":
    """Execute ``spec`` as the ``plan.shards`` DIP shards of ``plan``.

    ``workers`` bounds the process fan-out (``None`` picks
    ``min(shards, cpu_count)``; ``<= 1`` runs every shard as one coalesced
    simulation in-process, which produces the same bytes as either
    fan-out).  An exact plan's shards are tasks on ``pool``, a
    caller-provided :class:`~repro.parallel.pool.WorkerPool` reused warm and
    left open (one is built for the run otherwise); an epoch plan's shards
    need mid-task barriers, so they run on dedicated processes and a
    ``pool`` lends only its width.  A caller-built ``dips`` pool skips
    rebuilding it from the spec.  Observers receive the timeline's events
    and windows after the fold (there is no mid-run event loop to stream
    them from).
    """
    from repro.api.result import RunClock, RunResult
    from repro.api.runners import (
        offered_rate_rps,
        pool_from_spec,
        replay_controller_weights,
    )
    from repro.parallel.epoch import (
        _run_epoch_inline,
        _run_epoch_processes,
        shard_schedule,
    )

    clock = RunClock()
    if dips is None:
        dips = pool_from_spec(spec.pool, spec.seed)
    dip_ids = list(dips)
    if tuple(dip_ids) != tuple(d for s in plan.dip_slices for d in s):
        raise ConfigurationError("shard plan does not cover the spec's pool")
    timeline = spec.timeline
    if not timeline.empty:
        from repro.api.timeline import check_timeline_supported

        check_timeline_supported(
            timeline,
            spec.runner,
            dips=dip_ids,
            controller_enabled=spec.controller.enabled,
        )
    rate = offered_rate_rps(spec, dips)
    warmup = spec.workload.warmup_s
    if timeline.empty:
        duration = spec.workload.num_requests / rate
    else:
        duration = timeline.duration_s()
    horizon = warmup + duration

    index_of = {dip_id: i for i, dip_id in enumerate(dip_ids)}
    if plan.mode == "exact":
        sync_interval = None
        schedule = [(horizon, ())]
    else:
        sync_interval = plan.sync_interval_s or spec.sync_interval_s
        schedule = shard_schedule(
            spec,
            dips,
            index_of,
            warmup_s=warmup,
            horizon_s=horizon,
            sync_interval_s=sync_interval,
        )
    weights_map = replay_controller_weights(spec)
    rank_of = {dip_id: r for r, dip_id in enumerate(sorted(dip_ids))}
    stations = []
    for dip_id in dip_ids:
        dip = dips[dip_id]
        model = dip.latency_model
        stations.append(
            (
                dip_id,
                index_of[dip_id],
                model.servers,
                model.servers / model.capacity_rps,
                dip.base_capacity_rps,
            )
        )
    base_payload = {
        "seed": spec.seed,
        "rate_rps": rate,
        "policy": spec.policy.name,
        "num_muxes": spec.policy.num_muxes,
        "weights": (
            [float(weights_map.get(d, 0.0)) for d in dip_ids]
            if weights_map is not None
            else None
        ),
        "stations": stations,
        "dip_rank": [rank_of[d] for d in dip_ids],
        "queue_capacity": QUEUE_CAPACITY,
        "measure_from": warmup,
        "schedule": schedule,
        "owned": list(range(len(dip_ids))),
    }

    if pool is not None:
        # A caller-provided pool defines the real fan-out; record its width.
        workers = pool.max_workers
    elif workers is None:
        workers = min(plan.shards, os.cpu_count() or 1)
    run_tag = f"repro-{os.getpid()}-{os.urandom(4).hex()}"
    payloads = [
        {
            **base_payload,
            "shard_index": shard_index,
            "owned": [index_of[d] for d in dip_slice],
            "shm_name": f"{run_tag}-s{shard_index}",
        }
        for shard_index, dip_slice in enumerate(plan.dip_slices)
    ]
    if plan.mode == "exact" and (workers > 1 or pool is not None):
        shard_results = _map_on_pool(payloads, pool, workers)
    elif plan.mode == "epoch" and workers > 1 and plan.shards > 1:
        shard_results = _run_epoch_processes(payloads, run_tag)
    else:
        shard_results = [_run_epoch_inline(base_payload)]

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
    windows = ()
    if not timeline.empty:
        from repro.api.observers import ObserverSet
        from repro.api.timeline import windows_from_collector

        observer = ObserverSet(observers)
        for event in timeline.ordered_events():
            observer.on_event(event.time_s, event)
        windows = windows_from_collector(
            collector,
            timeline,
            observer,
            duration_s=duration,
            offset_s=warmup,
        )
        metrics["timeline_events"] = float(len(timeline.events))
        for window in reversed(windows):
            mean = window.metrics.get("mean_latency_ms")
            if mean is not None and not math.isnan(mean):
                metrics["final_latency_ms"] = mean
                break
    return RunResult(
        spec=spec,
        runner=spec.runner,
        seed=spec.seed,
        metrics={k: float(v) for k, v in metrics.items()},
        dip_summaries=collector.summary_rows(),
        windows=tuple(windows),
        provenance=clock.provenance(
            shards=plan.shards,
            workers=max(1, workers),
            shard_mode=plan.mode,
            sync_interval_s=sync_interval,
            kernels=kernels.PATH,
        ),
        detail={"plan": plan, "collector": collector},
    )


def _map_on_pool(
    payloads: list[dict[str, Any]], pool: "WorkerPool | None", workers: int
) -> list[dict[str, Any]]:
    """Run independent shards as tasks on ``pool`` (or a pool of ``workers``)."""
    from repro.parallel.pool import WorkerPool

    own_pool = pool is None
    pool = pool or WorkerPool(max_workers=workers)
    try:
        return pool.map(run_shard_task, payloads)
    except BaseException:
        # A worker died mid-fan-out: the shards that *did* finish have
        # already detached their segments from every resource tracker, so
        # discard them by their parent-assigned names.
        for payload in payloads:
            _discard_shm(payload["shm_name"])
        raise
    finally:
        if own_pool:
            pool.close()
