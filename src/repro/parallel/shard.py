"""Execute a shard plan and fold the shards into one ``RunResult``.

Every shard runs the one shard simulation,
:class:`~repro.parallel.epoch.EpochShardSim`: it replays the VIP-wide
arrival stream and routing from the run seed and walks its own DIPs'
stations.  Both plan modes share one dispatch:

* with ``workers > 1`` and more than one shard, ``min(workers, shards)``
  processes each run one simulation over a contiguous group of the plan's
  DIP slices (:func:`repro.parallel.epoch._run_epoch_processes`).  They
  meet at every barrier of the schedule to exchange counts on one
  anonymous board — an exact plan's schedule has one boundary, the
  horizon, so its processes never wait, and one that dies is started
  again — and hand their record blocks, numpy columns and all, back on a
  pipe each;
* otherwise every shard runs as one coalesced simulation in this process,
  with no processes at all.

The merge is deterministic by construction: shard slices are contiguous in
pool order and shards are folded in index order, so the merged columnar
metrics (summaries, percentiles, ``window_rows``) are bit-identical across
repeats for a fixed seed — and independent of the shard count and of the
process count, because every shard replays the same routing and every
per-DIP service stream is keyed by the DIP's global pool index.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro import kernels
from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.parallel.kernel import StationOutcome
from repro.sim.trace import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runners import us lazily)
    from repro.api.result import RunResult
    from repro.api.spec import ExperimentSpec
    from repro.parallel.planner import ShardPlan

#: queue length per DIP station, matching RequestCluster's default.
QUEUE_CAPACITY = 256


def station_block(dip_id: str, servers: int, outcome: StationOutcome) -> dict[str, Any]:
    """One DIP's record block, the unit a shard hands the merge."""
    return {
        "dip": dip_id,
        "submitted": outcome.submitted,
        "dropped": outcome.dropped,
        "busy_seconds": outcome.busy_seconds,
        "servers": servers,
        "latency_ms": outcome.latency_ms,
        "completed": outcome.completed,
        "timestamp": outcome.timestamp,
    }


def merge_shard_outcomes(
    shard_blocks: Sequence[Sequence[Mapping[str, Any]]],
) -> tuple[MetricsCollector, dict[str, Any]]:
    """Fold each shard group's record blocks (in group order) into one collector.

    Returns the collector plus the aggregate counters.
    """
    collector = MetricsCollector()
    submitted = dropped = 0
    busy: dict[DipId, tuple[float, int]] = {}
    for blocks in shard_blocks:
        for block in blocks:
            collector.extend_columns(
                block["dip"],
                block["latency_ms"],
                block["completed"],
                block["timestamp"],
            )
            submitted += block["submitted"]
            dropped += block["dropped"]
            busy[block["dip"]] = (block["busy_seconds"], block["servers"])
    return collector, {"submitted": submitted, "dropped": dropped, "busy": busy}


def run_request_sharded(
    spec: "ExperimentSpec",
    plan: "ShardPlan",
    *,
    workers: int | None = None,
    dips: Mapping[DipId, Any] | None = None,
    observers: Sequence[Any] = (),
) -> "RunResult":
    """Execute ``spec`` as the ``plan.shards`` DIP shards of ``plan``.

    ``workers`` bounds the process fan-out (``None`` picks
    ``min(shards, cpu_count)``): ``min(workers, shards)`` processes each
    simulate a contiguous group of shards, and ``<= 1`` runs every shard as
    one coalesced simulation in-process, with the same bytes.  Provenance
    records the processes that simulated.  A caller-built ``dips`` pool
    skips rebuilding it from the spec.  Observers receive the timeline's
    events and windows after the fold (there is no mid-run event loop to
    stream them from).
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
    from repro.workloads.generators import split_dip_ids

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

    if workers is None:
        workers = min(plan.shards, os.cpu_count() or 1)
    processes = max(1, min(workers, plan.shards))
    if processes > 1:
        group_blocks = _run_epoch_processes(
            [
                {**base_payload, "owned": [index_of[d] for s in group for d in s]}
                for group in split_dip_ids(plan.dip_slices, processes)
            ]
        )
    else:
        group_blocks = [_run_epoch_inline(base_payload)]

    collector, counters = merge_shard_outcomes(group_blocks)
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
            workers=processes,
            shard_mode=plan.mode,
            sync_interval_s=sync_interval,
            kernels=kernels.PATH,
        ),
        detail={"plan": plan, "collector": collector},
    )
