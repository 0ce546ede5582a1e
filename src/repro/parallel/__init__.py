"""Multi-core execution layer: sharded request runs and persistent pools.

Four pieces, composable but independently usable:

* :mod:`repro.parallel.planner` issues the three-way sharding verdict for
  a request-level run — independent shards, epoch-synchronized shards, or
  serial with a reason;
* :mod:`repro.parallel.epoch` is the shard simulation
  (:class:`~repro.parallel.epoch.EpochShardSim`): a full-stream router
  replica with the shard's own stations, plus the barrier-synchronized
  processes an epoch plan runs on, exchanging connection counts every
  ``sync_interval_s`` (the bounded-staleness model, with
  :func:`staleness_crosscheck` quantifying the error against the serial
  engine);
* :mod:`repro.parallel.shard` executes a plan — in-process, as independent
  pool tasks, or as barrier-connected processes, with a shared-memory
  columnar merge — and folds the shards back into one
  :class:`~repro.api.result.RunResult`;
* :mod:`repro.parallel.pool` keeps a warm worker-process pool alive across
  sweeps and exact sharded runs so consecutive dispatches skip interpreter
  start-up and spec re-parsing.
"""

from repro.parallel.epoch import EPOCH_ROUTERS, staleness_crosscheck
from repro.parallel.kernel import simulate_station
from repro.parallel.planner import (
    SHARDABLE_POLICIES,
    ShardPlan,
    plan_shards,
    policy_fallback_reason,
    spec_fallback_reason,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.shard import merge_shard_outcomes, run_request_sharded

__all__ = [
    "EPOCH_ROUTERS",
    "SHARDABLE_POLICIES",
    "ShardPlan",
    "WorkerPool",
    "merge_shard_outcomes",
    "plan_shards",
    "policy_fallback_reason",
    "run_request_sharded",
    "simulate_station",
    "spec_fallback_reason",
    "staleness_crosscheck",
]
