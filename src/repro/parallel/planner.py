"""The shard planner: decide *how* a request-level run can be sharded.

A request-level simulation shards along the DIP axis.  Every shard runs
the same simulation (:class:`repro.parallel.epoch.EpochShardSim`): it
replays the whole VIP-wide arrival stream through a router replica that
makes every shard's routing decisions identical, and walks only its own
DIPs' stations.  Both shardable modes are dispatched the same way
(:mod:`repro.parallel.shard`: one process per contiguous group of shards,
or all of them in-process); the verdict (``ShardPlan.mode``) decides
whether the shards ever meet:

* ``"exact"`` — ``rr``, ``random`` and ``wrandom`` with no timeline and
  one MUX never read queue state or flow contents, so the shards never
  exchange anything: each runs straight to the horizon with no barrier
  (a fanned-out worker that dies is started again), and the union of
  shards is distributed exactly like the serial run (round robin's cyclic
  split gives DIP ``d`` the arrivals ``d, d + n, ...``; the i.i.d. laws
  are independent thinnings).

* ``"epoch"`` — stateful policies (lc/wlc/p2/hash/dns/wrr, MuxPool
  dataplanes) and timeline runs shard *approximately*: the shards
  exchange per-DIP connection counts at ``sync_interval_s`` barriers
  (:mod:`repro.parallel.epoch`).  Between barriers replicas route on a
  bounded-stale view — quantified by
  :func:`repro.parallel.epoch.staleness_crosscheck`.

* ``"serial"`` — everything else falls back to the serial DES with a
  reason logged under ``repro.parallel``:

  ============================  ================================================
  condition                     why it cannot shard at all
  ============================  ================================================
  runner != "request"           fluid/fleet are analytic and already vectorized
  non-Poisson arrivals          stream replication assumes Poisson
  non-exponential service       shard kernels draw exponential service times
  fleet-only timeline events    vip_onboard/offboard need the fleet substrate
  policy has no epoch router    an unregistered/novel policy cannot be replayed
  fewer than 2 DIPs             nothing to split
  1 shard requested             sharding was not asked for
  ============================  ================================================
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError
from repro.lb.base import policy_names
from repro.parallel.epoch import EPOCH_ROUTERS
from repro.workloads.generators import split_dip_ids

logger = logging.getLogger("repro.parallel")

#: Policies whose shards never exchange state (with no timeline, one MUX).
SHARDABLE_POLICIES = frozenset({"rr", "random", "wrandom"})


def policy_fallback_reason(name: str) -> str | None:
    """Why registered policy ``name`` cannot shard at all, or ``None``.

    A policy shards when it has an epoch router
    (:data:`repro.parallel.epoch.EPOCH_ROUTERS`) for every shard to replay
    its picks with; a registered policy without one runs serially.
    """
    if name not in policy_names():
        raise ConfigurationError(f"unknown policy {name!r}")
    if name in EPOCH_ROUTERS:
        return None
    return f"policy {name!r} has no epoch router, so shards cannot replay its picks"


@dataclass(frozen=True)
class ShardPlan:
    """The planner's verdict for one spec.

    ``mode`` is ``"exact"`` (independent shards), ``"epoch"``
    (bounded-staleness replica sharding at ``sync_interval_s`` barriers)
    or ``"serial"``.  Shardable plans carry the per-shard DIP id slices
    (contiguous, in pool order — merged metrics are therefore independent
    of the shard count).  Serial plans carry the human-readable
    ``fallback_reason``.  ``shards`` is always the *effective* count
    (clamped to the DIP count, with the clamp logged).
    """

    shards: int
    mode: str
    dip_slices: tuple[tuple[str, ...], ...] = ()
    fallback_reason: str | None = None
    sync_interval_s: float | None = None

    @property
    def num_dips(self) -> int:
        return sum(len(s) for s in self.dip_slices)


def _serial(reason: str, *, log: bool = True) -> ShardPlan:
    if log:
        logger.info("sharding disabled: %s", reason)
    return ShardPlan(shards=1, mode="serial", fallback_reason=reason)


def spec_fallback_reason(spec: ExperimentSpec) -> str | None:
    """The pool-independent screens: why ``spec`` cannot shard, or ``None``.

    These checks (substrate, timeline kinds, policy) need nothing but the
    spec itself, so callers can screen before paying for pool
    construction; :func:`plan_shards` applies them first for the same
    reason.  ``None`` means the spec shards at least approximately — the
    planner picks exact vs epoch mode afterwards.
    """
    if spec.runner != "request":
        return (
            f"runner {spec.runner!r} is not request-level (the fluid and "
            "fleet substrates are analytic and already vectorized)"
        )
    if spec.workload.arrival.kind != "poisson":
        return (
            f"workload.arrival.kind {spec.workload.arrival.kind!r} is not "
            "Poisson; the shards' replicated arrival streams assume "
            "Poisson arrivals, so bursty/trace runs stay serial"
        )
    if spec.workload.service.kind != "exponential":
        return (
            f"workload.service.kind {spec.workload.service.kind!r} is not "
            "exponential; the shard kernels regenerate exponential service "
            "streams, so heavy-tailed runs stay serial"
        )
    for event in spec.timeline.events:
        if event.kind in ("vip_onboard", "vip_offboard") or (
            event.kind == "arrival_scale" and event.vip is not None
        ):
            return (
                f"timeline event kind {event.kind!r} needs the fleet "
                "substrate; the request engine cannot execute it at all"
            )
        if event.drain_s > 0:
            return (
                f"timeline event {event.label()!r} drains gracefully; the "
                "epoch station replicas apply failures abruptly"
            )
    if spec.health.enabled:
        return (
            "health probing is enabled; the epoch executor's station "
            "replicas do not run probe cycles, so detection-delay runs "
            "stay serial"
        )
    if spec.retry.enabled:
        return (
            "retries are enabled; the retry loop re-routes requests "
            "across DIPs, which the per-shard stations cannot see"
        )
    return policy_fallback_reason(spec.policy.name)


def plan_shards(
    spec: ExperimentSpec,
    *,
    shards: int,
    dip_ids: tuple[str, ...] | None = None,
) -> ShardPlan:
    """Plan a sharded execution of ``spec``, or a serial fallback with reason.

    ``dip_ids`` lets callers that already built the pool skip rebuilding it;
    otherwise the planner derives the ids from the pool spec (cheap — the
    pool builders are deterministic).
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if shards == 1:
        return _serial("1 shard requested", log=False)
    reason = spec_fallback_reason(spec)
    if reason is not None:
        return _serial(reason)
    if dip_ids is None:
        from repro.api.runners import pool_from_spec

        dip_ids = tuple(pool_from_spec(spec.pool, spec.seed))
    if len(dip_ids) < 2:
        return _serial("pool has fewer than 2 DIPs; nothing to split")
    if shards > len(dip_ids):
        logger.info(
            "requested %d shards exceeds %d DIPs; clamping to %d",
            shards,
            len(dip_ids),
            len(dip_ids),
        )
        shards = len(dip_ids)
    exact = (
        spec.policy.name in SHARDABLE_POLICIES
        and spec.timeline.empty
        and spec.policy.num_muxes == 1
    )
    return ShardPlan(
        shards=shards,
        mode="exact" if exact else "epoch",
        dip_slices=split_dip_ids(dip_ids, shards),
        sync_interval_s=None if exact else spec.sync_interval_s,
    )
