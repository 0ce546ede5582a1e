"""The shard simulation, and epoch synchronization for stateful policies.

:class:`EpochShardSim` is the one simulation every shard of a sharded
request run executes (:mod:`repro.parallel.shard` dispatches it).  When
routing is queue- and flow-independent (``rr`` / ``random`` / ``wrandom``
with no timeline and one MUX) the shards never exchange state: each is
advanced straight to the horizon as an independent task.  That rules out
the policies the paper actually stresses — lc/wlc/p2/hash/dns/wrr, the
MuxPool dataplane — and every timeline run.  This module shards those
too, by trading exact serial equivalence for *bounded staleness*, the
behaviour real distributed load balancers exhibit:

* **Full-stream routing replay.**  Every shard deterministically
  regenerates the whole VIP-wide arrival stream (times, client indices,
  ports) from per-lane :class:`~numpy.random.SeedSequence` children and
  runs an identical *router replica* over **all** arrivals.  Replicas see
  identical inputs and use identical RNG lanes, so every shard computes
  the exact same routing decision for every request without exchanging a
  single routed record.
* **Owned-slice queueing.**  Each shard simulates the M/M/c/K stations
  only for its own DIP slice, each a :class:`~repro.sim.queueing.StationWalk`
  resumed once per epoch — the walk the serial replay runs in one pass.
* **Epoch barriers.**  Time is cut into epochs of ``sync_interval_s``.
  At each boundary the shards exchange one compact snapshot — per-DIP
  in-system counts (per ``(dip, mux)`` when the MUX layer routes a
  count-based policy) — through a single shared-memory float64 board, and
  each replica resets its connection-count view to the true global
  values.  Between barriers a replica's view is *last-synced counts plus
  its own opens since the barrier* (closes go stale), which is precisely
  the bounded-staleness window the paper's distributed MUXes have.
  Timeline events (``dip_fail``/``arrival_scale``/...) are declared epoch
  boundaries too, so every epoch is internally shard-safe.

Because replicas are identical and barrier inputs are identical, the
merged result is **independent of the shard count** and bit-identical
across repeats for a fixed ``(seed, sync_interval_s)`` — ``workers <= 1``
runs one coalesced simulation through the same code path and produces the
same bytes as the process fan-out.

The approximation error is quantified, not hand-waved:
:func:`staleness_crosscheck` reruns a spec serially and at a ladder of
``sync_interval_s`` values and reports mean/p50/p99/drop deltas; the bench
(``benchmarks/bench_parallel_engine.py``) gates on a ceiling and the tests
assert ``sync_interval_s → 0`` convergence.  Replicas for rng- and
hash-driven policies (p2/random/wrandom/dns/hash, ECMP) reproduce the
serial engine's *law*, not its byte stream — p2 draws its pairs from a
dedicated lane and the flow hash is a same-law 64-bit mixer rather than
the serial sha1 — so their cross-check deltas are sampling noise plus
staleness, while the rr, wrr and lc/wlc replicas pick through the kernels
that state the serial policies' laws
(:func:`repro.lb.round_robin.round_robin_picks`,
:func:`~repro.lb.round_robin.smooth_wrr_picks`,
:func:`repro.lb.least_connection.least_connection_picks` — an epoch's
lc/wlc picks are one merge of per-DIP key streams with the serial
``(score, dip id)`` tie-break, not a heap operation per arrival).

An epoch costs array expressions, not a step per pick or per DIP: one
burst from the router, one stable sort to hand each station its arrivals,
one departure recorded per arrival (the record columns are derived when
the station finishes), and at the barrier a bisect per station over the
start times still ahead — or, per MUX, one vectorized scan of the
departures still ahead (:func:`_mux_census`) — the Kiefer-Wolfowitz walk
itself is the only per-request Python left.
"""

from __future__ import annotations

from queue import Empty
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.types import DipId, stable_group_order
from repro.exceptions import ConfigurationError
from repro.lb.base import pick_cdf
from repro.lb.least_connection import least_connection_picks
from repro.lb.round_robin import (
    round_robin_picks,
    smooth_wrr_picks,
    smooth_wrr_weights,
)
from repro.parallel.kernel import (
    arrival_seed,
    flow_seed,
    router_seed,
    service_seed,
)
from repro.parallel.shard import (
    _discard_shm,
    open_segment,
    publish_blocks,
    station_block,
)
from repro.sim.queueing import StationWalk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.spec import ExperimentSpec

#: epoch routers by policy name; the value describes what crosses the barrier.
EPOCH_ROUTERS: dict[str, str] = {
    "rr": "replayed cursor (nothing to sync)",
    "wrr": "replayed smooth-WRR interleave (nothing to sync)",
    "random": "replayed i.i.d. uniform picks (nothing to sync)",
    "wrandom": "replayed i.i.d. weighted picks (nothing to sync)",
    "hash": "same-law flow hash (nothing to sync)",
    "dns": "replayed per-client resolver cache (nothing to sync)",
    "lc": "per-DIP connection counts at each barrier",
    "wlc": "per-DIP connection counts at each barrier",
    "p2": "CPU snapshot at each barrier, projected by in-epoch picks",
}

#: policies whose routing reads per-replica connection counts (p2 reads
#: the global CPU view instead, so it never needs per-MUX count columns).
_COUNT_POLICIES = frozenset({"lc", "wlc"})

#: RNG lane slots for routers that consume private randomness.
_P2_SLOT = 1
_DNS_SLOT = 2
_RANDOM_SLOT = 3
_WRANDOM_SLOT = 4

#: client-pool constants mirrored from :class:`repro.sim.client.ClientPool`.
_NUM_CLIENTS = 8
_PORT_MIN = 1024
_PORT_SPAN = 65000 - _PORT_MIN + 1

_ARRIVAL_CHUNK = 8192
_DNS_TTL_S = 30.0

#: boundary coalescing tolerance — event times landing on a sync tick.
_EPS = 1e-9

#: a stuck barrier means a dead sibling; fail loudly instead of hanging.
_SYNC_TIMEOUT_S = 600.0



# ---------------------------------------------------------------------------
# deterministic VIP-wide arrival stream
# ---------------------------------------------------------------------------


class EpochArrivalStream:
    """The VIP-wide arrival times, consumed epoch by epoch.

    Every shard owns an identical instance: arrival gaps come from the
    run's arrival lane, so the stream needs no cross-shard coordination at
    all.  ``arrival_scale`` events rescale the *buffered* future gaps
    around the boundary, the memoryless transform
    ``RequestCluster.scale_arrivals`` applies to its latched arrivals.
    """

    def __init__(self, seed: int, rate_rps: float):
        if rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")
        self._rng = np.random.default_rng(arrival_seed(seed))
        self._rate = float(rate_rps)
        self._clock = 0.0
        self._times = np.empty(0, dtype=np.float64)

    @property
    def rate_rps(self) -> float:
        return self._rate

    def set_rate(self, rate_rps: float, *, at_time: float) -> None:
        """Change the arrival rate at ``at_time`` (an epoch boundary)."""
        if rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")
        scale = self._rate / rate_rps
        if scale != 1.0:
            self._times = at_time + (self._times - at_time) * scale
            self._clock = at_time + (self._clock - at_time) * scale
        self._rate = float(rate_rps)

    def take_until(self, t_end: float) -> np.ndarray:
        """All arrival times strictly before ``t_end``.

        Draws whole chunks until one reaches ``t_end`` and joins them to
        the buffer in one concatenation, so one call over a whole run costs
        what the same draws fed in small slices do.
        """
        times = [self._times]
        while self._clock < t_end:
            chunk = np.cumsum(self._rng.exponential(1.0 / self._rate, size=_ARRIVAL_CHUNK))
            chunk += self._clock
            self._clock = float(chunk[-1])
            times.append(chunk)
        if len(times) > 1:
            self._times = np.concatenate(times)
        cut = int(np.searchsorted(self._times, t_end, side="left"))
        times, self._times = self._times[:cut], self._times[cut:]
        return times


class EpochFlowStream:
    """The arrivals' flows, in arrival order: (client index, source port).

    Client indices come from the run's flow lane in whole chunks, and ports
    are a pure function of the arrival ordinal (mirroring
    ``ClientPool.next_batch``'s rolling counter).  Only a router that reads
    the flow (``uses_flow``) needs one.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(flow_seed(seed))
        self._clients = np.empty(0, dtype=np.int64)
        self._consumed = 0

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``count`` arrivals' clients and ports."""
        clients = [self._clients]
        drawn = self._clients.size
        while drawn < count:
            clients.append(self._rng.integers(_NUM_CLIENTS, size=_ARRIVAL_CHUNK))
            drawn += _ARRIVAL_CHUNK
        if len(clients) > 1:
            self._clients = np.concatenate(clients)
        clients, self._clients = self._clients[:count], self._clients[count:]
        ports = (
            self._consumed + 1 + np.arange(count, dtype=np.int64)
        ) % _PORT_SPAN + _PORT_MIN
        self._consumed += count
        return clients, ports


# ---------------------------------------------------------------------------
# router replicas
# ---------------------------------------------------------------------------


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — a vectorized same-law stand-in for sha1."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _flow_key(clients: np.ndarray, ports: np.ndarray, salt: int) -> np.ndarray:
    key = clients.astype(np.uint64) << np.uint64(32)
    key |= ports.astype(np.uint64)
    return _mix64(key + np.uint64(salt))


_HASH_SALT = 0x1B873593
_ECMP_SALT = 0xE6546B64


class _EpochRouter:
    """Base class for per-policy router replicas.

    Replicas hold the *entire* pool's routing state — health mask, weights
    and (for count-based policies) the last-synced per-DIP counts — and
    route every arrival, not just the shard's own.  ``needs_counts``
    marks the policies whose decisions read connection counts; only those
    force per-``(dip, mux)`` tracking in the stations.  ``uses_flow`` marks
    those that read the arrivals' clients and ports.
    """

    needs_counts = False
    uses_flow = False

    def __init__(self, num_dips: int, dip_rank: Sequence[int]):
        self._n = num_dips
        self._healthy = np.ones(num_dips, dtype=bool)
        self._weights = np.ones(num_dips, dtype=np.float64)
        #: tie-break rank: position of each DIP's id in sorted(dip_ids),
        #: mirroring the serial engine's ``(metric, dip_id)`` ordering.
        self._rank = np.asarray(dip_rank, dtype=np.int64)
        self._healthy_idx = np.arange(num_dips, dtype=np.int64)

    def _candidates(self) -> np.ndarray:
        if self._healthy_idx.size == 0:
            raise ConfigurationError("no healthy DIPs available")
        return self._healthy_idx

    def set_healthy(self, index: int, healthy: bool) -> None:
        self._healthy[index] = healthy
        self._healthy_idx = np.flatnonzero(self._healthy)

    def set_weights(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=np.float64).copy()

    def sync(self, counts: np.ndarray, cpu: np.ndarray, now: float) -> None:
        """Reset count-derived state to the synced global view."""

    def route(
        self, times: np.ndarray, clients: np.ndarray, ports: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError


class _RoundRobinRouter(_EpochRouter):
    """Global cursor over the healthy set, continued across health changes."""

    def __init__(self, num_dips: int, dip_rank: Sequence[int]):
        super().__init__(num_dips, dip_rank)
        self._cursor = 0

    def route(self, times, clients, ports):
        h = self._candidates()
        out = h[round_robin_picks(self._cursor, times.size, h.size)]
        self._cursor += times.size
        return out.astype(np.int32)


class _RandomRouter(_EpochRouter):
    def __init__(self, num_dips: int, dip_rank: Sequence[int], *, seed: int, replica: int = 0):
        super().__init__(num_dips, dip_rank)
        self._rng = np.random.default_rng(router_seed(seed, _RANDOM_SLOT, replica))

    def route(self, times, clients, ports):
        h = self._candidates()
        return h[self._rng.integers(h.size, size=times.size)].astype(np.int32)


class _WeightedRandomRouter(_EpochRouter):
    def __init__(self, num_dips: int, dip_rank: Sequence[int], *, seed: int, replica: int = 0):
        super().__init__(num_dips, dip_rank)
        self._rng = np.random.default_rng(router_seed(seed, _WRANDOM_SLOT, replica))

    def route(self, times, clients, ports):
        h = self._candidates()
        cdf = pick_cdf(self._weights[h])
        picks = np.searchsorted(cdf, self._rng.random(times.size), side="right")
        return h[picks].astype(np.int32)


class _SmoothWrrRouter(_EpochRouter):
    """``WeightedRoundRobin`` over array state, pick for pick.

    The weights, their total and every step come from the functions the
    serial policy calls (:func:`repro.lb.round_robin.smooth_wrr_weights`,
    :func:`~repro.lb.round_robin.smooth_wrr_picks`), so for equal weights
    and health history the two return the same DIP for every arrival;
    accumulators persist across health changes and reset only when weights
    change, as there.
    """

    def __init__(self, num_dips: int, dip_rank: Sequence[int]):
        super().__init__(num_dips, dip_rank)
        self._current = np.zeros(num_dips, dtype=np.float64)

    def set_weights(self, weights: np.ndarray) -> None:
        super().set_weights(weights)
        self._current[:] = 0.0

    def route(self, times, clients, ports):
        h = self._candidates()
        w, total = smooth_wrr_weights(self._weights[h])
        current = self._current[h]  # fancy-index copy; written back below
        picks = smooth_wrr_picks(current, w, total, times.size)
        self._current[h] = current
        return h[picks].astype(np.int32)


class _LeastConnectionRouter(_EpochRouter):
    """lc/wlc: each epoch's picks are one burst of the serial law.

    Between barriers only a pick's own open moves a count, which is what
    :func:`repro.lb.least_connection.least_connection_picks` assumes;
    closes are invisible until the next barrier — that *is* the staleness
    model.
    """

    needs_counts = True

    def __init__(self, num_dips: int, dip_rank: Sequence[int], *, weighted: bool):
        super().__init__(num_dips, dip_rank)
        self._weighted = weighted
        self._counts = np.zeros(num_dips, dtype=np.float64)

    def sync(self, counts, cpu, now):
        self._counts = counts.astype(np.float64)

    def route(self, times, clients, ports):
        h = self._candidates()
        picks, self._counts[h] = least_connection_picks(
            self._counts[h],
            self._weights[h] if self._weighted else None,
            self._rank[h],
            times.size,
        )
        return h[picks].astype(np.int32)


class _PowerOfTwoRouter(_EpochRouter):
    """p2 with pre-drawn distinct pairs from a dedicated RNG lane.

    The serial ``_load`` rule verbatim: the synced CPU view when positive
    (the engine's utilization snapshots become the barrier snapshot here),
    otherwise the connection count.  The serial count is live — it
    decrements on completions a shard cannot observe between barriers, and
    a raw stale count would let one pick at an idle DIP outweigh every
    busy DIP's sub-1.0 CPU value and starve it until the next barrier —
    so the replica drains its count projection deterministically at the
    station's expected service rate (``min(count, servers) / mean_service``,
    at base capacity), feeding an idle DIP at roughly its completion rate
    exactly as the serial feedback loop does.
    """

    def __init__(
        self,
        num_dips: int,
        dip_rank: Sequence[int],
        *,
        seed: int,
        servers: Sequence[float] | None = None,
        drain_rps: Sequence[float] | None = None,
        replica: int = 0,
    ):
        super().__init__(num_dips, dip_rank)
        self._rng = np.random.default_rng(router_seed(seed, _P2_SLOT, replica))
        self._servers = (
            np.asarray(servers, dtype=np.float64)
            if servers is not None
            else np.ones(num_dips, dtype=np.float64)
        )
        self._mean_service = self._servers / (
            np.asarray(drain_rps, dtype=np.float64)
            if drain_rps is not None
            else self._servers
        )
        self._counts = np.zeros(num_dips, dtype=np.float64)
        self._cpu = np.zeros(num_dips, dtype=np.float64)
        self._last = np.zeros(num_dips, dtype=np.float64)

    def sync(self, counts, cpu, now):
        self._counts = counts.astype(np.float64).copy()
        self._cpu = cpu.astype(np.float64).copy()
        self._last.fill(now)

    def _drained(self, slot: int, t: float) -> float:
        """The count projection at ``t`` (drains while servers are busy)."""
        c = self._counts[slot]
        if c > 0.0:
            dt = t - self._last[slot]
            if dt > 0.0:
                drain = min(c, self._servers[slot]) / self._mean_service[slot]
                c = max(0.0, c - drain * dt)
            self._counts[slot] = c
        self._last[slot] = t
        return c

    def route(self, times, clients, ports):
        h = self._candidates()
        n = times.size
        if h.size == 1:
            return np.full(n, h[0], dtype=np.int32)
        # Ordered sampling without replacement, two vectorized draws.
        first = self._rng.integers(h.size, size=n)
        second = self._rng.integers(h.size - 1, size=n)
        second = second + (second >= first)
        counts = self._counts
        cpu = self._cpu
        out = np.empty(n, dtype=np.int32)
        for i in range(n):
            t = times[i]
            a = int(h[first[i]])
            b = int(h[second[i]])
            load_a = cpu[a] if cpu[a] > 0 else self._drained(a, t)
            load_b = cpu[b] if cpu[b] > 0 else self._drained(b, t)
            pick = a if load_a <= load_b else b
            counts[pick] += 1.0
            out[i] = pick
        return out


class _FlowHashRouter(_EpochRouter):
    """Flow-sticky hash over the healthy set (same law as the serial sha1)."""

    uses_flow = True

    def route(self, times, clients, ports):
        h = self._candidates()
        key = _flow_key(clients, ports, _HASH_SALT)
        return h[(key % np.uint64(h.size)).astype(np.int64)].astype(np.int32)


class _DnsRouter(_EpochRouter):
    """DNS-weighted routing replayed through a per-client TTL cache.

    A cache hit requires freshness *and* a healthy DIP; misses resolve a
    weighted draw over the healthy set (all-zero weights degrade to
    uniform) and refresh the entry — ``DnsWeightedPolicy``'s rules, with
    per-arrival times standing in for ``advance_time``.
    """

    uses_flow = True

    def __init__(
        self,
        num_dips: int,
        dip_rank: Sequence[int],
        *,
        seed: int,
        replica: int = 0,
        cache_ttl_s: float = _DNS_TTL_S,
    ):
        super().__init__(num_dips, dip_rank)
        self._rng = np.random.default_rng(router_seed(seed, _DNS_SLOT, replica))
        self._ttl = float(cache_ttl_s)
        self._cache_dip = np.full(_NUM_CLIENTS, -1, dtype=np.int64)
        self._cache_exp = np.zeros(_NUM_CLIENTS, dtype=np.float64)
        self._uniforms: list[float] = []
        #: CDF over the healthy DIPs' weights; dropped when either changes.
        self._cdf: np.ndarray | None = None

    def set_healthy(self, index: int, healthy: bool) -> None:
        super().set_healthy(index, healthy)
        self._cdf = None

    def set_weights(self, weights: np.ndarray) -> None:
        super().set_weights(weights)
        self._cdf = None

    def _draw(self) -> float:
        if not self._uniforms:
            self._uniforms = self._rng.random(1024)[::-1].tolist()
        return self._uniforms.pop()

    def route(self, times, clients, ports):
        h = self._candidates()
        cdf = self._cdf
        if cdf is None:
            cdf = self._cdf = pick_cdf(self._weights[h])
        healthy = self._healthy
        cache_dip = self._cache_dip
        cache_exp = self._cache_exp
        ttl = self._ttl
        out = np.empty(times.size, dtype=np.int32)
        searchsorted = np.searchsorted
        for i in range(times.size):
            client = clients[i]
            t = times[i]
            cached = cache_dip[client]
            if cached >= 0 and cache_exp[client] > t and healthy[cached]:
                out[i] = cached
                continue
            pick = int(h[int(searchsorted(cdf, self._draw(), side="right"))])
            cache_dip[client] = pick
            cache_exp[client] = t + ttl
            out[i] = pick
        return out


class _MuxEcmpRouter:
    """The MuxPool dataplane: ECMP over per-MUX inner router replicas.

    ECMP hashes the flow with a distinct salt (the serial engine's
    ``salt="ecmp"``) and each MUX routes its sub-stream with a private
    replica; count-based inners sync their per-MUX count column while the
    CPU view stays global, matching how the serial engine feeds every MUX
    the same utilization snapshots.
    """

    uses_flow = True

    def __init__(self, inners: Sequence[_EpochRouter]):
        self._inners = list(inners)
        self.needs_counts = self._inners[0].needs_counts
        self.num_muxes = len(self._inners)

    def route_mux(self, times, clients, ports):
        muxes = (
            _flow_key(clients, ports, _ECMP_SALT) % np.uint64(self.num_muxes)
        ).astype(np.int64)
        dips = np.empty(times.size, dtype=np.int32)
        for m, inner in enumerate(self._inners):
            mask = muxes == m
            if mask.any():
                dips[mask] = inner.route(times[mask], clients[mask], ports[mask])
        return dips, muxes

    def sync(self, counts, cpu, now):
        if self.needs_counts:
            for m, inner in enumerate(self._inners):
                inner.sync(np.ascontiguousarray(counts[:, m]), cpu, now)
        else:
            for inner in self._inners:
                inner.sync(counts, cpu, now)

    def set_healthy(self, index, healthy):
        for inner in self._inners:
            inner.set_healthy(index, healthy)

    def set_weights(self, weights):
        for inner in self._inners:
            inner.set_weights(weights)


def make_epoch_router(
    policy: str,
    *,
    num_dips: int,
    dip_rank: Sequence[int],
    seed: int,
    num_muxes: int = 1,
    servers: Sequence[float] | None = None,
    drain_rps: Sequence[float] | None = None,
) -> _EpochRouter | _MuxEcmpRouter:
    """Build the router replica for ``policy`` (MUX-wrapped when asked)."""

    def build(replica: int) -> _EpochRouter:
        if policy == "rr":
            return _RoundRobinRouter(num_dips, dip_rank)
        if policy == "wrr":
            return _SmoothWrrRouter(num_dips, dip_rank)
        if policy == "random":
            return _RandomRouter(num_dips, dip_rank, seed=seed, replica=replica)
        if policy == "wrandom":
            return _WeightedRandomRouter(num_dips, dip_rank, seed=seed, replica=replica)
        if policy == "lc":
            return _LeastConnectionRouter(num_dips, dip_rank, weighted=False)
        if policy == "wlc":
            return _LeastConnectionRouter(num_dips, dip_rank, weighted=True)
        if policy == "p2":
            return _PowerOfTwoRouter(
                num_dips,
                dip_rank,
                seed=seed,
                servers=servers,
                drain_rps=drain_rps,
                replica=replica,
            )
        if policy == "hash":
            return _FlowHashRouter(num_dips, dip_rank)
        if policy == "dns":
            return _DnsRouter(num_dips, dip_rank, seed=seed, replica=replica)
        raise ConfigurationError(f"policy {policy!r} has no epoch router")

    if num_muxes <= 1:
        return build(0)
    return _MuxEcmpRouter([build(m) for m in range(num_muxes)])


# ---------------------------------------------------------------------------
# per-MUX barrier counts
# ---------------------------------------------------------------------------


def _mux_census(
    held: tuple[np.ndarray, np.ndarray],
    departures: Sequence[float],
    muxes: np.ndarray,
    t: float,
    num_muxes: int,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """One station's population at barrier ``t``, per MUX.

    ``held`` is the departures and MUXes of the requests in the station at
    the previous barrier, ``departures`` / ``muxes`` those of the arrivals
    since (NaN for a drop, which is never held).  A departure never moves,
    so one vectorized comparison finds who is still in at ``t``; only they
    are carried to the next barrier.
    """
    leaves = np.concatenate([held[0], departures])
    tags = np.concatenate([held[1], muxes])
    alive = leaves > t
    held = (leaves[alive], tags[alive])
    return held, np.bincount(held[1], minlength=num_muxes)


# ---------------------------------------------------------------------------
# one shard = full-stream replica + owned stations
# ---------------------------------------------------------------------------


def _board_width(payload: Mapping[str, Any]) -> int:
    """Count-board slots per DIP: one per MUX when a MUX layer fronts a
    count-based router (each MUX tracks its own opens), else one."""
    num_muxes = int(payload["num_muxes"])
    if num_muxes > 1 and payload["policy"] in _COUNT_POLICIES:
        return num_muxes
    return 1


class EpochShardSim:
    """One shard's simulation: a full router replica plus owned stations.

    Built from a plain payload dict so process workers and the inline
    driver construct byte-identical simulations.  The count board is a
    flat float64 array with one slot per DIP (per ``(dip, mux)`` pair when
    the policy is count-based under a MUX layer); ``owned_slots`` names
    the slots this shard writes at each barrier.
    """

    def __init__(self, payload: Mapping[str, Any]):
        seed = payload["seed"]
        self._num_muxes = int(payload["num_muxes"])
        stations_meta = payload["stations"]
        num_dips = len(stations_meta)
        owned = set(payload["owned"])
        mux_dim = self._mux_dim = _board_width(payload)
        self._track_mux = mux_dim > 1
        self._servers = np.asarray(
            [servers for _, _, servers, _, _ in stations_meta], dtype=np.float64
        )
        drain_rps = np.asarray(
            [
                servers / mean_service_s
                for _, _, servers, mean_service_s, _ in stations_meta
            ],
            dtype=np.float64,
        )
        self._router = make_epoch_router(
            payload["policy"],
            num_dips=num_dips,
            dip_rank=payload["dip_rank"],
            seed=seed,
            num_muxes=self._num_muxes,
            servers=self._servers,
            drain_rps=drain_rps,
        )
        if payload["weights"] is not None:
            self._router.set_weights(np.asarray(payload["weights"], dtype=np.float64))
        self._stream = EpochArrivalStream(seed, payload["rate_rps"])
        self._flows = EpochFlowStream(seed) if self._router.uses_flow else None
        self._base_rate = float(payload["rate_rps"])
        self._num_dips = num_dips
        self._dip_ids = [dip_id for dip_id, *_ in stations_meta]
        self._base_mean = [
            servers / base_capacity_rps
            for _, _, servers, _, base_capacity_rps in stations_meta
        ]
        self._measure_from = payload["measure_from"]
        #: owned stations by global index, ascending (the pool's order).
        self._walks: dict[int, StationWalk] = {}
        for _, index, servers, mean_service_s, _ in stations_meta:
            if index in owned:
                draws = np.random.default_rng(service_seed(seed, index))
                self._walks[index] = StationWalk(
                    servers,
                    payload["queue_capacity"],
                    draw=draws.standard_exponential,
                    mean=float(mean_service_s),
                )
        #: who may still be in each station, for per-MUX counts (``_mux_census``).
        nobody = (np.empty(0), np.empty(0, dtype=np.int64))
        self._held = dict.fromkeys(self._walks, nobody)
        self.owned_slots = np.concatenate(
            [
                np.arange(index * mux_dim, (index + 1) * mux_dim, dtype=np.int64)
                for index in self._walks
            ]
        )
        self.num_slots = num_dips * mux_dim

    def advance_to(self, t: float) -> np.ndarray:
        """Route + simulate up to ``t``; return owned slot counts at ``t``."""
        times = self._stream.take_until(t)
        clients = ports = None
        if self._flows is not None:
            clients, ports = self._flows.take(times.size)
        if isinstance(self._router, _MuxEcmpRouter):
            dips, muxes = self._router.route_mux(times, clients, ports)
        else:
            dips = self._router.route(times, clients, ports)
            muxes = None
        # One stable sort groups the epoch's arrivals by station, each
        # group still in arrival order (a radix sort, on up to 65 536 DIPs).
        order = stable_group_order(dips, self._num_dips)
        bounds = [0, *np.bincount(dips, minlength=self._num_dips).cumsum().tolist()]
        times = times[order]
        muxes = muxes[order] if self._track_mux else None
        mux_dim = self._mux_dim
        counts = np.empty(self.owned_slots.size, dtype=np.float64)
        for slot, (index, walk) in enumerate(self._walks.items()):
            lo, hi = bounds[index], bounds[index + 1]
            departures = walk.advance(times[lo:hi]) if hi > lo else []
            if muxes is None:
                counts[slot] = walk.in_system(t)
            else:
                self._held[index], counts[slot * mux_dim : (slot + 1) * mux_dim] = (
                    _mux_census(self._held[index], departures, muxes[lo:hi], t, mux_dim)
                )
        return counts

    def apply_sync(self, board: np.ndarray, now: float) -> None:
        """Reset the replica's count view to the synced global board."""
        if self._track_mux:
            grid = board.reshape(-1, self._mux_dim)
            totals = grid.sum(axis=1)
        else:
            grid = board
            totals = board
        cpu = np.minimum(1.0, totals / self._servers)
        self._router.sync(grid, cpu, now)

    def apply_events(self, events: Iterable[tuple], at_time: float) -> None:
        for event in events:
            kind = event[0]
            if kind == "fail":
                self._router.set_healthy(event[1], False)
            elif kind == "recover":
                self._router.set_healthy(event[1], True)
            elif kind == "capacity":
                # Draws consumed after the boundary take the new mean (the
                # serial engine rescales at service start; equivalent up to
                # draws already queued).
                walk = self._walks.get(event[1])
                if walk is not None:
                    walk.mean = self._base_mean[event[1]] / event[2]
            elif kind == "rate":
                self._stream.set_rate(self._base_rate * event[1], at_time=at_time)
            else:  # pragma: no cover - planner screens kinds
                raise ConfigurationError(f"unknown epoch event kind {kind!r}")

    def finish(self) -> list[dict[str, Any]]:
        return [
            station_block(
                self._dip_ids[index],
                walk.servers,
                walk.outcome(measure_from=self._measure_from),
            )
            for index, walk in self._walks.items()
        ]


def _run_epoch_inline(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Run the shards owning ``payload["owned"]`` as one simulation, in-process.

    One replica, all those stations: the self-sync at each boundary reads
    the very counts a process fan-out would have exchanged, so the records
    are bit-identical to multiprocess mode by construction.  A one-boundary
    schedule (an exact shard's) never syncs at all.
    """
    sim = EpochShardSim(payload)
    schedule = payload["schedule"]
    last = len(schedule) - 1
    board = np.zeros(sim.num_slots, dtype=np.float64)
    for i, (t, events) in enumerate(schedule):
        counts = sim.advance_to(t)
        if i == last:
            break
        board[sim.owned_slots] = counts
        sim.apply_sync(board, t)
        sim.apply_events(events, t)
    return {"blocks": sim.finish()}


def _epoch_worker(payload, barrier, counts_name, result_queue):  # pragma: no cover
    """Process-mode shard body (covered via multiprocess integration tests).

    Two barrier waits per epoch: write-own-slots → wait → read-all →
    wait — the second keeps a fast shard from overwriting slots a slow
    sibling has not read yet.  Any failure aborts the barrier so siblings
    fail fast instead of hanging.
    """
    shard_index = payload["shard_index"]
    counts_shm = None
    try:
        sim = EpochShardSim(payload)
        counts_shm = open_segment(counts_name)
        board = np.ndarray((sim.num_slots,), dtype=np.float64, buffer=counts_shm.buf)
        schedule = payload["schedule"]
        last = len(schedule) - 1
        for i, (t, events) in enumerate(schedule):
            counts = sim.advance_to(t)
            if i == last:
                break
            board[sim.owned_slots] = counts
            barrier.wait(timeout=_SYNC_TIMEOUT_S)
            synced = board.copy()
            barrier.wait(timeout=_SYNC_TIMEOUT_S)
            sim.apply_sync(synced, t)
            sim.apply_events(events, t)
        blocks = sim.finish()
        result = publish_blocks(blocks, shm_name=payload["shm_name"])
        result_queue.put((shard_index, result))
    except BaseException as exc:
        try:
            barrier.abort()
        finally:
            result_queue.put(
                (shard_index, {"error": f"{type(exc).__name__}: {exc}"})
            )
    finally:
        if counts_shm is not None:
            del board
            counts_shm.close()


def _run_epoch_processes(
    payloads: list[dict[str, Any]], run_tag: str
) -> list[dict[str, Any]]:
    """Fan the shards out as barrier-connected processes and collect results."""
    # Loaded here, not at import: an inline run (``workers=1``) forks nothing.
    from multiprocessing import get_context

    num_slots = len(payloads[0]["stations"]) * _board_width(payloads[0])
    ctx = get_context()
    barrier = ctx.Barrier(len(payloads))
    result_queue = ctx.Queue()
    counts_shm = open_segment(f"{run_tag}-sync", create_bytes=max(1, num_slots * 8))
    np.ndarray((num_slots,), dtype=np.float64, buffer=counts_shm.buf).fill(0.0)
    procs = [
        ctx.Process(
            target=_epoch_worker,
            args=(payload, barrier, counts_shm.name, result_queue),
            daemon=True,
        )
        for payload in payloads
    ]
    results: dict[int, dict[str, Any]] = {}
    try:
        for proc in procs:
            proc.start()
        for _ in payloads:
            try:
                index, result = result_queue.get(timeout=_SYNC_TIMEOUT_S)
            except Empty:
                raise ConfigurationError(
                    "epoch shard worker did not report back (timed out)"
                ) from None
            results[index] = result
    except BaseException:
        for payload in payloads:
            _discard_shm(payload["shm_name"])
        raise
    finally:
        for proc in procs:
            proc.join(timeout=30)
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - crashed-worker cleanup
                proc.terminate()
                proc.join()
        result_queue.close()
        counts_shm.close()
        try:
            counts_shm.unlink()
        except FileNotFoundError:  # pragma: no cover - racing cleanup
            pass
    errors = [
        f"shard {index}: {result['error']}"
        for index, result in sorted(results.items())
        if "error" in result
    ]
    if errors:
        for payload in payloads:
            _discard_shm(payload["shm_name"])
        raise ConfigurationError(f"epoch shard worker failed: {errors[0]}")
    return [results[i] for i in range(len(payloads))]


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def epoch_schedule(
    horizon_s: float,
    sync_interval_s: float,
    event_times: Sequence[float] = (),
) -> list[float]:
    """Sorted epoch boundaries: sync ticks ∪ event times ∪ {horizon}.

    Event times become boundaries so each event applies at its declared
    instant; coincident points coalesce within float tolerance.
    """
    if sync_interval_s <= 0:
        raise ConfigurationError("sync_interval_s must be positive")
    points: list[float] = [t for t in event_times if t < horizon_s - _EPS]
    tick = sync_interval_s
    k = 1
    while tick < horizon_s - _EPS:
        points.append(tick)
        k += 1
        tick = k * sync_interval_s
    points.sort()
    boundaries: list[float] = []
    for t in points:
        if not boundaries or t - boundaries[-1] > _EPS:
            boundaries.append(t)
    boundaries.append(horizon_s)
    return boundaries


def _resolve_events(
    spec: "ExperimentSpec",
    dips: Mapping[DipId, Any],
    index_of: Mapping[DipId, int],
    warmup_s: float,
) -> list[tuple[float, tuple]]:
    """Timeline events as (absolute time, primitive worker event) pairs.

    Capacity factors are resolved here in the parent — the worker never
    needs the DipServer objects — using the pool's own antagonist
    parameters for ``antagonist_phase``.
    """
    resolved: list[tuple[float, tuple]] = []
    for event in spec.timeline.ordered_events():
        t = warmup_s + event.time_s
        if event.kind == "dip_fail":
            resolved.append((t, ("fail", index_of[event.dip])))
        elif event.kind == "dip_recover":
            resolved.append((t, ("recover", index_of[event.dip])))
        elif event.kind == "capacity_ratio":
            resolved.append((t, ("capacity", index_of[event.dip], float(event.value))))
        elif event.kind == "antagonist_phase":
            loss = dips[event.dip].antagonist.per_copy_loss
            factor = (1.0 - loss) ** int(event.value)
            resolved.append((t, ("capacity", index_of[event.dip], factor)))
        elif event.kind == "arrival_scale":
            resolved.append((t, ("rate", float(event.value))))
        else:
            raise ConfigurationError(
                f"timeline kind {event.kind!r} is not epoch-shardable"
            )
    return resolved


def shard_schedule(
    spec: "ExperimentSpec",
    dips: Mapping[DipId, Any],
    index_of: Mapping[DipId, int],
    *,
    warmup_s: float,
    horizon_s: float,
    sync_interval_s: float,
) -> list[tuple[float, tuple]]:
    """An epoch plan's schedule: (boundary, events applied there) pairs."""
    events = _resolve_events(spec, dips, index_of, warmup_s)
    boundaries = epoch_schedule(horizon_s, sync_interval_s, [t for t, _ in events])
    return [
        (t, tuple(e for te, e in events if abs(te - t) <= _EPS)) for t in boundaries
    ]


# ---------------------------------------------------------------------------
# staleness cross-check
# ---------------------------------------------------------------------------


def _rel_delta(a: float, b: float) -> float:
    if b == 0:
        return abs(a - b)
    return abs(a - b) / abs(b)


def staleness_crosscheck(
    spec: "ExperimentSpec",
    *,
    shards: int = 4,
    sync_intervals: Sequence[float] = (0.05, 0.25, 1.0),
    workers: int = 1,
) -> dict[str, Any]:
    """Quantify epoch-sharding error against the serial engine.

    Runs ``spec`` once serially, then once per ``sync_interval_s`` under
    the epoch engine, and reports the relative mean/p50/p99 deltas plus
    the absolute drop-fraction delta for each interval.  This is the
    request-level counterpart of ``request_vs_fluid_crosscheck``: the
    bench reports the table, CI gates on a ceiling, and the tests assert
    ``sync_interval_s → 0`` convergence.
    """
    from repro.api.runners import runner_for
    from repro.parallel.planner import plan_shards
    from repro.parallel.shard import run_request_sharded

    serial = runner_for(spec.runner).run(spec)
    rows: dict[float, dict[str, float]] = {}
    for interval in sync_intervals:
        spec_i = spec.with_overrides({"sync_interval_s": float(interval)})
        plan = plan_shards(spec_i, shards=shards)
        if plan.mode != "epoch":
            raise ConfigurationError(
                f"spec does not epoch-shard: {plan.fallback_reason}"
            )
        epoch = run_request_sharded(spec_i, plan, workers=workers)
        rows[float(interval)] = {
            "mean_latency_ms": epoch.metrics["mean_latency_ms"],
            "p50_latency_ms": epoch.metrics["p50_latency_ms"],
            "p99_latency_ms": epoch.metrics["p99_latency_ms"],
            "drop_fraction": epoch.metrics["drop_fraction"],
            "mean_rel": _rel_delta(
                epoch.metrics["mean_latency_ms"], serial.metrics["mean_latency_ms"]
            ),
            "p50_rel": _rel_delta(
                epoch.metrics["p50_latency_ms"], serial.metrics["p50_latency_ms"]
            ),
            "p99_rel": _rel_delta(
                epoch.metrics["p99_latency_ms"], serial.metrics["p99_latency_ms"]
            ),
            "drop_abs": abs(
                epoch.metrics["drop_fraction"] - serial.metrics["drop_fraction"]
            ),
        }
    return {
        "serial": {
            "mean_latency_ms": serial.metrics["mean_latency_ms"],
            "p50_latency_ms": serial.metrics["p50_latency_ms"],
            "p99_latency_ms": serial.metrics["p99_latency_ms"],
            "drop_fraction": serial.metrics["drop_fraction"],
        },
        "epoch": rows,
    }
