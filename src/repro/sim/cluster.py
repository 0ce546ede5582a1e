"""Request-level cluster simulator.

Couples a workload generator, an LB policy (or MUX pool) and per-DIP
queueing stations into the end-to-end system of Fig. 1/Fig. 2: clients send
requests to the VIP, a MUX picks the DIP for each new connection, the DIP
serves the request through an M/M/c/K queue, and the client-observed latency
is recorded.  This is the substrate behind the policy-comparison experiments
(Figs. 3, 4, 12, 13, 14 and Tables 1, 4, 5).

Hot-path design (``BENCH_request_engine.json`` tracks the speedup):

* **streaming arrivals** — instead of pre-scheduling every Poisson arrival
  upfront (O(total requests) heap entries before the first event fires),
  the cluster keeps exactly one pending arrival event; firing it submits
  the request and schedules the next arrival from a batch of
  :meth:`~repro.sim.client.WorkloadGenerator.next_batch` draws.  Peak heap
  size is O(in-flight requests), independent of run length.
* **resolved dispatch** — whether the policy is a :class:`MuxPool`, needs
  ``advance_time`` (DNS) or inspects the flow 5-tuple is decided once at
  construction, not re-``isinstance``-checked per request; FlowKey objects
  are only built for policies that declare ``uses_flow``.
* **one submit path** — warm-up and measured requests flow through the same
  ``_arrival`` handler; whether a request is recorded is decided by its
  arrival time against the warm-up boundary (the seed had a copy-pasted
  ``_warmup_request`` twin).

That is the *event path*.  A batch :meth:`RequestCluster.run` whose picks
cannot read queue state — a policy declaring ``replayable`` (``rr``,
``wrr``, ``random``, ``wrandom``, ``hash``), no retry layer, no probing, no
MUX pool, no failed DIP, nothing scheduled, clock at 0 — takes the *replay
path* instead: the same arrival batches, the policy's own picks
(``select_many``), then every DIP's sub-stream through
:func:`~repro.sim.queueing.replay_stations` (one
:class:`~repro.sim.queueing.StationWalk` per station, every departure in
one column), every generator consumed as the event loop consumes it.  The
result is the event run's to the last bit
(``tests/property/test_request_replay.py``) at about a third of the cost;
``RunResult.station_path`` says which path ran.  There is no switch: to
force the event engine, drive ``begin`` / ``run_to`` / ``finish``, as the
replay tests and the request-engine benchmarks do.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # sim is below api in the layer map: type-only import
    from repro.api.spec import (
        ArrivalSpec,
        HealthCheckSpec,
        RetryPolicy,
        ServiceSpec,
    )
    from repro.lb.mux import MuxPool

from repro.backends.dip import DipServer
from repro.core.types import DipId, stable_group_order
from repro.exceptions import ConfigurationError
from repro.lb.base import FlowKey, Policy
from repro.sim.client import ClientPool, WorkloadGenerator
from repro.sim.engine import EventScheduler
from repro.sim.queueing import DipStation, replay_stations
from repro.sim.request import Request, RequestOutcome
from repro.sim.trace import MetricsCollector

#: Poisson arrivals drawn per vectorized workload call.
ARRIVAL_BATCH = 4096

_INF = float("inf")

#: retries the budget always allows, so low-volume runs can still retry.
_RETRY_BURST = 10

#: how far past the horizon a batch run goes so in-flight requests complete.
_DRAIN_S = 30.0

#: the period of the utilization snapshots CPU-aware policies observe.
_OBSERVATION_INTERVAL_S = 0.25


def _is_instance(obj: object, module: str, name: str) -> bool:
    """``isinstance(obj, module.name)`` without importing ``module``.

    An instance of the class can only exist once its module is loaded, so a
    cluster fronting a plain policy never imports the MUX or DNS layer.
    """
    loaded = sys.modules.get(module)
    return loaded is not None and isinstance(obj, getattr(loaded, name))


@dataclass
class RunResult:
    """Outcome of one request-level simulation run."""

    metrics: MetricsCollector
    duration_s: float
    requests_submitted: int
    requests_completed: int
    requests_dropped: int
    #: how the stations were driven: ``"replay"`` (each DIP's sub-stream
    #: through the FCFS recursion) or ``"events"`` (the event engine).
    station_path: str = "events"

    @property
    def drop_fraction(self) -> float:
        if self.requests_submitted == 0:
            return 0.0
        return self.requests_dropped / self.requests_submitted


class RequestCluster:
    """A VIP, its DIP pool, one LB policy and an open-loop client workload."""

    def __init__(
        self,
        dips: Mapping[DipId, DipServer],
        policy: Policy | MuxPool,
        *,
        rate_rps: float,
        seed: int | None = None,
        queue_capacity: int = 256,
        clients: ClientPool | None = None,
        health: "HealthCheckSpec | None" = None,
        retry: "RetryPolicy | None" = None,
        arrival: "ArrivalSpec | None" = None,
        service: "ServiceSpec | None" = None,
    ) -> None:
        if not dips:
            raise ConfigurationError("cluster needs at least one DIP")
        self.dips = dict(dips)
        self.policy = policy
        self.scheduler = EventScheduler()
        # Non-Poisson arrival kinds stream through an ArrivalProcess on
        # dedicated RNG lanes; the Poisson default keeps the legacy inline
        # draw, bit-identical with pre-existing artifacts.
        arrivals = None
        if arrival is not None and arrival.kind != "poisson":
            from repro.workloads.arrivals import make_arrival_process

            arrivals = make_arrival_process(arrival, rate_rps, seed=seed)
        self.workload = WorkloadGenerator(
            rate_rps, clients=clients, seed=seed, arrivals=arrivals
        )
        #: the construction-time rate `scale_arrivals` factors are relative
        #: to (a preserve_rate trace pins it to the trace's own rate).
        self._base_rate_rps = float(self.workload.rate_rps)
        self.metrics = MetricsCollector()
        self._seed = seed
        # Resilience layers (both off by default — the oracle-failure /
        # no-retry hot path below stays untouched when they are).
        self._health = health if health is not None and health.enabled else None
        self._retry = retry if retry is not None and retry.enabled else None
        sink = (
            self._on_request_done_retry
            if self._retry is not None
            else self._on_request_done
        )
        self._stations: dict[DipId, DipStation] = {
            dip_id: DipStation(
                server,
                self.scheduler,
                queue_capacity=queue_capacity,
                seed=None if seed is None else seed + index + 1,
                completion_sink=sink,
                service=service,
            )
            for index, (dip_id, server) in enumerate(self.dips.items())
        }
        #: a cluster runs once: arrivals restart at clock 0, the scheduler
        #: and the collector do not.
        self._begun = False
        self._station_path = "events"
        self._submitted = 0
        self._completed = 0
        self._dropped = 0

        # Policy dispatch resolved once, not per request.
        self._mux = _is_instance(policy, "repro.lb.mux", "MuxPool")
        self._dns = (
            policy
            if _is_instance(policy, "repro.lb.dns_lb", "DnsWeightedPolicy")
            else None
        )
        self._needs_flow = getattr(policy, "uses_flow", True)
        self._track_conns = getattr(policy, "uses_connection_counts", True)
        self._select = policy.select
        self._open = policy.on_connection_open
        self._close = policy.on_connection_close

        # Streaming-arrival state (filled per run()).
        self._client_ips = self.workload.client_ips()
        self._vip_address = self.workload.clients.vip_address
        self._vip_port = self.workload.clients.vip_port
        # Arrival buffers hold the *reversed* batch so pop() walks arrivals
        # in time order without index bookkeeping.
        self._arrival_times: list[float] = []
        self._arrival_clients: list[int] = []
        self._arrival_ports: list[int] = []
        self._arrival_clock = 0.0
        self._next_request_id = 0
        self._measure_from = 0.0
        self._measured_duration = 0.0
        self._total_duration = 0.0
        #: recycled Request objects (bounded by the in-flight count).
        self._free_requests: list[Request] = []
        self._record = self.metrics.record_request

        # Probe-based health state (see HealthCheckSpec): LB-side health is
        # *learned* from the probe state machine, never flipped by events.
        if self._health is not None:
            self._probe_fail = {dip_id: 0 for dip_id in self.dips}
            self._probe_ok = {dip_id: 0 for dip_id in self.dips}
            #: DIPs the probe machine currently considers down.
            self._lb_down: set[DipId] = set()
            #: operator-drained DIPs: probes never resurrect these.
            self._admin_down: set[DipId] = set()
        #: dip ids with a drain in progress (recover cancels the kill).
        self._drain_pending: set[DipId] = set()

        # Retry state (see RetryPolicy).  Timeouts ride a deque "wheel"
        # swept from the arrival path: every entry shares the same timeout,
        # so deadlines are append-ordered and no heap events are needed.
        if self._retry is not None:
            self._retry_rng = np.random.default_rng(
                None if seed is None else (seed, 0x5254)
            )
            #: flat (request, token) pairs — scalars rather than per-entry
            #: tuples, and no stored deadline (a valid entry's deadline is
            #: recomputed as request.arrival_time + timeout).  An entry
            #: lives a full timeout before being swept, so anything it
            #: allocated would be tenured by the cyclic GC and every byte
            #: it occupies is cache-cold at sweep time; pairs of existing
            #: objects keep the wheel allocation-free and minimal.
            self._timeout_wheel: deque = deque()
            self._request_timeout_s = self._retry.request_timeout_s
            #: deadline of the wheel head (inf when empty) — deadlines are
            #: append-ordered, so one float compare per arrival suffices to
            #: know whether any entry is due.
            self._wheel_deadline = _INF
            self._retries_issued = 0
            self._record_full = self.metrics.record_request_full
            # Default completed rows go down the plain record path, so the
            # resilience columns must exist even if no row ever differs.
            self.metrics.enable_resilience_columns()

    # -- weight programming (the KnapsackLB-facing interface) --------------------

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        if self._mux:
            self.policy.program_weights(weights)
        else:
            self.policy.set_weights(weights)

    # -- mid-run perturbations (the timeline-facing interface) -------------------
    #
    # These may fire while the simulation is running (scheduled as engine
    # events), so each one keeps the streaming invariants intact: stations
    # pick up capacity changes through the antagonist-history token, the
    # policy's health caches invalidate on set_healthy, and arrival
    # rescaling never reorders the sorted arrival stream.

    def fail_dip(self, dip_id: DipId, *, drain_s: float = 0.0) -> None:
        """Take a DIP down, abruptly or after a graceful drain.

        ``drain_s == 0`` (abrupt): the server dies now.  Without a
        :class:`HealthCheckSpec` the LB-side health flip is modelled as
        immediate (the oracle of earlier revisions); with one, the LB keeps
        routing to the dead DIP until the probe machine crosses its
        unhealthy threshold — new arrivals and queued work bounce off as
        ``FAILED_DIP`` in the interim (in-service requests finish).

        ``drain_s > 0`` (graceful): the drain is operator-initiated, so the
        LB stops routing *now* regardless of health mode, while the server
        keeps serving accepted work and only dies ``drain_s`` later (a
        ``dip_recover`` before then cancels the kill).
        """
        if drain_s > 0:
            self.policy.set_healthy(dip_id, False)
            if self._health is not None:
                self._admin_down.add(dip_id)
                self._lb_down.add(dip_id)
            self._drain_pending.add(dip_id)
            self.scheduler.schedule(drain_s, (self._complete_drain, dip_id))
            return
        self.dips[dip_id].fail()
        if self._health is None:
            # Oracle mode: the LB-side health flip is immediate.
            self.policy.set_healthy(dip_id, False)
        else:
            # The dead server loses what it had queued; the LB only finds
            # out through probes.
            self._stations[dip_id].fail_pending()

    def _complete_drain(self, dip_id: DipId) -> None:
        if dip_id in self._drain_pending:
            self._drain_pending.discard(dip_id)
            self.dips[dip_id].fail()

    def recover_dip(self, dip_id: DipId) -> None:
        if dip_id in self._drain_pending:
            # Recovering mid-drain: the server never died; cancel the kill.
            self._drain_pending.discard(dip_id)
        else:
            self.dips[dip_id].recover()
        if self._health is None:
            self.policy.set_healthy(dip_id, True)
        else:
            # The LB must re-learn health through healthy_threshold
            # consecutive successful probes; clear any admin drain.
            self._admin_down.discard(dip_id)

    def set_capacity_ratio(self, dip_id: DipId, ratio: float) -> None:
        """Pin a DIP's capacity mid-run; future service draws use the new mean."""
        self.dips[dip_id].set_capacity_ratio(ratio, at_time=self.scheduler.now)

    def set_antagonist_copies(self, dip_id: DipId, copies: int) -> None:
        self.dips[dip_id].antagonist.set_copies(
            copies, at_time=self.scheduler.now
        )

    def scale_arrivals(self, factor: float) -> None:
        """Scale offered traffic to ``factor`` × the construction-time rate.

        Safe mid-run: pre-drawn future arrivals are rescaled around the
        already-latched next arrival (``run_stream`` holds its timestamp in
        a local), mapping each later time ``t`` to ``anchor + (t - anchor) /
        g`` where ``g`` is the relative rate change.  The transform is
        monotone, so the sorted-stream invariant survives, and rescaling a
        Poisson process this way yields exactly a Poisson process at the new
        rate — determinism per seed is preserved because the underlying
        exponential draws are untouched.
        """
        if factor <= 0:
            raise ConfigurationError("arrival scale factor must be positive")
        new_rate = self._base_rate_rps * factor
        old_rate = self.workload.rate_rps
        if new_rate == old_rate:
            return
        g = new_rate / old_rate
        times = self._arrival_times
        if times:
            # times is reversed (times[-1] is the next arrival, the anchor).
            anchor = times[-1]
            later = np.asarray(times[:-1], dtype=np.float64)
            times[:-1] = (anchor + (later - anchor) / g).tolist()
            self._arrival_clock = anchor + (self._arrival_clock - anchor) / g
        self.workload.set_rate(new_rate)

    # -- internals -----------------------------------------------------------------

    def _observe_utilization(self) -> None:
        """Feed instantaneous per-DIP utilization to CPU-aware policies."""
        snapshot = {
            dip_id: min(1.0, station.active_requests / station.workers)
            for dip_id, station in self._stations.items()
        }
        # MuxPool and Policy share the observe_utilization signature.
        self.policy.observe_utilization(snapshot)
        next_time = self.scheduler.now + _OBSERVATION_INTERVAL_S
        if next_time < self._total_duration:
            self.scheduler.schedule_at(next_time, self._observe_utilization)

    # -- probe-based health (HealthCheckSpec) ------------------------------------
    #
    # One self-rescheduling engine event per DIP walks its seeded probe
    # grid.  The same state machine runs analytically on the fluid/fleet
    # substrates (api/timeline), so detection instants agree per seed.

    def _probe(self, dip_id: DipId) -> None:
        health = self._health
        now = self.scheduler._now
        if self.dips[dip_id].failed:
            fails = self._probe_fail[dip_id] + 1
            self._probe_fail[dip_id] = fails
            self._probe_ok[dip_id] = 0
            if (
                fails == health.unhealthy_threshold
                and dip_id not in self._lb_down
            ):
                # The threshold-crossing probe is only *known* failed once
                # its timeout expires; route traffic until then.
                self._lb_down.add(dip_id)
                self.scheduler.schedule(
                    health.probe_timeout_s, (self._mark_unhealthy, dip_id)
                )
        else:
            oks = self._probe_ok[dip_id] + 1
            self._probe_ok[dip_id] = oks
            self._probe_fail[dip_id] = 0
            if (
                dip_id in self._lb_down
                and oks >= health.healthy_threshold
                and dip_id not in self._admin_down
            ):
                self._lb_down.discard(dip_id)
                self._probe_ok[dip_id] = 0
                self.policy.set_healthy(dip_id, True)
        next_time = now + health.probe_interval_s
        if next_time < self._total_duration:
            self.scheduler.schedule_at(next_time, (self._probe, dip_id))

    def _mark_unhealthy(self, dip_id: DipId) -> None:
        self.policy.set_healthy(dip_id, False)

    def _draw_arrivals(
        self,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """The next ``ARRIVAL_BATCH`` arrivals: absolute times and, when the
        policy reads flows, client indices and source ports."""
        clients = ports = None
        if self._needs_flow:
            gaps, clients, ports = self.workload.next_batch(ARRIVAL_BATCH)
        else:
            # Flow-less policies skip the client/port draws entirely.
            gaps = self.workload.next_interarrival_batch(ARRIVAL_BATCH)
        times = gaps.cumsum()
        times += self._arrival_clock
        self._arrival_clock = float(times[-1])
        return times, clients, ports

    def _refill_arrivals(self) -> None:
        times, clients, ports = self._draw_arrivals()
        if clients is not None:
            self._arrival_clients = clients[::-1].tolist()
            self._arrival_ports = ports[::-1].tolist()
        self._arrival_times = times[::-1].tolist()

    def _fire_arrival(self) -> float:
        """Submit one request at the current time; return the next arrival time.

        Driven by :meth:`EventScheduler.run_stream`: the arrival stream
        never touches the event heap, and the returned time (``inf`` once
        past the run horizon) tells the engine when to hand control back.
        """
        now = self.scheduler._now
        times = self._arrival_times
        times.pop()  # this arrival's timestamp (already == now)
        if self._needs_flow:
            flow = FlowKey(
                src_ip=self._client_ips[self._arrival_clients.pop()],
                src_port=self._arrival_ports.pop(),
                dst_ip=self._vip_address,
                dst_port=self._vip_port,
            )
        else:
            flow = None
        if self._dns is not None:
            self._dns.advance_time(now)
        dip_id = self._select(flow)
        request_id = self._next_request_id
        self._next_request_id = request_id + 1
        if now >= self._measure_from:
            self._submitted += 1
        pool = self._free_requests
        if pool:
            # Recycle a completed request: every field is re-set before any
            # read on the lifecycle below.
            request = pool.pop()
            request.request_id = request_id
            request.flow = flow
            request.arrival_time = now
            request.dip = dip_id
        else:
            request = Request(request_id, flow, now, dip_id)
        if self._track_conns:
            if self._mux:
                self._open(flow, dip_id)
            else:
                self._open(dip_id)
        self._stations[dip_id].submit(request)
        # Advance the stream (refilling the numpy-drawn batch when drained).
        if not times:
            self._refill_arrivals()
            times = self._arrival_times
        next_time = times[-1]
        return next_time if next_time < self._total_duration else _INF

    def _on_request_done(self, request: Request) -> None:
        """Completion sink shared by every station (bound once, no closures)."""
        dip_id = request.dip
        if self._track_conns:
            if self._mux:
                self._close(request.flow, dip_id)
            else:
                self._close(dip_id)
        arrival_time = request.arrival_time
        if arrival_time < self._measure_from:
            self._free_requests.append(request)
            return  # warm-up request: routed and served but not recorded
        completion_time = request.completion_time
        completed = request.outcome is RequestOutcome.COMPLETED
        if completed:
            self._completed += 1
        else:
            self._dropped += 1
        self._record(
            dip_id,
            (completion_time - arrival_time) * 1000.0
            if completion_time is not None
            else None,
            completed,
            self.scheduler._now,
        )
        self._free_requests.append(request)

    # -- the retry path (RetryPolicy) ---------------------------------------------
    #
    # Mirrors _fire_arrival/_on_request_done but tracks *logical* requests:
    # an attempt that times out, lands on a dead DIP or is dropped may be
    # re-routed after a seeded exponential backoff; one metrics row is
    # recorded per logical request (latency first-arrival → completion,
    # plus attempts / timed_out / gave_up columns).  Bound at construction,
    # so the plain path above never pays for any of it.

    def _fire_arrival_retry(self) -> float:
        now = self.scheduler._now
        times = self._arrival_times
        times.pop()
        if self._needs_flow:
            flow = FlowKey(
                src_ip=self._client_ips[self._arrival_clients.pop()],
                src_port=self._arrival_ports.pop(),
                dst_ip=self._vip_address,
                dst_port=self._vip_port,
            )
        else:
            flow = None
        if self._dns is not None:
            self._dns.advance_time(now)
        dip_id = self._select(flow)
        request_id = self._next_request_id
        self._next_request_id = request_id + 1
        if now >= self._measure_from:
            self._submitted += 1
        pool = self._free_requests
        if pool:
            request = pool.pop()
            request.request_id = request_id
            request.flow = flow
            request.arrival_time = now
            request.dip = dip_id
        else:
            request = Request(request_id, flow, now, dip_id)
        # Pool invariant: recycled (and fresh) requests already carry the
        # defaults attempts=1 / timed_out=False / abandoned=False — every
        # free site below restores them — so only first_arrival is stored.
        request.first_arrival = now
        if self._track_conns:
            if self._mux:
                self._open(flow, dip_id)
            else:
                self._open(dip_id)
        finish = self._stations[dip_id].submit(request)
        if finish is None or finish - now >= self._request_timeout_s:
            # Only attempts that can actually expire go on the wheel: one
            # that started service and finishes before its deadline is
            # token-invalidated before the deadline is ever swept, and a
            # synchronous outcome (finish < 0) already resolved in submit.
            wheel = self._timeout_wheel
            if not wheel:
                self._wheel_deadline = now + self._request_timeout_s
            wheel.append(request)
            wheel.append(request.token)
        # Expire due timeouts.  Piggybacking on the (dense) arrival stream
        # keeps the wheel off the event heap; a timeout is acted on at the
        # first arrival past its deadline — late by O(1/rate) seconds,
        # deterministically.
        if now >= self._wheel_deadline:
            timeout = self._request_timeout_s
            wheel = self._timeout_wheel
            while wheel:
                timed = wheel[0]
                if timed.token != wheel[1]:
                    # Attempt already completed: dead entry, drop eagerly.
                    wheel.popleft()
                    wheel.popleft()
                    continue
                # Valid entry ⇒ the request was never recycled, so its
                # arrival_time is this attempt's submit instant and the
                # deadline need not be stored per entry at all.
                deadline = timed.arrival_time + timeout
                if deadline > now:
                    self._wheel_deadline = deadline
                    break
                wheel.popleft()
                wheel.popleft()
                self._expire_attempt(timed, now)
            else:
                self._wheel_deadline = _INF
        if not times:
            self._refill_arrivals()
            times = self._arrival_times
        next_time = times[-1]
        return next_time if next_time < self._total_duration else _INF

    def _expire_attempt(self, request: Request, now: float) -> None:
        """An attempt outlived the request timeout: abandon and re-route.

        The attempt itself stays in its station (the server does not know
        the client hung up); its eventual completion is discarded.
        """
        request.timed_out = True
        request.abandoned = True
        if self._track_conns:
            if self._mux:
                self._close(request.flow, request.dip)
            else:
                self._close(request.dip)
        self._maybe_retry_or_record(request, now, busy=True)

    def _on_request_done_retry(self, request: Request) -> None:
        request.token += 1  # invalidate this attempt's timeout-wheel entry
        if request.abandoned:
            # Completion of an attempt the retry layer gave up waiting on.
            request.abandoned = False
            request.timed_out = False
            request.attempts = 1
            self._free_requests.append(request)
            return
        if self._track_conns:
            if self._mux:
                self._close(request.flow, request.dip)
            else:
                self._close(request.dip)
        now = self.scheduler._now
        if request.outcome is RequestOutcome.COMPLETED:
            if request.first_arrival >= self._measure_from:
                self._completed += 1
                if request.timed_out or request.attempts != 1:
                    self._record_full(
                        request.dip,
                        (request.completion_time - request.first_arrival) * 1000.0,
                        True,
                        now,
                        request.attempts,
                        request.timed_out,
                        False,
                    )
                    request.timed_out = False
                    request.attempts = 1
                else:
                    # Default row (one clean attempt): the plain record is
                    # equivalent — the resilience columns are filled with
                    # defaults at flush — and skips three argument pushes.
                    self._record(
                        request.dip,
                        (request.completion_time - request.first_arrival) * 1000.0,
                        True,
                        now,
                    )
            elif request.timed_out or request.attempts != 1:
                request.timed_out = False
                request.attempts = 1
            self._free_requests.append(request)
            return
        # FAILED_DIP or DROPPED: candidate for an immediate-decision retry.
        self._maybe_retry_or_record(request, now, busy=False)

    def _maybe_retry_or_record(
        self, request: Request, now: float, *, busy: bool
    ) -> None:
        retry = self._retry
        attempts = request.attempts
        # _next_request_id counts launched attempts (every attempt, retry
        # or not, consumes one id), so it doubles as the budget base.
        budget = retry.retry_budget * self._next_request_id + _RETRY_BURST
        if attempts <= retry.max_retries and self._retries_issued < budget:
            self._retries_issued += 1
            backoff = retry.backoff_base_s * (
                retry.backoff_multiplier ** (attempts - 1)
            )
            if retry.jitter_fraction:
                backoff *= 1.0 + retry.jitter_fraction * (
                    2.0 * self._retry_rng.random() - 1.0
                )
            state = (
                request.first_arrival,
                attempts + 1,
                request.timed_out,
                request.flow.src_ip if request.flow is not None else None,
            )
            self.scheduler.schedule(backoff, (self._fire_retry, state))
        elif request.first_arrival >= self._measure_from:
            self._dropped += 1
            self._record_full(
                request.dip,
                None,
                False,
                now,
                attempts,
                request.timed_out,
                True,
            )
        if not busy:
            if request.timed_out or request.attempts != 1:
                request.timed_out = False
                request.attempts = 1
            self._free_requests.append(request)

    def _fire_retry(self, state: tuple) -> None:
        """Launch the next attempt of a logical request after its backoff."""
        first_arrival, attempts, timed_out, src_ip = state
        now = self.scheduler._now
        if self._needs_flow:
            # A fresh src port: flow-hashing policies re-roll their pick, so
            # the retry can actually land somewhere else.
            flow = FlowKey(
                src_ip=src_ip,
                src_port=int(self._retry_rng.integers(1024, 65536)),
                dst_ip=self._vip_address,
                dst_port=self._vip_port,
            )
        else:
            flow = None
        if self._dns is not None:
            self._dns.advance_time(now)
        dip_id = self._select(flow)
        request_id = self._next_request_id
        self._next_request_id = request_id + 1
        pool = self._free_requests
        if pool:
            request = pool.pop()
            request.request_id = request_id
            request.flow = flow
            request.arrival_time = now
            request.dip = dip_id
        else:
            request = Request(request_id, flow, now, dip_id)
        request.attempts = attempts
        request.first_arrival = first_arrival
        request.timed_out = timed_out
        request.abandoned = False
        if self._track_conns:
            if self._mux:
                self._open(flow, dip_id)
            else:
                self._open(dip_id)
        finish = self._stations[dip_id].submit(request)
        if finish is None or finish - now >= self._request_timeout_s:
            wheel = self._timeout_wheel
            if not wheel:
                self._wheel_deadline = now + self._request_timeout_s
            wheel.append(request)
            wheel.append(request.token)

    # -- driving the simulation -------------------------------------------------------
    #
    # A run is three steps: :meth:`begin` arms it, :meth:`run_to` advances
    # the engine, :meth:`finish` folds the outcome.  :meth:`run` is the batch
    # form (one ``run_to`` past the end); only the tests call ``run_to`` in
    # segments (``test_request_engine.py`` holds them to the continuous
    # run).  Segmenting does not perturb the run: the pending arrival stays
    # at the tail of the sorted stream between calls and heap events keep
    # their times and sequence numbers, so the segments replay the
    # continuous run's exact event sequence.

    def begin(self, *, duration_s: float, warmup_s: float = 0.0) -> None:
        """Arm a run measuring ``duration_s`` after ``warmup_s`` of warm-up.

        Warm-up requests are routed and served so queues reach steady state,
        but are not recorded.
        """
        if self._begun:
            raise ConfigurationError(
                "this cluster has already run; build a fresh one per run"
            )
        self._begun = True
        total_duration = warmup_s + duration_s

        # Stream Poisson arrivals: the sorted stream is merged against the
        # event heap by run_stream, so arrivals never occupy the heap and
        # peak heap size stays O(in-flight requests).
        self._measure_from = warmup_s
        self._measured_duration = duration_s
        self._total_duration = total_duration
        self._arrival_clock = 0.0
        self._refill_arrivals()

        # Periodic utilization observations for CPU-aware policies
        # (self-rescheduling — also streamed rather than pre-scheduled).
        if _OBSERVATION_INTERVAL_S < total_duration:
            self.scheduler.schedule_at(_OBSERVATION_INTERVAL_S, self._observe_utilization)

        # Probe cycles (self-rescheduling, one per DIP on its seeded phase).
        if self._health is not None:
            base_seed = self._seed if self._seed is not None else 0
            for index, dip_id in enumerate(self.dips):
                phase = self._health.probe_phase_s(base_seed, index)
                if phase < total_duration:
                    self.scheduler.schedule_at(phase, (self._probe, dip_id))

    def run_to(self, time_s: float) -> None:
        """Advance the engine to ``time_s`` on its own clock (warm-up included)."""
        pending = self._arrival_times[-1]
        if pending >= self._total_duration:
            pending = _INF
        fire = (
            self._fire_arrival_retry
            if self._retry is not None
            else self._fire_arrival
        )
        self.scheduler.run_stream(time_s, pending, fire)

    def finish(self) -> RunResult:
        """Fold per-DIP utilization and the request counters into the outcome."""
        for dip_id, station in self._stations.items():
            self.metrics.record_utilization(
                {dip_id: station.mean_utilization(self._total_duration)}
            )
        return RunResult(
            metrics=self.metrics,
            duration_s=self._measured_duration,
            requests_submitted=self._submitted,
            requests_completed=self._completed,
            requests_dropped=self._dropped,
            station_path=self._station_path,
        )

    # -- the replay path -----------------------------------------------------------
    #
    # When no pick can read queue state and nothing is scheduled to perturb
    # the run, each DIP is an FCFS station fed by a sub-stream that is known
    # before the first request is served.  run() then draws the arrivals,
    # takes the picks and walks each sub-stream through a
    # :class:`repro.sim.queueing.StationWalk`, consuming every generator
    # exactly as the event loop would — the outcome is the event run's, bit
    # for bit, without an event heap, Request objects or callbacks.

    def _replayable(self) -> bool:
        """Whether a batch run from here is fixed by its arrivals and picks."""
        return (
            not self._begun
            and self._retry is None
            and self._health is None
            and getattr(self.policy, "replayable", False)
            and not self._track_conns
            # picks come back as pool positions: one pool order for both.
            and self.policy.dips == tuple(self.dips)
            # Anything already scheduled (a timeline event, a progress
            # observer) or already run means the engine has work of its own.
            and self.scheduler.now == 0.0
            and self.scheduler.pending_events == 0
            and not any(server.failed for server in self.dips.values())
        )

    def _replay(self, *, duration_s: float, warmup_s: float) -> RunResult:
        self._begun = True
        total_duration = warmup_s + duration_s
        until = total_duration + _DRAIN_S

        # The arrival stream as begin() and _fire_arrival draw it: whole
        # batches until one reaches the horizon, cut at the first arrival
        # not before it.
        self._arrival_clock = 0.0
        batches = [self._draw_arrivals()]
        while self._arrival_clock < total_duration:
            batches.append(self._draw_arrivals())
        times = np.concatenate([batch[0] for batch in batches])
        arrivals = int(times.searchsorted(total_duration, side="left"))
        times = times[:arrivals]

        # The picks, from the policy itself.
        flows = None
        if self._needs_flow:
            ips, address, port = self._client_ips, self._vip_address, self._vip_port
            clients, ports = (
                np.concatenate([batch[column] for batch in batches])[:arrivals]
                for column in (1, 2)
            )
            flows = (
                FlowKey(src_ip=ips[c], src_port=p, dst_ip=address, dst_port=port)
                for c, p in zip(clients.tolist(), ports.tolist())
            )
        del batches
        picks = self.policy.select_many(arrivals, flows)

        # Every station's sub-stream through the recursion into one departure
        # column (grouped by station), scattered back to arrival order, which
        # rows with equal timestamps keep; the records are whole-column passes.
        stations = tuple(self._stations.values())
        order = stable_group_order(picks, len(stations))
        departure = np.empty(arrivals)
        departure[order] = replay_stations(
            stations,
            times[order],
            np.bincount(picks, minlength=len(stations)).tolist(),
            until=until,
        )
        del order
        first = int(times.searchsorted(warmup_s, side="left"))
        arrival, departure = times[first:], departure[first:]
        station_index = picks[first:].astype(np.int32)
        del picks, times
        dropped = np.isnan(departure)
        completed = departure <= until
        measured = arrival.size
        # A drop is stamped at its arrival with its zero sojourn (the
        # completion sink's record), a request in flight at ``until`` never.
        timestamp = np.where(completed, departure, _INF)
        timestamp[dropped] = arrival[dropped]
        departure -= arrival
        departure *= 1000.0
        latency_ms = np.where(completed, departure, 0.0)
        del arrival, departure
        self._dropped += int(np.count_nonzero(dropped))
        self.metrics.adopt_run(
            tuple(self._stations), latency_ms, station_index, completed, timestamp
        )
        self._measured_duration = duration_s
        self._total_duration = total_duration
        self._submitted = measured
        self._completed = self.metrics.total_requests - self._dropped
        self.scheduler.run_until(until)
        self._station_path = "replay"
        return self.finish()

    def run(
        self,
        *,
        num_requests: int | None = None,
        duration_s: float | None = None,
        warmup_s: float = 0.0,
    ) -> RunResult:
        """Run the simulation for a request budget or a duration."""
        if (num_requests is None) == (duration_s is None):
            raise ConfigurationError("specify exactly one of num_requests / duration_s")

        if duration_s is None:
            assert num_requests is not None
            duration_s = num_requests / self.workload.rate_rps
        if self._replayable():
            return self._replay(duration_s=duration_s, warmup_s=warmup_s)
        self.begin(duration_s=duration_s, warmup_s=warmup_s)
        # Run past the end so in-flight requests complete.
        self.run_to(self._total_duration + _DRAIN_S)
        return self.finish()

    # -- observation -------------------------------------------------------------------

    def station(self, dip_id: DipId) -> DipStation:
        return self._stations[dip_id]

    def request_share(self) -> dict[DipId, float]:
        return self.metrics.request_share()
