"""Per-DIP queueing dynamics for the request-level simulator.

Each DIP is modelled as an M/M/c/K station: ``c`` workers (vCPUs), an
exponential service time whose mean tracks the DIP's *current* capacity
(antagonists slow every request down), and a finite queue of length ``K``
beyond which requests are dropped.  This is the generative counterpart of
the analytic :class:`repro.backends.latency_model.LatencyModel`, so the
request-level and fluid simulations agree on means by construction
(``tests/unit/test_request_engine.py`` checks that agreement).

Hot-path design: each station owns its RNG and draws *unit* exponentials in
batches (one vectorized call per ``SERVICE_BATCH`` requests), scaling by the
current mean service time at consumption — so antagonist-driven capacity
changes still affect every in-flight draw, and per-station draw order is
preserved regardless of how arrivals interleave across stations.  Service
completions are scheduled as ``(bound_method, request)`` heap payloads
instead of per-request closures.

A station whose arrival sub-stream is fixed before the run starts (the
picks never read queue state) needs none of that: FCFS service order is
arrival order, so :func:`simulate_station` walks the sub-stream through the
Kiefer-Wolfowitz recursion — no event heap, no ``Request`` objects, no
callbacks.  It is the one statement of the drop rule, the warm-up rule and
the tie rule outside the event path; :meth:`DipStation.replay` (the serial
replay in :mod:`repro.sim.cluster`) and the exact-mode shards of
:mod:`repro.parallel` both run it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Iterator

import collections

import numpy as np

from repro.backends.dip import DipServer
from repro.exceptions import ConfigurationError
from repro.sim.engine import EventScheduler
from repro.sim.request import Request, RequestOutcome

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.api.spec import ServiceSpec

_heappush = heapq.heappush

CompletionCallback = Callable[[Request], None]

#: unit-exponential draws per vectorized RNG call.
SERVICE_BATCH = 512

#: arrivals ``simulate_station`` turns into Python floats at a time.
_WALK_SLICE = 65536

_COMPLETED = RequestOutcome.COMPLETED

_NAN = float("nan")
_INF = float("inf")


@dataclass(slots=True)
class DipQueueStats:
    """Counters a station accumulates over a simulation run."""

    arrivals: int = 0
    completions: int = 0
    drops: int = 0
    busy_time_s: float = 0.0
    #: integral of (busy workers) over time, for mean-utilization reporting.
    busy_worker_seconds: float = 0.0


@dataclass
class StationOutcome:
    """One DIP's simulated run: measured record columns plus counters.

    The columns hold one row per measured arrival, in arrival order (the
    order is part of the determinism contract — merged metrics must not
    depend on completion interleaving across shards).  ``latency_ms`` is
    NaN for drops, whose timestamp is their arrival time, as the event
    engine stamps them; a request still in the station at ``until`` has no
    record there, and its row reads NaN / ``inf``.
    """

    latency_ms: np.ndarray
    completed: np.ndarray
    timestamp: np.ndarray
    submitted: int
    dropped: int
    #: summed service time of everything admitted.
    busy_seconds: float
    #: with ``account``: what a :class:`DipStation` fed the same arrivals
    #: counts, and how many requests it still holds at ``until``.
    stats: DipQueueStats | None = None
    in_system: int = 0


def departure_columns(
    arrivals: np.ndarray, departure: np.ndarray, until: float = _INF
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(latency_ms, completed, timestamp, dropped)``, one row per arrival.

    ``departure`` holds each arrival's departure time, NaN for a drop; the
    rows read as :class:`StationOutcome` describes.  Shared with the epoch
    engine's persistent stations, which walk the same recursion one epoch
    at a time (:class:`repro.parallel.epoch.StationSim`).
    """
    dropped = np.isnan(departure)
    completed = departure <= until
    timestamp = np.where(dropped, arrivals, np.where(completed, departure, _INF))
    latency_ms = np.where(completed, (departure - arrivals) * 1000.0, _NAN)
    return latency_ms, completed, timestamp, dropped


def simulate_station(
    arrivals: np.ndarray,
    services: "np.ndarray | Iterator[float]",
    *,
    servers: int,
    queue_capacity: int,
    measure_from: float = 0.0,
    until: float = _INF,
    account: bool = False,
) -> StationOutcome:
    """Simulate one FCFS M/M/c/K station over its sorted arrival sub-stream.

    The Kiefer-Wolfowitz recursion: a ``servers``-entry heap of worker-free
    times gives each admitted request its start, and a heap of the
    departures still ahead gives the in-system count the drop rule reads
    (an arrival finding ``servers + queue_capacity`` in the system is
    dropped).  A departure stamped exactly at an arrival's time leaves
    first — the tie rule ``EventScheduler.run_stream`` fixes.  Requests
    arriving before ``measure_from`` shape the queue but produce no record,
    and nothing happens after ``until`` (every arrival is expected before
    it): a request that would start service later takes no draw, one that
    would depart later has no record.

    ``services`` holds (already scaled) service times.  An array is aligned
    to ``arrivals`` — a drop skips its entry, which is how exact-mode
    shards draw them; any other iterator is read once per request that
    starts service, which is how a :class:`DipStation` consumes its
    generator.  ``account`` adds the station's own bookkeeping to the
    outcome (:func:`_station_stats`, one sort of its events).
    """
    if servers < 1:
        raise ConfigurationError("servers must be >= 1")
    if queue_capacity < 0:
        raise ConfigurationError("queue_capacity must be >= 0")
    aligned = services if isinstance(services, np.ndarray) else None
    draw = None if aligned is not None else services.__next__
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    free = [0.0] * servers
    in_system: list[float] = []
    capacity = servers + queue_capacity
    service_sum = 0.0
    # Each arrival's departure: NaN for a drop, inf past ``until``.  Walked a
    # slice at a time, so the Python floats in flight stay a bounded few MB.
    departure = np.empty(arrivals.size, dtype=np.float64)
    out: list[float] = []
    append = out.append
    for lo in range(0, arrivals.size, _WALK_SLICE):
        part = slice(lo, lo + _WALK_SLICE)
        for a, service in zip(
            arrivals[part].tolist(),
            itertools.repeat(None) if aligned is None else aligned[part].tolist(),
        ):
            while in_system and in_system[0] <= a:
                heappop(in_system)
            if len(in_system) >= capacity:
                append(_NAN)
                continue
            start = free[0]
            if a > start:
                start = a
            if start > until:
                leaves = _INF
            else:
                if service is None:
                    service = draw()
                leaves = start + service
                heapreplace(free, leaves)
                service_sum += service
            heappush(in_system, leaves)
            append(leaves)
        departure[part] = out
        out.clear()
    latency_ms, completed, timestamp, dropped = departure_columns(
        arrivals, departure, until
    )
    # One row per arrival so far; the warm-up rule cuts the leading ones.
    first = int(arrivals.searchsorted(measure_from, side="left"))
    outcome = StationOutcome(
        latency_ms=latency_ms[first:],
        completed=completed[first:],
        timestamp=timestamp[first:],
        submitted=arrivals.size - first,
        dropped=int(np.count_nonzero(dropped[first:])),
        busy_seconds=service_sum,
    )
    if account:
        outcome.stats = _station_stats(
            arrivals, timestamp[completed], ~dropped, servers=servers, until=until
        )
        outcome.in_system = (
            arrivals.size - outcome.stats.drops - outcome.stats.completions
        )
    return outcome


def _station_stats(
    arrivals: np.ndarray,
    departures: np.ndarray,
    admitted: np.ndarray,
    *,
    servers: int,
    until: float,
) -> DipQueueStats:
    """What :class:`DipStation` counts over a run, from the run's events.

    The station integrates busy workers at every arrival and departure in
    time order (a departure before an arrival of the same instant), one
    ``+=`` per event; ``cumsum`` is that same left-to-right sum, so the
    integrals come out to the last bit.
    """
    # The integral closes at ``until``; with none, at the last departure.
    closing = [until] if until < _INF else []
    times = np.concatenate([departures, arrivals, closing])
    step = np.zeros(times.size, dtype=np.int8)
    step[: departures.size] = -1
    step[departures.size : departures.size + arrivals.size] = admitted
    order = times.argsort(kind="stable")
    times, step = times[order], step[order]
    del order
    holding = step.cumsum(dtype=np.int32)
    holding -= step  # in the station just before each event
    elapsed = np.diff(times, prepend=0.0)
    del times
    worker_seconds = np.minimum(holding, servers) * elapsed
    elapsed *= holding > 0
    return DipQueueStats(
        arrivals=arrivals.size,
        completions=departures.size,
        drops=arrivals.size - int(np.count_nonzero(admitted)),
        busy_time_s=float(elapsed.cumsum(out=elapsed)[-1]),
        busy_worker_seconds=float(worker_seconds.cumsum(out=worker_seconds)[-1]),
    )


class DipStation:
    """The M/M/c/K queue representing one DIP in the request simulator."""

    __slots__ = (
        "dip",
        "_scheduler",
        "_queue_capacity",
        "_rng",
        "_waiting",
        "_busy_workers",
        "_last_change",
        "_workers",
        "_svc_buf",
        "_svc_mean",
        "_svc_token",
        "_svc_draw",
        "_sink",
        "stats",
    )

    def __init__(
        self,
        dip: DipServer,
        scheduler: EventScheduler,
        *,
        queue_capacity: int = 256,
        seed: int | None = None,
        completion_sink: CompletionCallback | None = None,
        service: "ServiceSpec | None" = None,
    ) -> None:
        if queue_capacity < 0:
            raise ConfigurationError("queue_capacity must be >= 0")
        self.dip = dip
        self._scheduler = scheduler
        self._queue_capacity = queue_capacity
        self._rng = np.random.default_rng(seed)
        # Unit-mean batched service sampler.  The default is the
        # generator's own bound standard_exponential — the bit-identical
        # legacy path; non-exponential kinds swap in a sampler from
        # repro.workloads.arrivals on the same generator.
        if service is None or service.kind == "exponential":
            self._svc_draw = self._rng.standard_exponential
        else:
            from repro.workloads.arrivals import unit_service_sampler

            self._svc_draw = unit_service_sampler(service, self._rng)
        #: waiting requests with their completion callbacks (FIFO).
        self._waiting: Deque[tuple[Request, CompletionCallback]] = collections.deque()
        self._busy_workers = 0
        self._last_change = scheduler.now
        self._workers = dip.vm_type.vcpus
        #: pre-drawn unit exponentials, reversed so pop() preserves draw order.
        self._svc_buf: list[float] = []
        # The mean service time is cached against the antagonist's change
        # history (every capacity change appends an entry), avoiding a
        # scaled_model construction per request on degraded DIPs.
        self._svc_mean = self._mean_service_time_s()
        self._svc_token = len(dip.antagonist.history)
        self._sink = completion_sink
        self.stats = DipQueueStats()

    # -- service-time model --------------------------------------------------

    @property
    def workers(self) -> int:
        return self._workers

    def set_completion_sink(self, sink: CompletionCallback) -> None:
        """Default completion callback for ``submit`` calls that omit one."""
        self._sink = sink

    def _mean_service_time_s(self) -> float:
        """Current mean per-request service time (antagonist-aware).

        Unit exponentials are pre-drawn in batches (see ``_start_service``);
        scaling by this mean at consumption keeps draws tracking the DIP's
        *current* capacity.
        """
        model = self.dip.latency_model
        return model.servers / model.capacity_rps

    # -- utilization accounting ------------------------------------------------

    def _account(self) -> None:
        now = self._scheduler.now
        elapsed = now - self._last_change
        if elapsed > 0:
            busy = self._busy_workers
            stats = self.stats
            stats.busy_worker_seconds += busy * elapsed
            if busy > 0:
                stats.busy_time_s += elapsed
            self._last_change = now

    def mean_utilization(self, duration_s: float) -> float:
        """Time-averaged CPU utilization over ``duration_s`` of simulation."""
        if duration_s <= 0:
            return 0.0
        self._account()
        return min(1.0, self.stats.busy_worker_seconds / (self._workers * duration_s))

    @property
    def active_requests(self) -> int:
        return self._busy_workers + len(self._waiting)

    # -- replay ----------------------------------------------------------------

    def _service_times(self) -> Iterator[float]:
        """Service times in draw order, consumed the way ``submit`` does:
        unit draws in ``SERVICE_BATCH`` refills of ``_svc_buf``, scaled by
        the mean read at the first start of service."""
        token = len(self.dip.antagonist.history)
        if token != self._svc_token:
            self._svc_mean = self._mean_service_time_s()
            self._svc_token = token
        mean = self._svc_mean
        while True:
            buf = self._svc_buf
            if not buf:
                buf = self._svc_buf = self._svc_draw(SERVICE_BATCH)[::-1].tolist()
            while buf:
                yield buf.pop() * mean

    def replay(
        self, arrivals: np.ndarray, *, measure_from: float, until: float
    ) -> StationOutcome:
        """Serve a whole run's arrivals at once, for a run in which nothing
        changes the station between its first arrival and ``until``.

        Leaves the generator, the draw buffer and the counters where
        submitting the same arrivals through an event loop run to ``until``
        leaves them; the records come back as columns instead of through
        the completion sink, and a line still waiting at ``until`` (nothing
        will serve it) is counted in the outcome, not rebuilt.
        """
        outcome = simulate_station(
            arrivals,
            self._service_times(),
            servers=self._workers,
            queue_capacity=self._queue_capacity,
            measure_from=measure_from,
            until=until,
            account=True,
        )
        self.stats = outcome.stats
        self._busy_workers = min(self._workers, outcome.in_system)
        self._last_change = until
        return outcome

    # -- request lifecycle -----------------------------------------------------

    def submit(
        self, request: Request, on_complete: CompletionCallback | None = None
    ) -> float | None:
        """Accept a request routed to this DIP.

        ``on_complete`` defaults to the station's completion sink (set once
        by the cluster), so the hot path passes no per-request callable.
        The busy/idle accounting is inlined here and in the finish handlers:
        these two methods run once per simulated request each.

        Returns the scheduled completion time when service starts
        immediately, ``-1.0`` when the outcome was decided synchronously
        (dead DIP, queue overflow — ``on_complete`` already ran), and
        ``None`` when the request was queued.  The retry layer uses this
        to skip timeout-wheel entries that can never expire.
        """
        if on_complete is None:
            on_complete = self._sink
            if on_complete is None:
                raise ConfigurationError(
                    "submit() needs on_complete or a completion sink"
                )
        stats = self.stats
        stats.arrivals += 1
        scheduler = self._scheduler
        if self.dip.failed:
            request.outcome = RequestOutcome.FAILED_DIP
            request.completion_time = scheduler._now
            on_complete(request)
            return -1.0
        now = scheduler._now
        busy = self._busy_workers
        elapsed = now - self._last_change
        if elapsed > 0:
            stats.busy_worker_seconds += busy * elapsed
            if busy > 0:
                stats.busy_time_s += elapsed
            self._last_change = now
        if busy < self._workers:
            # Uncontended start (inlined _start_service — the common case).
            # The completion event is heap-pushed directly: service times
            # are never negative and never cancelled, so the engine's
            # schedule() checks are skipped (same tuple layout).
            self._busy_workers = busy + 1
            request.start_service_time = now
            buf = self._svc_buf
            if not buf:
                buf = self._svc_draw(SERVICE_BATCH)[::-1].tolist()
                self._svc_buf = buf
            token = len(self.dip.antagonist.history)
            if token != self._svc_token:
                self._svc_mean = self._mean_service_time_s()
                self._svc_token = token
            finish = now + buf.pop() * self._svc_mean
            seq = scheduler._next_seq
            scheduler._next_seq = seq + 1
            queue = scheduler._queue
            if on_complete is self._sink:
                _heappush(queue, (finish, seq, (self._finish_to_sink, request)))
            else:
                _heappush(
                    queue, (finish, seq, (self._finish_to, (request, on_complete)))
                )
            pending = len(queue) - scheduler._cancelled
            if pending > scheduler._peak:
                scheduler._peak = pending
            return finish
        elif len(self._waiting) < self._queue_capacity:
            self._waiting.append((request, on_complete))
            return None
        else:
            stats.drops += 1
            request.outcome = RequestOutcome.DROPPED
            request.completion_time = now
            on_complete(request)
            return -1.0

    def fail_pending(self) -> None:
        """Bounce every queued (not yet in service) request off the station.

        Called when the DIP's server dies abruptly under probe-based
        health: work the dead server had accepted but not started is lost
        and completes immediately as ``FAILED_DIP`` (the retry layer may
        re-route it).  Requests already *in service* are allowed to finish
        — the failure model targets routing, not preemption.
        """
        now = self._scheduler.now
        stats = self.stats
        while self._waiting:
            request, on_complete = self._waiting.popleft()
            stats.drops += 1
            request.outcome = RequestOutcome.FAILED_DIP
            request.completion_time = now
            on_complete(request)

    def _start_service(self, request: Request, on_complete: CompletionCallback) -> None:
        """Start serving ``request`` (dequeue path; submit inlines this)."""
        self._busy_workers += 1
        scheduler = self._scheduler
        request.start_service_time = scheduler._now
        buf = self._svc_buf
        if not buf:
            buf = self._svc_draw(SERVICE_BATCH)[::-1].tolist()
            self._svc_buf = buf
        token = len(self.dip.antagonist.history)
        if token != self._svc_token:
            self._svc_mean = self._mean_service_time_s()
            self._svc_token = token
        delay = buf.pop() * self._svc_mean
        if on_complete is self._sink:
            scheduler.schedule(delay, (self._finish_to_sink, request))
        else:
            scheduler.schedule(delay, (self._finish_to, (request, on_complete)))

    def _finish_to_sink(self, request: Request) -> None:
        """Service completion for a sink-routed request (the hot path).

        Busy/idle accounting is inlined (this runs once per request).
        """
        now = self._scheduler._now
        busy = self._busy_workers
        stats = self.stats
        elapsed = now - self._last_change
        if elapsed > 0:
            stats.busy_worker_seconds += busy * elapsed
            if busy > 0:
                stats.busy_time_s += elapsed
            self._last_change = now
        self._busy_workers = busy - 1
        request.completion_time = now
        request.outcome = _COMPLETED
        stats.completions += 1
        self._sink(request)
        if self._waiting and self._busy_workers < self._workers:
            queued, callback = self._waiting.popleft()
            self._start_service(queued, callback)

    def _finish_to(self, item: tuple[Request, CompletionCallback]) -> None:
        """Service completion for a request with an explicit callback."""
        request, on_complete = item
        now = self._scheduler._now
        busy = self._busy_workers
        stats = self.stats
        elapsed = now - self._last_change
        if elapsed > 0:
            stats.busy_worker_seconds += busy * elapsed
            if busy > 0:
                stats.busy_time_s += elapsed
            self._last_change = now
        self._busy_workers = busy - 1
        request.completion_time = now
        request.outcome = _COMPLETED
        stats.completions += 1
        on_complete(request)
        if self._waiting and self._busy_workers < self._workers:
            queued, callback = self._waiting.popleft()
            self._start_service(queued, callback)
