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

A station whose arrival sub-stream is known before it is served (the
picks never read queue state, or read it only at epoch barriers) needs
none of that: FCFS service order is arrival order, so a
:class:`StationWalk` takes the sub-stream through the Kiefer-Wolfowitz
recursion — no event heap, no ``Request`` objects, no callbacks — and can
be resumed where it stopped.  It is the one statement of the drop rule
and the tie rule outside the event path: :func:`replay_stations` (the
serial replay in :mod:`repro.sim.cluster`, every station's departures in
one column) and the shards of :mod:`repro.parallel` drive it, and
:func:`simulate_station` runs it over an array of services.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Sequence

import collections

import numpy as np

from repro import kernels
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
    #: counts.
    stats: DipQueueStats | None = None


class StationWalk:
    """One FCFS M/M/c/K station walked through the Kiefer-Wolfowitz recursion.

    The walk keeps its state between calls, so a sorted arrival sub-stream
    fed in any number of slices (the epoch engine feeds one per epoch)
    gives the result of feeding it in one.  A ``servers``-entry heap of
    worker-free times gives each admitted request its start; starts never
    decrease under FCFS, so an arrival at ``a`` finds the station full iff
    the ``queue_capacity``-th latest admission that had to wait starts
    after ``a`` — with no queue, iff every worker frees after ``a`` — and
    those starts are all the walk keeps of the requests it holds.  A
    worker freeing exactly at ``a`` serves it (a departure leaves first,
    ``EventScheduler.run_stream``'s tie rule).  ARCHITECTURE.md ("The
    replay path") has the proof.

    Service times come from an array aligned to the arrivals, passed to
    :meth:`advance` (a drop skips its entry — :func:`simulate_station`'s
    input), or else from unit draws that ``draw(SERVICE_BATCH)`` refills
    when a start finds them spent, taken one per start of service and
    scaled by ``mean`` — seeded from ``buf``, :class:`DipStation`'s own
    buffer, and read back from :attr:`buf`, so a replay leaves it where
    the event loop would.  Nothing happens after ``until``
    (every arrival is expected before it): a request that would start
    later takes no draw, and its departure reads ``inf``.
    """

    __slots__ = (
        "servers",
        "queue_capacity",
        "mean",
        "busy_seconds",
        "_draw",
        "_free",
        "_ring",
        "_pos",
        "_units",
        "_cursor",
        "_arrivals",
        "_departures",
    )

    def __init__(
        self,
        servers: int,
        queue_capacity: int,
        *,
        draw: Callable[[int], np.ndarray] | None = None,
        mean: float = 1.0,
        buf: list[float] | None = None,
    ) -> None:
        if servers < 1:
            raise ConfigurationError("servers must be >= 1")
        if queue_capacity < 0:
            raise ConfigurationError("queue_capacity must be >= 0")
        self.servers = servers
        self.queue_capacity = queue_capacity
        #: mean service time the buffered unit draws are scaled by.
        self.mean = mean
        #: summed service time of everything admitted.
        self.busy_seconds = 0.0
        self._draw = draw
        # A heap of worker-free times.
        self._free = np.zeros(servers)
        # The starts of the last ``queue_capacity`` admissions that waited,
        # oldest at ``_pos``; -inf pads it, so the drop test needs no count.
        self._ring = np.full(queue_capacity, -_INF)
        self._pos = 0
        # Unit draws in draw order, the next one at ``_cursor``.
        self._units = np.array(buf[::-1] if buf else (), dtype=np.float64)
        self._cursor = 0
        # One row per arrival so far: its time and its departure.
        self._arrivals = array("d")
        self._departures = array("d")

    @property
    def buf(self) -> list[float]:
        """The unused unit draws, reversed so pop() preserves draw order
        (:class:`DipStation`'s buffer)."""
        return self._units[self._cursor :][::-1].tolist()

    def advance(
        self,
        arrivals: np.ndarray,
        services: np.ndarray | None = None,
        *,
        until: float = _INF,
    ) -> np.ndarray:
        """Admit ``arrivals`` (sorted, none before an earlier call's) and
        return each one's departure: NaN for a drop, ``inf`` past ``until``.

        :meth:`fill`, keeping the rows for :meth:`outcome`.
        """
        arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
        departures = np.empty(arrivals.size)
        self.fill(arrivals, departures, services, until=until)
        self._arrivals.frombytes(arrivals.tobytes())
        self._departures.frombytes(departures.tobytes())
        return departures

    def fill(
        self,
        arrivals: np.ndarray,
        departures: np.ndarray,
        services: np.ndarray | None = None,
        *,
        until: float = _INF,
    ) -> None:
        """Admit ``arrivals`` (contiguous float64, sorted, none before an
        earlier call's) and write each one's departure into ``departures``,
        keeping no row.

        The loop is :func:`repro.kernels.walk`, over the whole stream; in
        buffered mode it stops when the unit draws run dry and resumes at
        that arrival after a ``draw(SERVICE_BATCH)`` refill, so the draws are
        the event loop's.
        """
        aligned = services is not None
        if aligned:
            services = np.ascontiguousarray(services, dtype=np.float64)
            if services.shape != arrivals.shape:
                raise ConfigurationError("services must align with the arrivals")
            draws, cursor, scale = services, 0, 1.0
        elif self._draw is None:
            raise ConfigurationError("a walk without a draw needs aligned services")
        else:
            draws, cursor, scale = self._units, self._cursor, self.mean
        done = 0
        while True:
            done, cursor, self._pos, self.busy_seconds = kernels.walk(
                arrivals, departures, done, self._free, self._ring, self._pos,
                draws, cursor, scale, aligned, until, self.busy_seconds,
            )
            if done == arrivals.size:
                break
            draws = np.ascontiguousarray(self._draw(SERVICE_BATCH), dtype=np.float64)
            cursor = 0
        if not aligned:
            self._units, self._cursor = draws, cursor

    def in_system(self, t: float) -> int:
        """Requests in the station at ``t``, no earlier than the last arrival.

        The waiting ones are the admissions that start after ``t`` (a count
        over the ring of kept starts); while one waits every worker is busy,
        otherwise the population is the number of workers that free after
        ``t``.
        """
        ring = self._ring
        if ring.size and ring[self._pos - 1] > t:
            return int(np.count_nonzero(ring > t)) + self.servers
        busy = 0
        for leaves in self._free.tolist():
            if leaves > t:
                busy += 1
        return busy

    def run(
        self,
        arrivals: np.ndarray,
        services: np.ndarray | None = None,
        *,
        measure_from: float = 0.0,
        until: float = _INF,
        account: bool = False,
    ) -> StationOutcome:
        """Walk a whole sub-stream and report it (:meth:`outcome`)."""
        self.advance(arrivals, services, until=until)
        return self.outcome(measure_from=measure_from, until=until, account=account)

    def outcome(
        self,
        *,
        measure_from: float = 0.0,
        until: float = _INF,
        account: bool = False,
    ) -> StationOutcome:
        """The walk so far as :class:`StationOutcome` columns.

        Requests arriving before ``measure_from`` shaped the queue but get
        no row; one that departs after ``until`` has no record.
        ``account`` adds the station's own bookkeeping
        (:func:`_station_stats`, one merge of its events).
        """
        arrivals = np.frombuffer(self._arrivals, dtype=np.float64)
        departure = np.frombuffer(self._departures, dtype=np.float64)
        dropped = np.isnan(departure)
        completed = departure <= until
        timestamp = np.where(dropped, arrivals, np.where(completed, departure, _INF))
        latency_ms = np.where(completed, (departure - arrivals) * 1000.0, _NAN)
        first = int(arrivals.searchsorted(measure_from, side="left"))
        outcome = StationOutcome(
            latency_ms=latency_ms[first:],
            completed=completed[first:],
            timestamp=timestamp[first:],
            submitted=arrivals.size - first,
            dropped=int(np.count_nonzero(dropped[first:])),
            busy_seconds=self.busy_seconds,
        )
        if account:
            outcome.stats = _station_stats(
                arrivals,
                timestamp[completed],
                ~dropped,
                servers=self.servers,
                until=until,
            )
        return outcome


def simulate_station(
    arrivals: np.ndarray,
    services: np.ndarray,
    *,
    servers: int,
    queue_capacity: int,
    measure_from: float = 0.0,
    until: float = _INF,
    account: bool = False,
) -> StationOutcome:
    """Simulate one FCFS M/M/c/K station over its sorted arrival sub-stream.

    ``services`` holds (already scaled) service times aligned to
    ``arrivals``; :class:`StationWalk` states the rules.
    """
    return StationWalk(servers, queue_capacity).run(
        arrivals, services, measure_from=measure_from, until=until, account=account
    )


def _station_stats(
    arrivals: np.ndarray,
    departures: np.ndarray,
    admitted: np.ndarray,
    *,
    servers: int,
    until: float,
) -> DipQueueStats:
    """What :class:`DipStation` counts over a run, from the run's events.

    ``departures`` (the completed ones) are sorted in place; the busy
    integrals are :func:`repro.kernels.station_stats`, one merge of them
    with the sorted arrivals.
    """
    departures.sort()
    busy_time_s, busy_worker_seconds = kernels.station_stats(
        arrivals, admitted, departures, servers, until
    )
    return DipQueueStats(
        arrivals=arrivals.size,
        completions=departures.size,
        drops=arrivals.size - int(np.count_nonzero(admitted)),
        busy_time_s=busy_time_s,
        busy_worker_seconds=busy_worker_seconds,
    )


def replay_stations(
    stations: Sequence["DipStation"],
    arrivals: np.ndarray,
    sizes: Sequence[int],
    *,
    until: float,
) -> np.ndarray:
    """Serve each station its run of ``arrivals`` at once, for a run in
    which nothing changes a station between its first arrival and ``until``.

    ``arrivals`` holds the stations' sub-streams back to back (each sorted,
    ``sizes[k]`` of them for ``stations[k]``); returns the departure of each
    (NaN for a drop, ``inf`` past ``until``) in the same order.  Per
    station, only the walk (:meth:`StationWalk.fill`, popping its
    ``_svc_buf`` one draw per start of service, scaled by the
    antagonist-aware mean, and refilling it from its own generator as
    ``submit`` does) and :func:`_station_stats` run on their own; the
    masks they read are passes over the whole column.
    Leaves the generators, the draw buffers and the counters where
    submitting the same arrivals through an event loop run to ``until``
    leaves them; a line still waiting at ``until`` (nothing will serve it)
    is counted in ``stats``, not rebuilt.
    """
    departures = np.empty(arrivals.size)
    edges = [0, *itertools.accumulate(sizes)]
    for station, lo, hi in zip(stations, edges, edges[1:]):
        walk = StationWalk(
            station._workers,
            station._queue_capacity,
            draw=station._svc_draw,
            mean=station._mean_service_time_s(),
            buf=station._svc_buf,
        )
        walk.fill(arrivals[lo:hi], departures[lo:hi], until=until)
        station._svc_buf = walk.buf
    admitted = ~np.isnan(departures)
    completed = departures <= until
    finished = departures[completed]
    done = 0
    for station, lo, hi in zip(stations, edges, edges[1:]):
        mine = finished[done : done + np.count_nonzero(completed[lo:hi])]
        done += mine.size
        stats = station.stats = _station_stats(
            arrivals[lo:hi], mine, admitted[lo:hi], servers=station._workers, until=until
        )
        held = stats.arrivals - stats.drops - stats.completions  # at ``until``
        station._busy_workers = min(station._workers, held)
        station._last_change = until
    return departures


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
        completion_sink: CompletionCallback,
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
        #: waiting requests (FIFO).
        self._waiting: Deque[Request] = collections.deque()
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

    # -- request lifecycle -----------------------------------------------------

    def submit(self, request: Request) -> float | None:
        """Accept a request routed to this DIP.

        Every outcome goes to the station's completion sink (set once by the
        cluster), so the hot path passes no per-request callable.  The
        busy/idle accounting is inlined here and in the finish handler:
        these two methods run once per simulated request each.

        Returns the scheduled completion time when service starts
        immediately, ``-1.0`` when the outcome was decided synchronously
        (dead DIP, queue overflow — the sink already ran), and ``None``
        when the request was queued.  The retry layer uses this to skip
        timeout-wheel entries that can never expire.
        """
        stats = self.stats
        stats.arrivals += 1
        scheduler = self._scheduler
        if self.dip.failed:
            request.outcome = RequestOutcome.FAILED_DIP
            request.completion_time = scheduler._now
            self._sink(request)
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
            _heappush(queue, (finish, seq, (self._finish, request)))
            pending = len(queue) - scheduler._cancelled
            if pending > scheduler._peak:
                scheduler._peak = pending
            return finish
        elif len(self._waiting) < self._queue_capacity:
            self._waiting.append(request)
            return None
        else:
            stats.drops += 1
            request.outcome = RequestOutcome.DROPPED
            request.completion_time = now
            self._sink(request)
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
            request = self._waiting.popleft()
            stats.drops += 1
            request.outcome = RequestOutcome.FAILED_DIP
            request.completion_time = now
            self._sink(request)

    def _start_service(self, request: Request) -> None:
        """Start serving ``request`` (dequeue path; submit inlines this)."""
        self._busy_workers += 1
        buf = self._svc_buf
        if not buf:
            buf = self._svc_draw(SERVICE_BATCH)[::-1].tolist()
            self._svc_buf = buf
        token = len(self.dip.antagonist.history)
        if token != self._svc_token:
            self._svc_mean = self._mean_service_time_s()
            self._svc_token = token
        delay = buf.pop() * self._svc_mean
        self._scheduler.schedule(delay, (self._finish, request))

    def _finish(self, request: Request) -> None:
        """Service completion (the hot path).

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
            self._start_service(self._waiting.popleft())
