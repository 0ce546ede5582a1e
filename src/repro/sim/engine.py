"""A small discrete-event simulation engine.

The request-level cluster simulator is built on this engine: events are
callbacks scheduled at simulated timestamps, executed in time order (ties
broken by insertion order so runs are deterministic).

The hot path is allocation-lean: each scheduled event is one plain
``(time, sequence, payload)`` tuple on a binary heap.  A payload is either

* a zero-argument callable (the common case),
* a ``(func, arg)`` pair — dispatched as ``func(arg)`` so per-request
  completion events carry their request without allocating a closure, or
* an :class:`EventHandle`, created only when the caller asked for
  cancellation via :meth:`EventScheduler.schedule_cancellable`.

``pending_events`` is O(1): it is the heap length minus a live count of
cancelled-but-not-yet-popped handles, maintained on schedule/cancel/pop
instead of scanning the queue.  ``peak_pending_events`` records the
high-water mark so benchmarks can verify the heap stays O(DIPs + in-flight
requests) rather than O(total requests).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.exceptions import SimulationError

EventCallback = Callable[[], None]

_heappush = heapq.heappush


class EventHandle:
    """Cancellable event wrapper returned by ``schedule_cancellable``.

    Only cancellable events pay for this allocation; plain ``schedule``
    pushes the bare callback.  Cancelling lazily marks the handle — the
    heap entry is skipped when popped.
    """

    __slots__ = ("_scheduler", "time", "callback", "cancelled", "popped")

    def __init__(self, scheduler: "EventScheduler", time: float, callback) -> None:
        self._scheduler = scheduler
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.popped = False

    def cancel(self) -> None:
        # Cancelling after the event already fired must not touch the
        # scheduler's cancelled-in-heap counter (nothing is left to skip).
        if not self.cancelled and not self.popped:
            self.cancelled = True
            self._scheduler._cancelled += 1


class EventScheduler:
    """A deterministic event loop over simulated time."""

    __slots__ = ("_now", "_queue", "_next_seq", "_processed", "_cancelled", "_peak")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple] = []
        self._next_seq = 0
        self._processed = 0
        #: cancelled handles still sitting in the heap.
        self._cancelled = 0
        self._peak = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) scheduled events — an O(1) counter."""
        return len(self._queue) - self._cancelled

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of live scheduled events over the run."""
        return self._peak

    @property
    def processed_events(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``callback`` is either a zero-argument callable or a ``(func, arg)``
        pair executed as ``func(arg)``.  Use :meth:`schedule_cancellable`
        when the event may need cancelling.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._next_seq
        self._next_seq = seq + 1
        queue = self._queue
        _heappush(queue, (self._now + delay, seq, callback))
        pending = len(queue) - self._cancelled
        if pending > self._peak:
            self._peak = pending

    def schedule_cancellable(self, delay: float, callback: EventCallback) -> EventHandle:
        """Like :meth:`schedule` but returns a handle that can cancel."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        handle = EventHandle(self, self._now + delay, callback)
        seq = self._next_seq
        self._next_seq = seq + 1
        queue = self._queue
        heapq.heappush(queue, (handle.time, seq, handle))
        pending = len(queue) - self._cancelled
        if pending > self._peak:
            self._peak = pending
        return handle

    def schedule_at(self, time: float, callback) -> None:
        """Schedule ``callback`` at absolute simulated ``time``."""
        self.schedule(max(0.0, time - self._now), callback)

    def schedule_cancellable_at(self, time: float, callback: EventCallback) -> EventHandle:
        """Like :meth:`schedule_at` but returns a cancellable handle.

        Used for externally injected events (timeline perturbations) whose
        absolute firing times are known upfront but which must be revocable
        once the run's horizon passes.
        """
        return self.schedule_cancellable(max(0.0, time - self._now), callback)

    def run_until(self, end_time: float, *, max_events: int | None = None) -> int:
        """Run events with timestamps <= ``end_time``; returns events executed.

        When ``max_events`` truncates the run with events still due before
        ``end_time``, the clock stays at the last executed event's time —
        advancing it to ``end_time`` would let those pending events fire in
        the scheduler's past on the next call.
        """
        executed = 0
        truncated = False
        queue = self._queue
        pop = heapq.heappop
        unlimited = max_events is None
        try:
            while queue and queue[0][0] <= end_time:
                time, _, payload = pop(queue)
                cls = payload.__class__
                if cls is EventHandle and payload.cancelled:
                    self._cancelled -= 1
                    continue
                if time < self._now - 1e-12:
                    raise SimulationError("event time went backwards")
                if time > self._now:
                    self._now = time
                if cls is tuple:
                    payload[0](payload[1])
                elif cls is EventHandle:
                    payload.popped = True
                    payload.callback()
                else:
                    payload()
                executed += 1
                if not unlimited and executed >= max_events:
                    while queue and queue[0][2].__class__ is EventHandle and queue[0][2].cancelled:
                        pop(queue)
                        self._cancelled -= 1
                    truncated = bool(queue) and queue[0][0] <= end_time
                    break
        finally:
            self._processed += executed
        if not truncated and end_time > self._now:
            self._now = end_time
        return executed

    def run_stream(self, end_time: float, first_arrival: float, fire) -> int:
        """Merge a sorted arrival stream with the scheduled-event heap.

        ``fire()`` processes the arrival whose timestamp was returned last
        (starting from ``first_arrival``) and returns the next arrival's
        absolute time, or ``inf`` when the stream is exhausted.  Arrivals
        therefore never occupy the heap at all — the peak heap size is the
        in-flight completion count, and each arrival skips a full
        schedule/heappush/heappop cycle.  Heap events win ties so a
        completion stamped exactly at an arrival's time runs first; the
        rule is fixed, keeping runs deterministic.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        next_arrival = first_arrival
        while True:
            if queue:
                head_time = queue[0][0]
                if head_time <= next_arrival:
                    if head_time > end_time:
                        break
                    time, _, payload = pop(queue)
                    cls = payload.__class__
                    if cls is tuple:
                        if time > self._now:
                            self._now = time
                        payload[0](payload[1])
                    elif cls is EventHandle:
                        if payload.cancelled:
                            self._cancelled -= 1
                            continue
                        if time > self._now:
                            self._now = time
                        payload.popped = True
                        payload.callback()
                    else:
                        if time > self._now:
                            self._now = time
                        payload()
                    executed += 1
                    continue
            if next_arrival > end_time:
                break
            if next_arrival > self._now:
                self._now = next_arrival
            next_arrival = fire()
            executed += 1
        self._processed += executed
        if end_time > self._now:
            self._now = end_time
        return executed
