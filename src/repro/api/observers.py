"""Run-observation hooks: stream a run's telemetry while it executes.

Runs become observable through the :class:`Observer` protocol: ``on_event``
fires as each timeline event is applied, ``on_round`` after every telemetry
window with headline metrics (the CLI's ``--watch`` progress lines), and
``on_window`` with the completed :class:`~repro.api.result.RunWindow` row
that also lands in the result's time-series.  The timed-phase engine that
calls them lives in :mod:`repro.api.timeline`; this module imports none of
it, so subclassing :class:`BaseObserver` loads no substrate.
"""

from __future__ import annotations

import logging
import sys
from collections import deque
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, TextIO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.result import RunWindow
    from repro.api.spec import EventSpec

_LOG = logging.getLogger(__name__)


class Observer(Protocol):
    """Streaming run telemetry: implement any subset of these hooks."""

    def on_event(self, time_s: float, event: EventSpec) -> None:
        """A timeline event was just applied at simulated ``time_s``."""
        ...

    def on_round(self, time_s: float, metrics: Mapping[str, float]) -> None:
        """A telemetry window ended; ``metrics`` are its headline numbers."""
        ...

    def on_window(self, window: RunWindow) -> None:
        """The completed time-series row for the window that just ended."""
        ...


class BaseObserver:
    """No-op base so observers only override the hooks they care about."""

    def on_event(self, time_s: float, event: EventSpec) -> None:
        pass

    def on_round(self, time_s: float, metrics: Mapping[str, float]) -> None:
        pass

    def on_window(self, window: RunWindow) -> None:
        pass


class ObserverSet(BaseObserver):
    """Fan one stream of notifications out to several observers.

    Observers are *isolated*: a hook that raises is logged (with its
    traceback, on this module's logger) and the offending observer is
    dropped from the set, so a crashing telemetry consumer can never abort
    the run — or the live daemon's control loop — it is watching.
    """

    def __init__(self, observers: Iterable[Observer] = ()) -> None:
        self.observers: tuple[Observer, ...] = tuple(observers)

    def _dispatch(self, hook: str, *args: object) -> None:
        dropped: list[Observer] = []
        for observer in self.observers:
            try:
                getattr(observer, hook)(*args)
            except Exception:
                _LOG.exception(
                    "observer %r raised in %s; dropping it from the set",
                    observer,
                    hook,
                )
                dropped.append(observer)
        if dropped:
            self.observers = tuple(
                observer
                for observer in self.observers
                if all(observer is not gone for gone in dropped)
            )

    def on_event(self, time_s: float, event: EventSpec) -> None:
        self._dispatch("on_event", time_s, event)

    def on_round(self, time_s: float, metrics: Mapping[str, float]) -> None:
        self._dispatch("on_round", time_s, metrics)

    def on_window(self, window: RunWindow) -> None:
        self._dispatch("on_window", window)


class WindowedMetricsObserver(BaseObserver):
    """The built-in telemetry recorder: collects the run's window rows.

    Every runner attaches one of these; its ``windows`` become the
    :attr:`RunResult.windows` time-series, so results carry the trajectory
    (per-window latency, share, drops, applied events), not just end-of-run
    aggregates.

    ``maxlen`` turns both collections into ring buffers that keep only the
    newest entries — the shape a long-running daemon needs, where the run
    has no natural end and an unbounded list would leak.
    """

    def __init__(self, maxlen: int | None = None) -> None:
        self.windows: "deque[RunWindow] | list[RunWindow]"
        self.applied_events: (
            "deque[tuple[float, EventSpec]] | list[tuple[float, EventSpec]]"
        )
        if maxlen is None:
            self.windows = []
            self.applied_events = []
        else:
            self.windows = deque(maxlen=maxlen)
            self.applied_events = deque(maxlen=maxlen)

    def on_event(self, time_s: float, event: EventSpec) -> None:
        self.applied_events.append((time_s, event))

    def on_window(self, window: RunWindow) -> None:
        self.windows.append(window)


class PrintingObserver(BaseObserver):
    """Human-readable progress lines (the CLI's ``run --watch`` output)."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self._stream = stream if stream is not None else sys.stderr

    def on_event(self, time_s: float, event: EventSpec) -> None:
        print(f"[t={time_s:7.1f}s] event   {event.label()}", file=self._stream)

    def on_round(self, time_s: float, metrics: Mapping[str, float]) -> None:
        rendered = "  ".join(
            f"{key}={value:.4g}" for key, value in sorted(metrics.items())
        )
        print(f"[t={time_s:7.1f}s] window  {rendered}", file=self._stream)
