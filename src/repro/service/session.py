"""The live experiment session: state, mutations, journal, export.

A :class:`LiveSession` owns one running experiment end to end: the
converged substrate wrapped in a :class:`~repro.api.timeline.TimelineStepper`
(via :func:`~repro.service.stepper.build_live_substrate`), the telemetry
observers, the journal of operator mutations, and the export path that
freezes the whole session back into a batch-runnable
:class:`~repro.api.spec.ExperimentSpec`.

Everything here is synchronous and event-loop-agnostic — the asyncio
server in :mod:`repro.service.server` calls :meth:`tick` once per
wall-clock-scaled window and routes HTTP bodies into :meth:`submit_event` /
:meth:`submit_chaos`.  Because ticks and mutations both run on the server's
single loop, no locking is needed.

**The replay guarantee.**  A session exported after *n* windows yields a
spec whose timeline carries exactly the applied events (declared and
live-injected alike, in application order, at their exact applied times)
over ``horizon_s`` equal to the session clock.  The batch runners execute
that spec through the *same* :class:`TimelineStepper` windowing loop from
the *same* converged starting state (``prepare_fleet``, with live-deferred
VIPs recorded in ``fleet.deferred_vips``), so the
replayed run's window rows — and the :func:`~repro.api.result.timeline_metrics`
folded from them — are bit-identical to the live session's, per seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Mapping

from repro.api.result import RunWindow, timeline_metrics
from repro.api.runners import expand_spec_chaos
from repro.api.spec import (
    ChaosSpec,
    ExperimentSpec,
    EventSpec,
    TimelineSpec,
    expand_chaos_events,
)
from repro.api.observers import ObserverSet, WindowedMetricsObserver
from repro.core.config import dataclass_from_dict
from repro.exceptions import ConfigurationError
from repro.service.stepper import LiveSubstrate, build_live_substrate

#: window rows kept for the /vip/{name}/stats endpoint (the session also
#: keeps the complete series separately — export needs every window).
DEFAULT_STATS_WINDOWS = 256


class SessionConflict(Exception):
    """The request is valid but the session cannot honor it *right now*
    (HTTP 409): e.g. exporting before the first window has elapsed, or
    while a graceful drain is still in progress."""


class LiveSession:
    """One live experiment: substrate + journal + bounded telemetry."""

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        stats_windows: int = DEFAULT_STATS_WINDOWS,
    ) -> None:
        #: the boot spec with chaos pre-expanded into plain events (so the
        #: live schedule and any export see an ordinary timeline).
        self.spec = expand_spec_chaos(spec)
        #: complete record — export folds these into the replay artifact.
        self._recorder = WindowedMetricsObserver()
        self.substrate: LiveSubstrate = build_live_substrate(
            self.spec, ObserverSet([self._recorder])
        )
        self.stepper = self.substrate.stepper
        # VIPs outside the control plane at boot; exported as
        # fleet.deferred_vips so a replay defers exactly the same set.
        self._boot_deferred = tuple(
            sorted(
                {
                    event.vip
                    for event in self.spec.timeline.events
                    if event.kind == "vip_onboard"
                }
                | set(self.spec.fleet.deferred_vips)
            )
        )
        #: per-window per-VIP stats ring for the REST stats endpoint.
        self._vip_history: "deque[dict[str, Any]]" = deque(maxlen=stats_windows)
        #: operator mutations in arrival order (journal; exported verbatim).
        self.journal: list[dict[str, Any]] = []
        #: live weight overrides applied so far; a non-zero count blocks
        #: spec export (overrides are not expressible as timeline events,
        #: so an exported spec could not replay them — see submit_weights).
        self._weight_overrides = 0

    # -- the control loop ------------------------------------------------------

    def tick(self) -> RunWindow:
        """Execute one window (the daemon never runs out of horizon)."""
        self.stepper.extend_horizon(self.stepper.clock + self.stepper.window_s)
        window = self.stepper.step()
        assert window is not None  # horizon was just extended
        self._vip_history.append(
            {
                "start_s": window.start_s,
                "end_s": window.end_s,
                "vips": self.substrate.vip_rows(),
            }
        )
        return window

    # -- mutations -------------------------------------------------------------

    def _next_boundary(self) -> float:
        """Where a live mutation lands: the start of the next window.

        ``EventSpec`` requires ``time_s > 0``, so before the first window
        has run (clock 0) mutations are stamped at the first boundary.
        """
        clock = self.stepper.clock
        return clock if clock > 0 else self.stepper.window_s

    def _validate_merged(self, new_events: tuple[EventSpec, ...]) -> None:
        """The full schedule — applied, pending, new — must stay a legal
        timeline (duplicate and fail/recover-alternation rules), exactly as
        ``repro validate`` would judge it."""
        applied = tuple(event for _, event in self._recorder.applied_events)
        pending = tuple(event for _, event in self.stepper.pending_events())
        TimelineSpec(
            events=applied + pending + new_events,
            window_s=self.stepper.window_s,
        )

    def _check_event(self, event: EventSpec) -> None:
        """Substrate checks batch validation does upfront, done live."""
        from types import SimpleNamespace

        from repro.api.timeline import check_timeline_supported

        # check_timeline_supported only reads .events; wrapping the lone
        # event in a real TimelineSpec would wrongly apply whole-timeline
        # rules (a lone dip_recover is fine here — the alternation against
        # the applied history is checked by _validate_merged).
        check_timeline_supported(
            SimpleNamespace(events=(event,)),  # type: ignore[arg-type]
            self.spec.runner,
            dips=self.substrate.dip_ids,
            vips=self.substrate.vip_ids(),
            controller_enabled=self.spec.controller.enabled,
        )
        controlled = set(self.substrate.controlled_vip_ids())
        pending_kinds = {
            (e.kind, e.vip) for _, e in self.stepper.pending_events()
        }
        if event.kind == "vip_onboard":
            if event.vip in controlled or ("vip_onboard", event.vip) in pending_kinds:
                raise ConfigurationError(
                    f"VIP {event.vip!r} is already onboarded (or has an "
                    "onboard pending)"
                )
            if event.vip not in self._boot_deferred:
                # A batch replay defers every VIP named by an onboard event
                # at boot, so onboarding a VIP that was *controlled* at this
                # session's boot could never replay bit-identically.
                raise ConfigurationError(
                    f"VIP {event.vip!r} was under control at session boot; "
                    "live onboarding is only replayable for VIPs that "
                    "started outside the control plane (list them in "
                    "fleet.deferred_vips or declare their onboard in the "
                    "timeline)"
                )
        if event.kind == "vip_offboard":
            if ("vip_offboard", event.vip) in pending_kinds:
                raise ConfigurationError(
                    f"VIP {event.vip!r} already has an offboard pending"
                )

    def submit_event(self, data: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and schedule one live mutation from a JSON body.

        The body is an :class:`EventSpec` document; ``time_s`` may be
        omitted (the daemon stamps the next window boundary) or given
        explicitly (it must not precede already-executed time).  Parsing
        goes through :meth:`EventSpec.from_dict` — the same code path as
        spec files and ``repro validate`` — so a malformed body produces
        the identical dotted-path error text, surfaced as HTTP 422.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                "timeline.events must be a JSON object (an EventSpec document)"
            )
        payload = dict(data)
        payload.setdefault("time_s", self._next_boundary())
        event = EventSpec.from_dict(payload)
        self._check_event(event)
        self._validate_merged((event,))
        when = self.stepper.inject(event)
        entry = {
            "received_clock_s": self.stepper.clock,
            "time_s": when,
            "kind": "event",
            "event": payload,
            "label": event.label(),
        }
        self.journal.append(entry)
        return {"scheduled_time_s": when, "label": event.label()}

    def submit_weights(self, data: Mapping[str, Any]) -> dict[str, Any]:
        """Queue a live weight override from a JSON body.

        Body: ``{"weights": {"DIP-0": 2.0, ...}, "vip": "vip-3"}`` (``vip``
        optional on a single-VIP substrate).  Validation runs *now* — the
        same checks :meth:`TimelineStepper.set_weights` applies (known
        VIP/DIPs, finite non-negative weights, positive sum) — and the
        override lands at the next window boundary, exactly where a
        controller tick's programming would.  The mutation is journaled;
        because a weight override has no :class:`EventSpec` form, a session
        that applied one can no longer export a bit-identical replay spec
        (``GET /session`` answers 409 from then on).
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                "weights body must be a JSON object with a 'weights' field "
                "(and optional 'vip')"
            )
        unknown = sorted(set(data) - {"weights", "vip"})
        if unknown:
            raise ConfigurationError(
                f"unknown field {unknown[0]!r} for a weights body; valid "
                "fields: vip, weights"
            )
        vip = data.get("vip")
        weights = data.get("weights")
        label = self.stepper.set_weights(
            None if vip is None else str(vip), weights
        )
        self._weight_overrides += 1
        # Overrides apply at the start of the next executed window, which
        # is the session clock itself (unlike EventSpec mutations they have
        # no ``time_s > 0`` constraint).
        self.journal.append(
            {
                "received_clock_s": self.stepper.clock,
                "time_s": self.stepper.clock,
                "kind": "weights",
                "vip": vip,
                "weights": {str(k): float(v) for k, v in weights.items()},
                "label": label,
            }
        )
        return {"scheduled_time_s": self.stepper.clock, "label": label}

    def submit_chaos(self, data: Mapping[str, Any]) -> dict[str, Any]:
        """Arm a live chaos drill: expand a seeded schedule and inject it.

        Body: ``{"horizon_s": <drill length>, "chaos": {...ChaosSpec...}}``.
        The schedule is drawn the same way a spec-armed chaos run draws it
        (:func:`expand_chaos_events`), offset to start at the next window
        boundary, and injected as plain events — so the drill journals,
        replays, and exports exactly like hand-posted mutations.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                "chaos drill body must be a JSON object with 'horizon_s' "
                "and 'chaos' fields"
            )
        try:
            horizon = float(data.get("horizon_s", 0.0))
        except (TypeError, ValueError):
            raise ConfigurationError(
                "chaos drill horizon_s must be a number"
            ) from None
        if horizon <= 0:
            raise ConfigurationError(
                "chaos drill needs a positive horizon_s (the drill length)"
            )
        chaos: ChaosSpec = dataclass_from_dict(
            ChaosSpec, dict(data.get("chaos", {})), path="chaos"
        )
        if not chaos.enabled:
            raise ConfigurationError(
                "chaos drill needs chaos.seed set (the schedule is seeded)"
            )
        start = self._next_boundary()
        applied = tuple(event for _, event in self._recorder.applied_events)
        pending = tuple(event for _, event in self.stepper.pending_events())
        drawn = expand_chaos_events(
            chaos,
            dip_ids=self.substrate.dip_ids,
            horizon_s=horizon,
            manual_events=applied + pending,
        )
        events = tuple(
            replace(event, time_s=event.time_s + start) for event in drawn
        )
        self._validate_merged(events)
        for event in events:
            self.stepper.inject(event)
        labels = [event.label() for event in events]
        self.journal.append(
            {
                "received_clock_s": self.stepper.clock,
                "time_s": start,
                "kind": "chaos",
                "chaos": dict(data.get("chaos", {})),
                "horizon_s": horizon,
                "labels": labels,
            }
        )
        return {"scheduled_events": labels, "starts_at_s": start}

    # -- views -----------------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "name": self.spec.name,
            "runner": self.spec.runner,
            "seed": self.spec.seed,
            "clock_s": self.stepper.clock,
            "windows": len(self._recorder.windows),
            "window_s": self.stepper.window_s,
        }

    def vips(self) -> dict[str, Any]:
        controlled = set(self.substrate.controlled_vip_ids())
        return {
            "vips": [
                {"vip": vip, "controlled": vip in controlled}
                for vip in self.substrate.vip_ids()
            ]
        }

    def vip_stats(self, vip: str) -> dict[str, Any]:
        """The windowed stats ring for one VIP; raises ``KeyError`` when the
        VIP is neither live nor present anywhere in the retained history."""
        rows = [
            {
                "start_s": entry["start_s"],
                "end_s": entry["end_s"],
                **entry["vips"][vip],
            }
            for entry in self._vip_history
            if vip in entry["vips"]
        ]
        if not rows and vip not in self.substrate.vip_ids():
            raise KeyError(vip)
        return {"vip": vip, "windows": rows}

    def timeline_view(self) -> dict[str, Any]:
        return {
            "clock_s": self.stepper.clock,
            "window_s": self.stepper.window_s,
            "applied": [
                {"time_s": time_s, "label": event.label()}
                for time_s, event in self._recorder.applied_events
            ],
            "pending": [
                {"time_s": time_s, "label": event.label()}
                for time_s, event in self.stepper.pending_events()
            ],
        }

    # -- export ----------------------------------------------------------------

    def export_spec(self) -> ExperimentSpec:
        """Freeze the session into a batch-runnable spec (see module doc).

        The exported timeline carries the *applied* events in application
        order over a horizon equal to the session clock; pending events
        (scheduled beyond the clock) are dropped — they have not shaped the
        session yet.  On the fleet substrate the boot-deferred VIP set is
        recorded in ``fleet.deferred_vips`` so a replay defers them too.
        """
        if not self._recorder.windows:
            raise SessionConflict(
                "cannot export yet: no window has completed (the exported "
                "horizon would be empty)"
            )
        if self._weight_overrides:
            raise SessionConflict(
                f"cannot export: {self._weight_overrides} live weight "
                "override(s) were applied, and weight overrides have no "
                "timeline-event form — a batch re-run of the exported spec "
                "could not replay them bit-identically"
            )
        clock = self.stepper.clock
        applied = tuple(event for _, event in self._recorder.applied_events)
        draining = [
            event
            for event in applied
            if event.drain_s > 0 and event.time_s + event.drain_s >= clock
        ]
        if draining:
            raise SessionConflict(
                f"cannot export yet: the drain from "
                f"[{draining[0].label()}] is still in progress (ends at "
                f"t={draining[0].time_s + draining[0].drain_s:g}s)"
            )
        timeline = replace(
            self.spec.timeline,
            events=applied,
            horizon_s=clock,
            chaos=ChaosSpec(),
        )
        spec = replace(self.spec, timeline=timeline)
        if self.spec.runner == "fleet":
            spec = replace(
                spec,
                fleet=replace(
                    self.spec.fleet, deferred_vips=self._boot_deferred
                ),
            )
        return spec

    def export(self) -> dict[str, Any]:
        """The full session artifact: replay spec + windows + metrics + journal."""
        spec = self.export_spec()
        windows = tuple(self._recorder.windows)
        metrics = dict(self.substrate.setup_metrics)
        metrics["timeline_events"] = float(len(spec.timeline.events))
        metrics.update(timeline_metrics(windows))
        return {
            "spec": spec.to_dict(),
            "seed": spec.seed,
            "metrics": metrics,
            "windows": [window.to_dict() for window in windows],
            "journal": list(self.journal),
        }
