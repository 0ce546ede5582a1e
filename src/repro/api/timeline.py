"""The timeline application layer.

This module makes *time* a first-class citizen of the declarative API: a
:class:`~repro.api.spec.TimelineSpec` declares what happens mid-run (DIP
failures and recoveries, capacity squeezes, traffic surges, VIPs joining or
leaving a fleet) and this layer executes those events identically on all
three substrates:

* **fluid / fleet** — :func:`fleet_timeline_stepper` drives the analytic
  substrate (a :class:`~repro.sim.fleet.Fleet`; a fluid run is its one-VIP
  case) window by window, applying due events *between* fixed-point rounds
  at their exact declared times (windows are split into sub-segments at
  event boundaries) and running one controller tick per window;
* **request** — :func:`schedule_request_timeline` injects every event into
  the discrete-event engine via ``schedule_cancellable``, so events fire at
  their exact simulated times interleaved with arrivals and completions;
  arrival surges rescale the streaming Poisson stream without breaking its
  sorted-order invariant (see :meth:`RequestCluster.scale_arrivals`).

Both call the :class:`~repro.api.observers.Observer` hooks as events apply
and windows complete (the observer classes live in
:mod:`repro.api.observers` and are re-exported here).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.api.observers import (  # noqa: F401 - re-exported
    BaseObserver,
    Observer,
    ObserverSet,
    PrintingObserver,
    WindowedMetricsObserver,
)
from repro.api.result import RunWindow
from repro.api.spec import (
    FLEET_ONLY_EVENT_KINDS,
    EventSpec,
    HealthCheckSpec,
    TimelineSpec,
)
from repro.core.types import left_to_right_sum
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet_controller import FleetController
    from repro.sim.cluster import RequestCluster
    from repro.sim.engine import EventHandle
    from repro.sim.fleet import Fleet, FleetState
    from repro.sim.trace import MetricsCollector

_EPS = 1e-9


# ---------------------------------------------------------------------------
# upfront validation (fail before simulating, with names)
# ---------------------------------------------------------------------------


def check_timeline_supported(
    timeline: TimelineSpec,
    runner_kind: str,
    *,
    dips: Iterable[str],
    vips: Iterable[str] = (),
    controller_enabled: bool = True,
) -> None:
    """Reject events the target substrate cannot execute, before running.

    Names the offending event and the valid choices, mirroring the spec
    layer's eager-validation style: a single-VIP substrate rejects
    ``vip_onboard``/``vip_offboard``, and every dip/vip reference must name
    a member of the built system.
    """
    dip_set = set(dips)
    vip_set = set(vips)
    for event in timeline.events:
        if event.kind in FLEET_ONLY_EVENT_KINDS and runner_kind != "fleet":
            raise ConfigurationError(
                f"timeline event [{event.label()}] needs the fleet runner; "
                f"this spec runs on {runner_kind!r}"
            )
        if event.kind == "vip_onboard" and not controller_enabled:
            raise ConfigurationError(
                f"timeline event [{event.label()}] needs controller.enabled "
                "= true (onboarding attaches a KnapsackLB controller)"
            )
        if event.dip is not None and event.dip not in dip_set:
            known = ", ".join(sorted(dip_set))
            raise ConfigurationError(
                f"timeline event [{event.label()}] names unknown DIP "
                f"{event.dip!r}; pool DIPs: {known}"
            )
        if event.vip is not None and runner_kind == "fleet" and event.vip not in vip_set:
            known = ", ".join(sorted(vip_set))
            raise ConfigurationError(
                f"timeline event [{event.label()}] names unknown VIP "
                f"{event.vip!r}; fleet VIPs: {known}"
            )
        if event.kind == "arrival_scale" and event.vip is not None and runner_kind != "fleet":
            raise ConfigurationError(
                f"timeline event [{event.label()}] scopes arrival_scale to a "
                "VIP, which needs the fleet runner"
            )


# ---------------------------------------------------------------------------
# the window/segment loop of the analytic substrate
# ---------------------------------------------------------------------------


#: one applied mid-run action: ``(time_s, event-or-None, thunk-or-None)``.
#: Plain timeline events carry a ``None`` thunk (dispatched through
#: ``apply_event``); health-mode events carry their own thunk; synthetic
#: actions (probe detections, drain completions) carry no event and are
#: invisible to observers.
_Action = tuple[float, "EventSpec | None", "Callable[[], None] | None"]


class TimelineStepper:
    """Resumable window-by-window execution of a timed phase.

    This is the windowing engine both execution modes share: the batch
    runners construct one and drive it to completion (:meth:`run` — the
    old ``_run_windows`` loop), while the live ``repro serve`` daemon calls
    :meth:`step` once per wall-clock-scaled tick and :meth:`inject`\\ s
    operator mutations between windows.  Because both modes run *this*
    class over the same action schedule, a live session replayed in batch
    from its exported spec reproduces the live windows bit-for-bit.

    Events apply *between* fixed-point rounds at their exact declared
    times: each window is split into sub-segments at event boundaries, so
    an event at t=12.5s with 5s windows fires after exactly 12.5 simulated
    seconds on the fluid substrates — the same instant the request engine
    fires it.  One controller tick runs per window (after the window's
    time has fully elapsed), then the window row snapshots the substrate.

    ``actions`` (health mode) replaces the event list with a pre-computed
    action schedule that interleaves declared events with probe-detection
    flips and drain completions at *their* exact times.
    """

    def __init__(
        self,
        timeline: TimelineSpec,
        observer: Observer,
        *,
        advance: Callable[[float], None],
        tick: Callable[[], dict[str, float]],
        snapshot: Callable[
            [],
            "tuple[dict[str, float], dict[str, float], dict[str, dict[str, float]]]",
        ],
        apply_event: Callable[[EventSpec], None],
        actions: "list[_Action] | None" = None,
        set_weights: "Callable[[str, Mapping[str, float]], None] | None" = None,
        weight_scope: "Mapping[str, tuple[str, ...]] | None" = None,
    ) -> None:
        if actions is None:
            actions = [
                (event.time_s, event, None)
                for event in timeline.ordered_events()
            ]
        self._actions: "list[_Action]" = list(actions)
        self._pointer = 0
        self._observer = observer
        self._advance = advance
        self._tick = tick
        self._snapshot = snapshot
        self._apply_event = apply_event
        self._set_weights = set_weights
        self._weight_scope = dict(weight_scope or {})
        #: queued weight overrides: ``(vip, weights, label)``.
        self._pending_weights: "list[tuple[str, dict[str, float], str]]" = []
        #: applied overrides ``(time_s, vip, weights)`` — the provenance
        #: record a journal or checkpoint can persist.
        self.weight_overrides: "list[tuple[float, str, dict[str, float]]]" = []
        self.window_s = timeline.window_s
        self.horizon_s = timeline.duration_s()
        #: start of the next window (== simulated time already executed).
        self.clock = 0.0
        self.windows: list[RunWindow] = []

    @property
    def done(self) -> bool:
        """The configured horizon has been fully executed."""
        return self.clock >= self.horizon_s - _EPS

    def extend_horizon(self, horizon_s: float) -> None:
        """Grow the timed phase (the daemon's open-ended control loop)."""
        self.horizon_s = max(self.horizon_s, horizon_s)

    def pending_events(self) -> tuple[tuple[float, EventSpec], ...]:
        """Declared-or-injected events that have not been applied yet."""
        return tuple(
            (time_s, event)
            for time_s, event, _ in self._actions[self._pointer :]
            if event is not None
        )

    def inject(self, event: EventSpec, *, time_s: float | None = None) -> float:
        """Splice a live mutation into the schedule at a future instant.

        ``time_s`` defaults to the event's own declared time; either way it
        must not precede :attr:`clock` (the start of the next window) —
        already-executed simulated time cannot be mutated.  Insertion keeps
        the schedule sorted and lands *after* any equal-time entry, matching
        the stable tie-break a batch replay applies to events appended to
        the spec's tuple.  Returns the effective application time.
        """
        when = event.time_s if time_s is None else time_s
        if when < self.clock - _EPS:
            raise ConfigurationError(
                f"cannot inject event [{event.label()}] at t={when:g}s: the "
                f"run has already executed through t={self.clock:g}s"
            )
        index = len(self._actions)
        while index > self._pointer and self._actions[index - 1][0] > when:
            index -= 1
        self._actions.insert(index, (when, event, None))
        return when

    def set_weights(
        self, vip: "str | None", weights: "Mapping[str, float]"
    ) -> str:
        """Queue a weight override; it applies at the next window boundary.

        Validation happens here — at submission, the way ``POST /events``
        validates live mutations — so a bad body fails fast with the spec
        layer's error style instead of blowing up mid-window: the substrate
        must have been built with a weight hook, ``vip`` must name a VIP of
        the scope (or be ``None`` on a single-VIP substrate), every key
        must name one of that VIP's DIPs, and the weights must be finite,
        non-negative and not all zero.  Returns the label recorded in the
        next window's ``events`` (the batch-artifact provenance trail;
        applied overrides also accumulate in :attr:`weight_overrides`).
        """
        if self._set_weights is None:
            raise ConfigurationError(
                "this substrate does not accept weight overrides (no "
                "set_weights hook; the fleet stepper provides one)"
            )
        if not isinstance(weights, Mapping) or not weights:
            raise ConfigurationError(
                "weights must be a non-empty {dip: weight} mapping"
            )
        if vip is None:
            if len(self._weight_scope) != 1:
                known = ", ".join(sorted(self._weight_scope))
                raise ConfigurationError(
                    f"set_weights needs an explicit vip on a multi-VIP "
                    f"substrate; VIPs: {known}"
                )
            vip = next(iter(self._weight_scope))
        else:
            vip = str(vip)
            if vip not in self._weight_scope:
                known = ", ".join(sorted(self._weight_scope))
                raise ConfigurationError(
                    f"set_weights names unknown VIP {vip!r}; VIPs: {known}"
                )
        dip_set = set(self._weight_scope[vip])
        cleaned: dict[str, float] = {}
        for dip, value in weights.items():
            name = str(dip)
            if name not in dip_set:
                known = ", ".join(sorted(dip_set))
                raise ConfigurationError(
                    f"set_weights names unknown DIP {name!r} for VIP "
                    f"{vip!r}; DIPs: {known}"
                )
            try:
                weight = float(value)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"weight for DIP {name!r} must be a number"
                ) from None
            if not math.isfinite(weight) or weight < 0:
                raise ConfigurationError(
                    f"weight for DIP {name!r} must be finite and >= 0"
                )
            cleaned[name] = weight
        if sum(cleaned.values()) <= 0:
            raise ConfigurationError("weights must sum to a positive value")
        label = f"t={self.clock:g}s set_weights {vip} ({len(cleaned)} dips)"
        self._pending_weights.append((vip, cleaned, label))
        return label

    def step(self) -> "RunWindow | None":
        """Execute exactly one window; ``None`` once the horizon is done."""
        if self.done:
            return None
        start = self.clock
        end = min(start + self.window_s, self.horizon_s)
        applied: list[str] = []
        # Queued weight overrides land exactly at the window boundary,
        # before any advancing — the same instant a controller tick's
        # programming from the previous window takes effect.
        if self._pending_weights:
            pending, self._pending_weights = self._pending_weights, []
            for vip, weights, label in pending:
                self._set_weights(vip, weights)
                self.weight_overrides.append((start, vip, dict(weights)))
                applied.append(label)
        cursor = start
        while cursor < end - _EPS:
            while (
                self._pointer < len(self._actions)
                and self._actions[self._pointer][0] <= cursor + _EPS
            ):
                _, event, thunk = self._actions[self._pointer]
                self._pointer += 1
                if thunk is not None:
                    thunk()
                if event is not None:
                    if thunk is None:
                        self._apply_event(event)
                    self._observer.on_event(cursor, event)
                    applied.append(event.label())
            boundary = (
                min(end, self._actions[self._pointer][0])
                if self._pointer < len(self._actions)
                else end
            )
            self._advance(boundary - cursor)
            cursor = boundary
        metrics, share, dip_metrics = self._snapshot()
        metrics.update(self._tick())
        window = RunWindow(
            start_s=start,
            end_s=end,
            metrics=metrics,
            dip_share=share,
            events=tuple(applied),
            dip_metrics=dip_metrics,
        )
        self._observer.on_window(window)
        self._observer.on_round(end, metrics)
        self.windows.append(window)
        self.clock = end
        return window

    def run(self) -> tuple[RunWindow, ...]:
        """Drive the remaining windows to the horizon (the batch path)."""
        while self.step() is not None:
            pass
        return tuple(self.windows)


# ---------------------------------------------------------------------------
# probe-based detection on the analytic substrates
# ---------------------------------------------------------------------------


def _health_timeline_actions(
    timeline: TimelineSpec,
    health: "HealthCheckSpec",
    *,
    seed: int,
    dip_index: Mapping[str, int],
    blackholed: set,
    fail: Callable[[str], None],
    recover: Callable[[str], None],
) -> "list[_Action]":
    """Compile a timeline into probe-aware actions for fluid/fleet.

    Runs the *same* probe state machine as the request engine's
    :meth:`RequestCluster._probe`, analytically, over each DIP's seeded
    probe grid: a ``dip_fail`` only reaches the LB (``fail(dip)``) at its
    probe-detected instant; until then the DIP is added to ``blackholed``
    — it keeps receiving its traffic share and that traffic is lost, which
    the substrate's snapshot reports as window drop fraction.  Graceful
    drains (``drain_s > 0``) are operator-initiated: the LB stops routing
    at the event time (no blackhole, no detection delay) and probes cannot
    resurrect the DIP until its ``dip_recover``.
    """
    horizon = timeline.duration_s()
    actions: "list[_Action]" = []
    by_dip: dict[str, list[EventSpec]] = {}
    for event in timeline.ordered_events():
        if event.kind in ("dip_fail", "dip_recover"):
            by_dip.setdefault(event.dip, []).append(event)
        else:
            actions.append((event.time_s, event, None))

    for dip, dip_events in by_dip.items():
        # 1. Pair fails with recovers (spec validation guarantees the
        #    per-DIP alternation) into server-down and admin-drain spans.
        server_down: list[tuple[float, float]] = []
        admin_down: list[tuple[float, float]] = []
        lb_down_at: list[float] = []  # drain starts set lb_down directly
        open_fail: EventSpec | None = None
        for event in dip_events:
            if event.kind == "dip_fail":
                open_fail = event
            else:
                _close_fail_span(
                    open_fail, event.time_s, server_down, admin_down, lb_down_at
                )
                open_fail = None
        if open_fail is not None:
            _close_fail_span(
                open_fail, horizon, server_down, admin_down, lb_down_at
            )

        # 2. Walk the probe grid with the request engine's state machine.
        flips: list[tuple[float, bool]] = []  # (time, healthy)
        fails = oks = 0
        lb_down = False
        admin_pointer = 0
        t = health.probe_phase_s(seed, dip_index[dip])
        while t < horizon:
            while admin_pointer < len(lb_down_at) and lb_down_at[admin_pointer] <= t:
                lb_down = True
                admin_pointer += 1
            if _in_spans(t, server_down):
                fails += 1
                oks = 0
                if fails == health.unhealthy_threshold and not lb_down:
                    lb_down = True
                    flips.append((t + health.probe_timeout_s, False))
            else:
                oks += 1
                fails = 0
                if (
                    lb_down
                    and oks >= health.healthy_threshold
                    and not _in_spans(t, admin_down)
                ):
                    lb_down = False
                    oks = 0
                    flips.append((t, True))
            t += health.probe_interval_s

        # 3. Emit actions; runtime lb-routing state decides blackholing.
        routing = {"up": True}

        def on_abrupt_fail(dip: str = dip, routing: dict = routing) -> None:
            if routing["up"]:
                blackholed.add(dip)

        def on_drain_fail(dip: str = dip, routing: dict = routing) -> None:
            routing["up"] = False
            fail(dip)

        def on_recover_event(dip: str = dip, routing: dict = routing) -> None:
            if routing["up"]:
                blackholed.discard(dip)
            # else: the LB flips it back up at its probe-detected instant.

        def on_flip(
            healthy: bool, dip: str = dip, routing: dict = routing
        ) -> Callable[[], None]:
            def run() -> None:
                routing["up"] = healthy
                if healthy:
                    recover(dip)
                else:
                    blackholed.discard(dip)
                    fail(dip)

            return run

        for event in dip_events:
            if event.kind == "dip_fail":
                thunk = on_drain_fail if event.drain_s > 0 else on_abrupt_fail
            else:
                thunk = on_recover_event
            actions.append((event.time_s, event, thunk))
        for flip_time, healthy in flips:
            actions.append((flip_time, None, on_flip(healthy)))

    actions.sort(key=lambda action: action[0])
    return actions


def _close_fail_span(
    open_fail: "EventSpec | None",
    end: float,
    server_down: list,
    admin_down: list,
    lb_down_at: list,
) -> None:
    """Record the spans of one dip_fail..dip_recover pair."""
    if open_fail is None:
        return
    if open_fail.drain_s > 0:
        lb_down_at.append(open_fail.time_s)
        admin_down.append((open_fail.time_s, end))
        server_dies = open_fail.time_s + open_fail.drain_s
        if server_dies < end:  # recover before the drain ends cancels it
            server_down.append((server_dies, end))
    else:
        server_down.append((open_fail.time_s, end))


def _in_spans(t: float, spans: list) -> bool:
    return any(start <= t < end for start, end in spans)


def _split_drained_offboards(
    actions: "list[_Action]",
    *,
    drain: Callable[[str], None],
    apply_event: Callable[[EventSpec], None],
) -> "list[_Action]":
    """Split each drained ``vip_offboard`` into stop-arrivals + removal."""
    out: "list[_Action]" = []
    split = False
    for time_s, event, thunk in actions:
        if (
            event is not None
            and event.kind == "vip_offboard"
            and event.drain_s > 0
            and thunk is None
        ):
            out.append((time_s, event, lambda vip=event.vip: drain(vip)))
            out.append(
                (time_s + event.drain_s, None, lambda e=event: apply_event(e))
            )
            split = True
        else:
            out.append((time_s, event, thunk))
    if split:
        out.sort(key=lambda action: action[0])
    return out


def _share(rates: Mapping[str, float]) -> dict[str, float]:
    total = left_to_right_sum(rates.values())
    if total <= 0:
        return {}
    return {dip: rate / total for dip, rate in rates.items() if rate > 0}


def _dip_rows(state: "FleetState") -> dict[str, dict[str, float]]:
    """Per-DIP window columns from a fleet snapshot.

    ``in_system`` is the Little's-law population ``rate × latency``, which
    matches the request engine's per-window Σlatency / duration estimate in
    meaning.  Failed DIPs report infinite latency — their rows omit the
    latency column and carry zero population so a fold over the columns
    stays finite.
    """
    utilization = state.utilization
    latency = state.mean_latency_ms
    rows: dict[str, dict[str, float]] = {}
    for dip, rate in state.total_rates_rps.items():
        lat = latency[dip]
        row = {
            "rate_rps": rate,
            "utilization": utilization[dip],
            "in_system": 0.0,
        }
        # Failed DIPs report infinite latency; the key is *omitted* (rather
        # than NaN) so window rows stay JSON-round-trippable by equality.
        if math.isfinite(lat):
            row["mean_latency_ms"] = lat
            row["in_system"] = rate * lat / 1000.0
        rows[dip] = row
    return rows


def _live_mean_latency_ms(
    rates: Mapping[str, float],
    latency: Mapping[str, float],
    exclude: "set | frozenset" = frozenset(),
) -> float:
    """Rate-weighted mean over DIPs actually carrying traffic.

    Failed DIPs report infinite latency at zero rate; naively summing
    ``rate * latency`` would turn that into ``0 * inf = nan``, so the mean
    is taken over live (positive-rate, finite-latency) DIPs only.
    ``exclude`` drops blackholed DIPs (failed but not yet probe-detected,
    so still carrying a nominal share): their requests are lost, not
    served, and must not contribute a latency.
    """
    live = [
        (rate, latency[dip])
        for dip, rate in rates.items()
        if rate > 0 and dip not in exclude and math.isfinite(latency[dip])
    ]
    total = left_to_right_sum(rate for rate, _ in live)
    if total <= 0:
        return float("nan")
    return left_to_right_sum(rate * lat for rate, lat in live) / total


class _BlackholeMeter:
    """Time-integrates traffic routed at undetected-dead DIPs.

    Detection usually lands mid-window, so an end-of-window snapshot would
    read zero; integrating ``rate × dt`` over each advance sub-segment
    gives the window's true lost fraction — comparable to the request
    engine's per-window drop fraction.  The lost rate is summed in pool
    order (``dip_index``), never in the set's string-hash order, so the
    windows do not depend on the process's hash seed.
    """

    def __init__(self, blackholed: set, offered_rate: Callable[[str], float],
                 total_rate: Callable[[], float],
                 dip_index: Mapping[str, int]) -> None:
        self._blackholed = blackholed
        self._offered_rate = offered_rate
        self._total_rate = total_rate
        self._dip_index = dip_index
        self._lost = 0.0
        self._offered = 0.0

    def account(self, dt: float) -> None:
        """Call before each advance: rates are piecewise-constant over it."""
        self._offered += self._total_rate() * dt
        self._lost += left_to_right_sum(
            self._offered_rate(dip)
            for dip in sorted(self._blackholed, key=self._dip_index.__getitem__)
        ) * dt

    def window_fraction(self) -> float:
        """The elapsed window's lost-traffic fraction; resets the meter."""
        fraction = self._lost / self._offered if self._offered > 0 else 0.0
        self._lost = 0.0
        self._offered = 0.0
        return fraction


# ---------------------------------------------------------------------------
# analytic substrate (a fleet; a fluid run is its one-VIP case)
# ---------------------------------------------------------------------------


def fleet_timeline_stepper(
    fleet: "Fleet",
    timeline: TimelineSpec,
    observer: Observer,
    *,
    plane: "FleetController | None" = None,
    health: "HealthCheckSpec | None" = None,
    seed: int = 0,
) -> TimelineStepper:
    """A resumable stepper over the timed phase of a (converged) fleet.

    ``vip_onboard`` runs the full staggered-onboarding path: the VIP joins
    the control plane, its interleaved measurement rounds run with
    ``steady_control=True`` (the already-steady VIPs keep reacting while
    the newcomer explores — that measurement consumes fleet-clock time in
    addition to the timeline's windows), and its weights are computed and
    programmed.  ``vip_offboard`` retires the tenant and its traffic;
    with ``drain_s`` its arrivals stop at the event time and the tenant is
    removed once the drain elapses.

    With ``health`` enabled, DIP failures are not applied to the LB at
    their declared times: the DIP keeps its traffic share (blackholed —
    reported as the window's ``drop_fraction``) until the probe state
    machine detects it, at the same seeded probe-grid instant the request
    engine would flip it.
    """
    if health is not None and not health.enabled:
        health = None
    blackholed: set[str] = set()
    base_rates = {
        vip_id: vip.total_rate_rps for vip_id, vip in fleet.vips.items()
    }

    def recover(dip: str) -> None:
        fleet.recover_dip(dip)
        if plane is not None:
            for controller in plane.controllers.values():
                if dip in controller.deployment.dips:
                    # Re-include the recovered DIP right away (restored
                    # curve); later ticks rescale it if the capacity
                    # changed meanwhile.
                    if controller.restore_dip(dip):
                        controller.program_assignment(
                            controller.compute_weights().assignment
                        )

    def drain_vip(vip_id: str) -> None:
        # Graceful offboard, step 1: stop new arrivals; the tenant itself
        # is removed by the deferred apply_event once the drain elapses.
        fleet.set_total_rate(vip_id, 0.0)

    def apply_event(event: EventSpec) -> None:
        kind = event.kind
        if kind == "dip_fail":
            fleet.fail_dip(event.dip)
        elif kind == "dip_recover":
            recover(event.dip)
        elif kind == "capacity_ratio":
            fleet.set_capacity_ratio(event.dip, event.value)
        elif kind == "antagonist_phase":
            fleet.set_antagonist_copies(event.dip, int(event.value))
        elif kind == "arrival_scale":
            targets = [event.vip] if event.vip is not None else list(base_rates)
            for vip_id in targets:
                fleet.set_total_rate(vip_id, base_rates[vip_id] * event.value)
        elif kind == "vip_onboard":
            assert plane is not None  # enforced by check_timeline_supported
            plane.onboard_vip(event.vip)
            plane.run_measurement_phase(steady_control=True)
            plane.compute_all_weights()
        elif kind == "vip_offboard":
            if plane is not None and event.vip in plane.controllers:
                plane.offboard_vip(event.vip)
            else:
                fleet.remove_vip(event.vip)
            base_rates.pop(event.vip, None)

    def tick() -> dict[str, float]:
        if plane is None:
            return {}
        reports = plane.control_step(duration_s=0.0)
        return {
            "controller_events": float(
                sum(len(r.events) for r in reports.values())
            ),
            "reprogrammed": float(
                sum(1 for r in reports.values() if r.reprogrammed)
            ),
            "steady_vips": float(len(plane.steady_vips())),
        }

    dip_index = {dip: i for i, dip in enumerate(fleet.dips)}
    meter = _BlackholeMeter(
        blackholed,
        lambda dip: fleet.state().total_rates_rps[dip],
        lambda: left_to_right_sum(vip.total_rate_rps for vip in fleet.vips.values()),
        dip_index,
    )

    def snapshot() -> tuple[
        dict[str, float], dict[str, float], dict[str, dict[str, float]]
    ]:
        state = fleet.state()
        metrics = {
            "mean_latency_ms": _live_mean_latency_ms(
                state.total_rates_rps, state.mean_latency_ms, exclude=blackholed
            ),
            "max_utilization": max(state.utilization.values()),
            "total_rate_rps": left_to_right_sum(state.total_rates_rps.values()),
            "num_vips": float(len(fleet.vips)),
        }
        if health is not None:
            metrics["drop_fraction"] = meter.window_fraction()
        return metrics, _share(state.total_rates_rps), _dip_rows(state)

    if health is not None:
        actions = _health_timeline_actions(
            timeline,
            health,
            seed=seed,
            dip_index=dip_index,
            blackholed=blackholed,
            fail=fleet.fail_dip,
            recover=recover,
        )
    else:
        actions = [
            (event.time_s, event, None) for event in timeline.ordered_events()
        ]
    actions = _split_drained_offboards(
        actions, drain=drain_vip, apply_event=apply_event
    )

    def advance(dt: float) -> None:
        if dt <= 0:
            return
        if health is not None:
            meter.account(dt)
        fleet.advance(dt)

    return TimelineStepper(
        timeline,
        observer,
        advance=advance,
        tick=tick,
        snapshot=snapshot,
        apply_event=apply_event,
        actions=actions,
        set_weights=fleet.set_weights,
        weight_scope={
            vip_id: tuple(vip.dips) for vip_id, vip in fleet.vips.items()
        },
    )


# ---------------------------------------------------------------------------
# request substrate
# ---------------------------------------------------------------------------


def apply_request_event(cluster: "RequestCluster", event: EventSpec) -> None:
    """Apply one timeline event to a live request-level cluster."""
    kind = event.kind
    if kind == "dip_fail":
        cluster.fail_dip(event.dip, drain_s=event.drain_s)
    elif kind == "dip_recover":
        cluster.recover_dip(event.dip)
    elif kind == "capacity_ratio":
        cluster.set_capacity_ratio(event.dip, event.value)
    elif kind == "antagonist_phase":
        cluster.set_antagonist_copies(event.dip, int(event.value))
    elif kind == "arrival_scale":
        cluster.scale_arrivals(event.value)
    else:  # pragma: no cover - caught by check_timeline_supported
        raise ConfigurationError(
            f"event {kind!r} is not executable on the request substrate"
        )


def schedule_request_timeline(
    cluster: "RequestCluster",
    timeline: TimelineSpec,
    observer: Observer,
    *,
    offset_s: float = 0.0,
) -> "list[EventHandle]":
    """Inject the timeline into the engine as cancellable events.

    Event times are measured from the start of the measured phase, so each
    fires at ``offset_s + time_s`` on the engine clock (``offset_s`` is the
    warm-up).  The returned handles let the runner cancel events that
    outlive the run's horizon (they sit in the completion drain tail).
    """
    handles = []
    for event in timeline.ordered_events():

        def fire(event: EventSpec = event) -> None:
            apply_request_event(cluster, event)
            observer.on_event(event.time_s, event)

        handles.append(
            cluster.scheduler.schedule_cancellable_at(
                offset_s + event.time_s, fire
            )
        )
    return handles


def schedule_request_progress(
    cluster: "RequestCluster",
    observer: Observer,
    *,
    window_s: float,
    horizon_s: float,
    offset_s: float = 0.0,
) -> None:
    """Self-rescheduling ``on_round`` progress beacon for the request engine."""

    def emit() -> None:
        now = cluster.scheduler.now - offset_s
        observer.on_round(
            now,
            {
                "requests_recorded": float(cluster.metrics.total_requests),
                "pending_events": float(cluster.scheduler.pending_events),
            },
        )
        next_time = now + window_s
        if next_time < horizon_s + _EPS:
            cluster.scheduler.schedule_at(offset_s + next_time, emit)

    cluster.scheduler.schedule_at(offset_s + window_s, emit)


def window_from_row(
    row: Mapping, events: "Iterable[EventSpec]", *, offset_s: float = 0.0
) -> RunWindow:
    """One :meth:`MetricsCollector.window_rows` row as a :class:`RunWindow`.

    Window times are measured from the start of the timed phase (the row's
    engine-clock bounds minus ``offset_s``), and the window is tagged with
    the timeline events whose declared times fall inside it.
    """
    start = row["start_s"] - offset_s
    end = row["end_s"] - offset_s
    return RunWindow(
        start_s=start,
        end_s=end,
        metrics=dict(row["metrics"]),
        dip_share=dict(row["dip_share"]),
        events=tuple(
            event.label()
            for event in events
            if start - _EPS <= event.time_s < end - _EPS
        ),
        dip_metrics={
            dip: dict(columns)
            for dip, columns in row.get("dip_metrics", {}).items()
        },
    )


def windows_from_collector(
    collector: "MetricsCollector",
    timeline: TimelineSpec,
    observer: Observer,
    *,
    duration_s: float,
    offset_s: float = 0.0,
) -> tuple[RunWindow, ...]:
    """Fold any columnar metrics collector into the window time-series.

    Computed after the run from the collector's timestamp column (windows
    reflect the requests that *completed* in them).  The serial request
    runner and the epoch-sharded engine share this fold, so their window
    rows are directly comparable.
    """
    events = timeline.ordered_events()
    rows = collector.window_rows(
        window_s=timeline.window_s,
        start_s=offset_s,
        end_s=offset_s + duration_s,
    )
    windows: list[RunWindow] = []
    for row in rows:
        window = window_from_row(row, events, offset_s=offset_s)
        observer.on_window(window)
        windows.append(window)
    return tuple(windows)
