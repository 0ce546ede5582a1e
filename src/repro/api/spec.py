"""The declarative experiment spec: one frozen dataclass tree per run.

An :class:`ExperimentSpec` describes *everything* a run needs — the DIP
pool, the workload, the LB policy, whether the KnapsackLB controller runs,
the execution substrate (``runner``) and the seed — so the same spec can be
built in code, loaded from a plain dict, or parsed from a JSON/TOML file,
and then executed on the analytic fluid model, the request-level engine or
the multi-VIP fleet by flipping the single ``runner`` field.

Each field states its rule once, in its ``field(metadata=...)`` (written by
:func:`~repro.core.config.checked`): an interval such as
``within("(0, 1.5)")``, a choice set, or which ``kind`` values take it.
Every class subclasses :class:`~repro.core.config.Validated`, whose
``__post_init__`` runs the one walker over those declarations at
construction, so errors name the bad field (``workload.load_fraction must
be in (0, 1.5)``) and NaN fails every range; the rules over two fields
(timeline alternation and horizon, the probe timeout, the runner) are the
named checks below.  Dict/file loading goes through
:func:`repro.core.config.dataclass_from_dict`, which names the offending
dotted path.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.config import (
    ByKind,
    KnapsackLBConfig,
    NonEmpty,
    OneOf,
    Rule,
    Validated,
    check_fields,
    checked,
    dataclass_from_dict,
    read_spec_file,
    within,
)
from repro.exceptions import ConfigurationError
from repro.lb.base import policy_description, policy_names
from repro.workloads.kinds import ARRIVAL_KINDS, POOL_KINDS, SERVICE_KINDS

#: Substrates a spec can execute on; "scenario" delegates to the registry in
#: :mod:`repro.experiments.scenarios`.
RUNNER_KINDS: tuple[str, ...] = ("fluid", "request", "fleet", "scenario")

#: Timed mid-run perturbations a timeline can declare (see :class:`EventSpec`).
EVENT_KINDS: tuple[str, ...] = (
    "dip_fail",
    "dip_recover",
    "capacity_ratio",
    "arrival_scale",
    "vip_onboard",
    "vip_offboard",
    "antagonist_phase",
)

#: Event kinds that only make sense on the multi-VIP fleet substrate.
FLEET_ONLY_EVENT_KINDS: frozenset[str] = frozenset(
    {"vip_onboard", "vip_offboard"}
)
_EVENT_TIME = "{label} must be > 0 (events fire strictly inside the timed phase)"
_EVENT_NEEDS = NonEmpty("event {kind!r} needs the {name} field")
_EVENT_TAKES_NO = "event {kind!r} does not take a {name} field"
#: The event kinds that take ``dip`` / ``vip`` / ``value``, with its rule.
_DIP_NEEDS = dict.fromkeys(
    ("dip_fail", "dip_recover", "capacity_ratio", "antagonist_phase"), _EVENT_NEEDS
)
_VIP_TAKES = {
    **dict.fromkeys(sorted(FLEET_ONLY_EVENT_KINDS), _EVENT_NEEDS), "arrival_scale": None
}
_VALUE_TAKES = {
    "capacity_ratio": within("(0, 1]", text="event {kind!r} needs value in (0, 1]"),
    "arrival_scale": within("(0, inf)", text="event {kind!r} needs a positive value"),
    "antagonist_phase": within(
        "[0, inf)",
        integer=True,
        text="event {kind!r} needs a non-negative integer value (antagonist copies)",
    ),
}
@dataclass(frozen=True)
class EventSpec(Validated):
    """One timed perturbation of a running experiment.

    ``time_s`` is measured from the start of the timeline phase (after the
    controller has converged, and after warm-up on the request substrate),
    so the same event fires at the same point of every substrate's clock.

    Kinds and their fields:

    * ``dip_fail`` / ``dip_recover`` — ``dip`` goes down / comes back;
    * ``capacity_ratio`` — pin ``dip``'s capacity to ``value`` (in (0, 1])
      of its base value (the §2.1 antagonist squeeze);
    * ``antagonist_phase`` — run ``value`` antagonist copies on ``dip``
      (0 clears them; diminishing-returns capacity loss per copy);
    * ``arrival_scale`` — scale offered traffic to ``value`` × the *base*
      rate (surges and diurnal ramps; ``vip`` scopes it to one fleet
      tenant, otherwise every VIP scales);
    * ``vip_onboard`` / ``vip_offboard`` — ``vip`` joins the control plane
      of a live fleet / leaves the fleet (fleet substrate only).

    ``drain_s`` (``dip_fail`` and ``vip_offboard`` only) makes the event
    graceful: the LB stops sending new work at ``time_s`` but the target
    keeps serving what it already accepted for ``drain_s`` more seconds
    before going away (on the request substrate the DIP's server only dies
    at ``time_s + drain_s``, so queued and in-flight requests finish).
    """

    _prefix = "event "
    #: spec files, ``repro validate`` and the daemon's ``POST /events`` all
    #: load events through :meth:`from_dict`, so they share its error text.
    _root = "timeline.events"

    time_s: float = checked(MISSING, within("(0, inf)", text=_EVENT_TIME))
    kind: str = checked(MISSING, OneOf(EVENT_KINDS))
    dip: str | None = checked(None, ByKind(_DIP_NEEDS, _EVENT_TAKES_NO))
    vip: str | None = checked(None, ByKind(_VIP_TAKES, _EVENT_TAKES_NO))
    value: float | None = checked(None, ByKind(_VALUE_TAKES, _EVENT_TAKES_NO))
    drain_s: float = checked(
        0.0,
        within("[0, inf)"),
        ByKind(
            {"dip_fail": None, "vip_offboard": None},
            _EVENT_TAKES_NO + " (only dip_fail and vip_offboard drain)",
        ),
    )

    def label(self) -> str:
        """Compact human-readable form (``t=30s dip_fail DIP-3``)."""
        parts = [f"t={self.time_s:g}s", self.kind]
        if self.dip is not None:
            parts.append(self.dip)
        if self.vip is not None:
            parts.append(self.vip)
        if self.value is not None:
            parts.append(f"{self.value:g}")
        if self.drain_s > 0:
            parts.append(f"drain={self.drain_s:g}s")
        return " ".join(parts)


_PROBE_TIMEOUT = "health.probe_timeout_s must be in (0, probe_interval_s]"


@dataclass(frozen=True)
class HealthCheckSpec(Validated):
    """Probe-based failure detection: the LB *learns* a DIP died.

    When disabled (the default) failure stays an oracle: ``dip_fail``
    flips the policy's health view at the event instant.  When enabled,
    each DIP is probed every ``probe_interval_s`` seconds on its own
    seeded phase; a probe against a dead DIP is only known failed after
    ``probe_timeout_s``, and the LB marks the DIP down (up) after
    ``unhealthy_threshold`` consecutive failed (``healthy_threshold``
    consecutive successful) probes.  Until the down-mark lands, the LB
    keeps routing to the dead DIP and that traffic is lost — the
    detection window the paper's probe-driven monitors pay for.

    The probe phase is derived from ``(seed, dip index)`` alone, so the
    request engine (which simulates the probes as events) and the
    fluid/fleet substrates (which walk the same probe grid analytically)
    detect at exactly the same instants per seed.
    """

    _prefix = "health."

    enabled: bool = False
    probe_interval_s: float = checked(1.0, within("(0, inf)"))
    probe_timeout_s: float = checked(0.2, within("(0, inf)", text=_PROBE_TIMEOUT))
    unhealthy_threshold: int = checked(3, within("[1, inf)"))
    healthy_threshold: int = checked(2, within("[1, inf)"))

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.probe_timeout_s <= self.probe_interval_s:
            raise ConfigurationError(_PROBE_TIMEOUT)

    def probe_phase_s(self, seed: int, dip_index: int) -> float:
        """First probe offset in ``[0, probe_interval_s)`` for one DIP.

        Every substrate calls this with the run seed and the DIP's global
        (pool-order) index, so detection instants agree bit-for-bit.
        """
        rng = np.random.default_rng((int(seed), 0x48C7, int(dip_index)))
        return float(rng.uniform(0.0, self.probe_interval_s))

    def detection_delay_s(
        self, seed: int, dip_index: int, fail_time_s: float
    ) -> float:
        """Closed-form delay from failure to the LB's down-mark.

        The first failing probe is the first grid point at or after the
        failure; the ``unhealthy_threshold``-th consecutive failure lands
        ``(unhealthy_threshold - 1)`` intervals later and is known failed
        one ``probe_timeout_s`` after that.
        """
        interval = self.probe_interval_s
        phase = self.probe_phase_s(seed, dip_index)
        periods = max(0, -(-(fail_time_s - phase) // interval))
        first = phase + periods * interval
        if first < fail_time_s:  # float-rounding guard
            first += interval
        return (
            first
            + (self.unhealthy_threshold - 1) * interval
            + self.probe_timeout_s
            - fail_time_s
        )


@dataclass(frozen=True)
class RetryPolicy(Validated):
    """Per-request timeout / retry / backoff on the request substrate.

    When enabled, a request that times out (no completion within
    ``request_timeout_s`` of its attempt), lands on a dead DIP or is
    dropped by a full queue is re-routed: up to ``max_retries`` fresh
    attempts, each delayed by an exponential backoff
    (``backoff_base_s * backoff_multiplier**(attempt-1)``) with seeded
    uniform jitter of ``±jitter_fraction``, subject to a retry *budget*
    (retries issued may not exceed ``retry_budget`` × attempts observed,
    plus a small burst allowance) so retry storms cannot melt the
    cluster.  A logical request records one metrics row: its latency is
    first-arrival→final-completion, plus attempts / timed-out / gave-up
    columns.
    """

    _prefix = "retry."

    enabled: bool = False
    request_timeout_s: float = checked(1.0, within("(0, inf)"))
    max_retries: int = checked(2, within("[0, inf)"))
    backoff_base_s: float = checked(0.05, within("[0, inf)"))
    backoff_multiplier: float = checked(2.0, within("[1, inf)"))
    jitter_fraction: float = checked(0.5, within("[0, 1]"))
    retry_budget: float = checked(0.2, within("[0, inf)"))


@dataclass(frozen=True)
class ChaosSpec(Validated):
    """A seeded random failure schedule, expanded into ordinary events.

    Setting ``seed`` arms chaos: before a run executes, the generator
    draws failure instants (Poisson at ``failure_rate_per_min``), victims
    (uniform over the DIPs the timeline does not already fail by hand,
    whole racks of ``rack_size`` at a time when set), outage lengths
    (exponential with ``mean_outage_s``) and post-recovery flaps
    (geometric with ``flap_probability``) from one
    ``default_rng(seed)`` stream and splices the resulting
    ``dip_fail``/``dip_recover`` :class:`EventSpec` pairs into the
    timeline.  Because the expansion happens *before* planning, a chaos
    run is indistinguishable from a hand-written timeline downstream:
    bit-identical per seed, epoch-shardable, replayable from the saved
    artifact.  Requires an explicit ``timeline.horizon_s``.
    """

    _prefix = "timeline.chaos."

    seed: int | None = None
    failure_rate_per_min: float = checked(2.0, within("(0, inf)"))
    mean_outage_s: float = checked(15.0, within("(0, inf)"))
    flap_probability: float = checked(0.0, within("[0, 1)"))
    #: DIPs per correlated failure domain; 0/1 fails DIPs independently.
    rack_size: int = checked(0, within("[0, inf)"))
    max_concurrent_failures: int = checked(1, within("[1, inf)"))

    @property
    def enabled(self) -> bool:
        return self.seed is not None


#: flaps chained after one chaos outage are capped so schedules stay short.
_CHAOS_MAX_FLAPS = 3


def expand_chaos_events(
    chaos: ChaosSpec,
    *,
    dip_ids: tuple[str, ...],
    horizon_s: float,
    manual_events: tuple[EventSpec, ...] = (),
) -> tuple[EventSpec, ...]:
    """Draw the chaos schedule for one run as plain :class:`EventSpec` s.

    DIPs named by any manual event are left alone so the generated
    fail/recover alternation can never collide with a hand-written one.
    Outages that would outlive the horizon simply never recover.
    """
    if not chaos.enabled:
        return ()
    manual = {event.dip for event in manual_events if event.dip is not None}
    eligible = [dip for dip in dip_ids if dip not in manual]
    if not eligible:
        return ()
    if chaos.rack_size > 1:
        groups = [
            tuple(eligible[i : i + chaos.rack_size])
            for i in range(0, len(eligible), chaos.rack_size)
        ]
    else:
        groups = [(dip,) for dip in eligible]

    rng = np.random.default_rng(chaos.seed)
    rate_per_s = chaos.failure_rate_per_min / 60.0
    down_until: dict[int, float] = {}
    events: list[EventSpec] = []

    def emit_outage(group: tuple[str, ...], start: float) -> float:
        """Fail ``group`` at ``start``; return its final recovery time."""
        end = start + float(rng.exponential(chaos.mean_outage_s))
        for flap in range(_CHAOS_MAX_FLAPS + 1):
            for dip in group:
                events.append(EventSpec(time_s=start, kind="dip_fail", dip=dip))
            if end >= horizon_s:
                return float("inf")  # never recovers inside the run
            for dip in group:
                events.append(EventSpec(time_s=end, kind="dip_recover", dip=dip))
            if flap == _CHAOS_MAX_FLAPS or rng.random() >= chaos.flap_probability:
                return end
            start = end + float(rng.exponential(0.25 * chaos.mean_outage_s))
            if start >= horizon_s:
                return end
            end = start + float(rng.exponential(0.25 * chaos.mean_outage_s))
        return end

    t = float(rng.exponential(1.0 / rate_per_s))
    while t < horizon_s:
        for index, until in list(down_until.items()):
            if until <= t:
                del down_until[index]
        index = int(rng.integers(len(groups)))
        if (
            index not in down_until
            and len(down_until) < chaos.max_concurrent_failures
        ):
            down_until[index] = emit_outage(groups[index], t)
        t += float(rng.exponential(1.0 / rate_per_s))
    return tuple(events)


def _check_events(events: tuple[EventSpec, ...], horizon_s: float | None) -> None:
    """Every event and drain ends inside the horizon, none is declared twice,
    and each DIP alternates fail, recover, fail, ..."""
    if horizon_s is not None:
        late = [e for e in events if e.time_s >= horizon_s]
        if late:
            raise ConfigurationError(
                f"timeline.horizon_s = {horizon_s:g} does not cover "
                f"the event at t={late[0].time_s:g}s"
            )
        slow = [e for e in events if e.time_s + e.drain_s >= horizon_s]
        if slow:
            raise ConfigurationError(
                f"timeline.horizon_s = {horizon_s:g} does not cover "
                f"the drain ending at t={slow[0].time_s + slow[0].drain_s:g}s"
            )
    seen: set[tuple[float, str, str | None, str | None]] = set()
    for event in events:
        key = (event.time_s, event.kind, event.dip, event.vip)
        if key in seen:
            raise ConfigurationError(
                f"timeline.events declares the duplicate event {event.label()!r}"
            )
        seen.add(key)
    failed: set[str | None] = set()
    for event in sorted(events, key=lambda e: e.time_s):
        if event.kind == "dip_fail":
            if event.dip in failed:
                raise ConfigurationError(
                    f"timeline.events: {event.label()!r} fails a DIP "
                    "that an earlier event already failed"
                )
            failed.add(event.dip)
        elif event.kind == "dip_recover":
            if event.dip not in failed:
                raise ConfigurationError(
                    f"timeline.events: {event.label()!r} recovers a DIP "
                    "that no earlier event failed"
                )
            failed.discard(event.dip)


@dataclass(frozen=True)
class TimelineSpec(Validated):
    """The timed phase of an experiment: ordered events plus telemetry shape.

    Events apply in ``(time_s, declaration order)`` order on every substrate:
    the fluid and fleet runners apply due events between fixed-point rounds
    (one round per ``window_s``), the request runner schedules them as
    cancellable engine events on the shared heap.  ``window_s`` is also the
    granularity of the windowed time-series recorded into the result.

    ``horizon_s`` ends the timed phase; when omitted it extends
    ``TAIL_WINDOWS`` windows past the last event so the system's reaction is
    visible in the telemetry.
    """

    #: windows simulated past the last event when horizon_s is omitted.
    TAIL_WINDOWS = 5

    _prefix = "timeline."

    events: tuple[EventSpec, ...] = ()
    window_s: float = checked(5.0, within("(0, inf)"))
    horizon_s: float | None = checked(None, within("(0, inf)", null=True))
    chaos: ChaosSpec = ChaosSpec()

    def __post_init__(self) -> None:
        events = tuple(
            e if isinstance(e, EventSpec) else EventSpec.from_dict(e)
            for e in self.events
        )
        object.__setattr__(self, "events", events)
        check_fields(self)
        _check_events(events, self.horizon_s)

    @property
    def empty(self) -> bool:
        """No events, no explicit horizon, no chaos: no timed phase."""
        return (
            not self.events
            and self.horizon_s is None
            and not self.chaos.enabled
        )

    def duration_s(self) -> float:
        """The resolved end of the timed phase."""
        if self.horizon_s is not None:
            return self.horizon_s
        last = max((e.time_s for e in self.events), default=0.0)
        return last + self.TAIL_WINDOWS * self.window_s

    def ordered_events(self) -> tuple[EventSpec, ...]:
        """Events in application order: time first, declaration order on ties."""
        # sorted() is stable, so equal-time events keep declaration order.
        return tuple(sorted(self.events, key=lambda e: e.time_s))


@dataclass(frozen=True)
class VmSpec(Validated):
    """The VM type used for ``uniform`` pools (and cores for ``three_dip``)."""

    _prefix = "pool.vm."

    name: str = "api-2core"
    vcpus: int = checked(2, within("[1, inf)"))
    capacity_rps: float = checked(800.0, within("(0, inf)"))
    #: ``None`` picks the M/M/c-consistent idle latency (vcpus/capacity).
    idle_latency_ms: float | None = checked(None, within("(0, inf)", null=True))


@dataclass(frozen=True)
class PoolSpec(Validated):
    """Which DIP pool to build (see :func:`repro.workloads.build_pool`)."""

    _prefix = "pool."

    kind: str = checked("uniform", OneOf(POOL_KINDS))
    num_dips: int = checked(8, within("[1, inf)"))
    vm: VmSpec = VmSpec()
    #: capacity squeeze of the low-capacity DIP for ``three_dip`` pools.
    capacity_ratio: float = checked(1.0, within("(0, 1]"))


def _only(
    kind: str, rule: Rule | None = None, what: str = "{label} only applies"
) -> ByKind:
    """A field only ``kind`` takes (with ``rule`` there); others keep its default."""
    return ByKind({kind: rule}, f"{what} to kind '{kind}'; kind is {{kind!r}}")


_MMPP_STATES = "workload.arrival.state_rates must be >= 0 with a positive maximum"
_RATES_ONLY = "workload.arrival.state_rates/switch_rates only apply"
_BURST = _only(
    "flash_crowd", within("(0, inf)"), "workload.arrival.burst_* fields only apply"
)
_ELEPHANTS_ONLY = "workload.service.elephant_* fields only apply"
#: what ``flash_crowd`` fills in for burst fields left at 0.
_FLASH_CROWD_DEFAULTS = {
    "burst_rate_per_s": 0.2, "burst_height": 5.0, "burst_decay_s": 2.0
}


def _fill_arrival_defaults(spec: "ArrivalSpec") -> None:
    """Coerce the rates to floats; default-fill ``mmpp`` and ``flash_crowd``."""
    state = tuple(float(r) for r in spec.state_rates)
    switch = tuple(float(r) for r in spec.switch_rates)
    if spec.kind == "mmpp":
        state = state or (0.4, 3.4)
        switch = switch or tuple(0.5 for _ in state)
    object.__setattr__(spec, "state_rates", state)
    object.__setattr__(spec, "switch_rates", switch)
    if spec.kind == "flash_crowd":
        for name, default in _FLASH_CROWD_DEFAULTS.items():
            if getattr(spec, name) == 0:
                object.__setattr__(spec, name, default)


def _check_mmpp(state: tuple[float, ...], switch: tuple[float, ...]) -> None:
    """At least two states, one switch rate each, and some state that emits."""
    if len(state) < 2:
        raise ConfigurationError(
            "workload.arrival.state_rates needs at least two states for kind 'mmpp'"
        )
    if len(switch) != len(state):
        raise ConfigurationError(
            "workload.arrival.switch_rates must match state_rates "
            f"({len(switch)} vs {len(state)})"
        )
    if max(state) <= 0:
        raise ConfigurationError(_MMPP_STATES)


@dataclass(frozen=True)
class ArrivalSpec(Validated):
    """The arrival-process shape (see :mod:`repro.workloads.arrivals`).

    Fields apply per ``kind``; setting one for a kind that does not use
    it is rejected eagerly, so typos surface as dotted-path errors at
    validate time rather than silently configuring nothing.  The
    ``mmpp`` and ``flash_crowd`` kinds default-fill their parameters, so
    ``--set workload.arrival.kind=mmpp`` alone yields a sensibly bursty
    workload.
    """

    _prefix = "workload.arrival."

    kind: str = checked("poisson", OneOf(tuple(sorted(ARRIVAL_KINDS))))
    #: mmpp: relative per-state intensities (normalized so the stationary
    #: mean matches the workload rate).
    state_rates: tuple[float, ...] = checked(
        (),
        _only("mmpp", within("[0, inf)", each=True, text=_MMPP_STATES), _RATES_ONLY),
    )
    #: mmpp: exit rate of each state (mean sojourn ``1/rate`` seconds).
    switch_rates: tuple[float, ...] = checked(
        (), _only("mmpp", within("(0, inf)", each=True), _RATES_ONLY)
    )
    #: flash_crowd: Poisson rate of burst onsets.
    burst_rate_per_s: float = checked(0.0, _BURST)
    #: flash_crowd: peak intensity boost per burst (x the base rate).
    burst_height: float = checked(0.0, _BURST)
    #: flash_crowd: exponential decay constant of each burst (seconds).
    burst_decay_s: float = checked(0.0, _BURST)
    #: trace: CSV/JSONL file whose ``trace_column`` holds timestamps.
    trace_path: str | None = checked(
        None, _only("trace", NonEmpty("{label} is required for kind 'trace'"))
    )
    trace_column: str = checked("timestamp", _only("trace"))
    #: trace: replay the trace's own mean rate instead of scaling to the
    #: spec's ``load_fraction`` rate.
    preserve_rate: bool = checked(False, _only("trace"))

    def __post_init__(self) -> None:
        _fill_arrival_defaults(self)
        check_fields(self)
        if self.kind == "mmpp":
            _check_mmpp(self.state_rates, self.switch_rates)


@dataclass(frozen=True)
class ServiceSpec(Validated):
    """The service-time shape drawn by every DIP station.

    All kinds are unit-mean (scaled by each DIP's mean service time at
    consumption), so ``load_fraction`` keeps its meaning; the kinds
    differ in their squared coefficient of variation — the ``Cs^2`` the
    divergence guard and the fluid substrate's Allen-Cunneen correction
    are built from.
    """

    _prefix = "workload.service."

    kind: str = checked("exponential", OneOf(tuple(sorted(SERVICE_KINDS))))
    #: lognormal: squared coefficient of variation of service times.
    scv: float = checked(1.0, _only("lognormal", within("(0, inf)")))
    #: pareto: tail index alpha (> 1 for a finite mean; <= 2 has
    #: infinite variance — the analytic twin is hopeless there).
    tail_index: float = checked(
        2.5,
        _only(
            "pareto",
            within(
                "(1, inf)",
                text="{label} must be > 1 (a unit-mean Pareto needs a finite mean)",
            ),
        ),
    )
    #: elephant: fraction of flows that are elephants.
    elephant_fraction: float = checked(
        0.05, _only("elephant", within("(0, 1)"), _ELEPHANTS_ONLY)
    )
    #: elephant: elephant service time as a multiple of a mouse's.
    elephant_factor: float = checked(
        20.0, _only("elephant", within("[1, inf)"), _ELEPHANTS_ONLY)
    )


@dataclass(frozen=True)
class WorkloadSpec(Validated):
    """The offered traffic, sized relative to the pool's total capacity."""

    _prefix = "workload."

    load_fraction: float = checked(0.6, within("(0, 1.5)"))
    #: request budget for the request-level engine.
    num_requests: int = checked(20_000, within("[1, inf)"))
    #: simulated warm-up before measurement starts (request engine only).
    warmup_s: float = checked(1.0, within("[0, inf)"))
    #: arrival-process shape (Poisson baseline by default).
    arrival: ArrivalSpec = ArrivalSpec()
    #: service-time shape (exponential baseline by default).
    service: ServiceSpec = ServiceSpec()
    #: how far Ca^2/Cs^2 may stray from the M/M/c value of 1 before runs
    #: carry a ``provenance.model_divergence`` warning.
    divergence_tolerance: float = checked(0.5, within("[0, inf)"))


@dataclass(frozen=True)
class PolicySpec(Validated):
    """The LB policy requests are split by (names from the lb registry).

    ``num_muxes > 1`` fronts the policy with the
    :class:`~repro.lb.mux.MuxPool` dataplane on the request substrate:
    flows ECMP-hash to one of ``num_muxes`` MUXes, each running its own
    policy replica (the paper's scaled-out dataplane).
    """

    _prefix = "policy."

    name: str = checked("wrr", OneOf(policy_names))
    num_muxes: int = checked(1, within("[1, inf)"))


@dataclass(frozen=True)
class ControllerSpec(Validated):
    """Whether (and how) the KnapsackLB controller drives the run.

    When enabled, the fluid and fleet runners converge the controller before
    measuring; the request runner computes weights on an analytic fluid twin
    of the same pool and replays them through the request-level engine.
    """

    _prefix = "controller."

    enabled: bool = True
    #: settle control steps after programming weights (fluid/fleet).
    settle_steps: int = checked(3, within("[0, inf)"))
    #: extra §4.5 control ticks after convergence.
    control_steps: int = checked(0, within("[0, inf)"))
    config: KnapsackLBConfig = KnapsackLBConfig()


@dataclass(frozen=True)
class FleetSpec(Validated):
    """Multi-VIP shape used only by the fleet runner.

    The pool's DIPs are shared by ``num_vips`` overlapping VIPs (see
    :func:`repro.workloads.build_shared_dip_fleet`); a spec without a
    ``fleet`` section still runs on the fleet substrate with these defaults.
    """

    _prefix = "fleet."

    num_vips: int = checked(4, within("[1, inf)"))
    #: DIPs per VIP window; ``None`` derives it from the sharing ratio.
    pool_size: int | None = checked(None, within("[1, inf)", null=True))
    #: VIPs that start *outside* the control plane (traffic flows at the
    #: builder's capacity-proportional weights) until a ``vip_onboard``
    #: event — declared in the timeline or injected live through the
    #: ``repro serve`` daemon — brings them under KnapsackLB control.
    deferred_vips: tuple[str, ...] = checked(
        (), NonEmpty("{label} must be a list of VIP names", each=True)
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "deferred_vips", tuple(self.deferred_vips))
        check_fields(self)


def _check_runner(spec: "ExperimentSpec") -> None:
    """The sections a runner cannot honour: scenario bridges, retries off the
    request engine, rescaled pinned traces, unbounded chaos, unweighted
    policies under the controller."""
    bridged, timeline = spec.runner == "scenario", spec.timeline
    if bridged and not spec.scenario:
        raise ConfigurationError("runner 'scenario' needs the scenario field set")
    if spec.scenario is not None and not bridged:
        raise ConfigurationError(
            f"scenario {spec.scenario!r} requires runner 'scenario', "
            f"got {spec.runner!r}"
        )
    # chaos-only timelines are allowed: the bridging ScenarioRunner hands
    # timeline.chaos.seed to scenarios that accept one.
    if bridged and (timeline.events or timeline.horizon_s is not None):
        raise ConfigurationError(
            "runner 'scenario' cannot carry timeline events; scenarios "
            "build their own timed specs (use runner fluid/request/fleet)"
        )
    if bridged and (spec.health.enabled or spec.retry.enabled):
        raise ConfigurationError(
            "runner 'scenario' cannot carry health/retry sections; "
            "scenarios configure resilience through their own params"
        )
    if spec.retry.enabled and spec.runner != "request":
        raise ConfigurationError(
            "retry.enabled needs runner 'request': retries act on "
            "individual requests, which only the request engine models"
        )
    arrival = spec.workload.arrival
    if arrival.kind == "trace" and arrival.preserve_rate and any(
        event.kind == "arrival_scale" for event in timeline.events
    ):
        raise ConfigurationError(
            "timeline 'arrival_scale' events cannot rescale a trace "
            "workload with workload.arrival.preserve_rate = true: the "
            "replay clock is pinned to the trace; set "
            "workload.arrival.preserve_rate = false to allow scaling"
        )
    if timeline.chaos.enabled and not bridged and timeline.horizon_s is None:
        raise ConfigurationError(
            "timeline.chaos needs an explicit timeline.horizon_s: the "
            "generated failure schedule fills a fixed timed phase"
        )
    if (
        spec.controller.enabled
        and not bridged
        and not policy_description(spec.policy.name).weighted
    ):
        raise ConfigurationError(
            f"policy.name {spec.policy.name!r} cannot carry KnapsackLB "
            "weights; pick a weighted policy (wrr, wrandom, wlc, dns) "
            "or set controller.enabled = false"
        )


@dataclass(frozen=True)
class ExperimentSpec(Validated):
    """The single declarative description of one experiment run."""

    _root = "spec"

    name: str = checked(MISSING, NonEmpty())
    runner: str = checked("fluid", OneOf(RUNNER_KINDS))
    pool: PoolSpec = PoolSpec()
    workload: WorkloadSpec = WorkloadSpec()
    policy: PolicySpec = PolicySpec()
    controller: ControllerSpec = ControllerSpec()
    fleet: FleetSpec = FleetSpec()
    timeline: TimelineSpec = TimelineSpec()
    health: HealthCheckSpec = HealthCheckSpec()
    retry: RetryPolicy = RetryPolicy()
    seed: int = 0
    #: epoch length for epoch-synchronized sharded runs (seconds between
    #: cross-shard state barriers; smaller = less staleness, more syncs).
    sync_interval_s: float = checked(0.25, within("(0, inf)"))
    #: registered scenario to delegate to (runner == "scenario" only).
    scenario: str | None = None
    #: parameter overrides for the scenario's runner.
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)
        _check_runner(self)
        # ``params`` is the one mutable field on this frozen tree: copy it so
        # derived specs never share (and callers can never mutate) state.
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        return cls.from_dict(read_spec_file(path, "spec"))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    # -- derivation ------------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ExperimentSpec":
        """A new spec with dotted-path overrides applied.

        ``{"workload.load_fraction": 0.4, "runner": "request"}`` replaces
        nested fields; on scenario-backed specs a bare key that is not a
        spec field is treated as a scenario parameter (``params.<key>``).
        """
        spec = self
        for raw_path, value in overrides.items():
            parts = str(raw_path).split(".")
            if (
                len(parts) == 1
                and self.scenario is not None
                and parts[0] not in _SPEC_FIELDS
            ):
                parts = ["params", parts[0]]
            spec = _override(spec, parts, value, raw_path)
        return spec


_SPEC_FIELDS = frozenset(ExperimentSpec.__dataclass_fields__)


def _override(node: Any, parts: list[str], value: Any, raw_path: str) -> Any:
    head = parts[0]
    if isinstance(node, dict):
        return {**node, head: value}
    fields_map = getattr(node, "__dataclass_fields__", {})
    if head not in fields_map:
        valid = ", ".join(sorted(fields_map)) or "(none)"
        raise ConfigurationError(
            f"unknown override path {raw_path!r} at {head!r}; "
            f"valid fields: {valid}"
        )
    if len(parts) == 1:
        current = getattr(node, head)
        if is_dataclass(current) and isinstance(value, Mapping):
            value = dataclass_from_dict(type(current), value, path=head)
        elif isinstance(current, tuple) and isinstance(value, list):
            value = tuple(value)
        return replace(node, **{head: value})
    child = _override(getattr(node, head), parts[1:], value, raw_path)
    return replace(node, **{head: child})

