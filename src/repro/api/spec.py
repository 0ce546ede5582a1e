"""The declarative experiment spec: one frozen dataclass tree per run.

An :class:`ExperimentSpec` describes *everything* a run needs — the DIP
pool, the workload, the LB policy, whether the KnapsackLB controller runs,
the execution substrate (``runner``) and the seed — so the same spec can be
built in code, loaded from a plain dict, or parsed from a JSON/TOML file,
and then executed on the analytic fluid model, the request-level engine or
the multi-VIP fleet by flipping the single ``runner`` field.

Validation happens eagerly in each dataclass's ``__post_init__`` with
errors that name the bad field (``workload.load_fraction must be in (0,
1.5)``); dict/file loading goes through
:func:`repro.core.config.dataclass_from_dict`, whose unknown-key errors
name the offending dotted path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.config import (
    KnapsackLBConfig,
    dataclass_from_dict,
    dataclass_to_dict,
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


@dataclass(frozen=True)
class EventSpec:
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

    time_s: float
    kind: str
    dip: str | None = None
    vip: str | None = None
    value: float | None = None
    drain_s: float = 0.0

    def __post_init__(self) -> None:
        if self.time_s <= 0:
            raise ConfigurationError(
                "event time_s must be > 0 (events fire strictly inside "
                "the timed phase)"
            )
        if self.kind not in EVENT_KINDS:
            kinds = ", ".join(EVENT_KINDS)
            raise ConfigurationError(
                f"event kind must be one of: {kinds}; got {self.kind!r}"
            )
        needs_dip = self.kind in (
            "dip_fail",
            "dip_recover",
            "capacity_ratio",
            "antagonist_phase",
        )
        if needs_dip and not self.dip:
            raise ConfigurationError(f"event {self.kind!r} needs the dip field")
        if not needs_dip and self.dip is not None:
            raise ConfigurationError(
                f"event {self.kind!r} does not take a dip field"
            )
        if self.kind in FLEET_ONLY_EVENT_KINDS and not self.vip:
            raise ConfigurationError(f"event {self.kind!r} needs the vip field")
        if self.vip is not None and self.kind not in (
            "vip_onboard",
            "vip_offboard",
            "arrival_scale",
        ):
            raise ConfigurationError(
                f"event {self.kind!r} does not take a vip field"
            )
        if self.kind == "capacity_ratio":
            if self.value is None or not 0 < self.value <= 1:
                raise ConfigurationError(
                    "event 'capacity_ratio' needs value in (0, 1]"
                )
        elif self.kind == "arrival_scale":
            if self.value is None or self.value <= 0:
                raise ConfigurationError(
                    "event 'arrival_scale' needs a positive value"
                )
        elif self.kind == "antagonist_phase":
            if self.value is None or self.value < 0 or self.value != int(self.value):
                raise ConfigurationError(
                    "event 'antagonist_phase' needs a non-negative integer "
                    "value (antagonist copies)"
                )
        elif self.value is not None:
            raise ConfigurationError(
                f"event {self.kind!r} does not take a value field"
            )
        if self.drain_s < 0:
            raise ConfigurationError("event drain_s must be >= 0")
        if self.drain_s > 0 and self.kind not in ("dip_fail", "vip_offboard"):
            raise ConfigurationError(
                f"event {self.kind!r} does not take a drain_s field "
                "(only dip_fail and vip_offboard drain)"
            )

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, path: str = "timeline.events"
    ) -> "EventSpec":
        """Build one event from a plain mapping, naming any bad field.

        The single JSON-ingestion path for events: spec files, the
        ``repro validate`` CLI and the live daemon's ``POST /events`` body
        all go through here, so a malformed event produces the *same*
        dotted-path error text everywhere.
        """
        return dataclass_from_dict(cls, data, path=path)

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


@dataclass(frozen=True)
class HealthCheckSpec:
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

    enabled: bool = False
    probe_interval_s: float = 1.0
    probe_timeout_s: float = 0.2
    unhealthy_threshold: int = 3
    healthy_threshold: int = 2

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0:
            raise ConfigurationError("health.probe_interval_s must be positive")
        if not 0 < self.probe_timeout_s <= self.probe_interval_s:
            raise ConfigurationError(
                "health.probe_timeout_s must be in (0, probe_interval_s]"
            )
        if self.unhealthy_threshold < 1:
            raise ConfigurationError("health.unhealthy_threshold must be >= 1")
        if self.healthy_threshold < 1:
            raise ConfigurationError("health.healthy_threshold must be >= 1")

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
class RetryPolicy:
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

    enabled: bool = False
    request_timeout_s: float = 1.0
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.5
    retry_budget: float = 0.2

    def __post_init__(self) -> None:
        if self.request_timeout_s <= 0:
            raise ConfigurationError("retry.request_timeout_s must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("retry.max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigurationError("retry.backoff_base_s must be >= 0")
        if self.backoff_multiplier < 1:
            raise ConfigurationError("retry.backoff_multiplier must be >= 1")
        if not 0 <= self.jitter_fraction <= 1:
            raise ConfigurationError("retry.jitter_fraction must be in [0, 1]")
        if self.retry_budget < 0:
            raise ConfigurationError("retry.retry_budget must be >= 0")


@dataclass(frozen=True)
class ChaosSpec:
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

    seed: int | None = None
    failure_rate_per_min: float = 2.0
    mean_outage_s: float = 15.0
    flap_probability: float = 0.0
    #: DIPs per correlated failure domain; 0/1 fails DIPs independently.
    rack_size: int = 0
    max_concurrent_failures: int = 1

    @property
    def enabled(self) -> bool:
        return self.seed is not None

    def __post_init__(self) -> None:
        if self.failure_rate_per_min <= 0:
            raise ConfigurationError(
                "timeline.chaos.failure_rate_per_min must be positive"
            )
        if self.mean_outage_s <= 0:
            raise ConfigurationError(
                "timeline.chaos.mean_outage_s must be positive"
            )
        if not 0 <= self.flap_probability < 1:
            raise ConfigurationError(
                "timeline.chaos.flap_probability must be in [0, 1)"
            )
        if self.rack_size < 0:
            raise ConfigurationError("timeline.chaos.rack_size must be >= 0")
        if self.max_concurrent_failures < 1:
            raise ConfigurationError(
                "timeline.chaos.max_concurrent_failures must be >= 1"
            )


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


@dataclass(frozen=True)
class TimelineSpec:
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

    events: tuple[EventSpec, ...] = ()
    window_s: float = 5.0
    horizon_s: float | None = None
    chaos: ChaosSpec = ChaosSpec()

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError("timeline.window_s must be positive")
        events = tuple(
            event
            if isinstance(event, EventSpec)
            else EventSpec.from_dict(event)
            for event in self.events
        )
        object.__setattr__(self, "events", events)
        if self.horizon_s is not None:
            if self.horizon_s <= 0:
                raise ConfigurationError(
                    "timeline.horizon_s must be positive or null"
                )
            late = [e for e in events if e.time_s >= self.horizon_s]
            if late:
                raise ConfigurationError(
                    f"timeline.horizon_s = {self.horizon_s:g} does not cover "
                    f"the event at t={late[0].time_s:g}s"
                )
            slow = [
                e for e in events if e.time_s + e.drain_s >= self.horizon_s
            ]
            if slow:
                raise ConfigurationError(
                    f"timeline.horizon_s = {self.horizon_s:g} does not cover "
                    f"the drain ending at "
                    f"t={slow[0].time_s + slow[0].drain_s:g}s"
                )
        seen: set[tuple[float, str, str | None, str | None]] = set()
        for event in events:
            key = (event.time_s, event.kind, event.dip, event.vip)
            if key in seen:
                raise ConfigurationError(
                    f"timeline.events declares the duplicate event "
                    f"{event.label()!r}"
                )
            seen.add(key)
        failed: set[str] = set()
        for event in sorted(events, key=lambda e: e.time_s):
            if event.kind == "dip_fail":
                if event.dip in failed:
                    raise ConfigurationError(
                        f"timeline.events: {event.label()!r} fails a DIP "
                        "that an earlier event already failed"
                    )
                failed.add(event.dip)  # type: ignore[arg-type]
            elif event.kind == "dip_recover":
                if event.dip not in failed:
                    raise ConfigurationError(
                        f"timeline.events: {event.label()!r} recovers a DIP "
                        "that no earlier event failed"
                    )
                failed.discard(event.dip)  # type: ignore[arg-type]

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
class VmSpec:
    """The VM type used for ``uniform`` pools (and cores for ``three_dip``)."""

    name: str = "api-2core"
    vcpus: int = 2
    capacity_rps: float = 800.0
    #: ``None`` picks the M/M/c-consistent idle latency (vcpus/capacity).
    idle_latency_ms: float | None = None

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise ConfigurationError("pool.vm.vcpus must be >= 1")
        if self.capacity_rps <= 0:
            raise ConfigurationError("pool.vm.capacity_rps must be positive")
        if self.idle_latency_ms is not None and self.idle_latency_ms <= 0:
            raise ConfigurationError(
                "pool.vm.idle_latency_ms must be positive or null"
            )


@dataclass(frozen=True)
class PoolSpec:
    """Which DIP pool to build (see :func:`repro.workloads.build_pool`)."""

    kind: str = "uniform"
    num_dips: int = 8
    vm: VmSpec = VmSpec()
    #: capacity squeeze of the low-capacity DIP for ``three_dip`` pools.
    capacity_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in POOL_KINDS:
            known = ", ".join(POOL_KINDS)
            raise ConfigurationError(
                f"pool.kind must be one of: {known}; got {self.kind!r}"
            )
        if self.num_dips < 1:
            raise ConfigurationError("pool.num_dips must be >= 1")
        if not 0 < self.capacity_ratio <= 1:
            raise ConfigurationError("pool.capacity_ratio must be in (0, 1]")


@dataclass(frozen=True)
class ArrivalSpec:
    """The arrival-process shape (see :mod:`repro.workloads.arrivals`).

    Fields apply per ``kind``; setting one for a kind that does not use
    it is rejected eagerly, so typos surface as dotted-path errors at
    validate time rather than silently configuring nothing.  The
    ``mmpp`` and ``flash_crowd`` kinds default-fill their parameters, so
    ``--set workload.arrival.kind=mmpp`` alone yields a sensibly bursty
    workload.
    """

    kind: str = "poisson"
    #: mmpp: relative per-state intensities (normalized so the stationary
    #: mean matches the workload rate).
    state_rates: tuple[float, ...] = ()
    #: mmpp: exit rate of each state (mean sojourn ``1/rate`` seconds).
    switch_rates: tuple[float, ...] = ()
    #: flash_crowd: Poisson rate of burst onsets.
    burst_rate_per_s: float = 0.0
    #: flash_crowd: peak intensity boost per burst (x the base rate).
    burst_height: float = 0.0
    #: flash_crowd: exponential decay constant of each burst (seconds).
    burst_decay_s: float = 0.0
    #: trace: CSV/JSONL file whose ``trace_column`` holds timestamps.
    trace_path: str | None = None
    trace_column: str = "timestamp"
    #: trace: replay the trace's own mean rate instead of scaling to the
    #: spec's ``load_fraction`` rate.
    preserve_rate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            known = ", ".join(sorted(ARRIVAL_KINDS))
            raise ConfigurationError(
                f"workload.arrival.kind must be one of: {known}; "
                f"got {self.kind!r}"
            )
        object.__setattr__(
            self, "state_rates", tuple(float(r) for r in self.state_rates)
        )
        object.__setattr__(
            self, "switch_rates", tuple(float(r) for r in self.switch_rates)
        )
        if self.kind == "mmpp":
            if not self.state_rates:
                object.__setattr__(self, "state_rates", (0.4, 3.4))
            if not self.switch_rates:
                object.__setattr__(
                    self, "switch_rates", tuple(0.5 for _ in self.state_rates)
                )
            if len(self.state_rates) < 2:
                raise ConfigurationError(
                    "workload.arrival.state_rates needs at least two states "
                    "for kind 'mmpp'"
                )
            if len(self.switch_rates) != len(self.state_rates):
                raise ConfigurationError(
                    "workload.arrival.switch_rates must match state_rates "
                    f"({len(self.switch_rates)} vs {len(self.state_rates)})"
                )
            if any(r < 0 for r in self.state_rates) or max(
                self.state_rates
            ) <= 0:
                raise ConfigurationError(
                    "workload.arrival.state_rates must be >= 0 with a "
                    "positive maximum"
                )
            if any(r <= 0 for r in self.switch_rates):
                raise ConfigurationError(
                    "workload.arrival.switch_rates must be positive"
                )
        elif self.state_rates or self.switch_rates:
            raise ConfigurationError(
                "workload.arrival.state_rates/switch_rates only apply to "
                f"kind 'mmpp'; kind is {self.kind!r}"
            )
        if self.kind == "flash_crowd":
            if self.burst_rate_per_s == 0:
                object.__setattr__(self, "burst_rate_per_s", 0.2)
            if self.burst_height == 0:
                object.__setattr__(self, "burst_height", 5.0)
            if self.burst_decay_s == 0:
                object.__setattr__(self, "burst_decay_s", 2.0)
            if self.burst_rate_per_s <= 0:
                raise ConfigurationError(
                    "workload.arrival.burst_rate_per_s must be positive"
                )
            if self.burst_height <= 0:
                raise ConfigurationError(
                    "workload.arrival.burst_height must be positive"
                )
            if self.burst_decay_s <= 0:
                raise ConfigurationError(
                    "workload.arrival.burst_decay_s must be positive"
                )
        elif self.burst_rate_per_s or self.burst_height or self.burst_decay_s:
            raise ConfigurationError(
                "workload.arrival.burst_* fields only apply to kind "
                f"'flash_crowd'; kind is {self.kind!r}"
            )
        if self.kind == "trace":
            if not self.trace_path:
                raise ConfigurationError(
                    "workload.arrival.trace_path is required for kind 'trace'"
                )
        else:
            if self.trace_path is not None:
                raise ConfigurationError(
                    "workload.arrival.trace_path only applies to kind "
                    f"'trace'; kind is {self.kind!r}"
                )
            if self.trace_column != "timestamp":
                raise ConfigurationError(
                    "workload.arrival.trace_column only applies to kind "
                    f"'trace'; kind is {self.kind!r}"
                )
            if self.preserve_rate:
                raise ConfigurationError(
                    "workload.arrival.preserve_rate only applies to kind "
                    f"'trace'; kind is {self.kind!r}"
                )


@dataclass(frozen=True)
class ServiceSpec:
    """The service-time shape drawn by every DIP station.

    All kinds are unit-mean (scaled by each DIP's mean service time at
    consumption), so ``load_fraction`` keeps its meaning; the kinds
    differ in their squared coefficient of variation — the ``Cs^2`` the
    divergence guard and the fluid substrate's Allen-Cunneen correction
    are built from.
    """

    kind: str = "exponential"
    #: lognormal: squared coefficient of variation of service times.
    scv: float = 1.0
    #: pareto: tail index alpha (> 1 for a finite mean; <= 2 has
    #: infinite variance — the analytic twin is hopeless there).
    tail_index: float = 2.5
    #: elephant: fraction of flows that are elephants.
    elephant_fraction: float = 0.05
    #: elephant: elephant service time as a multiple of a mouse's.
    elephant_factor: float = 20.0

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_KINDS:
            known = ", ".join(sorted(SERVICE_KINDS))
            raise ConfigurationError(
                f"workload.service.kind must be one of: {known}; "
                f"got {self.kind!r}"
            )
        if self.kind == "lognormal":
            if self.scv <= 0:
                raise ConfigurationError(
                    "workload.service.scv must be positive"
                )
        elif self.scv != 1.0:
            raise ConfigurationError(
                "workload.service.scv only applies to kind 'lognormal'; "
                f"kind is {self.kind!r}"
            )
        if self.kind == "pareto":
            if self.tail_index <= 1.0:
                raise ConfigurationError(
                    "workload.service.tail_index must be > 1 (a unit-mean "
                    "Pareto needs a finite mean)"
                )
        elif self.tail_index != 2.5:
            raise ConfigurationError(
                "workload.service.tail_index only applies to kind 'pareto'; "
                f"kind is {self.kind!r}"
            )
        if self.kind == "elephant":
            if not 0 < self.elephant_fraction < 1:
                raise ConfigurationError(
                    "workload.service.elephant_fraction must be in (0, 1)"
                )
            if self.elephant_factor < 1:
                raise ConfigurationError(
                    "workload.service.elephant_factor must be >= 1"
                )
        elif self.elephant_fraction != 0.05 or self.elephant_factor != 20.0:
            raise ConfigurationError(
                "workload.service.elephant_* fields only apply to kind "
                f"'elephant'; kind is {self.kind!r}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """The offered traffic, sized relative to the pool's total capacity."""

    load_fraction: float = 0.6
    #: request budget for the request-level engine.
    num_requests: int = 20_000
    #: simulated warm-up before measurement starts (request engine only).
    warmup_s: float = 1.0
    #: arrival-process shape (Poisson baseline by default).
    arrival: ArrivalSpec = ArrivalSpec()
    #: service-time shape (exponential baseline by default).
    service: ServiceSpec = ServiceSpec()
    #: how far Ca^2/Cs^2 may stray from the M/M/c value of 1 before runs
    #: carry a ``provenance.model_divergence`` warning.
    divergence_tolerance: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.load_fraction < 1.5:
            raise ConfigurationError(
                "workload.load_fraction must be in (0, 1.5)"
            )
        if self.num_requests < 1:
            raise ConfigurationError("workload.num_requests must be >= 1")
        if self.warmup_s < 0:
            raise ConfigurationError("workload.warmup_s must be >= 0")
        if self.divergence_tolerance < 0:
            raise ConfigurationError(
                "workload.divergence_tolerance must be >= 0"
            )


@dataclass(frozen=True)
class PolicySpec:
    """The LB policy requests are split by (names from the lb registry).

    ``num_muxes > 1`` fronts the policy with the
    :class:`~repro.lb.mux.MuxPool` dataplane on the request substrate:
    flows ECMP-hash to one of ``num_muxes`` MUXes, each running its own
    policy replica (the paper's scaled-out dataplane).
    """

    name: str = "wrr"
    num_muxes: int = 1

    def __post_init__(self) -> None:
        known = policy_names()
        if self.name not in known:
            names = ", ".join(known)
            raise ConfigurationError(
                f"policy.name must be one of: {names}; got {self.name!r}"
            )
        if self.num_muxes < 1:
            raise ConfigurationError("policy.num_muxes must be >= 1")


@dataclass(frozen=True)
class ControllerSpec:
    """Whether (and how) the KnapsackLB controller drives the run.

    When enabled, the fluid and fleet runners converge the controller before
    measuring; the request runner computes weights on an analytic fluid twin
    of the same pool and replays them through the request-level engine.
    """

    enabled: bool = True
    #: settle control steps after programming weights (fluid/fleet).
    settle_steps: int = 3
    #: extra §4.5 control ticks after convergence.
    control_steps: int = 0
    config: KnapsackLBConfig = KnapsackLBConfig()

    def __post_init__(self) -> None:
        if self.settle_steps < 0:
            raise ConfigurationError("controller.settle_steps must be >= 0")
        if self.control_steps < 0:
            raise ConfigurationError("controller.control_steps must be >= 0")


@dataclass(frozen=True)
class FleetSpec:
    """Multi-VIP shape used only by the fleet runner.

    The pool's DIPs are shared by ``num_vips`` overlapping VIPs (see
    :func:`repro.workloads.build_shared_dip_fleet`); a spec without a
    ``fleet`` section still runs on the fleet substrate with these defaults.
    """

    num_vips: int = 4
    #: DIPs per VIP window; ``None`` derives it from the sharing ratio.
    pool_size: int | None = None
    #: VIPs that start *outside* the control plane (traffic flows at the
    #: builder's capacity-proportional weights) until a ``vip_onboard``
    #: event — declared in the timeline or injected live through the
    #: ``repro serve`` daemon — brings them under KnapsackLB control.
    deferred_vips: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_vips < 1:
            raise ConfigurationError("fleet.num_vips must be >= 1")
        if self.pool_size is not None and self.pool_size < 1:
            raise ConfigurationError("fleet.pool_size must be >= 1 or null")
        object.__setattr__(self, "deferred_vips", tuple(self.deferred_vips))
        for vip in self.deferred_vips:
            if not vip or not isinstance(vip, str):
                raise ConfigurationError(
                    "fleet.deferred_vips must be a list of VIP names"
                )


@dataclass(frozen=True)
class ExperimentSpec:
    """The single declarative description of one experiment run."""

    name: str
    runner: str = "fluid"
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
    sync_interval_s: float = 0.25
    #: registered scenario to delegate to (runner == "scenario" only).
    scenario: str | None = None
    #: parameter overrides for the scenario's runner.
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("name must be a non-empty string")
        if self.sync_interval_s <= 0:
            raise ConfigurationError("sync_interval_s must be positive")
        if self.runner not in RUNNER_KINDS:
            kinds = ", ".join(RUNNER_KINDS)
            raise ConfigurationError(
                f"runner must be one of: {kinds}; got {self.runner!r}"
            )
        if self.runner == "scenario" and not self.scenario:
            raise ConfigurationError(
                "runner 'scenario' needs the scenario field set"
            )
        if self.scenario is not None and self.runner != "scenario":
            raise ConfigurationError(
                f"scenario {self.scenario!r} requires runner 'scenario', "
                f"got {self.runner!r}"
            )
        if self.runner == "scenario" and (
            self.timeline.events or self.timeline.horizon_s is not None
        ):
            # chaos-only timelines are allowed: the bridging ScenarioRunner
            # hands timeline.chaos.seed to scenarios that accept one.
            raise ConfigurationError(
                "runner 'scenario' cannot carry timeline events; scenarios "
                "build their own timed specs (use runner fluid/request/fleet)"
            )
        if self.runner == "scenario" and (
            self.health.enabled or self.retry.enabled
        ):
            raise ConfigurationError(
                "runner 'scenario' cannot carry health/retry sections; "
                "scenarios configure resilience through their own params"
            )
        if self.retry.enabled and self.runner != "request":
            raise ConfigurationError(
                "retry.enabled needs runner 'request': retries act on "
                "individual requests, which only the request engine models"
            )
        if (
            self.workload.arrival.kind == "trace"
            and self.workload.arrival.preserve_rate
            and any(
                event.kind == "arrival_scale" for event in self.timeline.events
            )
        ):
            raise ConfigurationError(
                "timeline 'arrival_scale' events cannot rescale a trace "
                "workload with workload.arrival.preserve_rate = true: the "
                "replay clock is pinned to the trace; set "
                "workload.arrival.preserve_rate = false to allow scaling"
            )
        if (
            self.timeline.chaos.enabled
            and self.runner != "scenario"
            and self.timeline.horizon_s is None
        ):
            raise ConfigurationError(
                "timeline.chaos needs an explicit timeline.horizon_s: the "
                "generated failure schedule fills a fixed timed phase"
            )
        if (
            self.controller.enabled
            and self.runner != "scenario"
            and not policy_description(self.policy.name).weighted
        ):
            raise ConfigurationError(
                f"policy.name {self.policy.name!r} cannot carry KnapsackLB "
                "weights; pick a weighted policy (wrr, wrandom, wlc, dns) "
                "or set controller.enabled = false"
            )
        # ``params`` is the one mutable field on this frozen tree: copy it so
        # derived specs never share (and callers can never mutate) state.
        object.__setattr__(self, "params", dict(self.params))

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a plain mapping, naming any bad field."""
        return dataclass_from_dict(cls, data, path="spec")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"spec file {str(path)!r} does not exist")
        text = path.read_text(encoding="utf-8")
        suffix = path.suffix.lower()
        if suffix == ".toml":
            import tomllib

            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as error:
                raise ConfigurationError(
                    f"spec file {str(path)!r} is not valid TOML: {error}"
                ) from None
        elif suffix == ".json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"spec file {str(path)!r} is not valid JSON: {error}"
                ) from None
        else:
            raise ConfigurationError(
                f"spec file {str(path)!r} must end in .json or .toml"
            )
        return cls.from_dict(data)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return dataclass_to_dict(self)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

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
        if dataclass_is_node(current) and isinstance(value, Mapping):
            value = dataclass_from_dict(type(current), value, path=head)
        elif isinstance(current, tuple) and isinstance(value, list):
            value = tuple(value)
        return replace(node, **{head: value})
    child = _override(getattr(node, head), parts[1:], value, raw_path)
    return replace(node, **{head: child})


def dataclass_is_node(obj: Any) -> bool:
    return hasattr(obj, "__dataclass_fields__") and not isinstance(obj, type)
