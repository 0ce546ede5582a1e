"""A registry of runnable scenarios over the fleet control plane.

The paper's evaluation is a fixed set of figures; the reproduction's north
star is *opening new scenarios*.  This module gives every workload shape a
name: a scenario is a parameterised runner registered under a slug, so
experiments, benchmarks and tests all launch the same configurations via
:func:`run_scenario` instead of hand-wiring fleets.

Built-in scenarios cover the single-VIP paths (as one-VIP fleets) plus the
multi-VIP shapes the :class:`~repro.core.fleet_controller.FleetController`
enables: shared-DIP contention, staggered VIP onboarding and heterogeneous
per-VIP traffic mixes.

The time-varying scenarios (shared-DIP antagonist squeeze, staggered
onboarding, DIP outage/recovery, diurnal surges) are *pure timelines*: each
one builds a declarative :class:`~repro.api.spec.ExperimentSpec` whose
:class:`~repro.api.spec.TimelineSpec` declares the mid-run events, executes
it through :func:`repro.api.execute`, and derives its headline metrics from
the result's windowed time-series — no hand-driven perturbation loops.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.api.result import RunWindow
from repro.api.runners import _single_vip_gain, execute
from repro.api.spec import (
    ArrivalSpec,
    ChaosSpec,
    ControllerSpec,
    EventSpec,
    ExperimentSpec,
    FleetSpec,
    HealthCheckSpec,
    PoolSpec,
    RetryPolicy,
    ServiceSpec,
    TimelineSpec,
    WorkloadSpec,
)
from repro.analysis.reporting import format_table
from repro.backends import custom_vm_type
from repro.core import FleetController
from repro.exceptions import ConfigurationError
from repro.experiments.klb_testbed import _converge_vip
from repro.lb import make_policy, policy_registry, policy_seed_kwargs
from repro.sim import RequestCluster, one_vip_fleet
from repro.workloads import (
    build_pool,
    build_shared_dip_fleet,
    build_testbed_cluster,
    build_uniform_pool,
    fleet_from_pool,
)

ScenarioRunner = Callable[..., "ScenarioResult"]

#: observers the surrounding ScenarioRunner asked to stream this run to.
_ACTIVE_OBSERVERS: tuple = ()


@contextlib.contextmanager
def observing(observers: tuple = ()) -> Iterator[None]:
    """Route the inner ``execute`` of timeline scenarios to ``observers``.

    The scenario registry predates the observer protocol, so scenario
    runners keep their plain ``(**params)`` signatures; the bridging
    :class:`repro.api.runners.ScenarioRunner` wraps ``scenario.run`` in this
    context instead, and timeline scenarios execute their inner specs via
    :func:`_execute` — which is how ``python -m repro run <scenario>
    --watch`` streams telemetry from the spec the scenario builds.
    """
    global _ACTIVE_OBSERVERS
    previous = _ACTIVE_OBSERVERS
    _ACTIVE_OBSERVERS = tuple(observers)
    try:
        yield
    finally:
        _ACTIVE_OBSERVERS = previous


def _execute(spec: ExperimentSpec):
    """Run an inner spec, forwarding any observers of the outer scenario run."""
    return execute(spec, observers=_ACTIVE_OBSERVERS)


@dataclass
class ScenarioResult:
    """Outcome of one scenario run: headline metrics plus raw detail."""

    name: str
    params: dict[str, Any]
    metrics: dict[str, float]
    #: windowed time-series when the scenario ran a timeline.
    windows: tuple[RunWindow, ...] = ()
    detail: Any = None
    #: host wall-clock figures; they go to ``provenance.timings``, as they
    #: differ run to run.
    timings: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: its runner and default parameters."""

    name: str
    summary: str
    runner: ScenarioRunner
    defaults: Mapping[str, Any] = field(default_factory=dict)

    @property
    def parameters(self) -> tuple[str, ...]:
        """The override keys this scenario accepts (its defaults' keys)."""
        return tuple(sorted(self.defaults))

    def run(self, **overrides: Any) -> ScenarioResult:
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            valid = ", ".join(self.parameters) or "(none)"
            raise ConfigurationError(
                f"unknown parameter {unknown[0]!r} for scenario {self.name!r}; "
                f"valid parameters: {valid}"
            )
        params = {**self.defaults, **overrides}
        return self.runner(**params)


_REGISTRY: dict[str, ScenarioSpec] = {}


def scenario(
    name: str, summary: str, **defaults: Any
) -> Callable[[ScenarioRunner], ScenarioRunner]:
    """Register ``runner`` under ``name`` with ``defaults`` as parameters."""

    def register(runner: ScenarioRunner) -> ScenarioRunner:
        if name in _REGISTRY:
            raise ConfigurationError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioSpec(
            name=name, summary=summary, runner=runner, defaults=defaults
        )
        return runner

    return register


def list_scenarios() -> tuple[ScenarioSpec, ...]:
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown scenario {name!r}; known scenarios: {known}"
        ) from None


def run_scenario(name: str, **overrides: Any) -> ScenarioResult:
    """Run a registered scenario with its defaults overridden by kwargs."""
    return get_scenario(name).run(**overrides)


# ---------------------------------------------------------------------------
# single-VIP scenarios (one-VIP fleets — the paper's original shape)
# ---------------------------------------------------------------------------


@scenario(
    "single_vip_testbed",
    "The Table 3 testbed as a one-VIP fleet driven to convergence",
    load_fraction=0.70,
    seed=7,
)
def run_single_vip_testbed(*, load_fraction: float, seed: int) -> ScenarioResult:
    fleet = build_testbed_cluster(load_fraction=load_fraction, seed=seed)
    assignment = _converge_vip(fleet).controllers["vip"].last_assignment
    klb_latency = fleet.state().overall_mean_latency_ms()
    gain = _single_vip_gain(fleet, assignment)
    return ScenarioResult(
        name="single_vip_testbed",
        params={"load_fraction": load_fraction, "seed": seed},
        metrics={
            "mean_latency_ms": klb_latency,
            "equal_split_latency_ms": gain["equal_split_latency_ms"],
            "latency_gain": gain["latency_gain"],
            "max_utilization": max(fleet.state().utilization.values()),
        },
        detail=assignment,
    )


# ---------------------------------------------------------------------------
# multi-VIP scenarios (the fleet control plane)
# ---------------------------------------------------------------------------


def _shared_dip_for(
    *, num_vips: int, num_dips: int, load_fraction: float, seed: int
) -> str:
    """A DIP served by more than one VIP under the deterministic windowing."""
    probe = fleet_from_pool(
        build_pool("mixed_core", num_dips=num_dips, seed=seed),
        num_vips=num_vips,
        load_fraction=load_fraction,
    )
    shared = probe.shared_dip_ids()
    return shared[0] if shared else next(iter(probe.dips))


@scenario(
    "multi_vip_shared_dips",
    "N VIPs contending for a shared DIP fleet, squeezed by a timeline event",
    num_vips=8,
    num_dips=32,
    load_fraction=0.55,
    capacity_squeeze=0.6,
    settle_steps=6,
    control_steps=4,
    seed=21,
)
def run_multi_vip_shared_dips(
    *,
    num_vips: int,
    num_dips: int,
    load_fraction: float,
    capacity_squeeze: float,
    settle_steps: int,
    control_steps: int,
    seed: int,
) -> ScenarioResult:
    """Shared-DIP contention end to end: measurement → ILP → dynamics.

    A pure timeline over the declarative API: the fleet converges, then a
    ``capacity_ratio`` event squeezes one *shared* DIP mid-run to exercise
    the §4.5 detection path under contention — every VIP sharing that DIP
    sees the latency rise and reacts independently, window by window, for
    ``control_steps`` windows after the squeeze.
    """
    window_s = 5.0  # one control tick per window (the paper's 5 s loop)
    squeeze_at = 2 * window_s
    squeezed = _shared_dip_for(
        num_vips=num_vips,
        num_dips=num_dips,
        load_fraction=load_fraction,
        seed=seed,
    )
    spec = ExperimentSpec(
        name="multi_vip_shared_dips",
        runner="fleet",
        pool=PoolSpec(kind="mixed_core", num_dips=num_dips),
        workload=WorkloadSpec(load_fraction=load_fraction),
        controller=ControllerSpec(enabled=True, settle_steps=settle_steps),
        fleet=FleetSpec(num_vips=num_vips),
        timeline=TimelineSpec(
            events=(
                EventSpec(
                    time_s=squeeze_at,
                    kind="capacity_ratio",
                    dip=squeezed,
                    value=capacity_squeeze,
                ),
            ),
            window_s=window_s,
            horizon_s=squeeze_at + max(1, control_steps) * window_s,
        ),
        seed=seed,
    )
    result = _execute(spec)
    plane = result.detail["plane"]
    shared_now = plane.fleet.shared_dip_ids()
    if shared_now and squeezed not in shared_now:
        # The probe build in _shared_dip_for must stay bit-identical to the
        # runner's prepare_fleet; fail loudly if the two ever diverge instead of
        # silently squeezing a non-shared DIP.
        raise ConfigurationError(
            f"squeezed DIP {squeezed!r} is not shared in the runner-built "
            "fleet; _shared_dip_for diverged from prepare_fleet"
        )
    pre = [w for w in result.windows if w.end_s <= squeeze_at]
    post = [w for w in result.windows if w.start_s >= squeeze_at]
    return ScenarioResult(
        name="multi_vip_shared_dips",
        params={
            "num_vips": num_vips,
            "num_dips": num_dips,
            "load_fraction": load_fraction,
            "capacity_squeeze": capacity_squeeze,
            "control_steps": control_steps,
            "seed": seed,
        },
        metrics={
            "measurement_rounds": result.metrics["measurement_rounds"],
            "interleaved_rounds": float(
                sum(1 for r in plane.round_log if len(r.measured) > 1)
            ),
            "vips_with_assignment": result.metrics["vips_with_assignment"],
            "shared_dips": result.metrics["shared_dips"],
            "converged_latency_ms": pre[-1].metrics["mean_latency_ms"],
            "converged_max_utilization": pre[-1].metrics["max_utilization"],
            "post_squeeze_events": sum(
                w.metrics.get("controller_events", 0.0) for w in post
            ),
            "post_squeeze_reprograms": sum(
                w.metrics.get("reprogrammed", 0.0) for w in post
            ),
            "final_max_utilization": result.windows[-1].metrics[
                "max_utilization"
            ],
        },
        windows=result.windows,
        detail={
            "result": result,
            "plane": plane,
            "squeezed_dip": squeezed,
        },
    )


@scenario(
    "staggered_vip_onboarding",
    "VIPs join a live fleet one at a time while the rest stay in control",
    num_vips=6,
    num_dips=24,
    initial_vips=3,
    load_fraction=0.5,
    seed=33,
)
def run_staggered_vip_onboarding(
    *,
    num_vips: int,
    num_dips: int,
    initial_vips: int,
    load_fraction: float,
    seed: int,
) -> ScenarioResult:
    """Onboard VIPs in waves; steady VIPs keep their control loop running.

    The second wave's measurement traffic lands on DIPs the first wave
    already uses, so the steady VIPs' §4.5 detectors see real contention
    changes while the newcomers explore.
    """
    if not 1 <= initial_vips <= num_vips:
        raise ConfigurationError("initial_vips must be in [1, num_vips]")
    # A pure timeline: the first wave converges inside the fleet runner,
    # each later VIP arrives as a `vip_onboard` event (one per window pair),
    # and three tail windows settle the fleet afterwards.
    window_s = 10.0
    events = tuple(
        EventSpec(
            time_s=(wave + 1) * 2 * window_s,
            kind="vip_onboard",
            vip=f"VIP-{initial_vips + wave + 1}",
        )
        for wave in range(num_vips - initial_vips)
    )
    last_event = events[-1].time_s if events else 0.0
    spec = ExperimentSpec(
        name="staggered_vip_onboarding",
        runner="fleet",
        pool=PoolSpec(kind="mixed_core", num_dips=num_dips),
        workload=WorkloadSpec(load_fraction=load_fraction),
        controller=ControllerSpec(enabled=True, settle_steps=3),
        fleet=FleetSpec(num_vips=num_vips),
        timeline=TimelineSpec(
            events=events,
            window_s=window_s,
            horizon_s=last_event + 3 * window_s,
        ),
        seed=seed,
    )
    result = _execute(spec)
    plane = result.detail["plane"]
    return ScenarioResult(
        name="staggered_vip_onboarding",
        params={
            "num_vips": num_vips,
            "num_dips": num_dips,
            "initial_vips": initial_vips,
            "load_fraction": load_fraction,
            "seed": seed,
        },
        metrics={
            "first_wave_rounds": result.metrics["measurement_rounds"],
            "total_rounds": float(len(plane.round_log)),
            "latency_before_ms": result.windows[0].metrics["mean_latency_ms"],
            "latency_after_ms": result.windows[-1].metrics["mean_latency_ms"],
            "settle_events": sum(
                w.metrics.get("controller_events", 0.0) for w in result.windows
            ),
            "max_utilization": result.windows[-1].metrics["max_utilization"],
            "steady_vips": float(len(plane.steady_vips())),
        },
        windows=result.windows,
        detail={"result": result, "round_log": plane.round_log},
    )


@scenario(
    "per_vip_traffic_mix",
    "Heterogeneous per-VIP rates and policies on one shared fleet",
    num_vips=6,
    num_dips=24,
    load_fraction=0.45,
    background_policy="lc",
    seed=55,
)
def run_per_vip_traffic_mix(
    *,
    num_vips: int,
    num_dips: int,
    load_fraction: float,
    background_policy: str,
    seed: int,
) -> ScenarioResult:
    """Half the VIPs are KnapsackLB-controlled, half are background tenants.

    The background VIPs run a load-dependent policy (least-connection by
    default) with skewed rates, so the controlled VIPs must converge on DIPs
    whose spare capacity both shifts with the fixed point and differs per
    DIP — the multi-tenant reality a per-VIP controller never sees.
    """
    mix = tuple(1.5 if i % 2 == 0 else 0.5 for i in range(num_vips))
    fleet = build_shared_dip_fleet(
        num_vips=num_vips,
        num_dips=num_dips,
        load_fraction=load_fraction,
        rate_mix=mix,
        seed=seed,
    )
    vip_ids = list(fleet.vips)
    controlled = vip_ids[: num_vips // 2]
    background = vip_ids[num_vips // 2 :]
    for vip_id in background:
        fleet.vips[vip_id].policy_name = background_policy
    fleet.apply()

    plane = FleetController(fleet)
    for vip_id in controlled:
        plane.onboard_vip(vip_id)
    measurement = plane.run_measurement_phase()
    plane.compute_all_weights()
    for _ in range(2):
        plane.control_step()

    state = fleet.state()
    controlled_latency = [state.vip_mean_latency_ms(v) for v in controlled]
    background_latency = [state.vip_mean_latency_ms(v) for v in background]
    return ScenarioResult(
        name="per_vip_traffic_mix",
        params={
            "num_vips": num_vips,
            "num_dips": num_dips,
            "load_fraction": load_fraction,
            "background_policy": background_policy,
            "seed": seed,
        },
        metrics={
            "measurement_rounds": float(measurement.rounds),
            "controlled_mean_latency_ms": sum(controlled_latency)
            / len(controlled_latency),
            "background_mean_latency_ms": sum(background_latency)
            / len(background_latency),
            "max_utilization": max(state.utilization.values()),
        },
        detail={"state": state},
    )


@scenario(
    "datacenter_scale_fluid",
    "Joint fleet evaluation throughput at Table 8-like scale",
    num_vips=20,
    num_dips=2000,
    load_fraction=0.6,
    evaluations=5,
    seed=77,
)
def run_datacenter_scale_fluid(
    *,
    num_vips: int,
    num_dips: int,
    load_fraction: float,
    evaluations: int,
    seed: int,
) -> ScenarioResult:
    """Time the vectorized joint evaluation of a large shared fleet."""
    fleet = build_shared_dip_fleet(
        num_vips=num_vips,
        num_dips=num_dips,
        load_fraction=load_fraction,
        seed=seed,
    )
    started = time.perf_counter()
    for _ in range(max(1, evaluations)):
        state = fleet.apply()
    elapsed = time.perf_counter() - started
    per_apply_ms = elapsed / max(1, evaluations) * 1000.0
    return ScenarioResult(
        name="datacenter_scale_fluid",
        params={
            "num_vips": num_vips,
            "num_dips": num_dips,
            "load_fraction": load_fraction,
            "evaluations": evaluations,
            "seed": seed,
        },
        metrics={"max_utilization": max(state.utilization.values())},
        timings={
            "apply_ms": per_apply_ms,
            "dip_evaluations_per_s": num_dips / (per_apply_ms / 1000.0),
        },
    )


@scenario(
    "request_vs_fluid_crosscheck",
    "Same 32-DIP deployment through both simulators at million-request scale",
    num_dips=32,
    num_requests=1_000_000,
    load_fraction=0.65,
    policy_name="random",
    warmup_s=2.0,
    seed=13,
)
def run_request_vs_fluid_crosscheck(
    *,
    num_dips: int,
    num_requests: int,
    load_fraction: float,
    policy_name: str,
    warmup_s: float,
    seed: int,
) -> ScenarioResult:
    """Cross-check the request-level engine against the fluid model at scale.

    The same deployment (identical DIPs, rate and policy) runs through both
    simulators; the fluid side is analytic (exact means), the request side
    is generative.  Feasible at >= 1M requests only with the streaming
    engine (the seed path pre-scheduled every arrival upfront).  Reported
    deltas: mean latency (both exact), and p99 where the fluid side uses
    the M/M/1-style exponential-tail estimate ``mean * ln(100)`` — an
    approximation, so the p99 delta is a sanity band, not a bound.

    The pool uses M/M/c-consistent VM types (idle latency == servers /
    capacity) so the two simulators agree on means *by construction*;
    catalog SKUs carry measured idle latencies that deliberately deviate.
    The default policy is uniform random: Poisson thinning keeps each
    DIP's arrival process Poisson, which is what the per-DIP Erlang-C
    model assumes (round robin smooths arrivals and genuinely queues
    *less* than M/M/c predicts — an effect, not a bug, measurable by
    overriding ``policy_name="rr"``).

    ``peak_scheduled_events`` is an event-path quantity (the scheduler
    heap's high-water mark): it reads 0 when the cluster replayed the run,
    which it does for ``random`` / ``wrandom`` / ``rr`` / ``wrr`` / ``hash``.
    """

    def pool():
        vm = custom_vm_type("xcheck-8c", vcpus=8, capacity_rps=3200.0)
        return build_uniform_pool(num_dips, vm_type=vm, seed=seed)

    dips = pool()
    total_capacity = sum(d.capacity_rps for d in dips.values())
    rate = load_fraction * total_capacity

    fluid_state = one_vip_fleet(pool(), rate, policy_name).state()
    fluid_mean_ms = fluid_state.overall_mean_latency_ms()
    fluid_p99_est_ms = fluid_mean_ms * math.log(100.0)

    policy = make_policy(policy_name, list(dips), **policy_seed_kwargs(policy_name, seed=seed))
    cluster = RequestCluster(dips, policy, rate_rps=rate, seed=seed)
    started = time.perf_counter()
    result = cluster.run(num_requests=num_requests, warmup_s=warmup_s)
    wall_s = time.perf_counter() - started

    request_mean_ms = result.metrics.mean_latency_ms()
    request_p99_ms = result.metrics.percentile_latency_ms(99)
    share = result.metrics.request_share()
    max_share_deviation = max(
        abs(float(fraction) - 1.0 / num_dips) for fraction in share.values()
    )
    return ScenarioResult(
        name="request_vs_fluid_crosscheck",
        params={
            "num_dips": num_dips,
            "num_requests": num_requests,
            "load_fraction": load_fraction,
            "policy_name": policy_name,
            "seed": seed,
        },
        metrics={
            "requests_submitted": float(result.requests_submitted),
            "fluid_mean_latency_ms": fluid_mean_ms,
            "request_mean_latency_ms": request_mean_ms,
            "mean_rel_delta": abs(request_mean_ms - fluid_mean_ms)
            / max(fluid_mean_ms, 1e-9),
            "fluid_p99_est_ms": fluid_p99_est_ms,
            "request_p99_latency_ms": request_p99_ms,
            "p99_rel_delta": abs(request_p99_ms - fluid_p99_est_ms)
            / max(fluid_p99_est_ms, 1e-9),
            "max_share_deviation": max_share_deviation,
            "drop_fraction": result.drop_fraction,
            "peak_scheduled_events": float(cluster.scheduler.peak_pending_events),
        },
        detail={"fluid_state": fluid_state, "run_result": result},
        timings={"wall_s": wall_s, "requests_per_s": result.requests_submitted / wall_s},
    )


# ---------------------------------------------------------------------------
# timeline scenarios (declarative mid-run events on any substrate)
# ---------------------------------------------------------------------------


@scenario(
    "dip_outage_recovery",
    "A DIP fails mid-run and recovers later; the trajectory shows both",
    num_dips=8,
    load_fraction=0.6,
    fail_at_s=20.0,
    outage_s=40.0,
    substrate="fluid",
    inject_fault=True,
    chaos_seed=None,
    seed=29,
)
def run_dip_outage_recovery(
    *,
    num_dips: int,
    load_fraction: float,
    fail_at_s: float,
    outage_s: float,
    substrate: str,
    inject_fault: bool,
    chaos_seed: int | None,
    seed: int,
) -> ScenarioResult:
    """Failure injection as a pure timeline, on any substrate.

    ``dip_fail`` takes one DIP down at ``fail_at_s``; ``dip_recover``
    brings it back ``outage_s`` later.  On the fluid/fleet substrates the
    KnapsackLB controller detects the failure through probing and
    reprograms; on the request substrate the LB health check stops routing
    to it.  ``inject_fault=False`` runs the identical horizon with no
    events — the no-fault twin a failure run is compared against.

    ``chaos_seed`` arms a seeded random failure schedule on top of (or
    instead of) the scripted outage: extra ``dip_fail``/``dip_recover``
    pairs are drawn over the same horizon, sparing the scripted victim.
    """
    window_s = 5.0
    # At least one full pre-fault window must exist for the baseline.
    if fail_at_s < window_s:
        raise ConfigurationError(
            f"fail_at_s must be >= the {window_s:g}s telemetry window"
        )
    if outage_s <= 0:
        raise ConfigurationError("outage_s must be positive")
    recover_at = fail_at_s + outage_s
    events = (
        (
            EventSpec(time_s=fail_at_s, kind="dip_fail", dip="DIP-1"),
            EventSpec(time_s=recover_at, kind="dip_recover", dip="DIP-1"),
        )
        if inject_fault
        else ()
    )
    spec = ExperimentSpec(
        name="dip_outage_recovery",
        runner=substrate,
        pool=PoolSpec(kind="uniform", num_dips=num_dips),
        workload=WorkloadSpec(load_fraction=load_fraction),
        timeline=TimelineSpec(
            events=events,
            window_s=window_s,
            horizon_s=recover_at + 6 * window_s,
            chaos=ChaosSpec(seed=chaos_seed),
        ),
        seed=seed,
    )
    result = _execute(spec)
    baseline = [w for w in result.windows if w.end_s <= fail_at_s]
    outage = [
        w for w in result.windows if fail_at_s <= w.start_s < recover_at
    ]
    recovered = result.windows[-1]
    baseline_ms = baseline[-1].metrics["mean_latency_ms"]
    outage_peak_ms = max(
        (w.metrics["mean_latency_ms"] for w in outage), default=baseline_ms
    )
    recovered_ms = recovered.metrics["mean_latency_ms"]
    return ScenarioResult(
        name="dip_outage_recovery",
        params={
            "num_dips": num_dips,
            "load_fraction": load_fraction,
            "fail_at_s": fail_at_s,
            "outage_s": outage_s,
            "substrate": substrate,
            "inject_fault": inject_fault,
            "chaos_seed": chaos_seed,
            "seed": seed,
        },
        metrics={
            "baseline_latency_ms": baseline_ms,
            "outage_peak_latency_ms": outage_peak_ms,
            "recovered_latency_ms": recovered_ms,
            "outage_degradation": outage_peak_ms / baseline_ms,
            "recovery_ratio": recovered_ms / baseline_ms,
            "controller_events": sum(
                w.metrics.get("controller_events", 0.0) for w in result.windows
            ),
            # Request-substrate windows track drops instead of utilization.
            "final_max_utilization": recovered.metrics.get(
                "max_utilization", float("nan")
            ),
        },
        windows=result.windows,
        detail={"result": result},
    )


@scenario(
    "failure_crosscheck",
    "Probe-detected failure through fluid and request engines; detection must agree",
    num_dips=8,
    load_fraction=0.6,
    fail_at_s=15.0,
    outage_s=25.0,
    probe_interval_s=1.0,
    unhealthy_threshold=3,
    seed=17,
)
def run_failure_crosscheck(
    *,
    num_dips: int,
    load_fraction: float,
    fail_at_s: float,
    outage_s: float,
    probe_interval_s: float,
    unhealthy_threshold: int,
    seed: int,
) -> ScenarioResult:
    """Cross-check probe-based failure detection across substrates.

    The same spec — one DIP failing abruptly at ``fail_at_s`` under an
    enabled :class:`~repro.api.spec.HealthCheckSpec` — runs through the
    fluid model and the request engine.  Both walk the same seeded probe
    grid, so the failed DIP keeps receiving (and losing) its traffic share
    for the same detection delay on both substrates: the per-window drop
    fractions must agree within sampling noise, and the closed-form
    :meth:`~repro.api.spec.HealthCheckSpec.detection_delay_s` predicts
    where the loss lands.  The headline ``max_window_drop_delta`` is the
    largest absolute per-window disagreement — the crosscheck's tolerance
    gauge, in the spirit of ``request_vs_fluid_crosscheck``.
    """
    if fail_at_s <= 0 or outage_s <= 0:
        raise ConfigurationError("fail_at_s and outage_s must be positive")
    window_s = 5.0
    health = HealthCheckSpec(
        enabled=True,
        probe_interval_s=probe_interval_s,
        unhealthy_threshold=unhealthy_threshold,
    )
    recover_at = fail_at_s + outage_s
    timeline = TimelineSpec(
        events=(
            EventSpec(time_s=fail_at_s, kind="dip_fail", dip="DIP-1"),
            EventSpec(time_s=recover_at, kind="dip_recover", dip="DIP-1"),
        ),
        window_s=window_s,
        horizon_s=recover_at + 4 * window_s,
    )
    results = {}
    for substrate in ("fluid", "request"):
        spec = ExperimentSpec(
            name=f"failure_crosscheck/{substrate}",
            runner=substrate,
            pool=PoolSpec(kind="uniform", num_dips=num_dips),
            workload=WorkloadSpec(load_fraction=load_fraction),
            timeline=timeline,
            health=health,
            seed=seed,
        )
        results[substrate] = _execute(spec)
    fluid_drops = [
        w.metrics.get("drop_fraction", 0.0) for w in results["fluid"].windows
    ]
    request_drops = [
        w.metrics.get("drop_fraction", 0.0) for w in results["request"].windows
    ]
    deltas = [
        abs(f - r) for f, r in zip(fluid_drops, request_drops)
    ]
    delay_s = health.detection_delay_s(seed, 0, fail_at_s)
    # The detection window's loss, predicted analytically: the victim's
    # steady-state share (from the fluid run's first window) lost for
    # delay_s seconds of its window.
    victim_share = results["fluid"].windows[0].dip_share.get(
        "DIP-1", 1.0 / num_dips
    )
    predicted_peak = (delay_s / window_s) * victim_share
    return ScenarioResult(
        name="failure_crosscheck",
        params={
            "num_dips": num_dips,
            "load_fraction": load_fraction,
            "fail_at_s": fail_at_s,
            "outage_s": outage_s,
            "probe_interval_s": probe_interval_s,
            "unhealthy_threshold": unhealthy_threshold,
            "seed": seed,
        },
        metrics={
            "detection_delay_s": delay_s,
            "max_window_drop_delta": max(deltas, default=0.0),
            "fluid_lost_fraction": max(fluid_drops, default=0.0),
            "request_lost_fraction": max(request_drops, default=0.0),
            "predicted_peak_drop_fraction": predicted_peak,
            "fluid_mean_latency_ms": results["fluid"].metrics[
                "mean_latency_ms"
            ],
            "request_mean_latency_ms": results["request"].metrics[
                "mean_latency_ms"
            ],
        },
        windows=results["request"].windows,
        detail={"results": results, "fluid_drops": fluid_drops,
                "request_drops": request_drops},
    )


@scenario(
    "diurnal_surge",
    "Traffic ramps up to a peak and back down through arrival_scale events",
    num_dips=8,
    load_fraction=0.45,
    peak_scale=1.8,
    ramp_steps=3,
    step_s=15.0,
    substrate="fluid",
    seed=31,
)
def run_diurnal_surge(
    *,
    num_dips: int,
    load_fraction: float,
    peak_scale: float,
    ramp_steps: int,
    step_s: float,
    substrate: str,
    seed: int,
) -> ScenarioResult:
    """A diurnal traffic ramp as a pure timeline, on any substrate.

    ``arrival_scale`` events step the offered rate from the baseline up to
    ``peak_scale`` × and back down (each factor is relative to the *base*
    rate, so the same spec reads as the day curve it models).  On the
    request substrate each step rescales the streaming Poisson arrivals
    mid-run without breaking the sorted-stream invariant.
    """
    if peak_scale <= 1.0:
        raise ConfigurationError("peak_scale must exceed 1")
    if ramp_steps < 1 or step_s <= 0:
        raise ConfigurationError("ramp_steps and step_s must be positive")
    window_s = 5.0
    factors = [
        1.0 + (peak_scale - 1.0) * step / ramp_steps
        for step in range(1, ramp_steps + 1)
    ]
    ramp = factors + factors[-2::-1] + [1.0]  # up, down, back to baseline
    events = tuple(
        EventSpec(
            time_s=(index + 1) * step_s, kind="arrival_scale", value=factor
        )
        for index, factor in enumerate(ramp)
    )
    spec = ExperimentSpec(
        name="diurnal_surge",
        runner=substrate,
        pool=PoolSpec(kind="uniform", num_dips=num_dips),
        workload=WorkloadSpec(load_fraction=load_fraction),
        timeline=TimelineSpec(
            events=events,
            window_s=window_s,
            horizon_s=events[-1].time_s + 3 * window_s,
        ),
        seed=seed,
    )
    result = _execute(spec)
    series = result.window_series("mean_latency_ms")
    peak_index = max(range(len(series)), key=lambda i: series[i])
    return ScenarioResult(
        name="diurnal_surge",
        params={
            "num_dips": num_dips,
            "load_fraction": load_fraction,
            "peak_scale": peak_scale,
            "ramp_steps": ramp_steps,
            "step_s": step_s,
            "substrate": substrate,
            "seed": seed,
        },
        metrics={
            "baseline_latency_ms": series[0],
            "peak_latency_ms": series[peak_index],
            "final_latency_ms": series[-1],
            "surge_degradation": series[peak_index] / series[0],
            # Request-substrate windows track drops instead of utilization.
            "peak_utilization": max(
                w.metrics.get("max_utilization", 0.0) for w in result.windows
            ),
            "peak_rate_scale": peak_scale,
        },
        windows=result.windows,
        detail={"result": result},
    )


# ---------------------------------------------------------------------------
# robustness scenarios (bursty / heavy-tailed workloads)
# ---------------------------------------------------------------------------


@scenario(
    "robustness_envelope",
    "Grid every LB policy against bursty arrivals and heavy-tailed service",
    num_dips=8,
    num_requests=6000,
    load_fraction=0.6,
    tail_index=2.2,
    seed=47,
)
def run_robustness_envelope(
    *,
    num_dips: int,
    num_requests: int,
    load_fraction: float,
    tail_index: float,
    seed: int,
) -> ScenarioResult:
    """Sweep the robustness envelope of every registered policy.

    Each policy runs the identical deployment through the request engine
    under a grid of workload shapes — arrivals in {Poisson, MMPP bursts,
    flash crowds} × service in {exponential, Pareto(``tail_index``)} —
    and each cell's tail latency and drop fraction are compared against
    that policy's own Poisson/exponential baseline cell.  The headline
    per-policy number is the *worst* p99 degradation across the grid: how
    much a policy's tail inflates when the workload stops being the
    memoryless one every analytic model assumes.

    The grid runs on M/M/c-consistent uniform pools (as in
    ``request_vs_fluid_crosscheck``) so differences are attributable to
    the workload shape and the policy, not SKU quirks.
    """
    arrivals = {
        "poisson": ArrivalSpec(),
        "mmpp": ArrivalSpec(kind="mmpp"),
        "flash_crowd": ArrivalSpec(kind="flash_crowd"),
    }
    services = {
        "exponential": ServiceSpec(),
        "pareto": ServiceSpec(kind="pareto", tail_index=tail_index),
    }
    vm = custom_vm_type("robust-8c", vcpus=8, capacity_rps=3200.0)
    rows: list[dict[str, Any]] = []
    worst: dict[str, float] = {}
    worst_drop = 0.0
    for policy_name in sorted(policy_registry()):
        baseline_p99 = None
        for arrival_name, arrival in arrivals.items():
            for service_name, service in services.items():
                dips = build_uniform_pool(num_dips, vm_type=vm, seed=seed)
                total_capacity = sum(d.capacity_rps for d in dips.values())
                policy = make_policy(
                    policy_name,
                    list(dips),
                    **policy_seed_kwargs(policy_name, seed=seed),
                )
                cluster = RequestCluster(
                    dips,
                    policy,
                    rate_rps=load_fraction * total_capacity,
                    seed=seed,
                    arrival=arrival,
                    service=service,
                )
                run = cluster.run(num_requests=num_requests, warmup_s=1.0)
                p99 = run.metrics.percentile_latency_ms(99)
                if baseline_p99 is None:
                    # First cell is poisson/exponential by dict order.
                    baseline_p99 = p99
                degradation = p99 / max(baseline_p99, 1e-9)
                worst[policy_name] = max(
                    worst.get(policy_name, 0.0), degradation
                )
                worst_drop = max(worst_drop, run.drop_fraction)
                rows.append(
                    {
                        "policy": policy_name,
                        "arrival": arrival_name,
                        "service": service_name,
                        "p99_ms": p99,
                        "mean_ms": run.metrics.mean_latency_ms(),
                        "drop_fraction": run.drop_fraction,
                        "p99_degradation": degradation,
                    }
                )
    table = format_table(
        ("policy", "arrival", "service", "p99 ms", "drop", "p99 vs M/M/c"),
        [
            (
                r["policy"],
                r["arrival"],
                r["service"],
                f"{r['p99_ms']:.2f}",
                f"{r['drop_fraction']:.4f}",
                f"{r['p99_degradation']:.2f}x",
            )
            for r in rows
        ],
        title="robustness envelope (per-policy p99 vs own Poisson baseline)",
    )
    metrics: dict[str, float] = {
        "grid_cells": float(len(rows)),
        "policies": float(len(worst)),
        "worst_p99_degradation": max(worst.values()),
        "worst_drop_fraction": worst_drop,
    }
    for policy_name, degradation in worst.items():
        metrics[f"worst_p99_degradation_{policy_name}"] = degradation
    return ScenarioResult(
        name="robustness_envelope",
        params={
            "num_dips": num_dips,
            "num_requests": num_requests,
            "load_fraction": load_fraction,
            "tail_index": tail_index,
            "seed": seed,
        },
        metrics=metrics,
        detail={"rows": rows, "table": table},
    )


@scenario(
    "chaos_under_burst",
    "Seeded chaos failures while the workload is bursty and heavy-tailed",
    num_dips=8,
    load_fraction=0.55,
    horizon_s=60.0,
    tail_index=2.2,
    chaos_seed=7,
    seed=37,
)
def run_chaos_under_burst(
    *,
    num_dips: int,
    load_fraction: float,
    horizon_s: float,
    tail_index: float,
    chaos_seed: int,
    seed: int,
) -> ScenarioResult:
    """Compose the failure machinery with the robustness workloads.

    The same chaos schedule (seeded random ``dip_fail``/``dip_recover``
    events), probe-based health checks and the retry/backoff layer run
    twice through the request engine: once under MMPP arrivals with
    Pareto(``tail_index``) service, and once under the calm
    Poisson/exponential twin.  Both runs draw the identical failure
    schedule — chaos expansion depends only on the pool, seed and horizon
    — so every reported ratio isolates the *workload's* contribution to
    outage pain: bursts arriving while capacity is down deepen the p99
    and drop penalties well beyond what either stressor causes alone.
    """
    if horizon_s <= 0:
        raise ConfigurationError("horizon_s must be positive")
    health = HealthCheckSpec(enabled=True)
    retry = RetryPolicy(enabled=True)
    timeline = TimelineSpec(
        window_s=5.0,
        horizon_s=horizon_s,
        chaos=ChaosSpec(seed=chaos_seed),
    )
    workloads = {
        "bursty": WorkloadSpec(
            load_fraction=load_fraction,
            arrival=ArrivalSpec(kind="mmpp"),
            service=ServiceSpec(kind="pareto", tail_index=tail_index),
        ),
        "calm": WorkloadSpec(load_fraction=load_fraction),
    }
    results = {}
    for label, workload in workloads.items():
        spec = ExperimentSpec(
            name=f"chaos_under_burst/{label}",
            runner="request",
            pool=PoolSpec(kind="uniform", num_dips=num_dips),
            workload=workload,
            timeline=timeline,
            health=health,
            retry=retry,
            seed=seed,
        )
        results[label] = _execute(spec)
    bursty, calm = results["bursty"].metrics, results["calm"].metrics
    return ScenarioResult(
        name="chaos_under_burst",
        params={
            "num_dips": num_dips,
            "load_fraction": load_fraction,
            "horizon_s": horizon_s,
            "tail_index": tail_index,
            "chaos_seed": chaos_seed,
            "seed": seed,
        },
        metrics={
            "bursty_p99_latency_ms": bursty["p99_latency_ms"],
            "calm_p99_latency_ms": calm["p99_latency_ms"],
            "p99_ratio": bursty["p99_latency_ms"]
            / max(calm["p99_latency_ms"], 1e-9),
            "bursty_drop_fraction": bursty["drop_fraction"],
            "calm_drop_fraction": calm["drop_fraction"],
            "bursty_retried_fraction": bursty.get("retried_fraction", 0.0),
            "calm_retried_fraction": calm.get("retried_fraction", 0.0),
            "chaos_events": bursty.get("timeline_events", 0.0),
        },
        windows=results["bursty"].windows,
        detail={"results": results},
    )
