"""Execute an :class:`ExperimentSpec` on one of the simulation substrates.

Three runners, all returning the same :class:`~repro.api.result.RunResult`
shape:

* :class:`AnalyticRunner` — the analytic fluid model (exact means, instant)
  on a shared fleet driven by the
  :class:`~repro.core.fleet_controller.FleetController`.  It serves both
  ``runner="fleet"`` (the pool windowed across ``fleet.num_vips`` VIPs) and
  ``runner="fluid"`` (the same fleet with one VIP over every DIP); the
  difference is interpreted once, in :func:`prepare_fleet`;
* :class:`RequestRunner` — the request-level discrete-event engine
  (latency distributions, per-request LB decisions);
* :class:`ScenarioRunner` — delegates to a registered scenario from
  :mod:`repro.experiments.scenarios`.

The same spec executes on fluid, request and fleet unchanged — only the
``runner`` field flips.  Wall-clock timing goes into the result's
provenance, never its metrics, so a re-run from a saved spec reproduces
the metrics dict exactly (fluid is analytic; the request engine is
deterministic per seed).

When the spec carries a non-empty :class:`~repro.api.spec.TimelineSpec`,
every runner executes the timed phase after convergence through the shared
application layer in :mod:`repro.api.timeline`: events fire at their
declared times on each substrate's clock, callers can stream telemetry by
passing :class:`~repro.api.observers.Observer` hooks to :func:`execute`, and
the built-in windowed recorder fills :attr:`RunResult.windows` with the
run's time-series.

A substrate is imported where it runs: the analytic runner loads the
controller and the fleet, :func:`build_request_cluster` the request engine,
and the timeline layer loads only for a spec that has a timeline — so a
controller-off request run never imports the control plane.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Protocol

from repro.api.observers import Observer, ObserverSet
from repro.api.result import RunClock, RunResult, RunWindow, timeline_metrics
from repro.api.spec import (
    ChaosSpec,
    ExperimentSpec,
    PoolSpec,
    expand_chaos_events,
)
from repro.core.types import DipId, WeightAssignment, left_to_right_sum
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet_controller import FleetController
    from repro.sim.cluster import RequestCluster
    from repro.sim.fleet import Fleet
    from repro.sim.fluid import FluidCluster


class Runner(Protocol):
    """Anything that can execute a spec into a result artifact."""

    def run(
        self, spec: ExperimentSpec, *, observers: Iterable[Observer] = ()
    ) -> RunResult:
        """Execute ``spec`` and return its result artifact."""
        ...


def pool_from_spec(pool: PoolSpec, seed: int) -> dict[DipId, Any]:
    from repro.workloads.generators import build_pool

    return build_pool(
        pool.kind,
        num_dips=pool.num_dips,
        vm_name=pool.vm.name,
        vcpus=pool.vm.vcpus,
        capacity_rps=pool.vm.capacity_rps,
        idle_latency_ms=pool.vm.idle_latency_ms,
        capacity_ratio=pool.capacity_ratio,
        seed=seed,
    )


def expand_spec_chaos(spec: ExperimentSpec) -> ExperimentSpec:
    """Resolve an armed :class:`~repro.api.spec.ChaosSpec` into plain events.

    Expansion happens before planning or execution, so downstream code —
    runners, the shard planner, saved artifacts — sees an ordinary
    hand-written-looking timeline.  Bit-identical per chaos seed; the
    returned spec has ``timeline.chaos`` disarmed (idempotent).  Scenario
    specs pass through: the :class:`ScenarioRunner` hands the chaos seed
    to the scenario, which expands it inside its own inner spec.
    """
    chaos = spec.timeline.chaos
    if not chaos.enabled or spec.runner == "scenario":
        return spec
    dips = pool_from_spec(spec.pool, spec.seed)
    generated = expand_chaos_events(
        chaos,
        dip_ids=tuple(dips),
        horizon_s=spec.timeline.duration_s(),
        manual_events=spec.timeline.events,
    )
    timeline = replace(
        spec.timeline,
        events=tuple(spec.timeline.events) + generated,
        chaos=ChaosSpec(),
    )
    return replace(spec, timeline=timeline)


def offered_rate_rps(spec: ExperimentSpec, dips: Mapping[DipId, Any]) -> float:
    """The declared offered rate: ``load_fraction`` × the pool's capacity."""
    return spec.workload.load_fraction * left_to_right_sum(
        d.capacity_rps for d in dips.values()
    )


def _analytic_pool(spec: ExperimentSpec) -> dict[DipId, Any]:
    """The spec's pool with the workload's Allen-Cunneen factor stamped on.

    1.0 (Poisson arrivals, exponential service) leaves the pool untouched —
    the analytic substrate stays bit-identical to the M/M/c baseline.  The
    factor uses the pool-wide rate; per-DIP splits inherit the aggregate
    burstiness, which is the standard single-class approximation.  Stamped
    before anything evaluates the pool, so the first state already has it.
    """
    from repro.workloads.divergence import scv_correction

    dips = pool_from_spec(spec.pool, spec.seed)
    corr = scv_correction(spec.workload, offered_rate_rps(spec, dips))
    if corr != 1.0:
        for dip in dips.values():
            dip.scv_correction = corr
    return dips


def build_cluster(spec: ExperimentSpec) -> FluidCluster:
    """The fluid cluster a spec describes (without running anything).

    Exposed for interactive use — examples and notebooks that want the
    spec-built system but drive perturbations (capacity squeezes, failures)
    by hand.
    """
    from repro.sim.fluid import FluidCluster

    dips = _analytic_pool(spec)
    return FluidCluster(
        dips=dips,
        total_rate_rps=offered_rate_rps(spec, dips),
        policy_name=spec.policy.name,
    )


def _finish(
    spec: ExperimentSpec,
    clock: RunClock,
    *,
    metrics: Mapping[str, float],
    dip_summaries: Mapping[str, Mapping[str, float]],
    windows: tuple[RunWindow, ...] = (),
    detail: Any = None,
    model_divergence: str | None = None,
    station_path: str | None = None,
    timings: dict[str, float] | None = None,
) -> RunResult:
    return RunResult(
        spec=spec,
        runner=spec.runner,
        seed=spec.seed,
        metrics={k: float(v) for k, v in metrics.items()},
        dip_summaries={
            dip: {k: float(v) for k, v in row.items()}
            for dip, row in dip_summaries.items()
        },
        windows=windows,
        provenance=clock.provenance(
            model_divergence=model_divergence,
            station_path=station_path,
            timings=timings,
        ),
        detail=detail,
    )


def prepare_fleet(
    spec: ExperimentSpec,
) -> tuple[Fleet, "FleetController | None", dict[str, float], Any]:
    """Build and converge the fleet a spec describes.

    Returns ``(fleet, plane, setup_metrics, detail)`` — everything that
    happens *before* the timed phase, shared by :class:`AnalyticRunner` and
    the live ``repro serve`` daemon, so a replayed session starts from the
    identical converged state.

    This is the one place ``runner="fluid"`` is interpreted: it is the fleet
    with a single VIP named ``vip`` over every DIP, equal initial weights
    and the declared rate (what :class:`FluidCluster` builds), reporting the
    single-VIP headline metrics on top of the fleet ones; the ``fleet``
    section of the spec does not apply to it.  ``runner="fleet"`` windows
    the *same* pool across ``fleet.num_vips`` VIPs — so a testbed or
    three_dip spec stays that pool there.  VIPs named by a timeline
    ``vip_onboard`` event — or listed in ``fleet.deferred_vips`` — stay out
    of the initial convergence (their traffic still flows at the builder's
    capacity-proportional weights — the staggered-onboarding shape).
    """
    single_vip = spec.runner == "fluid"
    if single_vip:
        fleet = build_cluster(spec).fleet
        deferred_vips: tuple[str, ...] = ()
    else:
        from repro.workloads.generators import fleet_from_pool

        fleet = fleet_from_pool(
            _analytic_pool(spec),
            num_vips=spec.fleet.num_vips,
            pool_size=spec.fleet.pool_size,
            load_fraction=spec.workload.load_fraction,
            policy_name=spec.policy.name,
        )
        deferred_vips = spec.fleet.deferred_vips
    if not spec.timeline.empty:
        from repro.api.timeline import check_timeline_supported

        check_timeline_supported(
            spec.timeline,
            spec.runner,
            dips=fleet.dips,
            vips=fleet.vips,
            controller_enabled=spec.controller.enabled,
        )
    unknown = [v for v in deferred_vips if v not in fleet.vips]
    if unknown:
        known = ", ".join(sorted(fleet.vips))
        raise ConfigurationError(
            f"fleet.deferred_vips names unknown VIP {unknown[0]!r}; "
            f"fleet VIPs: {known}"
        )
    deferred = set(deferred_vips) | {
        event.vip for event in spec.timeline.events if event.kind == "vip_onboard"
    }
    metrics: dict[str, float] = {}
    detail: Any = None
    plane: FleetController | None = None
    if spec.controller.enabled:
        plane, assignments = _converged_plane(fleet, spec, deferred)
        metrics["vips_with_assignment"] = float(len(assignments))
        metrics["measurement_rounds"] = float(len(plane.round_log))
        detail = {"assignments": assignments, "plane": plane}
        if single_vip:
            metrics.update(_single_vip_gain(fleet, assignments["vip"]))
    if single_vip:
        metrics["total_rate_rps"] = fleet.vips["vip"].total_rate_rps
    return fleet, plane, metrics, detail


def _converged_plane(
    fleet: Fleet, spec: ExperimentSpec, deferred: Iterable[str] = ()
) -> tuple[FleetController, dict[str, WeightAssignment]]:
    """Onboard every non-deferred VIP and run the spec's convergence."""
    from repro.core.fleet_controller import FleetController

    plane = FleetController(fleet, config=spec.controller.config)
    for vip_id in fleet.vips:
        if vip_id not in deferred:
            plane.onboard_vip(vip_id)
    assignments = plane.converge_all(settle_steps=spec.controller.settle_steps)
    for _ in range(spec.controller.control_steps):
        plane.control_step()
    return plane, assignments


def _single_vip_gain(fleet: Fleet, assignment: WeightAssignment) -> dict[str, float]:
    """How much the computed weights beat a blind equal split (one VIP).

    The excursion to the equal split ends by programming the *raw*
    ``assignment.weights`` behind the controller — not the normalised
    weights the LB held before it.  The two differ by an ulp, and the
    least-connection fixed point at saturation amplifies an ulp into
    milliseconds, so per-seed artifacts depend on exactly this restore.
    """
    klb_latency = fleet.state().overall_mean_latency_ms()
    dips = fleet.vips["vip"].dips
    fleet.set_weights("vip", {d: 1.0 / len(dips) for d in dips})
    equal_latency = fleet.state().overall_mean_latency_ms()
    fleet.set_weights("vip", dict(assignment.weights))
    return {
        "objective_ms": assignment.objective_ms,
        "equal_split_latency_ms": equal_latency,
        "latency_gain": equal_latency / klb_latency,
    }


class AnalyticRunner:
    """Fleet execution under the FleetController; fluid is its one-VIP case."""

    def run(
        self, spec: ExperimentSpec, *, observers: Iterable[Observer] = ()
    ) -> RunResult:
        from repro.workloads.divergence import assess_divergence

        clock = RunClock()
        spec = expand_spec_chaos(spec)
        fleet, plane, metrics, detail = prepare_fleet(spec)
        # Judged at the declared rate, the one the stamped correction used
        # (read now: capacity events move the pool's capacity later).
        divergence = assess_divergence(
            spec.workload, offered_rate_rps(spec, fleet.dips)
        )
        windows: tuple[RunWindow, ...] = ()
        if not spec.timeline.empty:
            from repro.api.timeline import fleet_timeline_stepper

            # The timed phase starts from the converged steady state; events
            # fire between fixed-point rounds at their declared times.
            windows = fleet_timeline_stepper(
                fleet,
                spec.timeline,
                ObserverSet(observers),
                plane=plane,
                health=spec.health,
                seed=spec.seed,
            ).run()
            metrics["timeline_events"] = float(len(spec.timeline.events))
        state = fleet.state()
        if windows:
            # Trajectory-derived aggregates (a still-failed DIP's rate-0 /
            # latency-inf pair cannot poison them, and they mean the same
            # thing on every substrate).
            metrics.update(timeline_metrics(windows))
        else:
            metrics["mean_latency_ms"] = state.overall_mean_latency_ms()
        metrics["max_utilization"] = max(state.utilization.values())
        metrics["num_vips"] = float(len(fleet.vips))
        metrics["shared_dips"] = float(len(fleet.shared_dip_ids()))
        return _finish(
            spec,
            clock,
            metrics=metrics,
            dip_summaries=state.dip_summaries(),
            windows=windows,
            detail=detail,
            model_divergence=divergence,
        )


def replay_controller_weights(spec: ExperimentSpec) -> dict[DipId, float] | None:
    """KnapsackLB weights for a request-level run, or ``None`` when disabled.

    Computes the weights on the analytic one-VIP twin of the pool so they
    can be replayed through the request engine — the Fig. 12 "weights
    computed once, traffic replayed" methodology.  The spec guarantees the
    policy is weighted (ExperimentSpec validation), so the weights actually
    take effect; the sharded executor uses the same weights as its per-DIP
    thinning probabilities.
    """
    if not spec.controller.enabled:
        return None
    plane, _ = _converged_plane(build_cluster(spec).fleet, spec)
    return dict(plane.controllers["vip"].current_weights)


def build_request_cluster(spec: ExperimentSpec) -> RequestCluster:
    """The request-level cluster a spec describes, weights programmed.

    What :class:`RequestRunner` runs, and what the replay tests drive on the
    event engine as their oracle: pool, timeline check, policy (behind a MUX
    pool when ``num_muxes > 1``), workload kinds, health and retry layers,
    and — with the controller enabled — the weights converged on the
    analytic twin.
    """
    from repro.lb.base import make_policy, policy_seed_kwargs
    from repro.sim.cluster import RequestCluster

    dips = pool_from_spec(spec.pool, spec.seed)
    if not spec.timeline.empty:
        from repro.api.timeline import check_timeline_supported

        check_timeline_supported(spec.timeline, "request", dips=dips)
    policy_kwargs = policy_seed_kwargs(spec.policy.name, seed=spec.seed)
    if spec.policy.num_muxes > 1:
        from repro.lb.mux import MuxPool

        dip_list = list(dips)
        policy: Any = MuxPool(
            lambda: make_policy(spec.policy.name, dip_list, **policy_kwargs),
            num_muxes=spec.policy.num_muxes,
        )
    else:
        policy = make_policy(spec.policy.name, list(dips), **policy_kwargs)
    cluster = RequestCluster(
        dips,
        policy,
        rate_rps=offered_rate_rps(spec, dips),
        seed=spec.seed,
        health=spec.health,
        retry=spec.retry,
        arrival=spec.workload.arrival,
        service=spec.workload.service,
    )
    weights = replay_controller_weights(spec)
    if weights is not None:
        cluster.set_weights(weights)
    return cluster


class RequestRunner:
    """Request-level discrete-event execution of the same spec."""

    def run(
        self, spec: ExperimentSpec, *, observers: Iterable[Observer] = ()
    ) -> RunResult:
        clock = RunClock()
        spec = expand_spec_chaos(spec)
        cluster = build_request_cluster(spec)
        windows: tuple[RunWindow, ...] = ()
        if spec.timeline.empty:
            run = cluster.run(
                num_requests=spec.workload.num_requests,
                warmup_s=spec.workload.warmup_s,
            )
        else:
            # A timeline defines the measured phase: the run lasts exactly
            # the timeline's horizon (``workload.num_requests`` does not
            # apply), so the trajectory covers the same windows on every
            # substrate.  Events fire on the engine clock (offset past
            # warm-up) via cancellable handles, and the window time-series
            # folds out of the columnar metrics after the run.
            from repro.api.timeline import (
                schedule_request_progress,
                schedule_request_timeline,
                windows_from_collector,
            )

            timeline = spec.timeline
            warmup = spec.workload.warmup_s
            duration = timeline.duration_s()
            observer = ObserverSet(observers)
            handles = schedule_request_timeline(
                cluster, timeline, observer, offset_s=warmup
            )
            if observer.observers:
                schedule_request_progress(
                    cluster,
                    observer,
                    window_s=timeline.window_s,
                    horizon_s=duration,
                    offset_s=warmup,
                )
            run = cluster.run(duration_s=duration, warmup_s=warmup)
            for handle in handles:
                handle.cancel()  # no-op for handles that already fired
            windows = windows_from_collector(
                cluster.metrics,
                timeline,
                observer,
                duration_s=duration,
                offset_s=warmup,
            )
        metrics = run.metrics.headline(
            submitted=run.requests_submitted,
            dropped=run.requests_dropped,
            duration_s=run.duration_s,
        )
        if windows:
            metrics["timeline_events"] = float(len(spec.timeline.events))
            # ``mean_latency_ms`` is already the whole-run completed-request
            # average; surface the end state separately, as the other
            # substrates do.
            metrics["final_latency_ms"] = windows[-1].metrics.get(
                "mean_latency_ms", float("nan")
            )
        retry_summary = run.metrics.retry_summary()
        if retry_summary is not None:
            metrics.update(retry_summary)
        # The request engine generates the workload faithfully; only a run
        # that *replayed analytically-derived weights* (controller enabled)
        # leaned on the fluid twin, so only then is the divergence warning
        # meaningful here.
        divergence = None
        if spec.controller.enabled:
            from repro.workloads.divergence import assess_divergence

            divergence = assess_divergence(
                spec.workload, offered_rate_rps(spec, cluster.dips)
            )
        return _finish(
            spec,
            clock,
            metrics=metrics,
            dip_summaries=run.metrics.summary_rows(),
            windows=windows,
            detail=run,
            model_divergence=divergence,
            station_path=run.station_path,
        )


class ScenarioRunner:
    """Delegate to a registered scenario (the pre-spec experiment registry)."""

    def run(
        self, spec: ExperimentSpec, *, observers: Iterable[Observer] = ()
    ) -> RunResult:
        from repro.experiments.scenarios import get_scenario, observing

        clock = RunClock()
        assert spec.scenario is not None  # enforced by ExperimentSpec
        scenario = get_scenario(spec.scenario)
        params = dict(spec.params)
        if "seed" in scenario.defaults:
            params.setdefault("seed", spec.seed)
        if spec.timeline.chaos.enabled:
            if "chaos_seed" not in scenario.defaults:
                raise ConfigurationError(
                    f"scenario {spec.scenario!r} does not take a chaos "
                    "schedule (no 'chaos_seed' parameter)"
                )
            params.setdefault("chaos_seed", spec.timeline.chaos.seed)
        # Timeline scenarios execute an inner spec; route the caller's
        # observers (e.g. ``run <scenario> --watch``) through to it.
        with observing(tuple(observers)):
            outcome = scenario.run(**params)
        return _finish(
            spec,
            clock,
            metrics=outcome.metrics,
            dip_summaries={},
            windows=getattr(outcome, "windows", ()) or (),
            detail=outcome,
            timings=outcome.timings or None,
        )


_ANALYTIC = AnalyticRunner()
_RUNNERS: dict[str, Runner] = {
    "fluid": _ANALYTIC,
    "fleet": _ANALYTIC,
    "request": RequestRunner(),
    "scenario": ScenarioRunner(),
}


def runner_for(kind: str) -> Runner:
    try:
        return _RUNNERS[kind]
    except KeyError:
        kinds = ", ".join(sorted(_RUNNERS))
        raise ConfigurationError(
            f"unknown runner {kind!r}; known runners: {kinds}"
        ) from None


def execute(
    spec: ExperimentSpec,
    *,
    observers: Iterable[Observer] = (),
    shards: int | None = None,
    workers: int | None = None,
) -> RunResult:
    """Run ``spec`` on the substrate its ``runner`` field names.

    ``observers`` stream the run while it executes (timeline events as they
    apply, per-window progress, completed window rows); the recorded
    time-series always lands in the result's ``windows`` regardless.

    ``shards > 1`` asks for a sharded request-level run.  Every shard runs
    the same simulation; the planner in :mod:`repro.parallel` issues a
    three-way verdict on how they run: queue-blind ``rr`` / ``random`` /
    ``wrandom`` shards never exchange state and run straight to the
    horizon ("exact" mode, distributed exactly like the serial run); stateful
    policies (``lc``/``wlc``/``p2``/…), Mux pools and request-legal
    timelines run epoch-synchronized ("epoch" mode), where shards exchange
    connection counts every ``spec.sync_interval_s`` seconds and route
    against a boundedly-stale global view; everything else falls back to
    the serial path with the reason logged under ``repro.parallel`` and
    recorded in ``provenance.fallback_reason``.  Shards fan across
    ``min(workers, shards)`` processes, each simulating a contiguous group
    of them; ``workers=1`` runs them all in this process, with the same
    bytes.
    """
    spec = expand_spec_chaos(spec)
    if shards is not None and shards > 1:
        from repro.parallel import plan_shards, run_request_sharded
        from repro.parallel.planner import spec_fallback_reason

        # Screen the pool-independent conditions first (runner, timeline,
        # policy) so a serial fallback never pays for pool construction;
        # a shardable run builds the pool once, shared with the executor.
        dips = None
        if spec_fallback_reason(spec) is None:
            dips = pool_from_spec(spec.pool, spec.seed)
        plan = plan_shards(
            spec, shards=shards, dip_ids=tuple(dips) if dips else None
        )
        if plan.mode != "serial":
            return run_request_sharded(
                spec,
                plan,
                workers=workers,
                dips=dips,
                observers=observers,
            )
        result = runner_for(spec.runner).run(spec, observers=observers)
        return replace(
            result,
            provenance=replace(
                result.provenance, fallback_reason=plan.fallback_reason
            ),
        )
    return runner_for(spec.runner).run(spec, observers=observers)


#: The canonical entry point (``api.run``): run a spec on the substrate it names.
run = execute
