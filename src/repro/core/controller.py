"""The KnapsackLB controller (§3.2, §5).

The controller is the only stateful component of KnapsackLB.  Per VIP it:

1. bootstraps idle latencies (``l0``) for newly added DIPs;
2. runs the measurement phase — Algorithm 1 per DIP, with the §4.6
   scheduler packing measurement weights into rounds — and fits the
   weight-latency curves;
3. computes LB weights with the (multi-step) ILP and programs them through
   the LB's weight interface;
4. in steady state, consumes KLM probes every control interval, detects
   traffic/capacity changes and failures (§4.5), rescales curves and
   recomputes weights when needed.

The controller talks to the deployment through two narrow interfaces: the
weight-programming call of the LB (``set_weights``) and the probe rounds its
KLM returns (the paper's KLMs write them to a Redis latency store the
controller reads; here the controller takes each round as it is served).
Its one direct read of the deployment is ``dips[d].failed``, which confirms
a DIP whose probe failed this tick is down.  It never reads DIP counters —
the agent-less design of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Protocol, Sequence

from repro.backends.dip import DipServer
from repro.core.config import KnapsackLBConfig
from repro.core.curve import CurveBank, WeightLatencyCurve, fit_curve
from repro.core.dynamics import (
    DynamicsDetector,
    DynamicsEvent,
    DynamicsEventKind,
    Observation,
    rescale_all_curves,
)
from repro.core.exploration import ExplorationState
from repro.core.multistep import MultiStepOutcome, compute_weights_multistep
from repro.core.scheduler import MeasurementScheduler
from repro.core.types import (
    DipId,
    MeasurementPoint,
    VipId,
    WeightAssignment,
    equal_weights,
    normalize_weights,
)
from repro.exceptions import ConfigurationError, CurveFitError
from repro.probing.klm import KLM
from repro.solver import SolveCache


class Deployment(Protocol):
    """What the controller needs from the system under control.

    :class:`repro.sim.fleet.FleetDeployment` satisfies this protocol; a
    wrapper around a request-level cluster or a real LB controller would
    too.  The clock is not the deployment's: the ``FleetController``
    advances it.
    """

    dips: dict[DipId, DipServer]

    def set_weights(self, weights: Mapping[DipId, float]) -> None: ...

    def probe_round(
        self, dip_ids: Sequence[DipId], num_requests: int
    ) -> tuple[list[float | None], list[int]]:
        """Serve a KLM probe batch of ``num_requests`` on each of
        ``dip_ids``: per DIP, the batch's mean latency (``None``: down;
        ``inf``: every request dropped) and its drop count."""

    def healthy_dip_ids(self) -> tuple[DipId, ...]: ...


@dataclass
class ExplorationReport:
    """Summary of one VIP's measurement phase (feeds Fig. 9 / §6.1)."""

    iterations: int
    rounds: int
    weight_history: dict[DipId, list[float]]
    w_max: dict[DipId, float]


@dataclass
class ExplorationRoundOutcome:
    """What one scheduler round of the measurement phase accomplished.

    Returned by :meth:`KnapsackLBController.exploration_round` so a fleet
    driver can interleave rounds from several VIPs: ``measured`` names the
    DIPs measured at their scheduled weights this round, ``done`` signals
    that the VIP's whole measurement phase has finished.
    """

    measured: dict[DipId, float] = field(default_factory=dict)
    done: bool = False


@dataclass
class ControlStepReport:
    """What happened during one steady-state control tick."""

    time: float
    events: list[DynamicsEvent] = field(default_factory=list)
    failed_dips: tuple[DipId, ...] = ()
    reprogrammed: bool = False
    assignment: WeightAssignment | None = None


class KnapsackLBController:
    """Per-VIP weight computation and reaction to dynamics.

    A state machine with no loop and no clock of its own:
    :class:`~repro.core.fleet_controller.FleetController` drives every
    phase, advances the shared clock and sets :attr:`time`.
    """

    def __init__(
        self,
        vip: VipId,
        deployment: Deployment,
        *,
        config: KnapsackLBConfig | None = None,
        solve_cache: SolveCache | None = None,
    ) -> None:
        self.vip = vip
        self.deployment = deployment
        self.config = config or KnapsackLBConfig()
        #: the memo of solved problems the fleet control plane shares
        #: across its VIPs (see ``FleetController.solve_cache``).
        self.solve_cache = solve_cache
        self.klm = KLM(deployment, self.config.probe)
        self.scheduler = MeasurementScheduler(
            vip, config=self.config.scheduler, ilp_config=self.config.ilp
        )
        self.detector = DynamicsDetector(self.config.dynamics)

        self.l0_ms: dict[DipId, float] = {}
        self.explorations: dict[DipId, ExplorationState] = {}
        self._explore_history: dict[DipId, list[float]] = {}
        self._explore_proposals: dict[DipId, int] = {}
        self._explore_rounds: int = 0
        #: the fitted curves with their bank: a fit or a restore stacks the
        #: curve's row, every other change derives the next bank from the last.
        self.curves: CurveBank = CurveBank()
        #: curves of failed DIPs, kept so a recovery can restore them.
        self.retired_curves: dict[DipId, WeightLatencyCurve] = {}
        self.failed_dips: set[DipId] = set()
        self.current_weights: dict[DipId, float] = {}
        self.last_assignment: WeightAssignment | None = None
        #: ILP runs so far (:meth:`compute_weights` calls).
        self.ilp_runs = 0
        #: the ``FleetController``'s clock, stamped on reports and events.
        self.time: float = 0.0

    # ------------------------------------------------------------------ helpers

    def _healthy_dips(self) -> tuple[DipId, ...]:
        healthy = tuple(
            d for d in self.deployment.healthy_dip_ids() if d not in self.failed_dips
        )
        if not healthy:
            raise ConfigurationError(f"VIP {self.vip} has no healthy DIPs")
        return healthy

    def _program(self, weights: Mapping[DipId, float]) -> None:
        """Push weights to the LB (failed DIPs pinned to zero)."""
        full = {d: 0.0 for d in self.deployment.dips}
        full.update({d: float(w) for d, w in weights.items()})
        for dip in self.failed_dips:
            full[dip] = 0.0
        self.deployment.set_weights(full)
        self.current_weights = {d: w for d, w in full.items() if w > 0}

    def _probe(self, dips: Sequence[DipId]) -> dict[DipId, tuple[float | None, bool]]:
        """Probe ``dips`` once; returns {dip: (latency_ms or None, dropped)}."""
        return self.klm.probe_round(dips)

    # ------------------------------------------------------- bootstrap (l0)

    def bootstrap_idle_latencies(self, *, batch_fraction: float = 0.2) -> Iterator[float]:
        """Measure every DIP's idle latency ``l0`` by zero-weighting it.

        DIPs are processed in batches: the batch gets weight 0 (so it stops
        receiving client traffic), the rest of the pool shares the full
        weight, old connections drain and then the batch is probed.  After
        programming each batch this generator yields the drain time; the
        ``FleetController`` advances the clock by it and resumes the
        generator, which probes the batch.
        """
        if not 0 < batch_fraction <= 1:
            raise ConfigurationError("batch_fraction must be in (0, 1]")
        dips = list(self._healthy_dips())
        batch_size = max(1, int(len(dips) * batch_fraction))
        settle_s = self.config.probe.interval_s

        for start in range(0, len(dips), batch_size):
            batch = dips[start : start + batch_size]
            others = [d for d in dips if d not in batch]
            weights: dict[DipId, float] = {d: 0.0 for d in batch}
            if others:
                weights.update(equal_weights(others))
            else:
                # A single-DIP pool cannot be zero-weighted; probe as-is.
                weights = equal_weights(batch)
            self._program(weights)
            yield settle_s
            for dip, (latency, _) in self._probe(batch).items():
                if latency is not None:
                    self.l0_ms[dip] = latency

    # ------------------------------------------------------- measurement phase

    def begin_exploration(self) -> None:
        """Initialise the measurement phase (stepwise API).

        Needs the idle latencies of :meth:`bootstrap_idle_latencies`.  After
        this, :meth:`exploration_round` runs one scheduler round at a time —
        the ``FleetController`` interleaves rounds from many VIPs — and
        :meth:`finish_exploration` fits any stragglers and builds the report.
        """
        dips = self._healthy_dips()
        initial = 1.0 / len(dips)
        for dip in dips:
            l0 = self.l0_ms.get(dip)
            if l0 is None or l0 <= 0:
                raise ConfigurationError(f"missing idle latency for DIP {dip}")
            self.explorations[dip] = ExplorationState(
                dip=dip,
                l0_ms=l0,
                initial_weight=initial,
                config=self.config.exploration,
            )
        self._explore_history = {d: [] for d in dips}
        self._explore_proposals = {d: 0 for d in dips}
        self._explore_rounds = 0

    def _exploration_finished(self) -> bool:
        """Every DIP is either converged or out of proposal budget."""
        queued = {r.dip for r in self.scheduler.pending}
        limit = self.config.exploration.max_iterations
        for dip, state in self.explorations.items():
            if state.done:
                continue
            if dip in queued:
                return False
            if self._explore_proposals.get(dip, 0) < limit:
                return False
        return True

    def exploration_round(self, *, exclude: Sequence[DipId] = ()) -> ExplorationRoundOutcome:
        """Run one measurement round: propose, schedule, program, probe.

        ``exclude`` names DIPs a fleet driver has already measured in the
        current fleet-wide round (a shared DIP cannot serve two measurement
        weights at once); their requests stay queued.  The probes are taken
        as the round is programmed; the ``FleetController`` then advances
        the shared clock once per interleaved round.
        """
        pending = [d for d, e in self.explorations.items() if not e.done]
        if not pending:
            return ExplorationRoundOutcome(done=True)
        dips = self._healthy_dips()

        # Queue the next measurement weight for every DIP whose previous
        # request was consumed, while it still has proposal budget.
        queued = {r.dip for r in self.scheduler.pending}
        limit = self.config.exploration.max_iterations
        for dip in pending:
            if dip in queued:
                continue
            if self._explore_proposals.get(dip, 0) >= limit:
                continue
            weight = self.explorations[dip].propose()
            self.scheduler.submit(dip, weight)
            self._explore_history.setdefault(dip, []).append(weight)
            self._explore_proposals[dip] = self._explore_proposals.get(dip, 0) + 1

        curves_done = self.curves.take([d for d in self.curves if d not in pending])
        plan = self.scheduler.plan_round(list(dips), curves_done, exclude=exclude)
        if not plan.measured:
            return ExplorationRoundOutcome(done=self._exploration_finished())

        self._program(plan.weights())
        self._explore_rounds += 1

        # KLM probes every DIP each interval (§5); use every sample.  Probes
        # for the DIPs scheduled this round drive Algorithm 1; probes for
        # filler DIPs still under exploration are recorded as additional
        # (weight, latency) points, which spreads the regression inputs
        # across the weight range for free.
        round_weights = plan.weights()
        probe_targets = [d for d, w in round_weights.items() if w > 0]
        probe_results = self._probe(probe_targets)
        for dip, (latency, dropped) in probe_results.items():
            if dip not in self.explorations or self.explorations[dip].done:
                continue
            if dip in plan.measured:
                if latency is None:
                    # Probe failure during exploration: treat as a drop at a
                    # very high latency so Algorithm 1 backtracks.
                    latency = (
                        self.l0_ms[dip]
                        * self.config.exploration.drop_latency_multiplier
                    )
                    dropped = True
                self.explorations[dip].observe(
                    plan.measured[dip], latency, dropped=dropped
                )
            elif latency is not None:
                self.explorations[dip].points.append(
                    MeasurementPoint(
                        weight=round_weights[dip],
                        latency_ms=latency,
                        dropped=dropped,
                    )
                )

        # Fit curves for DIPs that just finished.
        finished = {}
        for dip in plan.measured:
            state = self.explorations.get(dip)
            if state is not None and state.done and dip not in self.curves:
                finished[dip] = self._fitted_curve(dip)
        self.curves = self.curves.with_curves(finished)

        return ExplorationRoundOutcome(
            measured=dict(plan.measured), done=self._exploration_finished()
        )

    def finish_exploration(self) -> ExplorationReport:
        """Fit stragglers and summarise the measurement phase."""
        stragglers = {}
        for dip in self.explorations:
            if dip not in self.curves:
                try:
                    stragglers[dip] = self._fitted_curve(dip)
                except CurveFitError:
                    continue
        self.curves = self.curves.with_curves(stragglers)
        return ExplorationReport(
            iterations=max(self._explore_proposals.values(), default=0),
            rounds=self._explore_rounds,
            weight_history={
                d: list(w) for d, w in self._explore_history.items()
            },
            w_max={d: e.effective_w_max() for d, e in self.explorations.items()},
        )

    def _fitted_curve(self, dip: DipId) -> WeightLatencyCurve:
        """``dip``'s curve fitted from its exploration (the caller keeps it)."""
        state = self.explorations[dip]
        try:
            curve = fit_curve(
                state.points,
                config=self.config.curve,
                l0_ms=self.l0_ms.get(dip),
                w_max=state.effective_w_max(),
            )
        except CurveFitError:
            # Very small DIPs may have few non-dropped points (every probe
            # past their tiny w_max drops).  Fall back to fitting on all
            # points, which still captures the latency rise near capacity.
            relaxed = [
                MeasurementPoint(weight=p.weight, latency_ms=p.latency_ms)
                for p in state.points
            ]
            curve = fit_curve(
                relaxed,
                config=self.config.curve,
                l0_ms=self.l0_ms.get(dip),
                w_max=state.effective_w_max(),
            )
        return curve

    # ------------------------------------------------------------ weight computation

    def compute_weights(self, *, force_multistep: bool | None = None) -> MultiStepOutcome:
        """Run the (multi-step) ILP over the healthy DIPs' curves."""
        healthy = self._healthy_dips()
        curves = self.curves.take([d for d in self.curves if d in healthy])
        if not curves:
            raise ConfigurationError(
                f"VIP {self.vip}: no fitted curves; run the measurement phase first"
            )
        outcome = compute_weights_multistep(
            self.vip,
            curves,
            config=self.config.ilp,
            force_multistep=force_multistep,
            cache=self.solve_cache,
        )
        self.ilp_runs += 1
        self.last_assignment = outcome.assignment
        return outcome

    def program_assignment(self, assignment: WeightAssignment | None = None) -> None:
        """Program the latest (or a given) assignment on the LB dataplane."""
        assignment = assignment or self.last_assignment
        if assignment is None:
            raise ConfigurationError("no assignment to program")
        self._program(normalize_weights(dict(assignment.weights)))

    # ------------------------------------------------------------ steady state

    def control_step(self) -> ControlStepReport:
        """One steady-state tick: probe, detect dynamics, react.

        Mirrors the 5-second control loop of §5, whose clock the
        ``FleetController`` advances before the tick: KLM probes all DIPs,
        the controller checks for failures and for latency drift against
        the fitted curves, rescales curves and recomputes/programs weights
        when something changed.
        """
        report = ControlStepReport(time=self.time)

        # Probe every DIP the controller still believes is alive; a DIP that
        # just went down is only discovered *by* probing it.
        healthy = [d for d in self.deployment.dips if d not in self.failed_dips]
        probe_results = self._probe(healthy)

        # Failure detection (§4.5): repeated probe failures.
        newly_failed = [
            dip
            for dip in healthy
            if self.klm.consecutive_failures.get(dip, 0)
            >= self.config.dynamics.failure_probe_threshold
        ]
        # A probe that failed this very tick also counts when the DIP is
        # actually down (the fluid deployment reports failure immediately).
        for dip, (latency, _) in probe_results.items():
            if latency is None and self.deployment.dips[dip].failed:
                if dip not in newly_failed:
                    newly_failed.append(dip)
        if newly_failed:
            for dip in newly_failed:
                self.failed_dips.add(dip)
                if dip in self.curves:
                    self.retired_curves[dip] = self.curves[dip]
            self.curves = self.curves.take(
                [d for d in self.curves if d not in newly_failed]
            )
            report.failed_dips = tuple(newly_failed)
            report.events.append(
                DynamicsEvent(
                    kind=DynamicsEventKind.DIP_FAILURE,
                    dips=tuple(newly_failed),
                    magnitude=1.0,
                    time=self.time,
                )
            )

        # Latency drift detection against the curves.
        observations = [
            Observation(
                dip=dip,
                weight=self.current_weights.get(dip, 0.0),
                observed_latency_ms=latency,
            )
            for dip, (latency, _) in probe_results.items()
            if latency is not None
            and dip in self.curves
            and self.current_weights.get(dip, 0.0) > 0
        ]
        events = self.detector.detect(observations, self.curves, now=self.time)
        report.events.extend(events)

        # A traffic change rescales every observed DIP, a capacity change the
        # DIP it names: one batched rescale either way.
        traffic = any(
            event.kind
            in (DynamicsEventKind.TRAFFIC_INCREASE, DynamicsEventKind.TRAFFIC_DECREASE)
            for event in events
        )
        drifted = {
            dip
            for event in events
            if event.kind is DynamicsEventKind.CAPACITY_CHANGE
            for dip in event.dips
        }
        rescaled = [obs for obs in observations if traffic or obs.dip in drifted]
        if rescaled:
            self.curves = rescale_all_curves(self.curves, rescaled)

        if report.events:
            outcome = self.compute_weights()
            self.program_assignment(outcome.assignment)
            report.reprogrammed = True
            report.assignment = outcome.assignment

        return report

    def recover_dip(self, dip: DipId) -> None:
        """Bring a previously failed DIP back (exploration must be redone)."""
        self.failed_dips.discard(dip)
        self.klm.consecutive_failures[dip] = 0
        self.explorations.pop(dip, None)

    def restore_dip(self, dip: DipId) -> bool:
        """Fold a recovered DIP back into the weight computation cheaply.

        The strict §4.5 path re-explores a recovered DIP from scratch;
        mid-run (a timeline ``dip_recover`` event) that would stall every
        other tenant, so instead the curve retired at failure time is
        restored and the ILP immediately re-includes the DIP — the ongoing
        control ticks' curve-rescaling feedback then corrects the curve if
        the DIP came back with different capacity.  Returns whether a
        retired curve existed to restore (callers reprogram only then).
        """
        self.recover_dip(dip)
        curve = self.retired_curves.pop(dip, None)
        if curve is None:
            return False
        self.curves = self.curves.with_curves({dip: curve})
        return True

    # ------------------------------------------------------------ reporting

    def status(self) -> dict[DipId, dict[str, float | bool]]:
        """A per-DIP summary of the controller's view (for observability)."""
        summary: dict[DipId, dict[str, float | bool]] = {}
        for dip in self.deployment.dips:
            state = self.explorations.get(dip)
            summary[dip] = {
                "weight": self.current_weights.get(dip, 0.0),
                "l0_ms": self.l0_ms.get(dip, float("nan")),
                "w_max": state.effective_w_max() if state else 0.0,
                "exploration_done": bool(state.done) if state else False,
                "has_curve": dip in self.curves,
                "failed": dip in self.failed_dips,
            }
        return summary
