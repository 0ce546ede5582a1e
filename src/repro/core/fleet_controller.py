"""The fleet-scale KnapsackLB control plane (§3.2, §5 at Table 8 scale).

One :class:`FleetController` owns every VIP of a shared DIP fleet.  It
multiplexes the per-VIP state machines — measurement (Algorithm 1 + the
§4.6 scheduler), ILP weight computation and §4.5 dynamics — over one
control interval, the way the paper's single stateful controller app
manages thousands of VIPs:

* every VIP gets its own :class:`KnapsackLBController` driven through a
  :class:`~repro.sim.fleet.FleetDeployment` view, so weight programming and
  probing stay VIP-scoped while the underlying DIPs carry the sum of all
  tenants' traffic;
* each VIP's controller reads its own KLM's probe rounds as they are
  served (the paper's KLMs write to one shared Redis the controller reads);
* measurement rounds from different VIPs interleave: each fleet round asks
  every measuring VIP's scheduler for a plan, excluding DIPs another VIP is
  already measuring this round, then advances the shared clock exactly once;
* VIPs can be onboarded while the rest of the fleet is live (staggered
  onboarding), and steady-state VIPs keep reacting to failures, capacity
  and traffic changes every control tick.

It is the one convergence loop and the only owner of the clock — a single
VIP converges as a one-VIP fleet (``FleetController(cluster.fleet)``,
``onboard_vip("vip")``, :meth:`FleetController.converge_all`); the per-VIP
controllers have no loop and no clock of their own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.config import KnapsackLBConfig
from repro.core.controller import (
    ControlStepReport,
    ExplorationReport,
    KnapsackLBController,
)
from repro.core.multistep import MultiStepOutcome
from repro.core.types import DipId, VipId, WeightAssignment
from repro.exceptions import ConfigurationError
from repro.sim.fleet import Fleet
from repro.solver import SolveCache


class VipPhase(enum.Enum):
    """Lifecycle of a VIP inside the fleet control plane."""

    ONBOARDED = "onboarded"  # registered, measurement not started
    MEASURING = "measuring"  # running interleaved exploration rounds
    STEADY = "steady"  # converged; §4.5 dynamics every control tick


@dataclass(frozen=True)
class FleetRound:
    """One interleaved measurement round across the fleet (observability)."""

    index: int
    time: float
    #: DIPs measured this round, per VIP, at their scheduled weights.
    measured: Mapping[VipId, Mapping[DipId, float]]


@dataclass
class FleetMeasurementReport:
    """Summary of an interleaved fleet-wide measurement phase."""

    rounds: int
    #: rounds in which at least two VIPs measured concurrently.
    interleaved_rounds: int
    reports: dict[VipId, ExplorationReport]
    round_log: list[FleetRound] = field(default_factory=list)


class FleetController:
    """Multi-VIP weight computation over a shared DIP fleet."""

    def __init__(
        self,
        fleet: Fleet,
        *,
        config: KnapsackLBConfig | None = None,
        solve_cache: SolveCache | None = None,
    ) -> None:
        self.fleet = fleet
        self.config = config or KnapsackLBConfig()
        #: one memo of solved problems shared by every VIP's ILP.  It has
        #: not been hit: 0 hits against 577 misses over three
        #: ``fleet_dynamics`` seeds, and none on ``ctl_cold_100`` or
        #: ``req_serial_klb_wrr``, since a re-solve follows a §4.5 rescale
        #: (or a change of the DIP set), which moves the candidate grid.
        #: ROADMAP item 15(c) deletes it; the observatory reads it until then.
        self.solve_cache = solve_cache or SolveCache()
        self.controllers: dict[VipId, KnapsackLBController] = {}
        self.phases: dict[VipId, VipPhase] = {}
        self.round_log: list[FleetRound] = []
        self._round_index = 0

    # ------------------------------------------------------------- onboarding

    def onboard_vip(
        self,
        vip_id: VipId,
        *,
        config: KnapsackLBConfig | None = None,
        start_measurement: bool = True,
    ) -> KnapsackLBController:
        """Attach a controller to a fleet VIP (which may join a live fleet).

        Bootstraps the VIP's idle latencies and, unless
        ``start_measurement=False``, opens its measurement phase so the next
        :meth:`run_measurement_phase` picks it up.  Other VIPs' traffic keeps
        flowing throughout — their DIPs simply see the onboarding VIP's
        measurement weights as additional load.
        """
        if vip_id in self.controllers:
            raise ConfigurationError(f"VIP {vip_id!r} already onboarded")
        if vip_id not in self.fleet.vips:
            raise ConfigurationError(f"VIP {vip_id!r} not in fleet")
        controller = KnapsackLBController(
            vip_id,
            self.fleet.view(vip_id),
            config=config or self.config,
            solve_cache=self.solve_cache,
        )
        controller.time = self.fleet.time
        self.controllers[vip_id] = controller
        self.phases[vip_id] = VipPhase.ONBOARDED
        if start_measurement:
            self.start_measurement(vip_id)
        return controller

    def start_measurement(self, vip_id: VipId) -> None:
        """Bootstrap ``l0`` and open the VIP's measurement phase."""
        controller = self._controller(vip_id)
        if not controller.l0_ms:
            for settle_s in controller.bootstrap_idle_latencies():
                self.fleet.advance(settle_s)
                self._sync_clocks()
        controller.begin_exploration()
        self.phases[vip_id] = VipPhase.MEASURING
        self._sync_clocks()

    def offboard_vip(self, vip_id: VipId) -> None:
        """Retire a VIP: drop its controller and remove it from the fleet.

        The inverse of staggered onboarding — the tenant's traffic leaves
        the shared DIPs (the joint evaluation re-runs immediately), and the
        remaining VIPs' §4.5 detectors see the contention drop on their next
        control tick.
        """
        self._controller(vip_id)  # raises if never onboarded
        del self.controllers[vip_id]
        del self.phases[vip_id]
        self.fleet.remove_vip(vip_id)

    def measuring_vips(self) -> tuple[VipId, ...]:
        return tuple(
            v for v, phase in self.phases.items() if phase is VipPhase.MEASURING
        )

    def steady_vips(self) -> tuple[VipId, ...]:
        return tuple(
            v for v, phase in self.phases.items() if phase is VipPhase.STEADY
        )

    # ------------------------------------------------- interleaved measurement

    def run_measurement_phase(
        self,
        *,
        max_rounds: int = 100_000,
        steady_control: bool = False,
    ) -> FleetMeasurementReport:
        """Drive every measuring VIP to convergence, one shared round at a time.

        Each fleet round walks the measuring VIPs (rotating the starting VIP
        for fairness), lets each pack one scheduler round — excluding DIPs
        already claimed by an earlier VIP this round, so no DIP serves two
        measurement weights at once — and then advances the shared clock by
        one round duration.  With ``steady_control=True`` the already-steady
        VIPs run their §4.5 control tick after each round, so dynamics and
        measurement genuinely coexist (staggered onboarding).
        """
        round_duration = self.config.scheduler.round_duration_s
        reports: dict[VipId, ExplorationReport] = {}
        rounds = 0
        interleaved = 0

        while self.measuring_vips() and rounds < max_rounds:
            measuring = list(self.measuring_vips())
            offset = rounds % len(measuring)
            ordered = measuring[offset:] + measuring[:offset]

            claimed: set[DipId] = set()
            measured_by_vip: dict[VipId, dict[DipId, float]] = {}
            for vip_id in ordered:
                controller = self.controllers[vip_id]
                outcome = controller.exploration_round(exclude=claimed)
                if outcome.measured:
                    claimed.update(outcome.measured)
                    measured_by_vip[vip_id] = dict(outcome.measured)
                if outcome.done:
                    reports[vip_id] = controller.finish_exploration()
                    self.phases[vip_id] = VipPhase.STEADY

            self.fleet.advance(round_duration)
            self._sync_clocks()
            rounds += 1
            if len(measured_by_vip) > 1:
                interleaved += 1
            self.round_log.append(
                FleetRound(
                    index=self._round_index,
                    time=self.fleet.time,
                    measured=measured_by_vip,
                )
            )
            self._round_index += 1

            if steady_control:
                for vip_id in self.steady_vips():
                    self.controllers[vip_id].control_step()

        return FleetMeasurementReport(
            rounds=rounds,
            interleaved_rounds=interleaved,
            reports=reports,
            round_log=self.round_log[-rounds:] if rounds else [],
        )

    # --------------------------------------------------------- weights & steady state

    def compute_all_weights(self) -> dict[VipId, MultiStepOutcome]:
        """Run each converged VIP's (multi-step) ILP and program the result."""
        outcomes: dict[VipId, MultiStepOutcome] = {}
        for vip_id in self.steady_vips():
            controller = self.controllers[vip_id]
            outcome = controller.compute_weights()
            controller.program_assignment(outcome.assignment)
            outcomes[vip_id] = outcome
        return outcomes

    def control_step(
        self, *, duration_s: float | None = None
    ) -> dict[VipId, ControlStepReport]:
        """One fleet-wide control tick: advance once, then every steady VIP.

        Mirrors the paper's 5-second loop with the fleet clock advanced a
        single time — each VIP then probes its own DIPs (whose load includes
        every other tenant) and reacts independently.  ``duration_s``
        overrides the configured control interval; the timeline layer uses
        it to align control ticks with telemetry windows.
        """
        self.fleet.advance(
            self.config.control_interval_s if duration_s is None else duration_s
        )
        self._sync_clocks()
        return {
            vip_id: self.controllers[vip_id].control_step()
            for vip_id in self.steady_vips()
        }

    def converge_all(
        self, *, settle_steps: int = 3
    ) -> dict[VipId, WeightAssignment]:
        """Measure, solve and program every onboarded VIP; settle the fleet."""
        for vip_id, phase in self.phases.items():
            if phase is VipPhase.ONBOARDED:
                self.start_measurement(vip_id)
        self.run_measurement_phase()
        self.compute_all_weights()
        for _ in range(max(0, settle_steps)):
            reports = self.control_step()
            if not any(report.events for report in reports.values()):
                break
        return {
            vip_id: controller.last_assignment
            for vip_id, controller in self.controllers.items()
            if controller.last_assignment is not None
        }

    # ------------------------------------------------------------------ reporting

    def status(self) -> dict[VipId, dict[str, object]]:
        """Per-VIP phase and controller summary (observability)."""
        state = self.fleet.state()
        return {
            vip_id: {
                "phase": self.phases[vip_id].value,
                "dips": len(self.fleet.vips[vip_id].dips),
                "mean_latency_ms": state.vip_mean_latency_ms(vip_id),
                "has_assignment": controller.last_assignment is not None,
                "failed_dips": tuple(controller.failed_dips),
            }
            for vip_id, controller in self.controllers.items()
        }

    def _controller(self, vip_id: VipId) -> KnapsackLBController:
        try:
            return self.controllers[vip_id]
        except KeyError:
            raise ConfigurationError(f"VIP {vip_id!r} not onboarded") from None

    def _sync_clocks(self) -> None:
        for controller in self.controllers.values():
            controller.time = self.fleet.time
