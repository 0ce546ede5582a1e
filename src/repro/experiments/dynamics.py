"""Figs. 15-17: weight changes under failures, capacity change and traffic change (§6.3)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import DipId
from repro.experiments.klb_testbed import _converge_vip
from repro.workloads import build_testbed_cluster

#: The DIP indices the paper plots in Figs. 15-17.
PLOTTED_DIPS = tuple(
    f"DIP-{i}" for i in (1, 2, 3, 4, 5, 6, 7, 8, 17, 18, 19, 20, 25, 26, 29)
)


@dataclass(frozen=True)
class DynamicsScenario:
    """Weights before and after one dynamic event, plus bookkeeping."""

    name: str
    weights_before: dict[DipId, float]
    weights_after: dict[DipId, float]
    events: tuple[str, ...]
    detection_time_s: float
    max_utilization_after: float


@dataclass(frozen=True)
class DynamicsStudy:
    failure: DynamicsScenario
    capacity: DynamicsScenario
    traffic: DynamicsScenario


def _converged_controller(load_fraction: float, seed: int):
    fleet = build_testbed_cluster(load_fraction=load_fraction, seed=seed)
    plane = _converge_vip(fleet)
    return fleet, plane, plane.controllers["vip"]


def _run_steps(plane, steps: int) -> tuple[list[str], float]:
    controller = plane.controllers["vip"]
    events: list[str] = []
    start = controller.time
    detection_time = float("nan")
    for _ in range(steps):
        report = plane.control_step()["vip"]
        for event in report.events:
            events.append(event.kind.value)
        if report.reprogrammed and detection_time != detection_time:
            detection_time = controller.time - start
    return events, detection_time


def run_dynamics_study(
    *,
    load_fraction: float = 0.70,
    seed: int = 42,
    settle_steps: int = 3,
    traffic_increase: float = 0.10,
) -> DynamicsStudy:
    """Reproduce the three §6.3 scenarios on the 30-DIP testbed."""

    # --- Fig. 15: fail DIP-25 and DIP-26 -----------------------------------
    fleet, plane, controller = _converged_controller(load_fraction, seed)
    before = dict(controller.last_assignment.weights)
    fleet.fail_dip("DIP-25")
    fleet.fail_dip("DIP-26")
    events, detection = _run_steps(plane, settle_steps)
    failure = DynamicsScenario(
        name="failure",
        weights_before=before,
        weights_after=dict(controller.last_assignment.weights),
        events=tuple(events),
        detection_time_s=detection,
        max_utilization_after=max(fleet.state().utilization.values()),
    )

    # --- Fig. 16: reduce capacity of DIP-25..28 -----------------------------
    fleet, plane, controller = _converged_controller(load_fraction, seed)
    before = dict(controller.last_assignment.weights)
    for dip in ("DIP-25", "DIP-26", "DIP-27", "DIP-28"):
        fleet.set_capacity_ratio(dip, 0.75)
    events, detection = _run_steps(plane, settle_steps)
    capacity = DynamicsScenario(
        name="capacity",
        weights_before=before,
        weights_after=dict(controller.last_assignment.weights),
        events=tuple(events),
        detection_time_s=detection,
        max_utilization_after=max(fleet.state().utilization.values()),
    )

    # --- Fig. 17: +10 % traffic ----------------------------------------------
    fleet, plane, controller = _converged_controller(load_fraction, seed)
    before = dict(controller.last_assignment.weights)
    fleet.scale_traffic("vip", 1.0 + traffic_increase)
    events, detection = _run_steps(plane, settle_steps)
    traffic = DynamicsScenario(
        name="traffic",
        weights_before=before,
        weights_after=dict(controller.last_assignment.weights),
        events=tuple(events),
        detection_time_s=detection,
        max_utilization_after=max(fleet.state().utilization.values()),
    )

    return DynamicsStudy(failure=failure, capacity=capacity, traffic=traffic)
