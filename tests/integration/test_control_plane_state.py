"""What the control plane keeps as a static fleet ticks on.

``repro serve`` steps a converged fleet window after window with no end
(``LiveSession.tick`` extends the horizon one window at a time), so any
container the control plane appends to on a tick grows without bound.
The fleet tests here start from ``fleet_dynamics`` (eight overlapping
VIPs on the Table 3 testbed) converged by ``prepare_fleet``, with its
timeline's events removed, and step it the way a live session does; one
more ticks a single VIP that reprograms on every tick.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import pytest

from repro.api import ExperimentSpec
from repro.api.observers import ObserverSet
from repro.api.runners import prepare_fleet
from repro.api.timeline import TimelineStepper, fleet_timeline_stepper
from repro.core.fleet_controller import FleetController
from repro.workloads import build_testbed_cluster

WORKLOAD = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "observatory"
    / "workloads"
    / "fleet_dynamics.json"
)


def quiet_fleet(seed: int) -> tuple[FleetController, TimelineStepper]:
    spec = ExperimentSpec.from_file(str(WORKLOAD)).with_overrides(
        {"seed": seed, "timeline.events": []}
    )
    fleet, plane, _, _ = prepare_fleet(spec)
    stepper = fleet_timeline_stepper(
        fleet, spec.timeline, ObserverSet([]), plane=plane, seed=spec.seed
    )
    return plane, stepper


def serve(stepper: TimelineStepper, windows: int) -> None:
    """Step ``windows`` windows as ``LiveSession.tick`` does."""
    for _ in range(windows):
        stepper.extend_horizon(stepper.clock + stepper.window_s)
        stepper.step()


def containers(plane: FleetController) -> dict[str, object]:
    """Every list / dict / deque / set attribute of the plane, of each
    VIP's controller and of each controller's KLM."""
    owners = {"plane": plane}
    for vip, controller in plane.controllers.items():
        owners[vip] = controller
        owners[f"{vip}.klm"] = controller.klm
    return {
        f"{owner}.{name}": value
        for owner, obj in owners.items()
        for name, value in vars(obj).items()
        if isinstance(value, (list, dict, deque, set))
    }


def grown(plane: FleetController, before: dict[str, int]) -> dict[str, tuple[int, int]]:
    """The containers whose length moved from ``before``, bar a map keyed
    by DIP (``current_weights`` holds the DIPs whose weight is > 0, which
    come and go as ticks reprogram) that stays keyed by the fleet's DIPs."""
    after = containers(plane)
    assert set(after) == set(before)
    return {
        name: (before[name], len(value))
        for name, value in after.items()
        if len(value) != before[name]
        and not (isinstance(value, (dict, set)) and set(value) <= set(plane.fleet.dips))
    }


@pytest.mark.parametrize("seed", [17, 1026, 2035])
def test_a_static_fleet_keeps_no_more_state_as_it_ticks(seed):
    """After 50 windows and after 100 more, every container has the same
    length."""
    plane, stepper = quiet_fleet(seed)
    serve(stepper, 50)
    before = {name: len(value) for name, value in containers(plane).items()}
    serve(stepper, 100)
    assert not grown(plane, before)


def test_a_reprogrammed_vip_keeps_no_more_state_as_it_ticks():
    """One VIP on the 30-DIP testbed whose traffic swings ±10 % every tick,
    so that every tick detects a change and reprograms: the same holds from
    tick 50 to tick 150."""
    fleet = build_testbed_cluster(load_fraction=0.6, seed=11)
    plane = FleetController(fleet)
    plane.onboard_vip("vip")
    plane.converge_all()

    def swing(ticks: int) -> int:
        reprogrammed = 0
        for _ in range(ticks):
            fleet.scale_traffic("vip", 1.1 if fleet.vips["vip"].total_rate_rps < rate else 1 / 1.1)
            reprogrammed += plane.control_step()["vip"].reprogrammed
        return reprogrammed

    rate = fleet.vips["vip"].total_rate_rps
    swing(50)
    before = {name: len(value) for name, value in containers(plane).items()}
    assert swing(100) == 100
    assert not grown(plane, before)


@pytest.mark.xfail(
    strict=True,
    reason="§4.5 rescales compose on the last rescaled curve (ROADMAP item 25, "
    "fixed as item 8(xi)): on a static fleet the largest w_max reaches "
    "3.8e7x its converged value in 300 windows",
)
def test_rescaled_curves_stay_near_their_converged_w_max():
    plane, stepper = quiet_fleet(17)
    converged = {
        (vip, dip): w_max
        for vip, controller in plane.controllers.items()
        for dip, w_max in zip(controller.curves.ids, controller.curves.w_max.tolist())
    }
    serve(stepper, 300)
    stretched = {
        (vip, dip): (converged[vip, dip], w_max)
        for vip, controller in plane.controllers.items()
        for dip, w_max in zip(controller.curves.ids, controller.curves.w_max.tolist())
        if not w_max <= 100.0 * converged[vip, dip]
    }
    assert not stretched
