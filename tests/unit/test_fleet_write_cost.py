"""A fleet write costs what it changed, counted rather than timed.

On a 128-VIP windowed fleet, ``set_weights`` on one VIP computes that VIP's
inputs alone (one ``Fleet._inputs`` call) and changes the totals of its
DIPs alone; an ``advance`` that follows no write computes no VIP's inputs
and hands the last state's arrays on; and none of them makes a pass over
``fleet.dips``.  That the results are the full evaluation's is
``test_fleet_apply_memo.py``'s to hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import DipServer, custom_vm_type
from repro.sim.fleet import Fleet
from repro.workloads import fleet_from_pool


@pytest.fixture
def fleet() -> Fleet:
    shapes = [(1, 400.0), (2, 800.0), (4, 1500.0)]
    dips = {}
    for i in range(256):
        cores, capacity = shapes[i % 3]
        vm = custom_vm_type(f"vm-{cores}", vcpus=cores, capacity_rps=capacity)
        dips[f"d{i}"] = DipServer(f"d{i}", vm, seed=i, jitter_fraction=0.0)
    fleet = fleet_from_pool(dips, num_vips=128)
    assert len(fleet.shared_dip_ids()) == len(fleet.dips)  # every DIP serves two VIPs
    fleet.apply()
    return fleet


@pytest.fixture
def inputs(monkeypatch) -> list[str]:
    """The VIP id of every ``Fleet._inputs`` call the fleet makes."""
    calls: list[str] = []
    original = Fleet._inputs

    def counted(self, vip_id, *args):
        calls.append(vip_id)
        return original(self, vip_id, *args)

    monkeypatch.setattr(Fleet, "_inputs", counted)
    return calls


def changed(fleet: Fleet, write) -> set[str]:
    """The DIPs whose total ``write`` changes, by bits."""
    before = fleet.state()._total.view(np.int64).copy()
    write(fleet)
    state = fleet.state()
    moved = np.flatnonzero(state._total.view(np.int64) != before)
    return {state._pool.ids[i] for i in moved.tolist()}


def test_a_weight_write_reads_and_changes_one_vip(fleet, inputs):
    vip = fleet.vips["VIP-37"]
    weights = {dip: 1.0 + i for i, dip in enumerate(vip.dips)}
    assert changed(fleet, lambda fleet: fleet.set_weights("VIP-37", weights)) == set(vip.dips)
    assert inputs == ["VIP-37"]


def test_a_rate_write_reads_and_changes_one_vip(fleet, inputs):
    vip = fleet.vips["VIP-90"]
    assert changed(fleet, lambda fleet: fleet.scale_traffic("VIP-90", 1.5)) == set(vip.dips)
    assert inputs == ["VIP-90"]


def test_an_advance_after_no_write_reads_nothing_and_changes_nothing(fleet, inputs):
    fleet.set_weights("VIP-5", {dip: 2.0 for dip in fleet.vips["VIP-5"].dips})
    state = fleet.state()
    inputs.clear()
    advanced = fleet.advance(5.0)
    assert inputs == []
    assert advanced.time == fleet.time == 5.0
    assert advanced._total is state._total
    assert fleet.state() is advanced


def test_no_write_makes_a_pass_over_the_fleets_dips(fleet):
    passes = []

    class Counted(dict):
        def __iter__(self):
            passes.append("__iter__")
            return super().__iter__()

        def keys(self):
            passes.append("keys")
            return super().keys()

        def values(self):
            passes.append("values")
            return super().values()

        def items(self):
            passes.append("items")
            return super().items()

    fleet.dips = Counted(fleet.dips)
    fleet.apply()  # a direct edit of the fleet's dicts is followed by apply()
    assert passes  # the full evaluation reads every DIP
    passes.clear()
    fleet.set_weights("VIP-37", {dip: 2.0 for dip in fleet.vips["VIP-37"].dips})
    fleet.scale_traffic("VIP-90", 1.5)
    fleet.advance(5.0)
    assert passes == []
