"""A fleet write costs what it changed, counted rather than timed.

On a 128-VIP windowed fleet, ``set_weights`` on one VIP reads that VIP alone
and writes the offered rate of its DIPs alone; an ``advance`` that follows
no write reads no VIP and writes no rate; and none of them makes a pass
over ``fleet.dips``.  A rate write is seen by object identity: every push
stores a fresh float, so a server whose stored rate is the very same object
was not written.  That the results are the full
evaluation's is ``test_fleet_apply_memo.py``'s to hold.
"""

from __future__ import annotations

import pytest

import repro.sim.fleet as fleet_module
from repro.backends import DipServer, custom_vm_type
from repro.sim.fleet import Fleet, FleetDips
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
def reads(monkeypatch) -> list[tuple[str, str]]:
    """Every ``_read`` / ``_inputs`` call the fleet makes, with its VIP id."""
    calls: list[tuple[str, str]] = []
    read, inputs = fleet_module._read, Fleet._inputs

    def counted_read(vip):
        calls.append(("_read", vip.vip_id))
        return read(vip)

    def counted_inputs(self, vip_id, *args):
        calls.append(("_inputs", vip_id))
        return inputs(self, vip_id, *args)

    monkeypatch.setattr(fleet_module, "_read", counted_read)
    monkeypatch.setattr(Fleet, "_inputs", counted_inputs)
    return calls


def stored_rates(fleet: Fleet) -> dict[str, float]:
    return {dip: server.__dict__["offered_rate_rps"] for dip, server in fleet.dips.items()}


def written(before: dict[str, float], after: dict[str, float]) -> set[str]:
    return {dip for dip, rate in after.items() if rate is not before[dip]}


def test_a_weight_write_reads_and_pushes_one_vip(fleet, reads):
    vip = fleet.vips["VIP-37"]
    before = stored_rates(fleet)
    fleet.set_weights("VIP-37", {dip: 1.0 + i for i, dip in enumerate(vip.dips)})
    assert sorted(reads) == [("_inputs", "VIP-37"), ("_read", "VIP-37")]
    assert written(before, stored_rates(fleet)) == set(vip.dips)


def test_a_rate_write_reads_and_pushes_one_vip(fleet, reads):
    vip = fleet.vips["VIP-90"]
    before = stored_rates(fleet)
    fleet.scale_traffic("VIP-90", 1.5)
    assert sorted(reads) == [("_inputs", "VIP-90"), ("_read", "VIP-90")]
    assert written(before, stored_rates(fleet)) == set(vip.dips)


def test_an_advance_after_no_write_reads_nothing_and_pushes_nothing(fleet, reads):
    fleet.set_weights("VIP-5", {dip: 2.0 for dip in fleet.vips["VIP-5"].dips})
    state = fleet.state()
    before = stored_rates(fleet)
    reads.clear()
    advanced = fleet.advance(5.0)
    assert reads == []
    assert written(before, stored_rates(fleet)) == set()
    assert advanced.time == fleet.time == 5.0
    assert advanced._total is state._total
    assert fleet.state() is advanced


def test_no_write_makes_a_pass_over_the_fleets_dips(fleet, monkeypatch):
    passes = []
    for name in ("__iter__", "keys", "values", "items"):

        def counted(self, *args, _name=name, _body=getattr(dict, name)):
            passes.append(_name)
            return _body(self, *args)

        monkeypatch.setattr(FleetDips, name, counted)
    fleet.set_weights("VIP-37", {dip: 2.0 for dip in fleet.vips["VIP-37"].dips})
    fleet.scale_traffic("VIP-90", 1.5)
    fleet.advance(5.0)
    assert passes == []
    fleet.apply()  # the full evaluation reads every DIP
    assert passes


@pytest.mark.parametrize(
    "edit",
    [
        lambda dips: dips.__setitem__("a", 3),
        lambda dips: dips.__delitem__("a"),
        lambda dips: dips.pop("a"),
        lambda dips: dips.popitem(),
        lambda dips: dips.clear(),
        lambda dips: dips.update(c=3),
        lambda dips: dips.setdefault("c", 3),
        lambda dips: dips.__ior__({"c": 3}),
    ],
    ids=["setitem", "delitem", "pop", "popitem", "clear", "update", "setdefault", "ior"],
)
def test_every_edit_of_the_fleets_dips_takes_a_new_version(edit):
    dips = FleetDips(a=1, b=2)
    before = dips.version
    edit(dips)
    assert dips.version != before
    assert FleetDips(dips).version != dips.version  # a copy is another mapping
