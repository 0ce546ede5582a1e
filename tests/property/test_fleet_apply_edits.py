"""``Fleet.apply`` sees edits that write no pool input and re-stamp nothing.

``test_fleet_apply_memo.py`` holds ``apply`` to the full evaluation after
edits through the fleet's entry points and direct ones.  The edits here
change *which* objects the fleet and its VIPs hold rather than a field of
one: a server swapped into ``fleet.dips`` under an id it already had, a
delete-plus-add that keeps the pool's size, and a dict a caller still
holds after handing it to a VIP.  Each must leave the fleet equal to a
fresh evaluation.

The pool's arrays are rebuilt only after a write that
:class:`~repro.backends.antagonist.PoolWrites` counts, so the fields
``pool_arrays`` reads must be the hooked ones; the last test derives them.
"""

from __future__ import annotations

from repro.backends import Antagonist, DipServer, custom_vm_type
from repro.backends.antagonist import PoolWrites
from repro.sim.fluid import pool_arrays
from test_fleet_apply_memo import assert_matches_oracle, make_fleet


def server(dip_id: str, capacity: float, *, seed: int = 0) -> DipServer:
    vm = custom_vm_type(f"vm-{capacity:.0f}", vcpus=2, capacity_rps=capacity)
    return DipServer(dip_id, vm, seed=seed, jitter_fraction=0.0)


def test_a_server_swapped_in_under_its_id_is_seen():
    fleet = make_fleet()
    replacement = server("d1", 3000.0)  # built before the evaluation it must change
    fleet.apply()
    fleet.dips["d1"] = replacement
    for vip in fleet.vips.values():
        if "d1" in vip.dips:
            vip.dips["d1"] = replacement
    fleet.apply()
    assert_matches_oracle(fleet, None)
    assert replacement.offered_rate_rps > 0.0


def test_a_delete_and_add_of_one_size_is_seen():
    fleet = make_fleet()
    newcomer = server("d9", 900.0)
    fleet.apply()
    # d6 leaves every VIP's pool and the fleet; d9 takes its place.
    for vip in fleet.vips.values():
        if "d6" in vip.dips:
            del vip.dips["d6"]
            vip.dips["d9"] = newcomer
    del fleet.dips["d6"]
    fleet.dips["d9"] = newcomer
    fleet.apply()
    assert_matches_oracle(fleet, None)
    assert newcomer.offered_rate_rps > 0.0


def test_a_dict_the_caller_still_holds_edits_the_vip():
    fleet = make_fleet()
    vip = fleet.vips["w"]
    weights = dict(vip.weights)
    vip.weights = weights
    fleet.apply()
    weights["d0"] = 50.0
    assert vip.weights["d0"] == 50.0
    fleet.apply()
    assert_matches_oracle(fleet, None)
    members = vip.dips
    fleet.apply()
    members.pop("d3")
    fleet.apply()
    assert_matches_oracle(fleet, None)


def test_the_hooked_fields_are_the_ones_pool_arrays_reads():
    """Record every instance attribute ``pool_arrays`` reads off a server
    and its antagonist: bar the model built once from ``vm_type`` and the
    cache keyed on the capacity factor, each must be one whose write
    ``PoolWrites`` counts, and each hooked field must be read."""
    read: dict[type, set[str]] = {DipServer: set(), Antagonist: set()}
    originals = {cls: cls.__getattribute__ for cls in read}

    def recording(cls):
        def getattribute(self, name):
            if name in object.__getattribute__(self, "__dict__"):
                read[cls].add(name)
            return originals[cls](self, name)

        return getattribute

    dips = {"a": server("a", 500.0), "b": server("b", 800.0)}
    dips["b"].antagonist.set_capacity_ratio(0.5)
    try:
        for cls in read:
            cls.__getattribute__ = recording(cls)
        pool_arrays(dips)
    finally:
        for cls, original in originals.items():
            cls.__getattribute__ = original
    assert read[DipServer] - {"_base_model", "_scaled"} == PoolWrites.DIP_FIELDS
    assert read[Antagonist] == PoolWrites.ANTAGONIST_FIELDS
    before = PoolWrites.count
    for name in sorted(PoolWrites.DIP_FIELDS):
        setattr(dips["a"], name, getattr(dips["a"], name))
    for name in sorted(PoolWrites.ANTAGONIST_FIELDS):
        setattr(dips["a"].antagonist, name, getattr(dips["a"].antagonist, name))
    assert PoolWrites.count == before + len(PoolWrites.DIP_FIELDS | PoolWrites.ANTAGONIST_FIELDS)
