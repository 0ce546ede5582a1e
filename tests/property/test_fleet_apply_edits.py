"""``Fleet.apply`` sees edits that write no pool input and re-stamp nothing.

``test_fleet_apply_memo.py`` holds ``apply`` to the full evaluation after
edits through the fleet's entry points and direct ones.  The edits here
change *which* objects the fleet and its VIPs hold rather than a field of
one: a server swapped into ``fleet.dips`` under an id it already had, a
delete-plus-add that keeps the pool's size, and a dict a caller still
holds after handing it to a VIP, and an edit through each mutator of
``fleet.dips``.  Each, followed by ``apply()``, must leave the fleet equal
to a fresh evaluation.

The fleet's writers are the only ones its incremental path follows, so no
module outside ``backends/`` may store a field ``pool_arrays`` reads on a
server that a fleet holds; the last test derives those fields and scans
``src/repro`` for stores of them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.backends import Antagonist, DipServer, custom_vm_type
from repro.sim.fluid import pool_arrays
from test_fleet_apply_memo import assert_matches_oracle, make_fleet


def server(dip_id: str, capacity: float, *, seed: int = 0) -> DipServer:
    vm = custom_vm_type(f"vm-{capacity:.0f}", vcpus=2, capacity_rps=capacity)
    return DipServer(dip_id, vm, seed=seed, jitter_fraction=0.0)


def serves(fleet, server: DipServer) -> bool:
    """``server`` carries load in the fleet's state and answers its probes
    from its own generator."""
    loaded = fleet.state().total_rates_rps[server.dip_id] > 0.0
    (mean,), _ = fleet.probe_round([server.dip_id], 4)
    return loaded and mean is not None and "_rng" in vars(server)


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
    assert serves(fleet, replacement)


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
    assert serves(fleet, newcomer)


def _move_to_end(fleet, dip_id: str) -> None:
    server = fleet.dips[dip_id]
    del fleet.dips[dip_id]
    fleet.dips[dip_id] = server


def _reverse(fleet, dip_id: str) -> None:
    items = [fleet.dips.popitem() for _ in range(len(fleet.dips))]
    fleet.dips.update(items)


def _clear_and_refill_reversed(fleet, dip_id: str) -> None:
    items = list(fleet.dips.items())
    fleet.dips.clear()
    fleet.dips.update(items[::-1])


def _replace(fleet, dip_id: str) -> None:
    replacement = server(dip_id, 3000.0, seed=7)
    fleet.dips[dip_id] = replacement
    for vip in fleet.vips.values():
        if dip_id in vip.dips:
            vip.dips[dip_id] = replacement


def _join(fleet, newcomer: DipServer) -> None:
    """``newcomer`` is already in ``fleet.dips``: VIP ``w`` takes it too."""
    fleet.vips["w"].add_dip(newcomer)
    fleet.vips["w"].weights[newcomer.dip_id] = 2.0


#: one direct edit of ``fleet.dips`` through each of its mutators; each
#: moves a DIP's position, replaces a server or adds one a VIP serves.
DIPS_EDITS = {
    "setitem": _replace,
    "delitem": _move_to_end,
    "pop": lambda fleet, dip_id: fleet.dips.__setitem__(dip_id, fleet.dips.pop(dip_id)),
    "popitem": _reverse,
    "clear": _clear_and_refill_reversed,
    "update": lambda fleet, dip_id: _join(
        fleet, fleet.dips.update(x=server("x", 900.0)) or fleet.dips["x"]
    ),
    "setdefault": lambda fleet, dip_id: _join(
        fleet, fleet.dips.setdefault("x", server("x", 900.0))
    ),
    "ior": lambda fleet, dip_id: _join(
        fleet, fleet.dips.__ior__({"x": server("x", 900.0)})["x"]
    ),
}


@pytest.mark.parametrize("how", list(DIPS_EDITS))
def test_every_mutator_of_the_fleets_dips_is_seen_by_apply(how):
    """``apply()`` after a direct edit of ``fleet.dips`` through any of its
    mutators evaluates the edited pool: its ids in the dict's new order and
    each server's current law, equal to a fresh evaluation."""
    fleet = make_fleet()
    before = fleet.apply()
    DIPS_EDITS[how](fleet, "d1")
    after = fleet.apply()
    assert after._pool.ids == tuple(fleet.dips)
    assert (after._pool.ids, after._pool.law.tobytes()) != (
        before._pool.ids,
        before._pool.law.tobytes(),
    )
    assert_matches_oracle(fleet, None)
    assert all(serves(fleet, s) for d, s in fleet.dips.items() if d in ("d1", "x"))


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


#: the one store of a pool field outside ``backends/``: a runner stamps
#: the workload's correction on a pool before any fleet holds it.
BEFORE_ANY_FLEET = {("api/runners.py", "_analytic_pool", "scv_correction")}


def fields_pool_arrays_reads() -> set[str]:
    """Every instance attribute ``pool_arrays`` reads off a server and its
    antagonist."""
    read: set[str] = set()
    originals = {cls: cls.__getattribute__ for cls in (DipServer, Antagonist)}

    def recording(cls):
        def getattribute(self, name):
            if name in object.__getattribute__(self, "__dict__"):
                read.add(name)
            return originals[cls](self, name)

        return getattribute

    dips = {"a": server("a", 500.0), "b": server("b", 800.0)}
    dips["b"].antagonist.set_capacity_ratio(0.5)
    try:
        for cls in originals:
            cls.__getattribute__ = recording(cls)
        pool_arrays(dips)
    finally:
        for cls, original in originals.items():
            cls.__getattribute__ = original
    return read


def stores(source: str, names: set[str]) -> list[tuple[str | None, str]]:
    """(enclosing function, attribute) of each store of an attribute in
    ``names`` in ``source``."""
    found: list[tuple[str | None, str]] = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr in names
        ):
            found.append((function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_module_outside_backends_stores_a_field_pool_arrays_reads():
    names = fields_pool_arrays_reads()
    assert {"failed", "scv_correction", "antagonist", "capacity_override"} <= names
    assert stores("def f(dip):\n    dip.failed = True\n", names) == [("f", "failed")]
    assert stores("a.antagonist.capacity_override = 0.5", names) == [
        (None, "capacity_override")
    ]
    root = Path(repro.__file__).parent
    found = {
        (path.relative_to(root).as_posix(), function, name)
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).parts[0] != "backends"
        for function, name in stores(path.read_text(), names)
    }
    assert found == BEFORE_ANY_FLEET
