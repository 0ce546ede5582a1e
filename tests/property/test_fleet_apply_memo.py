"""Every fleet write leaves the fleet as a written-out full evaluation would.

``reference_apply`` below is the fleet's joint evaluation written out in
one piece, bar two lines — it reads ``fleet`` for ``self`` and returns its
:class:`FleetState` instead of storing it — and bar
the split: each VIP takes the one its policy's ``lb`` class declares
(``fluid_split``), a fixed point over the pool's law rows.  A hypothesis
sequence of mutations — through the fleet's entry points, and by direct
edits to DIPs, VIPs and the fleet's DIP order (through every mutator of
``fleet.dips``) each followed by ``apply()`` — must leave the fleet
bit-identical to a fresh oracle evaluation after every step: the per-DIP
totals, every VIP's contribution, the law rows a probe round reads and the
state's dicts.  A mutation the oracle refuses must be refused with the same
message.

The fleet's weight and rate writers recompute only the written VIP's split,
and only while every VIP is load-independent; ``make_static_fleet`` is such
a fleet, so the same sequences reach that path too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import DipServer, custom_vm_type
from repro.exceptions import ConfigurationError
from repro.lb.base import policy_description
from repro.sim.fleet import (
    _CONTENTION_ITERATIONS,
    _CONTENTION_TOLERANCE,
    Fleet,
    FleetState,
)
from repro.sim.fluid import equal_split_array, pool_arrays, weighted_split_array


def fluid_split(policy_name: str):
    split = getattr(policy_description(policy_name).factory, "fluid_split", None)
    if split is None:
        raise ConfigurationError(f"no fluid model for policy {policy_name!r}")
    return split


def reference_apply(self: Fleet) -> FleetState:
    pool = pool_arrays(self.dips)
    n = pool.size
    index_of = {dip: i for i, dip in enumerate(pool.ids)}
    total = np.zeros(n)
    contributions: dict = {}
    reactive: list = []

    for vip_id, vip in self.vips.items():
        healthy = vip.healthy_dip_ids()
        if not healthy:
            raise ConfigurationError(f"VIP {vip_id!r}: no healthy DIPs")
        index = np.array([index_of[d] for d in healthy], dtype=np.intp)
        split = fluid_split(vip.policy_name)
        if split.fixed_point is not None:
            # Seed with an equal split; refined by the fixed point below.
            rates = equal_split_array(len(healthy), vip.total_rate_rps)
            reactive.append(vip_id)
        elif split.weighted:
            weight_vec = np.array(
                [vip.weights.get(d, 0.0) for d in healthy], dtype=np.float64
            )
            rates = weighted_split_array(weight_vec, vip.total_rate_rps)
        else:
            rates = equal_split_array(len(healthy), vip.total_rate_rps)
        contributions[vip_id] = (index, rates)
        total[index] += rates

    for _ in range(_CONTENTION_ITERATIONS if reactive else 0):
        max_delta = 0.0
        for vip_id in reactive:
            vip = self.vips[vip_id]
            index, old_rates = contributions[vip_id]
            split = fluid_split(vip.policy_name)
            background = total[index] - old_rates
            weights = {}
            if split.weighted:
                weights["weights"] = np.array(
                    [vip.weights.get(pool.ids[i], 0.0) for i in index],
                    dtype=np.float64,
                )
            new_rates = split.fixed_point(
                pool.law[index], vip.total_rate_rps, background_rps=background, **weights
            )
            total[index] += new_rates - old_rates
            contributions[vip_id] = (index, new_rates)
            delta = float(np.max(np.abs(new_rates - old_rates))) if len(index) else 0.0
            max_delta = max(max_delta, delta)
        scale = max(1.0, float(total.sum()))
        if max_delta < _CONTENTION_TOLERANCE * scale:
            break

    return FleetState(self.time, pool, total, contributions)


POLICIES = ("wrr", "rr", "lc", "wlc", "p2", "wrandom", "hash")
#: weights at the edges a split must survive: zero, subnormal, tiny, large.
EDGE_WEIGHTS = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e6)


#: a wrr, an rr, an lc, a wlc and a p2 VIP: (DIPs, policy, rate) by id.
MIXED_VIPS = {
    "w": (["d0", "d1", "d2", "d3"], "wrr", 700.0),
    "e": (["d2", "d3", "d4", "d5"], "rr", 500.0),
    "l": (["d1", "d3", "d5"], "lc", 400.0),
    "k": (["d0", "d4", "d6"], "wlc", 600.0),
    "p": (["d5", "d6"], "p2", 300.0),
}
#: two wrr, an rr, a wrandom and a hash VIP, most DIPs serving two or three.
STATIC_VIPS = {
    "w": (["d0", "d1", "d2", "d3"], "wrr", 700.0),
    "e": (["d2", "d3", "d4", "d5"], "rr", 500.0),
    "r": (["d1", "d3", "d5", "d6"], "wrandom", 400.0),
    "h": (["d0", "d4", "d6"], "hash", 600.0),
    "v": (["d3", "d6"], "wrr", 300.0),
}
STATIC_POLICIES = ("wrr", "rr", "wrandom", "hash")


def make_fleet(members: dict = MIXED_VIPS) -> Fleet:
    """Seven DIPs of three shapes shared by ``members``."""
    fleet = Fleet()
    shapes = [(1, 400.0), (2, 800.0), (4, 1500.0)]
    for i in range(7):
        cores, capacity = shapes[i % 3]
        vm = custom_vm_type(f"vm-{cores}", vcpus=cores, capacity_rps=capacity)
        fleet.add_dip(DipServer(f"d{i}", vm, seed=i, jitter_fraction=0.0))
    for vip_id, (dips, policy, rate) in members.items():
        fleet.create_vip(
            vip_id,
            dip_ids=dips,
            total_rate_rps=rate,
            policy_name=policy,
            weights={d: 1.0 + j for j, d in enumerate(dips)},
        )
    return fleet


def make_static_fleet() -> Fleet:
    """A fleet of load-independent VIPs only: writes take the incremental path."""
    return make_fleet(STATIC_VIPS)


def _pick(items, selector: int):
    items = sorted(items)
    return items[selector % len(items)] if items else None


def perform(fleet: Fleet, op: tuple, counter: list[int]) -> None:
    """Apply one drawn operation; ``counter`` names created VIPs and DIPs."""
    kind, selector, *args = op
    vip_id = _pick(fleet.vips, selector)
    dip = _pick(fleet.dips, selector)
    if kind == "set_weights":
        if vip_id is None:
            return
        members = list(fleet.vips[vip_id].dips)
        fleet.set_weights(vip_id, dict(zip(members, args[0])))
    elif kind == "set_total_rate":
        if vip_id is not None:
            fleet.set_total_rate(vip_id, args[0])
    elif kind == "scale_traffic":
        if vip_id is not None:
            fleet.scale_traffic(vip_id, args[0])
    elif kind == "fail_dip":
        fleet.fail_dip(dip)
    elif kind == "recover_dip":
        fleet.recover_dip(dip)
    elif kind == "set_capacity_ratio":
        fleet.set_capacity_ratio(dip, args[0])
    elif kind == "set_antagonist_copies":
        fleet.set_antagonist_copies(dip, args[0])
    elif kind == "advance":
        fleet.advance(args[0])
    elif kind == "create_vip":
        mask, policy, rate = args
        ids = sorted(fleet.dips)
        members = [d for i, d in enumerate(ids) if mask >> i & 1] or ids[:1]
        counter[0] += 1
        fleet.create_vip(
            f"v{counter[0]}", dip_ids=members, total_rate_rps=rate, policy_name=policy
        )
        fleet.apply()
    elif kind == "remove_vip":
        if vip_id is not None:
            fleet.remove_vip(vip_id)
    elif kind == "edit_dip":
        server = fleet.dips[dip]
        field, value = args
        if field == "failed":
            server.failed = not server.failed
        elif field == "scv":
            server.scv_correction = value
        else:
            server.antagonist.capacity_override = min(1.0, value / 3.0)
        fleet.apply()
    elif kind == "add_dip":
        counter[0] += 1
        vm = custom_vm_type("vm-2", vcpus=2, capacity_rps=800.0)
        fleet.add_dip(
            DipServer(f"x{counter[0]}", vm, seed=counter[0], jitter_fraction=0.0)
        )
        fleet.apply()
    elif kind == "rotate_dips":
        # A direct edit moving every DIP's position, and so every index.
        items = list(fleet.dips.items())
        shift = 1 + selector % (len(items) - 1)
        fleet.dips = dict(items[shift:] + items[:shift])
        fleet.apply()
    elif kind == "edit_dips":
        # A direct edit of ``fleet.dips`` through each of its mutators: a DIP
        # moves to the end, the order reverses, or a server is replaced.
        dips, how = fleet.dips, args[0]
        if how == "pop":
            dips[dip] = dips.pop(dip)
        elif how == "del":
            server = dips[dip]
            del dips[dip]
            dips.setdefault(dip, server)
        elif how == "popitem":
            items = [dips.popitem() for _ in range(len(dips))]
            dips.update(items)
        elif how == "clear":
            items = list(dips.items())
            dips.clear()
            dips |= dict(items[::-1])
        else:
            counter[0] += 1
            vm = custom_vm_type("vm-4", vcpus=4, capacity_rps=1500.0)
            replacement = DipServer(dip, vm, seed=counter[0], jitter_fraction=0.0)
            dips[dip] = replacement
            for vip in fleet.vips.values():
                if dip in vip.dips:
                    vip.dips[dip] = replacement
        fleet.apply()
    elif kind == "edit_vip":
        if vip_id is None:
            return
        vip = fleet.vips[vip_id]
        field, value = args
        if field == "policy":
            vip.policy_name = POLICIES[int(value * 100) % len(POLICIES)]
        elif field == "static_policy":
            vip.policy_name = STATIC_POLICIES[int(value * 100) % len(STATIC_POLICIES)]
        elif field == "rate":
            vip.total_rate_rps = value * 200.0
        elif field == "weight":
            vip.weights[_pick(vip.dips, int(value * 100))] = value
        elif dip in vip.dips:
            if len(vip.dips) > 1:
                del vip.dips[dip]
                vip.weights.pop(dip, None)
        else:
            vip.add_dip(fleet.dips[dip])
        fleet.apply()


def bits(value):
    """Floats by their bits (``float.hex``), through dicts."""
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return float(value).hex()


def assert_matches_oracle(fleet: Fleet, error: ConfigurationError | None) -> None:
    try:
        expected = reference_apply(fleet)
    except ConfigurationError as refused:
        assert error is not None and str(error) == str(refused)
        return
    assert error is None, error
    state = fleet.state()
    assert state.time == expected.time
    assert state._total.tobytes() == expected._total.tobytes()
    assert list(state._contributions) == list(expected._contributions)
    for vip_id, (index, rates) in expected._contributions.items():
        kept_index, kept_rates = state._contributions[vip_id]
        assert kept_index.tobytes() == index.tobytes()
        assert kept_rates.tobytes() == rates.tobytes()
    # What a probe round reads beside the totals: the pool's ids and law rows.
    assert state._pool.ids == expected._pool.ids
    assert state._pool.law.tobytes() == expected._pool.law.tobytes()
    for name in ("total_rates_rps", "utilization", "mean_latency_ms", "per_vip_rates"):
        assert bits(getattr(state, name)) == bits(getattr(expected, name)), name


rates = st.floats(0.0, 900.0)
operations = st.one_of(
    st.tuples(
        st.just("set_weights"),
        st.integers(0, 50),
        st.lists(
            st.one_of(st.floats(0.0, 10.0), st.sampled_from(EDGE_WEIGHTS)),
            min_size=1,
            max_size=5,
        ),
    ),
    st.tuples(st.just("set_total_rate"), st.integers(0, 50), rates),
    st.tuples(st.just("scale_traffic"), st.integers(0, 50), st.floats(0.0, 2.0)),
    st.tuples(st.sampled_from(["fail_dip", "recover_dip"]), st.integers(0, 50)),
    st.tuples(st.just("set_capacity_ratio"), st.integers(0, 50), st.floats(0.2, 1.0)),
    st.tuples(st.just("set_antagonist_copies"), st.integers(0, 50), st.integers(0, 4)),
    st.tuples(st.just("advance"), st.integers(0, 50), st.floats(0.0, 5.0)),
    st.tuples(
        st.just("create_vip"),
        st.integers(0, 50),
        st.integers(0, 127),
        st.sampled_from(POLICIES),
        rates,
    ),
    st.tuples(st.just("remove_vip"), st.integers(0, 50)),
    st.tuples(st.sampled_from(["add_dip", "rotate_dips"]), st.integers(0, 50)),
    st.tuples(
        st.just("edit_dips"),
        st.integers(0, 50),
        st.sampled_from(["pop", "del", "popitem", "clear", "replace"]),
    ),
    st.tuples(
        st.just("edit_dip"),
        st.integers(0, 50),
        st.sampled_from(["failed", "scv", "capacity"]),
        st.floats(0.2, 3.0),
    ),
    st.tuples(
        st.just("edit_vip"),
        st.integers(0, 50),
        st.sampled_from(["policy", "rate", "weight", "member"]),
        st.floats(0.0, 3.0),
    ),
)
#: the same, but a VIP's policy edit keeps it load-independent.
static_operations = st.one_of(
    operations,
    st.tuples(
        st.just("edit_vip"), st.integers(0, 50), st.just("static_policy"), st.floats(0.0, 3.0)
    ),
).filter(lambda op: op[:3:2] != ("edit_vip", "policy"))


def run_and_check(fleet: Fleet, ops) -> None:
    """Perform ``ops`` on ``fleet``, holding it to the oracle after each."""
    fleet.apply()
    assert_matches_oracle(fleet, None)
    counter = [0]
    for op in ops:
        error = None
        try:
            perform(fleet, op, counter)
        except ConfigurationError as refused:
            error = refused
        assert_matches_oracle(fleet, error)


class TestApplyMatchesFullEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(operations, min_size=1, max_size=14))
    @example(
        [
            ("set_weights", 4, [5e-324, 5e-324, 1e-310, 0.0]),
            ("set_weights", 4, [5e-324, 0.0, 0.0, 2.2250738585072014e-308]),
            ("set_weights", 1, [0.0, 5e-324, 0.0, 0.0]),
            ("edit_vip", 4, "rate", 0.0),
            ("set_capacity_ratio", 1, 0.6),
        ]
    )
    @example(
        [
            ("set_weights", 4, [0.0, 1.0, 1.0, 1.0]),
            ("edit_vip", 4, "weight", 0.0),
            ("fail_dip", 3),
            ("edit_dip", 3, "failed", 1.0),
            ("edit_vip", 0, "policy", 0.01),
            ("remove_vip", 2),
            ("create_vip", 0, 0b1010101, "wrr", 250.0),
            ("edit_vip", 1, "member", 1.0),
            ("rotate_dips", 2),
            ("add_dip", 0),
            ("edit_vip", 0, "member", 1.0),
        ]
    )
    @example(
        [
            # Removing k, l and p leaves e and w: all static from here on.
            ("remove_vip", 1),
            ("remove_vip", 1),
            ("remove_vip", 1),
            ("set_weights", 1, [0.0, 2.0, 1.0, 5e-324]),
            ("advance", 0, 2.0),
            ("set_total_rate", 0, 120.0),
            ("scale_traffic", 1, 0.5),
        ]
    )
    def test_every_step_equals_a_fresh_evaluation(self, ops):
        run_and_check(make_fleet(), ops)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(static_operations, min_size=1, max_size=14))
    @example(
        [
            ("set_weights", 4, [-0.0, 1.0, -0.0, 2.0]),
            ("set_total_rate", 4, -0.0),
            ("set_weights", 2, [-0.0, -0.0, -0.0, -0.0]),
            ("advance", 0, 1.0),
            ("set_total_rate", 4, 5.0),
            ("scale_traffic", 2, -0.0),
        ]
    )
    @example(
        [
            # v fronts d3 and d6: failing both is refused, and so is every
            # write until d6 is back.
            ("fail_dip", 3),
            ("fail_dip", 6),
            ("set_weights", 4, [1.0, 2.0, 3.0, 4.0]),
            ("advance", 0, 1.0),
            ("set_total_rate", 3, 250.0),
            ("recover_dip", 6),
            ("set_weights", 4, [4.0, 3.0, 2.0, 1.0]),
            ("set_total_rate", 3, 250.0),
        ]
    )
    @example(
        [
            ("edit_vip", 4, "weight", 0.5),
            ("set_weights", 4, [1.0, 2.0]),
            ("edit_dip", 2, "capacity", 1.5),
            ("set_total_rate", 4, 300.0),
            ("edit_vip", 0, "member", 1.0),
            ("set_weights", 0, [3.0, 1.0, 2.0, 1.0, 1.0]),
            ("edit_dip", 3, "failed", 1.0),
            ("set_weights", 3, [2.0, 1.0]),
            ("rotate_dips", 3),
            ("set_total_rate", 1, 80.0),
            ("edit_vip", 2, "static_policy", 0.01),
            ("advance", 0, 0.5),
            ("set_weights", 2, [1.0, 0.0, 1.0, 0.0]),
        ]
    )
    def test_every_step_of_a_static_fleet_equals_a_fresh_evaluation(self, ops):
        run_and_check(make_static_fleet(), ops)

    def test_signed_zero_rate_and_weight_are_not_aliased(self):
        """-0.0 equals 0.0 but splits to -0.0 rates: an evaluation after 0.0
        must not serve it 0.0's split."""
        fleet = make_fleet()
        vip = fleet.vips["w"]
        vip.weights["d0"] = 0.0
        fleet.apply()
        vip.weights["d0"] = -0.0
        fleet.apply()
        assert_matches_oracle(fleet, None)
        assert np.signbit(fleet.state()._contributions["w"][1][0])
        vip.weights["d0"] = 1.0
        vip.total_rate_rps = 0.0
        fleet.apply()
        vip.total_rate_rps = -0.0
        fleet.apply()
        assert_matches_oracle(fleet, None)
        assert np.signbit(fleet.state()._contributions["w"][1]).all()

    def test_an_apply_with_nothing_changed_repeats_the_last_evaluation(self):
        """Each ``apply()`` is a fresh evaluation: with no edit between two
        calls the second stores new arrays holding the first's bits."""
        fleet = make_fleet()
        first = fleet.apply()
        second = fleet.apply()
        assert fleet.state() is second
        assert second._total is not first._total
        assert second._pool.ids == first._pool.ids
        assert second._pool.law.tobytes() == first._pool.law.tobytes()
        assert second._total.tobytes() == first._total.tobytes()
        for vip_id, (index, rates) in first._contributions.items():
            assert second._contributions[vip_id][0].tobytes() == index.tobytes()
            assert second._contributions[vip_id][1].tobytes() == rates.tobytes()
        assert_matches_oracle(fleet, None)

    def test_an_antagonist_edit_followed_by_apply_rebuilds_the_pool(self):
        fleet = make_fleet()
        before = fleet.apply()
        fleet.dips["d2"].antagonist.capacity_override = 0.5
        after = fleet.apply()
        assert after._pool.law[2].tobytes() != before._pool.law[2].tobytes()
        assert after.utilization["d2"] != before.utilization["d2"]
        assert_matches_oracle(fleet, None)

    def test_a_full_evaluation_after_a_write_repeats_its_split(self):
        """The incremental split of a weight write is the one a full
        evaluation computes, to the bit."""
        fleet = make_static_fleet()
        fleet.apply()
        fleet.set_weights("w", {"d0": 9.0})
        written = fleet.state()
        full = fleet.apply()
        assert full is not written
        assert full._contributions["w"][1].tobytes() == written._contributions["w"][1].tobytes()
        assert full._total.tobytes() == written._total.tobytes()

    def test_a_write_sees_direct_edits_of_the_vip_it_writes(self):
        """The written VIP is re-read whole: a member, weight or policy edited
        on it directly reaches the result without an ``apply()``."""
        fleet = make_static_fleet()
        fleet.apply()
        vip = fleet.vips["e"]
        del vip.dips["d4"]  # its healthy set changes: a full evaluation
        fleet.set_weights("e", {"d2": 3.0})
        assert_matches_oracle(fleet, None)
        vip.policy_name = "lc"  # no longer load-independent: a full evaluation
        fleet.set_total_rate("e", 450.0)
        assert_matches_oracle(fleet, None)
        vip.policy_name = "wrr"
        fleet.apply()
        vip.weights["d5"] = 7.0
        fleet.set_total_rate("e", 350.0)
        assert_matches_oracle(fleet, None)

    def test_a_write_leaves_a_held_state_as_it_was(self):
        fleet = make_static_fleet()
        held = fleet.apply()
        total = held._total.tobytes()
        contributions = dict(held._contributions)
        fleet.set_weights("w", {"d0": 9.0})
        fleet.set_total_rate("v", 50.0)
        fleet.advance(1.0)
        assert held._total.tobytes() == total
        assert held._contributions == contributions
        assert fleet.state()._total.tobytes() != total

    def test_a_write_to_a_total_past_float_range_is_refused_as_apply_refuses(self):
        fleet, twin = make_static_fleet(), make_static_fleet()
        for each in (fleet, twin):
            each.set_weights("w", {"d0": 1e6})
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError) as refused:
            fleet.set_total_rate("w", 1.7e308)  # d0's share overflows to inf
        twin.vips["w"].total_rate_rps = 1.7e308
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError) as full:
            twin.apply()
        assert str(refused.value) == str(full.value)
        fleet.set_total_rate("w", 700.0)
        assert_matches_oracle(fleet, None)
