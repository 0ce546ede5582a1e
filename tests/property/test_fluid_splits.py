"""Property-based tests for the fluid split policies.

Every split policy must conserve the total arrival rate (what goes into a
VIP comes out across its DIPs) and never assign a negative rate, for any
pool composition, weighting and load level.  The splits are taken the way a
run takes them: a one-VIP fleet (:func:`one_vip_fleet`) applying its policy.
The fleet's state must also agree with the scalar per-DIP latency model.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import DipServer, custom_vm_type
from repro.sim.fleet import one_vip_fleet

ALL_POLICIES = ("rr", "hash", "random", "wrr", "wrandom", "dns", "lc", "wlc", "p2")


@st.composite
def pools(draw, min_dips=1, max_dips=8):
    """A heterogeneous DIP pool plus per-DIP weights."""
    size = draw(st.integers(min_value=min_dips, max_value=max_dips))
    dips = {}
    weights = {}
    for index in range(size):
        cores = draw(st.sampled_from([1, 2, 4, 8]))
        capacity = draw(st.floats(min_value=50.0, max_value=4000.0))
        vm = custom_vm_type(f"vm-{index}", vcpus=cores, capacity_rps=capacity)
        dip_id = f"d{index}"
        dips[dip_id] = DipServer(dip_id, vm, seed=index, jitter_fraction=0.0)
        weights[dip_id] = draw(st.floats(min_value=0.0, max_value=10.0))
    return dips, weights


def fluid_rates(policy, dips, total, weights=None):
    """Each DIP's rate once a one-VIP fleet has applied ``policy``."""
    fleet = one_vip_fleet(dips, total, policy)
    if weights:
        fleet.set_weights("vip", weights)
    return fleet.state().total_rates_rps


def _one_dip_pool(weight: float):
    vm = custom_vm_type("vm-0", vcpus=1, capacity_rps=50.0)
    return {"d0": DipServer("d0", vm, seed=0, jitter_fraction=0.0)}, {"d0": weight}


class TestSplitInvariants:
    @given(
        pool=pools(),
        policy=st.sampled_from(ALL_POLICIES),
        load=st.floats(min_value=0.0, max_value=1.5),
    )
    # A subnormal weight: rate × weight underflowed before the division and
    # 62.0 of 62.5 rps came back.
    @example(pool=_one_dip_pool(5e-324), policy="wrr", load=1.25)
    @settings(max_examples=120, deadline=None)
    def test_splits_conserve_rate_and_stay_nonnegative(self, pool, policy, load):
        dips, weights = pool
        total = load * sum(d.capacity_rps for d in dips.values())
        rates = fluid_rates(policy, dips, total, weights)
        assert set(rates) == set(dips)
        assert all(rate >= 0.0 for rate in rates.values())
        assert sum(rates.values()) == pytest.approx(total, rel=1e-6, abs=1e-6)

    @given(pool=pools(min_dips=2), policy=st.sampled_from(ALL_POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_failed_dips_receive_no_rate(self, pool, policy):
        dips, weights = pool
        total = 0.5 * sum(d.capacity_rps for d in dips.values())
        failed = next(iter(dips))
        dips[failed].fail()
        rates = fluid_rates(policy, dips, total, weights)
        assert rates.pop(failed) == 0.0
        assert sum(rates.values()) == pytest.approx(total, rel=1e-6, abs=1e-6)

    @given(pool=pools(), load=st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=60, deadline=None)
    def test_equal_policies_split_equally(self, pool, load):
        dips, _ = pool
        total = load * sum(d.capacity_rps for d in dips.values())
        rates = fluid_rates("rr", dips, total)
        share = total / len(dips)
        assert all(rate == pytest.approx(share) for rate in rates.values())


class TestVectorizedKernelEquivalence:
    @given(pool=pools(), load=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=80, deadline=None)
    def test_vector_latency_matches_scalar_model(self, pool, load):
        dips, _ = pool
        total = load * sum(s.capacity_rps for s in dips.values())
        state = one_vip_fleet(dips, total, "rr").state()
        for dip, server in dips.items():
            scalar = server.latency_model.mean_latency_ms(
                state.total_rates_rps[dip], scv_correction=server.scv_correction
            )
            assert state.mean_latency_ms[dip].hex() == scalar.hex()

    @given(pool=pools(), load=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_vector_utilization_matches_scalar_model(self, pool, load):
        dips, _ = pool
        total = load * sum(s.capacity_rps for s in dips.values())
        state = one_vip_fleet(dips, total, "rr").state()
        for dip, server in dips.items():
            scalar = min(1.0, server.latency_model.utilization(state.total_rates_rps[dip]))
            assert state.utilization[dip].hex() == scalar.hex()
