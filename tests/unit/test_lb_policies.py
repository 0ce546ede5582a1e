"""Unit tests for the L4 LB policies and facades."""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.backends import DipServer, custom_vm_type
from repro.exceptions import ConfigurationError
from repro.lb import (
    AzureLBSim,
    AzureTrafficManagerSim,
    DnsWeightedPolicy,
    FiveTupleHash,
    FlowKey,
    HAProxySim,
    LeastConnection,
    MuxPool,
    NginxSim,
    PowerOfTwo,
    RandomSelect,
    RoundRobin,
    WeightedDnsResolver,
    WeightedLeastConnection,
    WeightedRandom,
    WeightedRoundRobin,
    make_policy,
    policy_registry,
    stable_hash,
)
from repro.lb import base as lb_base
from repro.lb.base import FluidSplit, effective_weights
from repro.sim import Fleet

DIPS = ["a", "b", "c"]


def make_fluid_dips(n: int) -> dict:
    vm = custom_vm_type("vm", vcpus=2, capacity_rps=400.0)
    return {f"d{i}": DipServer(f"d{i}", vm, seed=i) for i in range(n)}


def flows(n: int):
    return [
        FlowKey(src_ip=f"10.0.{i % 7}.{i % 251}", src_port=1024 + i, dst_ip="vip", dst_port=80)
        for i in range(n)
    ]


def selection_counts(policy, n=3000):
    counter: collections.Counter[str] = collections.Counter()
    for flow in flows(n):
        counter[policy.select(flow)] += 1
    return counter


class TestRegistry:
    def test_all_policies_registered(self):
        names = set(policy_registry())
        assert {"rr", "wrr", "lc", "wlc", "random", "wrandom", "p2", "hash", "dns"} <= names

    def test_make_policy(self):
        policy = make_policy("rr", DIPS)
        assert isinstance(policy, RoundRobin)

    def test_make_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_policy("nope", DIPS)

    def test_weighted_flag(self):
        registry = policy_registry()
        assert registry["wrr"].weighted
        assert not registry["rr"].weighted


class TestEveryRegisteredPolicy:
    @pytest.mark.parametrize("name", sorted(policy_registry()))
    def test_no_healthy_dip_is_a_configuration_error(self, name):
        policy = make_policy(name, DIPS)
        for dip in DIPS:
            policy.set_healthy(dip, False)
        flow = flows(1)[0]
        with pytest.raises(ConfigurationError, match="no healthy DIPs"):
            policy.select(flow)
        with pytest.raises(ConfigurationError, match="no healthy DIPs"):
            policy.select_many(2, flows(2))

    @pytest.mark.parametrize("name", sorted(policy_registry()))
    def test_select_many_is_select_repeated(self, name):
        seeded = {"seed": 3} if name in {"random", "wrandom", "p2", "dns"} else {}
        one, many = (make_policy(name, DIPS, **seeded) for _ in range(2))
        for policy in (one, many):
            if policy.supports_weights:
                policy.set_weights({"a": 0.5, "b": 0.0, "c": 2.0})
            policy.set_healthy("a", False)
            policy.select(flows(1)[0])
        picked = many.select_many(50, flows(50))
        assert picked.dtype == np.int32
        assert [DIPS[i] for i in picked.tolist()] == [one.select(f) for f in flows(50)]
        assert many.select(flows(1)[0]) == one.select(flows(1)[0])

    @pytest.mark.parametrize("name", sorted(policy_registry()))
    def test_pool_edits_agree_about_an_unknown_dip(self, name):
        policy = make_policy(name, ["a", "b"])
        edits = [
            lambda: policy.set_weights({"zz": 1.0}),
            lambda: policy.set_healthy("zz", False),
        ]
        for edit in edits:
            with pytest.raises(ConfigurationError, match="unknown DIP 'zz'"):
                edit()
        with pytest.raises(ConfigurationError, match="already present"):
            policy.add_dip("a")
        assert policy.dips == ("a", "b") and policy.healthy_dips == ("a", "b")

    @pytest.mark.parametrize("name", sorted(policy_registry()))
    def test_every_policy_declares_a_fluid_split(self, name):
        entry = policy_registry()[name]
        split = entry.factory.fluid_split
        assert isinstance(split, FluidSplit)
        assert split.weighted == entry.weighted  # it reads the weights it takes
        fixed_point = {"lc", "wlc", "p2"}
        assert (split.fixed_point is not None) == (name in fixed_point)

    def test_a_policy_without_a_fluid_split_is_refused_by_the_fleet(self, monkeypatch):
        # A copy with every built-in loaded, so nothing registers into it.
        monkeypatch.setattr(lb_base, "_REGISTRY", lb_base.policy_registry())

        class Novel(RoundRobin):
            name = "novel"
            fluid_split = None

        lb_base.register_policy("novel", Novel, weighted=False)
        fleet = Fleet(make_fluid_dips(2))
        fleet.create_vip("v", dip_ids=["d0", "d1"], total_rate_rps=100.0, policy_name="novel")
        with pytest.raises(ConfigurationError, match="no fluid model for policy 'novel'"):
            fleet.apply()

    def test_only_queue_blind_policies_declare_themselves_replayable(self):
        replayable = {
            name for name, entry in policy_registry().items() if entry.factory.replayable
        }
        assert replayable == {"rr", "wrr", "random", "wrandom", "hash"}
        for name in replayable:
            assert not policy_registry()[name].factory.uses_connection_counts


class TestBasePolicy:
    def test_requires_dips(self):
        with pytest.raises(ConfigurationError):
            RoundRobin([])

    def test_duplicate_dips_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundRobin(["a", "a"])

    def test_add_dip(self):
        policy = RoundRobin(DIPS)
        policy.add_dip("d")
        assert "d" in policy.dips

    def test_add_existing_dip_rejected(self):
        policy = RoundRobin(DIPS)
        with pytest.raises(ConfigurationError):
            policy.add_dip("a")

    def test_set_weights_unknown_dip(self):
        policy = WeightedRoundRobin(DIPS)
        with pytest.raises(ConfigurationError):
            policy.set_weights({"ghost": 0.5})

    def test_negative_weight_rejected(self):
        policy = WeightedRoundRobin(DIPS)
        with pytest.raises(ConfigurationError):
            policy.set_weights({"a": -0.1})

    @pytest.mark.parametrize("bad", [{"c": -1.0}, {"ghost": 1.0}])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: WeightedRoundRobin(DIPS),
            lambda: WeightedRandom(DIPS, seed=9),
            lambda: DnsWeightedPolicy(DIPS, cache_ttl_s=0.0, seed=9),
        ],
        ids=["wrr", "wrandom", "dns"],
    )
    def test_rejected_set_weights_changes_nothing(self, make, bad):
        """A mapping whose last entry is bad is refused whole: same weights,
        same accumulators, same plan — so the same next picks as a policy
        that never saw the call."""

        def next_picks(reprogram):
            policy = make()
            policy.set_weights({"a": 0.5, "b": 0.3, "c": 0.2})
            selection_counts(policy, 7)  # stop mid-cycle, plan built
            if reprogram:
                before = policy.weights()
                with pytest.raises(ConfigurationError):
                    policy.set_weights({"a": 0.1, "b": 0.9, **bad})
                assert policy.weights() == before
            return [policy.select(flow) for flow in flows(100)]

        assert next_picks(reprogram=True) == next_picks(reprogram=False)

    def test_resolver_rejects_a_bad_mapping_whole(self):
        resolver = WeightedDnsResolver(DIPS, weights={"a": 1.0, "b": 0.0, "c": 0.0})
        with pytest.raises(ConfigurationError):
            resolver.set_weights({"a": 0.0, "b": 1.0, "c": -1.0})
        assert resolver.weights() == {"a": 1.0, "b": 0.0, "c": 0.0}
        assert resolver.resolve() == "a"

    def test_resolver_health_edits_name_a_dip_of_the_pool(self):
        resolver = WeightedDnsResolver(DIPS, seed=1)
        with pytest.raises(ConfigurationError, match="unknown DIP 'zz'"):
            resolver.set_healthy("zz", True)
        # no phantom DIP was planted: resolutions stay inside the pool
        assert {resolver.resolve() for _ in range(50)} <= set(DIPS)

    def test_weight_rule(self):
        """Negatives clip to zero; nothing positive left means uniform."""
        assert effective_weights(np.array([2.0, -1.0, 0.5])).tolist() == [2.0, 0.0, 0.5]
        assert effective_weights(np.array([0.0, -3.0, 0.0])).tolist() == [1.0, 1.0, 1.0]

    def test_connection_counters(self):
        policy = LeastConnection(DIPS)
        policy.on_connection_open("a")
        policy.on_connection_open("a")
        policy.on_connection_close("a")
        assert policy.view("a").active_connections == 1

    def test_connection_close_never_negative(self):
        policy = LeastConnection(DIPS)
        policy.on_connection_close("a")
        assert policy.view("a").active_connections == 0

    def test_unhealthy_dip_excluded(self):
        policy = RoundRobin(DIPS)
        policy.set_healthy("a", False)
        counts = selection_counts(policy, 300)
        assert "a" not in counts


class TestRoundRobin:
    def test_even_rotation(self):
        counts = selection_counts(RoundRobin(DIPS), 300)
        assert all(count == 100 for count in counts.values())

    def test_does_not_honor_weights(self):
        policy = RoundRobin(DIPS)
        assert not policy.supports_weights


class TestWeightedRoundRobin:
    def test_split_proportional_to_weights(self):
        policy = WeightedRoundRobin(DIPS, weights={"a": 0.5, "b": 0.3, "c": 0.2})
        counts = selection_counts(policy, 1000)
        assert counts["a"] == pytest.approx(500, abs=10)
        assert counts["b"] == pytest.approx(300, abs=10)
        assert counts["c"] == pytest.approx(200, abs=10)

    def test_zero_weight_dip_gets_nothing(self):
        policy = WeightedRoundRobin(DIPS, weights={"a": 0.5, "b": 0.5, "c": 0.0})
        counts = selection_counts(policy, 1000)
        assert counts.get("c", 0) == 0

    def test_all_zero_weights_degrades_to_rr(self):
        policy = WeightedRoundRobin(DIPS, weights={d: 0.0 for d in DIPS})
        counts = selection_counts(policy, 300)
        assert all(count == pytest.approx(100, abs=5) for count in counts.values())

    def test_smoothness_no_bursts(self):
        """Smooth WRR should interleave rather than emit long runs."""
        policy = WeightedRoundRobin(["a", "b"], weights={"a": 0.5, "b": 0.5})
        picks = [policy.select(f) for f in flows(10)]
        longest_run = max(
            len(list(group)) for _, group in __import__("itertools").groupby(picks)
        )
        assert longest_run <= 2

    def test_reprogramming_takes_effect(self):
        policy = WeightedRoundRobin(DIPS, weights={"a": 1.0, "b": 0.0, "c": 0.0})
        assert selection_counts(policy, 100)["a"] == 100
        policy.set_weights({"a": 0.0, "b": 1.0, "c": 0.0})
        assert selection_counts(policy, 100)["b"] == 100

    def test_health_flip_freezes_the_score_and_set_weights_zeroes_it(self):
        policy = WeightedRoundRobin(DIPS, weights={"a": 0.5, "b": 0.3, "c": 0.2})
        selection_counts(policy, 3)
        frozen = policy.accumulators()["a"]
        assert frozen != 0.0
        policy.set_healthy("a", False)
        selection_counts(policy, 10)
        assert policy.accumulators()["a"] == frozen
        policy.set_weights({"b": 0.4})
        assert policy.accumulators() == {"a": 0.0, "b": 0.0, "c": 0.0}



class TestLeastConnection:
    def test_prefers_fewest_connections(self):
        policy = LeastConnection(DIPS)
        policy.on_connection_open("a")
        policy.on_connection_open("b")
        assert policy.select(flows(1)[0]) == "c"

    def test_ties_broken_deterministically(self):
        policy = LeastConnection(DIPS)
        assert policy.select(flows(1)[0]) == "a"

    def test_weighted_least_connection_scales_by_weight(self):
        policy = WeightedLeastConnection(DIPS, weights={"a": 2.0, "b": 1.0, "c": 1.0})
        for _ in range(2):
            policy.on_connection_open("a")
        policy.on_connection_open("b")
        policy.on_connection_open("c")
        # a has 2 conns / weight 2 = 1.0; b,c have 1/1 = 1.0 → tie → "a" first id.
        assert policy.select(flows(1)[0]) == "a"

    def test_equalises_concurrency_not_capacity(self):
        """The §2.1 failure mode: LC splits concurrency equally."""
        policy = LeastConnection(DIPS)
        assignments = collections.Counter()
        for flow in flows(90):
            dip = policy.select(flow)
            policy.on_connection_open(dip)
            assignments[dip] += 1
        assert all(count == 30 for count in assignments.values())


class TestRandomAndP2:
    def test_random_roughly_uniform(self):
        counts = selection_counts(RandomSelect(DIPS, seed=1), 3000)
        for count in counts.values():
            assert count == pytest.approx(1000, rel=0.15)

    def test_weighted_random_follows_weights(self):
        policy = WeightedRandom(DIPS, weights={"a": 0.6, "b": 0.3, "c": 0.1}, seed=2)
        counts = selection_counts(policy, 5000)
        assert counts["a"] / 5000 == pytest.approx(0.6, abs=0.05)
        assert counts["c"] / 5000 == pytest.approx(0.1, abs=0.05)

    def test_p2_prefers_lower_utilization(self):
        policy = PowerOfTwo(DIPS, seed=3)
        policy.observe_utilization({"a": 0.9, "b": 0.1, "c": 0.5})
        counts = selection_counts(policy, 3000)
        assert counts["b"] > counts["a"]

    def test_p2_falls_back_to_connections(self):
        policy = PowerOfTwo(DIPS, use_cpu=False, seed=3)
        for _ in range(10):
            policy.on_connection_open("a")
        counts = selection_counts(policy, 2000)
        assert counts["a"] < counts["b"]

    def test_p2_single_dip(self):
        policy = PowerOfTwo(["only"], seed=1)
        assert policy.select(flows(1)[0]) == "only"


class TestHash:
    def test_deterministic(self):
        policy = FiveTupleHash(DIPS)
        flow = flows(1)[0]
        assert policy.select(flow) == policy.select(flow)

    def test_roughly_equal_split(self):
        counts = selection_counts(FiveTupleHash(DIPS), 3000)
        for count in counts.values():
            assert count == pytest.approx(1000, rel=0.2)

    def test_stable_hash_is_process_independent(self):
        flow = FlowKey(src_ip="1.2.3.4", src_port=1000, dst_ip="vip", dst_port=80)
        assert stable_hash(flow) == stable_hash(flow)
        assert stable_hash(flow) != stable_hash(flow, salt="other")


class TestDns:
    def test_weighted_resolution(self):
        policy = DnsWeightedPolicy(DIPS, cache_ttl_s=0.0, seed=4)
        policy.set_weights({"a": 0.2, "b": 0.3, "c": 0.5})
        counts = selection_counts(policy, 5000)
        assert counts["c"] / 5000 == pytest.approx(0.5, abs=0.05)
        assert counts["a"] / 5000 == pytest.approx(0.2, abs=0.05)

    def test_cache_pins_client_to_dip(self):
        policy = DnsWeightedPolicy(DIPS, cache_ttl_s=100.0, seed=4)
        flow = FlowKey(src_ip="10.9.9.9", src_port=1, dst_ip="vip", dst_port=80)
        first = policy.select(flow)
        for _ in range(20):
            assert policy.select(flow) == first

    def test_cache_expiry_allows_new_resolution(self):
        policy = DnsWeightedPolicy(DIPS, cache_ttl_s=10.0, seed=4)
        policy.set_weights({"a": 1.0, "b": 0.0, "c": 0.0})
        flow = FlowKey(src_ip="10.9.9.9", src_port=1, dst_ip="vip", dst_port=80)
        assert policy.select(flow) == "a"
        policy.set_weights({"a": 0.0, "b": 1.0, "c": 0.0})
        # Still cached:
        assert policy.select(flow) == "a"
        policy.advance_time(11.0)
        assert policy.select(flow) == "b"

    def test_added_dip_reaches_the_resolver(self):
        # add_dip used to stop at the policy: the next set_weights raised
        # "unknown DIP 'c'" from the resolver, which never heard of it.
        policy = make_policy("dns", ["a", "b"], cache_ttl_s=0.0, seed=1)
        policy.add_dip("c")
        policy.set_weights({"a": 0.2, "b": 0.3, "c": 0.5})
        counts = selection_counts(policy, 1000)  # a TTL of 0: one resolution each
        assert counts["c"] / 1000 == pytest.approx(0.5, abs=0.05)
        assert counts["b"] / 1000 == pytest.approx(0.3, abs=0.05)



class TestFacades:
    def test_haproxy_algorithms(self):
        lb = HAProxySim(DIPS, algorithm="leastconn")
        assert isinstance(lb.policy, LeastConnection)
        assert not lb.supports_weights

    def test_haproxy_weighted(self):
        lb = HAProxySim(DIPS, algorithm="weighted-roundrobin")
        lb.set_weights({"a": 0.7, "b": 0.2, "c": 0.1})
        assert lb.weights()["a"] == pytest.approx(0.7)

    def test_haproxy_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            HAProxySim(DIPS, algorithm="magic")

    def test_haproxy_unweighted_rejects_weights(self):
        lb = HAProxySim(DIPS, algorithm="roundrobin")
        with pytest.raises(ConfigurationError):
            lb.set_weights({"a": 0.5})

    def test_nginx_default_weighted(self):
        lb = NginxSim(DIPS)
        assert lb.supports_weights

    def test_azure_lb_has_no_weight_interface(self):
        lb = AzureLBSim(DIPS)
        assert not lb.supports_weights
        with pytest.raises(ConfigurationError):
            lb.set_weights({"a": 0.5})

    def test_azure_traffic_manager_is_weighted_dns(self):
        tm = AzureTrafficManagerSim(DIPS, cache_ttl_s=0.0, seed=1)
        tm.set_weights({"a": 0.2, "b": 0.3, "c": 0.5})
        counts = selection_counts(tm.policy, 4000)
        assert counts["c"] > counts["a"]


class TestMuxPool:
    def test_weights_propagate_to_all_muxes(self):
        pool = MuxPool(lambda: WeightedRoundRobin(DIPS), num_muxes=3)
        pool.program_weights({"a": 0.6, "b": 0.3, "c": 0.1})
        for mux in pool.muxes:
            assert mux.weights() == pytest.approx({"a": 0.6, "b": 0.3, "c": 0.1})

    def test_ecmp_spreads_flows_across_muxes(self):
        pool = MuxPool(lambda: RoundRobin(DIPS), num_muxes=4)
        used = {id(pool.mux_for(flow)) for flow in flows(200)}
        assert len(used) == 4

    def test_same_flow_same_mux(self):
        pool = MuxPool(lambda: RoundRobin(DIPS), num_muxes=4)
        flow = flows(1)[0]
        assert pool.mux_for(flow) is pool.mux_for(flow)

    def test_select_overall_split_follows_weights(self):
        pool = MuxPool(lambda: WeightedRoundRobin(DIPS), num_muxes=3)
        pool.program_weights({"a": 0.5, "b": 0.5, "c": 0.0})
        counts = collections.Counter(pool.select(flow) for flow in flows(2000))
        assert counts.get("c", 0) == 0
        assert counts["a"] == pytest.approx(1000, rel=0.1)

    def test_requires_at_least_one_mux(self):
        with pytest.raises(ConfigurationError):
            MuxPool(lambda: RoundRobin(DIPS), num_muxes=0)

    def test_set_healthy_propagates(self):
        pool = MuxPool(lambda: RoundRobin(DIPS), num_muxes=2)
        pool.set_healthy("a", False)
        counts = collections.Counter(pool.select(flow) for flow in flows(200))
        assert "a" not in counts
