"""Differential tests: the least-connection burst kernel against per-pick oracles.

``least_connection_picks`` answers a whole burst of ``lc`` / ``wlc`` picks
from the counts it starts at.  :func:`heap_picks` is what the epoch router
ran before it — one ``heapreplace`` per pick over ``(score, rank, index)``
tuples — kept here as the oracle; the serial policies' ``select`` on live
counts is the other one, through the router that now calls the kernel.
"""

from __future__ import annotations

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lb import FlowKey, LeastConnection, WeightedLeastConnection
from repro.lb.least_connection import least_connection_picks
from repro.parallel.epoch import _LeastConnectionRouter

FLOW = FlowKey(src_ip="10.1.0.1", src_port=1024, dst_ip="10.0.0.1", dst_port=80)


def heap_picks(counts, weights, rank, n):
    """The loop the kernel replaced: pop the least score, push it back one up."""
    counts = np.array(counts, dtype=np.float64)

    def score(index):
        if weights is None:
            return float(counts[index])
        weight = weights[index]
        if weight <= 0:
            weight = 1e-9
        return float(counts[index]) / weight

    heap = [(score(i), int(rank[i]), i) for i in range(counts.size)]
    heapq.heapify(heap)
    picks = np.empty(n, dtype=np.intp)
    for k in range(n):
        _, position, index = heap[0]
        picks[k] = index
        counts[index] += 1.0
        heapq.heapreplace(heap, (score(index), position, index))
    return picks, counts


@st.composite
def bursts(draw):
    size = draw(st.integers(1, 12))
    counts = np.array(
        draw(st.lists(st.integers(0, 50), min_size=size, max_size=size)), dtype=np.float64
    )
    kind = draw(st.sampled_from(["lc", "quarters", "random", "zeros", "all-zero"]))
    if kind == "lc":
        weights = None
    elif kind == "all-zero":
        weights = np.zeros(size)
    else:
        step = 0.25 if kind == "quarters" else 1e-3  # quarters tie often
        weights = step * np.array(
            draw(st.lists(st.integers(1, 4000), min_size=size, max_size=size)), dtype=np.float64
        )
        if kind == "zeros":
            parked = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            weights[np.array(parked)] = 0.0
    rank = np.array(draw(st.permutations(range(size))), dtype=np.int64)
    n = draw(
        st.one_of(
            st.sampled_from([0, 1]),
            st.integers(0, size),
            st.integers(size, 60 * size),
        )
    )
    return counts, weights, rank, n


@settings(max_examples=300, deadline=None)
@given(bursts())
def test_kernel_returns_the_heap_loops_picks_and_counts(burst):
    counts, weights, rank, n = burst
    before = counts.copy()
    picks, after = least_connection_picks(counts, weights, rank, n)
    expected_picks, expected_after = heap_picks(counts, weights, rank, n)
    assert picks.tolist() == expected_picks.tolist()
    assert after.tolist() == expected_after.tolist()
    assert counts.tolist() == before.tolist()  # the input is not written to


@settings(max_examples=150, deadline=None)
@given(bursts(), st.floats(0.0, 1.0))
def test_a_burst_split_in_two_is_the_same_sequence(burst, fraction):
    counts, weights, rank, n = burst
    whole, after = least_connection_picks(counts, weights, rank, n)
    head = int(n * fraction)
    first, between = least_connection_picks(counts, weights, rank, head)
    second, end = least_connection_picks(between, weights, rank, n - head)
    assert first.tolist() + second.tolist() == whole.tolist()
    assert end.tolist() == after.tolist()


def test_a_healthy_subset_is_the_kernel_on_that_subset():
    rng = np.random.default_rng(5)
    for _ in range(50):
        size = int(rng.integers(2, 16))
        router = _LeastConnectionRouter(size, rng.permutation(size), weighted=True)
        weights = np.round(rng.uniform(0.0, 3.0, size) * 4) / 4
        router.set_weights(weights)
        down = np.flatnonzero(rng.random(size) < 0.3)[: size - 1]
        for index in down:
            router.set_healthy(int(index), False)
        counts = rng.integers(0, 20, size).astype(np.float64)
        router.sync(counts, counts, 0.0)
        up = np.setdiff1d(np.arange(size), down)
        expected, _ = heap_picks(counts[up], weights[up], router._rank[up], 200)
        routed = router.route(np.empty(200), None, None)
        assert routed.dtype == np.int32
        assert routed.tolist() == up[expected].tolist()


class TestSerialEpochLc:
    """``lc`` / ``wlc`` have one tie-break: a router synced to the policy's
    live counts before every pick returns what ``select`` returns, open for
    open, across health changes and ``set_weights``."""

    @staticmethod
    def run(seed: int, weighted: bool) -> None:
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 24))
        # Ids whose sorted order is not pool order ("DIP-10" < "DIP-2").
        dips = [f"DIP-{i + 1}" for i in range(size)]
        rank_of = {dip: r for r, dip in enumerate(sorted(dips))}
        policy = (WeightedLeastConnection if weighted else LeastConnection)(dips)
        router = _LeastConnectionRouter(
            size, [rank_of[dip] for dip in dips], weighted=weighted
        )
        one_arrival = np.empty(1)
        open_connections: list[str] = []
        for step in range(600):
            if step % 97 == 40:
                index = int(rng.integers(size))
                healthy = bool(len(policy.healthy_dips) == 1 or rng.random() < 0.4)
                policy.set_healthy(dips[index], healthy)
                router.set_healthy(index, healthy)
            if weighted and step % 150 == 20:
                weights = np.round(rng.uniform(0.0, 2.0, size) * 4) / 4
                policy.set_weights(dict(zip(dips, weights.tolist())))
                router.set_weights(weights)
            live = np.array(
                [policy.view(dip).active_connections for dip in dips], dtype=np.float64
            )
            router.sync(live, live, 0.0)
            picked = policy.select(FLOW)
            assert dips[int(router.route(one_arrival, None, None)[0])] == picked, (
                f"seed {seed}, step {step}"
            )
            policy.on_connection_open(picked)
            open_connections.append(picked)
            while open_connections and rng.random() < 0.45:
                closing = open_connections.pop(int(rng.integers(len(open_connections))))
                policy.on_connection_close(closing)

    def test_lc_router_returns_the_picks_select_makes(self):
        for seed in range(12):
            self.run(seed, weighted=False)

    def test_wlc_router_returns_the_picks_select_makes(self):
        for seed in range(12):
            self.run(seed, weighted=True)
