"""The M/M/c/K latency model: the scalar and the vector mean, and drops.

A probe round keeps the scalar ``LatencyModel.mean_latency_ms`` per DIP
(seven scalar calls cost less than one vector pass at a VIP's size), while
``Fleet`` state reads ``vector_mean_latency_ms``; the two must be one model,
element for element and bit for bit, below and past the 0.99·capacity
switch, at rate 0, with a workload correction and on antagonist-scaled
models.

``drop_probability`` is pinned, not fixed: it is not monotone at capacity
(strict xfail below), so Algorithm 1's drop signal weakens just past it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import DipServer, custom_vm_type
from repro.backends.latency_model import LatencyModel
from repro.sim.fluid import pool_arrays, vector_mean_latency_ms

servers = st.integers(1, 16)
capacities = st.floats(50.0, 20_000.0)
#: load as a fraction of capacity: 0, across the 0.999 switch, and past 1.
loads = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.998),
    st.floats(0.9985, 0.9995),
    st.sampled_from([0.999, np.nextafter(0.999, 0.0), np.nextafter(0.999, 1.0)]),
    st.floats(1.0, 3.0),
)
corrections = st.one_of(st.just(1.0), st.floats(0.0, 8.0))
factors = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(servers, capacities, loads, corrections, factors), min_size=1, max_size=8
    )
)
@example([(c, 1000.0, 0.0, 1.0, 1.0) for c in range(1, 17)])
@example([(4, 1000.0, 0.999, 2.5, 0.6), (16, 1000.0, 1.0, 1.0, 1.0)])
def test_scalar_and_vector_means_are_one_model(dips):
    fleet: dict[str, DipServer] = {}
    rates = []
    for i, (cores, capacity, load, correction, factor) in enumerate(dips):
        vm = custom_vm_type(f"vm-{i}", vcpus=cores, capacity_rps=capacity)
        server = DipServer(f"d{i}", vm, seed=i, scv_correction=correction)
        if factor < 1.0:
            server.set_capacity_ratio(factor)
        fleet[server.dip_id] = server
        rates.append(load * server.capacity_rps)
    vector = vector_mean_latency_ms(pool_arrays(fleet), np.array(rates)).tolist()
    scalar = [
        server.latency_model.mean_latency_ms(rate, scv_correction=server.scv_correction)
        for server, rate in zip(fleet.values(), rates)
    ]
    assert [float(v).hex() for v in vector] == [float(v).hex() for v in scalar]


@pytest.mark.xfail(
    strict=True,
    reason="known model bug: drop_probability falls from 0.049 at 0.999 "
    "capacity to 0.001 at 1.001 (ROADMAP item 8 (vii))",
)
@settings(max_examples=200, deadline=None)
@given(
    servers,
    st.floats(0.5, 0.99),
    st.lists(st.floats(0.9, 1.1), min_size=2, max_size=2),
)
@example(4, 0.95, [0.999, 1.001])
def test_drop_probability_is_monotone_in_load(cores, drop_utilization, loads):
    model = LatencyModel(
        servers=cores,
        capacity_rps=1000.0,
        idle_latency_ms=2.0,
        drop_utilization=drop_utilization,
    )
    low, high = sorted(loads)
    assert model.drop_probability(low * 1000.0) <= model.drop_probability(high * 1000.0)
