"""The M/M/c/K latency model: the scalar and the vector mean, and drops.

The law is written once, in the compiled kernels.  A probe round evaluates
it per DIP (``LatencyModel.mean_latency_ms`` / ``drop_probability`` and
``erlang_c`` call it too); ``Fleet`` state and the least-connection fixed
point evaluate whole pools of law rows in one ``kernels.mean_latencies``
call.  Both are held to the Python bodies in ``tests/oracles/kernels.py``
bit for bit at the edges of every branch: rate 0, both sides of the
0.999·capacity switch, past capacity, 1 to 64 servers, a workload
correction, near-zero load (where the Erlang-B recursion's 1/B overflows)
and down DIPs; and the pool rows ``pool_arrays`` builds give the scalar
model's means on antagonist-scaled models.

``drop_probability`` is pinned, not fixed: it is not monotone at capacity
(strict xfail below), so Algorithm 1's drop signal weakens just past it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import kernels as reference

from repro import kernels
from repro.backends import DipServer, custom_vm_type
from repro.backends.latency_model import LatencyModel, erlang_c
from repro.exceptions import ConfigurationError
from repro.sim.fleet import one_vip_fleet
from repro.sim.fluid import pool_arrays

servers = st.integers(1, 64)
capacities = st.floats(50.0, 20_000.0)
#: load as a fraction of capacity: 0, near 0 (1/B overflows), across the
#: 0.999 switch, and past 1.
loads = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 1e-250),
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
    vector = np.empty(len(rates))
    kernels.mean_latencies(pool_arrays(fleet).law, np.array(rates), vector)
    scalar = [
        server.latency_model.mean_latency_ms(rate, scv_correction=server.scv_correction)
        for server, rate in zip(fleet.values(), rates)
    ]
    assert [float(v).hex() for v in vector] == [float(v).hex() for v in scalar]


def law_rows(dips: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Law rows and rates of ``(servers, capacity, load, correction,
    down)`` tuples: a down DIP's row is zeros."""
    rows, rates = [], []
    for cores, capacity, load, correction, down in dips:
        model = LatencyModel(
            servers=cores, capacity_rps=capacity, idle_latency_ms=cores * 1000.0 / capacity
        )
        rows.append((0.0,) * kernels.LAW if down else (*model.law, correction))
        rates.append(load * capacity)
    return np.array(rows, dtype=np.float64).reshape(len(rows), kernels.LAW), np.array(rates)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(servers, capacities, loads, corrections, st.booleans()), max_size=12
    )
)
@example([(64, 1000.0, 1e-300, 1.0, False), (64, 1000.0, 5e-324, 2.5, False)])
@example([(c, 1000.0, 0.999, 1.0, c % 2 == 0) for c in range(1, 9)])
@example([(4, 1000.0, float(np.nextafter(0.999, 0.0)), 3.0, False), (4, 1000.0, 2.0, 1.0, True)])
def test_the_compiled_vector_law_is_the_python_law(dips):
    law, rates = law_rows(dips)
    ours, theirs = np.empty(len(dips)), np.empty(len(dips))
    kernels.mean_latencies(law, rates, ours)
    reference.mean_latencies(law, rates, theirs)
    assert [v.hex() for v in ours.tolist()] == [v.hex() for v in theirs.tolist()]
    assert all(v == np.inf for v, (*_, down) in zip(ours.tolist(), dips) if down)


def test_the_compiled_vector_law_refuses_what_it_cannot_read():
    mean_latencies = kernels._compiled().mean_latencies
    law, rates = law_rows([(2, 800.0, 0.5, 1.0, False), (2, 800.0, 0.0, 1.0, True)])
    assert mean_latencies(law[:0], rates[:0], np.empty(0)) is None
    read_only = np.empty(2)
    read_only.flags.writeable = False
    outside = law.copy()
    outside[0, 0] = 2.5  # servers
    for at, bad, error, match in (
        (0, law.astype(np.float32), TypeError, "float64"),
        (0, law.reshape(-1), ValueError, "one row of 6"),
        (0, np.ones((2, 5)), ValueError, "one row of 6"),
        (0, np.ones((3, 6)), ValueError, "one row of 6"),
        (1, np.ones(3), ValueError, "one row of 6"),
        (2, np.empty(3), ValueError, "one row of 6"),
        (0, np.ones((2, 12))[:, ::2], ValueError, "contiguous"),
        (1, np.ones(4)[::2], ValueError, "contiguous"),
        (2, np.empty(4)[::2], ValueError, "contiguous"),
        (2, read_only, ValueError, "read-only"),
        (0, outside, ValueError, "row 0 is outside"),
    ):
        call = [law, rates, np.empty(2)]
        call[at] = bad
        with pytest.raises(error, match=match):
            mean_latencies(*call)


def test_a_negative_rate_is_a_configuration_error():
    law, rates = law_rows([(2, 800.0, 0.5, 1.0, False), (2, 800.0, 0.0, 1.0, True)])
    for body in (kernels.mean_latencies, reference.mean_latencies):
        for bad in (-1.0, float("nan")):
            for at in (0, 1):  # a down DIP's rate is checked too
                call = rates.copy()
                call[at] = bad
                with pytest.raises(ConfigurationError, match="rates must be >= 0"):
                    body(law, call, np.empty(2))
    # What the fleet's lc fixed point meets after a direct edit of a rate.
    vm = custom_vm_type("vm", vcpus=2, capacity_rps=800.0)
    fleet = one_vip_fleet({"d": DipServer("d", vm, seed=0)}, 100.0, "lc")
    fleet.vips["vip"].total_rate_rps = -5.0
    with pytest.raises(ConfigurationError, match="rates must be >= 0"):
        fleet.apply()


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


def edges(rate: float) -> list[float]:
    """``rate`` and the floats either side of it."""
    return [float(np.nextafter(rate, 0.0)), rate, float(np.nextafter(rate, np.inf))]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 64),
    st.sampled_from([1000.0, 800.0, 400.0]) | st.floats(50.0, 20_000.0),
    st.sampled_from([0.95, 0.5, 1.0]) | st.floats(0.05, 1.0),
    st.sampled_from(["zero", "drop", "saturation", "capacity", "any"]),
    st.floats(0.0, 3.0),
    st.sampled_from([1.0, 2.5, 0.0]) | st.floats(0.0, 8.0),
)
@example(4, 1000.0, 0.95, "drop", 0.0, 1.0)  # utilization exactly drop_utilization
@example(4, 1000.0, 0.95, "capacity", 0.0, 1.0)  # exactly 1.0: the ``or 0.01`` loss
@example(64, 1000.0, 0.95, "saturation", 0.0, 2.5)
def test_the_compiled_law_is_the_python_law(cores, capacity, drop_at, edge, load, correction):
    model = LatencyModel(
        servers=cores, capacity_rps=capacity, idle_latency_ms=cores * 1000.0 / capacity,
        drop_utilization=drop_at,
    )
    rates = {
        "zero": [0.0],
        "drop": edges(drop_at * capacity),
        "saturation": edges(capacity * 0.999),
        "capacity": edges(capacity),
        "any": [load * capacity],
    }[edge]
    for rate in rates:
        mean = reference.mean_latency(
            cores, capacity, model.idle_latency_ms, model.max_queue, rate, correction
        )
        drop = reference.drop_probability(capacity, drop_at, rate)
        assert model.mean_latency_ms(rate, scv_correction=correction).hex() == float(mean).hex()
        assert model.drop_probability(rate).hex() == drop.hex()
        offered = rate / (capacity / cores)  # the Erlangs the mean queues at
        assert erlang_c(cores, offered).hex() == reference.erlang_c(cores, offered).hex()


def test_the_edges_the_law_is_drawn_at():
    model = LatencyModel(servers=4, capacity_rps=1000.0, idle_latency_ms=4.0)
    assert 950.0 / 1000.0 == model.drop_utilization  # exactly at the drop threshold
    assert model.drop_probability(950.0) == 0.0
    assert model.drop_probability(1000.0) == 0.01  # exactly 1.0: the ``or 0.01`` loss
    assert model.mean_latency_ms(0.0) == 4.0


def test_the_law_keeps_its_checks():
    model = LatencyModel(servers=2, capacity_rps=800.0, idle_latency_ms=2.5)
    for call in (model.mean_latency_ms, model.drop_probability):
        with pytest.raises(ConfigurationError, match="rate_rps must be >= 0"):
            call(-1.0)
    with pytest.raises(ConfigurationError, match="servers must be >= 1"):
        erlang_c(0, 1.0)
    with pytest.raises(ConfigurationError, match="offered_load must be >= 0"):
        erlang_c(2, -1.0)
