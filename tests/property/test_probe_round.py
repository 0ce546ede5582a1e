"""``KLM.probe_round`` and ``Fleet.probe_round`` against the per-DIP forms.

A round serves every DIP's batch in one ``Deployment.probe_round``; a
fleet's is one call of the compiled :func:`repro.kernels.probe_round` over
its last evaluation's law rows and rates, in which each DIP draws its drops
and one standard normal per served request from its own generator (through
numpy's C random library) and takes the mean of its latencies.  The
kernel is held to its numpy body in
``tests/oracles/kernels.py`` (the per-DIP draws, then one array pass): the
same means to the bit, the same drops and every generator left in the same
state.  ``probe_dip`` reads its outcome off a one-DIP round.

:func:`reference_probe_dip` below is the per-DIP ``KLM.probe_dip`` /
``DipServer.serve_probe_batch`` the round replaced, kept verbatim bar the
request counters (now a list on the server) and the rate, which the
deployment names instead of the server.  For failed, fully dropped, partly
dropped, zero-jitter and jittered DIPs alike, over several rounds, the
outcomes, the consecutive-failure counts, the served / dropped counters and
every generator's state must be identical.  A fleet's
round must equal the per-server round (``oracles.probes``) at the rates a
full evaluation of the same fleet gives, after every write.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bound
from oracles.probes import (
    DipFailureError,
    ProbeResult,
    ServerDeployment,
    serve_probe_batch,
    serve_probe_round,
)

from repro import kernels
from repro.backends import DipServer, custom_vm_type
from repro.core.config import ProbeConfig
from repro.exceptions import ConfigurationError
from repro.probing import KLM
from repro.probing.klm import ProbeOutcome
from repro.sim.fleet import Fleet


def reference_draw(self: DipServer, mean: float, served: int) -> np.ndarray:
    if self.jitter_fraction == 0:
        return np.full(served, mean)
    draws = self._rng.normal(mean, mean * self.jitter_fraction, size=served)
    return np.maximum(mean * 0.25, draws)


def reference_serve_probe_batch(self: DipServer, rate: float, num_requests: int) -> ProbeResult:
    if self.failed:
        raise DipFailureError(f"DIP {self.dip_id} is down")
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    model = self.latency_model
    drop_p = model.drop_probability(rate)
    drops = int(self._rng.binomial(num_requests, min(1.0, drop_p)))
    served = num_requests - drops
    if served == 0:
        return ProbeResult(
            dip=self.dip_id,
            mean_latency_ms=float("inf"),
            dropped=True,
            samples=0,
            drop_fraction=1.0,
        )
    latencies = reference_draw(
        self, model.mean_latency_ms(rate, scv_correction=self.scv_correction), served
    )
    return ProbeResult(
        dip=self.dip_id,
        mean_latency_ms=float(np.add.reduce(latencies) / served),
        dropped=drops > 0,
        samples=served,
        drop_fraction=drops / num_requests,
    )


def reference_probe_dip(self: KLM, dip_id: str, *, now: float) -> ProbeOutcome:
    server, rate = self.deployment.servers[dip_id], self.deployment.rates[dip_id]
    try:
        result = reference_serve_probe_batch(server, rate, self.config.requests_per_probe)
    except DipFailureError:
        self.consecutive_failures[dip_id] = self.consecutive_failures.get(dip_id, 0) + 1
        return ProbeOutcome(
            dip=dip_id, latency_ms=None, dropped=False, failed=True, timestamp=now
        )

    self.consecutive_failures[dip_id] = 0
    latency = result.mean_latency_ms
    dropped = result.dropped
    if latency == float("inf"):
        outcome = ProbeOutcome(
            dip=dip_id, latency_ms=None, dropped=True, failed=False, timestamp=now
        )
        return outcome
    return ProbeOutcome(
        dip=dip_id, latency_ms=latency, dropped=dropped, failed=False, timestamp=now
    )


#: (cores, capacity, load as a fraction of capacity, jitter, failed); a load
#: of 1e300 drops every request.
dip_shapes = st.tuples(
    st.integers(1, 8),
    st.floats(50.0, 5000.0),
    st.one_of(st.floats(0.0, 1.3), st.just(0.97), st.just(1e300)),
    st.one_of(st.just(0.0), st.just(0.08), st.floats(0.0, 0.5)),
    st.booleans(),
)


def make_klm(shapes, requests: int, seed: int) -> KLM:
    dips, rates = {}, {}
    for i, (cores, capacity, load, jitter, failed) in enumerate(shapes):
        vm = custom_vm_type(f"vm-{i}", vcpus=cores, capacity_rps=capacity)
        server = DipServer(f"d{i}", vm, jitter_fraction=jitter, seed=seed + i)
        rates[server.dip_id] = min(load * capacity, 1e300)
        server.failed = failed
        dips[server.dip_id] = server
    return KLM(
        deployment=ServerDeployment(dips, rates),
        config=ProbeConfig(requests_per_probe=requests),
    )


def pairs(klm: KLM) -> list[tuple[DipServer, float]]:
    """Each of ``klm``'s servers and the rate it is offered."""
    deployment = klm.deployment
    return [(server, deployment.rates[dip]) for dip, server in deployment.servers.items()]


def state(klm: KLM) -> tuple:
    servers = klm.deployment.servers
    return (
        dict(klm.consecutive_failures),
        [s._rng.bit_generator.state for s in servers.values()],
    )


def bits(outcomes: dict) -> list:
    return [
        (o.dip, None if o.latency_ms is None else o.latency_ms.hex(), o.dropped, o.failed)
        for o in outcomes.values()
    ]


def as_round(outcomes: dict) -> dict:
    """The oracle's outcomes as ``probe_round`` reports them."""
    return {dip: (o.latency_ms, o.dropped) for dip, o in outcomes.items()}


@settings(max_examples=80, deadline=None)
@given(
    st.lists(dip_shapes, min_size=1, max_size=9),
    st.one_of(st.integers(1, 5), st.integers(90, 130)),
    st.integers(0, 10_000),
    st.integers(1, 4),
)
@example(
    [
        (4, 1000.0, 0.5, 0.08, False),
        (2, 800.0, 0.97, 0.08, False),
        (1, 400.0, 1e300, 0.08, False),
        (1, 400.0, 0.5, 0.0, False),
        (8, 3200.0, 0.5, 0.08, True),
        (2, 800.0, 0.98, 0.0, False),
    ],
    100,
    17,
    3,
)
def test_round_equals_the_per_dip_loop(shapes, requests, seed, rounds):
    klm, oracle = make_klm(shapes, requests, seed), make_klm(shapes, requests, seed)
    for tick in range(rounds):
        now = 5.0 * tick
        dips = tuple(oracle.deployment.servers)
        want = {dip: reference_probe_dip(oracle, dip, now=now) for dip in dips}
        if tick % 2:
            got = {dip: klm.probe_dip(dip, now=now) for dip in dips}
            assert bits(got) == bits(want)
            assert got == want
        else:
            got = klm.probe_round(dips)
            assert got == as_round(want)
            assert list(got) == list(want)
        assert state(klm) == state(oracle)


@settings(max_examples=40, deadline=None)
@given(dip_shapes, st.integers(1, 150), st.integers(0, 10_000))
def test_one_batch_equals_the_reference(shape, requests, seed):
    shape = (*shape[:4], False)
    ((server, rate),) = pairs(make_klm([shape], requests, seed))
    ((twin, _),) = pairs(make_klm([shape], requests, seed))
    assert serve_probe_batch(server, rate, requests) == reference_serve_probe_batch(
        twin, rate, requests
    )
    assert server._rng.bit_generator.state == twin._rng.bit_generator.state


#: batch sizes around numpy's pairwise-sum blocks: under 8 requests summed in
#: order, up to 128 in eight running sums, past that split in halves.
batch_sizes = st.one_of(
    st.integers(1, 300), st.sampled_from([7, 8, 9, 127, 128, 129, 136, 256, 257, 300])
)


@settings(max_examples=200, deadline=None)
@given(st.lists(dip_shapes, min_size=1, max_size=9), batch_sizes, st.integers(0, 10_000))
@example(
    [
        (2, 800.0, 1.2, 0.08, False),  # about 1 in 6 dropped: partial rows
        (1, 400.0, 1e300, 0.08, False),  # every request dropped
        (4, 1000.0, 0.5, 0.0, False),  # no jitter
        (8, 3200.0, 0.5, 0.08, True),  # down
        (2, 800.0, 0.97, 0.3, False),
    ],
    300,
    17,
)
@example([(2, 800.0, 1.2, 0.08, False)] * 4, 100, 3)
@example([(2, 800.0, 1.3, 0.08, False)] * 4, 7, 5)
def test_the_compiled_round_is_the_numpy_round(shapes, requests, seed):
    servers = pairs(make_klm(shapes, requests, seed))
    twins = pairs(make_klm(shapes, requests, seed))
    means, drops = serve_probe_round(servers, requests)
    with bound():
        want_means, want_drops = serve_probe_round(twins, requests)
    assert [None if m is None else m.hex() for m in means] == [
        None if m is None else m.hex() for m in want_means
    ]
    assert drops == want_drops
    assert all(type(d) is int for d in drops)
    assert [s._rng.bit_generator.state for s, _ in servers] == [
        s._rng.bit_generator.state for s, _ in twins
    ]


def test_a_down_dip_builds_no_generator():
    fleet = Fleet()
    vm = custom_vm_type("vm", vcpus=2, capacity_rps=800.0)
    for i in range(2):
        fleet.add_dip(DipServer(f"d{i}", vm, seed=i))
    fleet.create_vip("v", dip_ids=["d0", "d1"], total_rate_rps=400.0)
    fleet.fail_dip("d1")
    means, drops = fleet.probe_round(("d1", "d0"), 10)
    assert (means[0], drops) == (None, [0, 0])
    assert "_rng" not in fleet.dips["d1"].__dict__
    assert "_rng" in fleet.dips["d0"].__dict__


def round_call(rows=2):
    """A valid ``probe_round`` argument list for ``rows`` live DIPs."""
    row = [2.0, 800.0, 2.5, 64.0, 0.95, 1.0, 400.0, 0.08]
    return [np.array([row] * rows), [np.random.default_rng(i) for i in range(rows)], 10]


def test_the_compiled_round_refuses_what_it_cannot_read():
    probe_round = kernels._compiled().probe_round
    assert probe_round(*round_call(rows=0)) == ([], [])
    outside = np.array([[2.0, 800.0, 2.5, 64.0, 0.95, 1.0, -1.0, 0.08]] * 2)
    for at, bad, error, match in (
        (0, np.ones((2, 8), dtype=np.float32), TypeError, "float64"),
        (0, np.ones((2, 7)), ValueError, "one row of 8"),
        (0, np.ones((3, 8)), ValueError, "one row of 8"),
        (0, np.ones((2, 16))[:, ::2], ValueError, "contiguous"),
        (0, outside, ValueError, "row 0 is outside"),
        (1, 3, TypeError, "sequence"),
        (1, [object(), object()], AttributeError, "bit_generator"),
        (2, 0, ValueError, "num_requests"),
    ):
        call = round_call()
        call[at] = bad
        with pytest.raises(error, match=match):
            probe_round(*call)


#: (cores, capacity, jitter, workload correction, antagonist copies,
#: capacity ratio or None, failed); the first DIP never fails.
fleet_dips = st.tuples(
    st.integers(1, 8),
    st.floats(50.0, 5000.0),
    st.sampled_from([0.0, 0.08, 0.3]),
    st.sampled_from([1.0, 0.4, 2.5]),
    st.integers(0, 3),
    st.one_of(st.none(), st.floats(0.3, 1.0)),
    st.booleans(),
)
#: (member mask, policy, load as a fraction of the members' capacity);
#: VIPs overlap wherever their masks do.
fleet_vips = st.tuples(
    st.integers(1, 2**8 - 1),
    st.sampled_from(["wrr", "rr", "wrandom", "lc", "p2"]),
    st.floats(0.0, 1.3),
)
#: a write and its arguments: new weights, a new load, antagonist copies on a
#: DIP, or a clock step.
fleet_writes = st.one_of(
    st.tuples(st.just("weights"), st.integers(0, 50), st.lists(st.floats(0.0, 9.0), min_size=8, max_size=8)),
    st.tuples(st.just("rate"), st.integers(0, 50), st.floats(0.0, 1.5)),
    st.tuples(st.just("copies"), st.integers(0, 50), st.integers(0, 4)),
    st.tuples(st.just("advance"), st.integers(0, 50), st.floats(0.0, 5.0)),
)


def build_fleet(dip_shapes, vip_shapes, seed: int) -> Fleet:
    fleet = Fleet()
    for i, (cores, capacity, jitter, scv, copies, ratio, failed) in enumerate(dip_shapes):
        vm = custom_vm_type(f"vm-{i}", vcpus=cores, capacity_rps=capacity)
        server = DipServer(
            f"d{i}", vm, jitter_fraction=jitter, seed=seed + i, scv_correction=scv
        )
        server.antagonist.set_copies(copies)
        if ratio is not None:
            server.set_capacity_ratio(ratio)
        server.failed = failed and i > 0
        fleet.add_dip(server)
    ids = list(fleet.dips)
    for j, (mask, policy, load) in enumerate(vip_shapes):
        members = [d for i, d in enumerate(ids) if mask >> i & 1] or ids[:1]
        if all(fleet.dips[d].failed for d in members):
            members.append("d0")
        capacity = sum(fleet.dips[d].capacity_rps for d in members)
        fleet.create_vip(
            f"v{j}",
            dip_ids=members,
            total_rate_rps=load * capacity,
            policy_name=policy,
            weights={d: 1.0 + k for k, d in enumerate(members)},
        )
    fleet.apply()
    return fleet


def write(fleet: Fleet, op: tuple) -> None:
    kind, selector, value = op
    vip_id = sorted(fleet.vips)[selector % len(fleet.vips)]
    vip = fleet.vips[vip_id]
    if kind == "weights":
        fleet.set_weights(vip_id, dict(zip(vip.dips, value)))
    elif kind == "rate":
        capacity = sum(server.capacity_rps for server in vip.dips.values())
        fleet.set_total_rate(vip_id, value * capacity)
    elif kind == "copies":
        fleet.set_antagonist_copies(sorted(fleet.dips)[selector % len(fleet.dips)], value)
    else:
        fleet.advance(value)


def generator_states(fleet: Fleet) -> list:
    return [
        server._rng.bit_generator.state if "_rng" in vars(server) else None
        for server in fleet.dips.values()
    ]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(fleet_dips, min_size=1, max_size=8),
    st.lists(fleet_vips, min_size=1, max_size=4),
    st.lists(fleet_writes, min_size=1, max_size=5),
    st.lists(st.integers(0, 7), min_size=1, max_size=10),
    st.one_of(st.integers(1, 5), st.integers(90, 130)),
    st.integers(0, 10_000),
)
@example(
    [
        (4, 1000.0, 0.08, 1.0, 0, None, False),
        (2, 800.0, 0.08, 2.5, 2, None, False),
        (1, 400.0, 0.0, 0.4, 0, 0.5, False),
        (8, 3200.0, 0.3, 1.0, 1, None, True),
    ],
    [(0b0111, "wrr", 0.9), (0b1110, "rr", 1.2), (0b1011, "lc", 0.5)],
    [("weights", 0, [5.0, 1.0, 0.0, 2.0] * 2), ("rate", 1, 1.4), ("advance", 0, 2.0)],
    [3, 0, 1, 2],
    100,
    17,
)
@example(
    [(2, 800.0, 0.08, 1.0, 0, None, False), (2, 800.0, 0.08, 2.5, 0, 0.6, False)],
    [(0b11, "wrr", 0.5), (0b10, "wrandom", 0.7)],
    [("weights", 0, [1.0, 3.0] * 4), ("rate", 1, 1.3), ("weights", 0, [3.0, 1.0] * 4)],
    [1, 0],
    40,
    5,
)
def test_the_fleets_round_is_the_per_server_round_at_its_rates(
    dip_shapes, vip_shapes, writes, probed, requests, seed
):
    """After every write, a fleet's round equals the per-server round at the
    rates a full evaluation of its twin (the same writes, then ``apply()``)
    gives: on the means' bits, the drops and every generator's state."""
    fleet = build_fleet(dip_shapes, vip_shapes, seed)
    twin = build_fleet(dip_shapes, vip_shapes, seed)
    ids = list(fleet.dips)
    dip_ids = list(dict.fromkeys(ids[i % len(ids)] for i in probed))
    for op in writes:
        write(fleet, op)
        write(twin, op)
        means, drops = fleet.probe_round(dip_ids, requests)
        rates = twin.apply().total_rates_rps
        want_means, want_drops = serve_probe_round(
            [(twin.dips[dip], rates[dip]) for dip in dip_ids], requests
        )
        assert [None if m is None else m.hex() for m in means] == [
            None if m is None else m.hex() for m in want_means
        ]
        assert drops == want_drops
        assert generator_states(fleet) == generator_states(twin)
