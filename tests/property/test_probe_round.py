"""``KLM.probe_round`` against the per-DIP probe loop it replaced.

A round serves every DIP's batch in one :func:`serve_probe_round`: one call
of the compiled :func:`repro.kernels.probe_round`, in which each DIP draws
its drops and one standard normal per served request from its own generator
(through numpy's C random library) and takes the mean of its latencies, and
the store takes the round in one write.  The kernel is held to its numpy
body in ``tests/oracles/kernels.py`` (the per-DIP draws, then one array
pass): the same means to the bit, the same drops and every generator left
in the same state.  ``probe_dip`` reads its outcome off a
one-DIP round.  :func:`reference_probe_dip` below is
the per-DIP ``KLM.probe_dip`` / ``DipServer.serve_probe_batch`` it
replaced, kept verbatim bar the request counters (now a list on the
server).  For failed, fully dropped, partly dropped, zero-jitter and
jittered DIPs alike, over several rounds, the outcomes, the stored samples,
the consecutive-failure counts, the served / dropped counters and every
generator's state must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bound
from oracles.probes import DipFailureError, ProbeResult, serve_probe_batch

from repro import kernels
from repro.backends import DipServer, custom_vm_type
from repro.backends.dip import serve_probe_round
from repro.core.config import ProbeConfig
from repro.core.types import LatencySample
from repro.exceptions import ConfigurationError
from repro.probing import KLM, LatencyStore
from repro.probing.klm import ProbeOutcome


def reference_draw(self: DipServer, mean: float, served: int) -> np.ndarray:
    if self.jitter_fraction == 0:
        return np.full(served, mean)
    draws = self._rng.normal(mean, mean * self.jitter_fraction, size=served)
    return np.maximum(mean * 0.25, draws)


def reference_serve_probe_batch(self: DipServer, num_requests: int) -> ProbeResult:
    if self.failed:
        raise DipFailureError(f"DIP {self.dip_id} is down")
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    model = self.latency_model
    rate = self.offered_rate_rps
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
    server = self.dips[dip_id]
    try:
        result = reference_serve_probe_batch(server, self.config.requests_per_probe)
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
    sample = LatencySample(
        dip=dip_id,
        latency_ms=latency,
        timestamp=now,
        dropped=dropped,
    )
    self.store.write(self.vip, sample)
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
    dips = {}
    for i, (cores, capacity, load, jitter, failed) in enumerate(shapes):
        vm = custom_vm_type(f"vm-{i}", vcpus=cores, capacity_rps=capacity)
        server = DipServer(f"d{i}", vm, jitter_fraction=jitter, seed=seed + i)
        server.set_offered_rate(min(load * capacity, 1e300))
        server.failed = failed
        dips[server.dip_id] = server
    return KLM(
        vip="v",
        dips=dips,
        store=LatencyStore(max_samples_per_dip=3),
        config=ProbeConfig(requests_per_probe=requests),
    )


def state(klm: KLM) -> tuple:
    return (
        [s for dip in klm.dips for s in klm.store.samples("v", dip)],
        dict(klm.consecutive_failures),
        [s._rng.bit_generator.state for s in klm.dips.values()],
        (klm.store.stats.writes, klm.store.stats.evictions),
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
        want = {dip: reference_probe_dip(oracle, dip, now=now) for dip in oracle.dips}
        if tick % 2:
            got = {dip: klm.probe_dip(dip, now=now) for dip in klm.dips}
            assert bits(got) == bits(want)
            assert got == want
        else:
            got = klm.probe_round(tuple(klm.dips), now=now)
            assert got == as_round(want)
            assert list(got) == list(want)
        assert state(klm) == state(oracle)


@settings(max_examples=40, deadline=None)
@given(dip_shapes, st.integers(1, 150), st.integers(0, 10_000))
def test_one_batch_equals_the_reference(shape, requests, seed):
    shape = (*shape[:4], False)
    server = make_klm([shape], requests, seed).dips["d0"]
    twin = make_klm([shape], requests, seed).dips["d0"]
    assert serve_probe_batch(server, requests) == reference_serve_probe_batch(twin, requests)
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
    servers = list(make_klm(shapes, requests, seed).dips.values())
    twins = list(make_klm(shapes, requests, seed).dips.values())
    means, drops = serve_probe_round(servers, requests)
    with bound():
        want_means, want_drops = serve_probe_round(twins, requests)
    assert [None if m is None else m.hex() for m in means] == [
        None if m is None else m.hex() for m in want_means
    ]
    assert drops == want_drops
    assert all(type(d) is int for d in drops)
    assert [s._rng.bit_generator.state for s in servers] == [
        s._rng.bit_generator.state for s in twins
    ]


def test_a_down_dip_builds_no_generator():
    (server,) = make_klm([(2, 800.0, 0.5, 0.08, True)], 10, 1).dips.values()
    assert serve_probe_round([server], 10) == ([None], [0])
    assert "_rng" not in server.__dict__


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
