"""``KLM.probe_round`` against the per-DIP probe loop it replaced.

A round serves every DIP's batch in one :func:`serve_probe_round`: each DIP
draws its drops and one standard normal per served request from its own
generator, then the latencies and their means are one array pass, and the
store takes the round in one write.  ``probe_dip`` reads its outcome off a
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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.probes import DipFailureError, ProbeResult, serve_probe_batch

from repro.backends import DipServer, custom_vm_type
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
