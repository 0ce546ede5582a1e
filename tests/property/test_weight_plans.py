"""Differential tests: the weight-plan picks against per-pick oracles.

``wrr``, ``wrandom`` and the ``dns`` resolver pick from a plan (candidate
ids, effective weights, a total or a CDF) that is rebuilt only when the
pool, its health or its weights change.  :class:`Reference` is what they
replaced, kept here as the oracle: plain Python that recomputes everything
on every pick — the smooth-WRR loop over a dict of scores, and
``rng.choice(n, p=w / total)`` for the two random laws.  Hypothesis drives a
policy and the reference with one command stream and every pick must agree;
for ``wrr`` so must every accumulator, to the last bit.  The ``rng.choice``
oracle is also what notices a numpy release that samples differently.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.lb import FlowKey, WeightedDnsResolver, WeightedRandom, WeightedRoundRobin

FLOW = FlowKey(src_ip="10.1.0.1", src_port=1024, dst_ip="10.0.0.1", dst_port=80)


class Reference:
    """Pool state plus the two weighted laws, nothing cached between picks."""

    def __init__(self, dips, seed=None):
        self.weight = dict.fromkeys(dips, 1.0)
        self.healthy = dict.fromkeys(dips, True)
        self.current = dict.fromkeys(dips, 0.0)
        self.rng = np.random.default_rng(seed)

    def set_weights(self, weights):
        self.weight.update(weights)
        self.current = dict.fromkeys(self.weight, 0.0)

    def set_healthy(self, dip, healthy):
        self.healthy[dip] = healthy

    def add_dip(self, dip, weight):
        self.weight[dip] = weight
        self.healthy[dip] = True
        self.current[dip] = 0.0

    def _candidates(self):
        candidates = [dip for dip, ok in self.healthy.items() if ok]
        if not candidates:
            raise ConfigurationError("no healthy DIPs available")
        weights = [max(0.0, self.weight[dip]) for dip in candidates]
        if not any(weights):
            weights = [1.0] * len(candidates)
        return candidates, weights

    def wrr_pick(self):
        candidates, weights = self._candidates()
        # Left to right, spelled out: the builtin sum is compensated from
        # Python 3.12 on and would not be the same number.
        total = 0.0
        for weight in weights:
            total += weight
        best, best_score = None, float("-inf")
        for dip, weight in zip(candidates, weights):
            self.current[dip] += weight
            if self.current[dip] > best_score:
                best, best_score = dip, self.current[dip]
        self.current[best] -= total
        return best

    def choice_pick(self):
        candidates, weights = self._candidates()
        weights = np.array(weights, dtype=float)
        index = self.rng.choice(len(candidates), p=weights / weights.sum())
        return candidates[int(index)]


# Zeros, ties and simple fractions often; anything non-negative sometimes.
WEIGHT = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)
# DIPs are addressed by position modulo the pool size at the time.
MAX_DIPS = 24
POSITION = st.integers(0, MAX_DIPS - 1)
PICKS = st.tuples(st.just("pick"), st.integers(1, 60))
SET_WEIGHTS = st.tuples(
    st.just("set_weights"), st.dictionaries(POSITION, WEIGHT, min_size=1)
)
ALL_ZERO = st.tuples(
    st.just("set_weights"), st.just(dict.fromkeys(range(MAX_DIPS), 0.0))
)
# A full vector of unrelated floats (normalised or not): the case where
# summation order shows in the last bit of the total.
REWEIGH = st.tuples(st.just("reweigh"), st.integers(0, 2**16), st.booleans())
SET_HEALTHY = st.tuples(st.just("set_healthy"), POSITION, st.booleans())
ADD_DIP = st.tuples(st.just("add_dip"), WEIGHT)

POOL_SIZE = st.integers(1, MAX_DIPS)
POOL_COMMANDS = st.lists(
    st.one_of(
        PICKS, PICKS, SET_WEIGHTS, ALL_ZERO, REWEIGH, SET_HEALTHY, ADD_DIP
    ),
    max_size=25,
)


def pool(num_dips):
    return [f"DIP-{i + 1}" for i in range(num_dips)]


def outcome(pick):
    try:
        return pick()
    except ConfigurationError:
        return "no healthy DIP"


def drive(commands, num_dips, subject, pick, reference, reference_pick, check=None):
    """Apply ``commands`` to ``subject`` and ``reference`` alike; every pick
    (or refusal to pick) must agree, and ``check`` must hold after each command."""
    dips = pool(num_dips)
    for kind, *args in commands:
        if kind == "pick":
            for _ in range(args[0]):
                assert outcome(pick) == outcome(reference_pick)
        elif kind in ("set_weights", "reweigh"):
            if kind == "reweigh":
                vector = np.random.default_rng(args[0]).uniform(0.0, 2.0, len(dips))
                if args[1]:
                    vector /= vector.sum()
                weights = dict(zip(dips, vector.tolist()))
            else:
                weights = {dips[i % len(dips)]: w for i, w in args[0].items()}
            subject.set_weights(weights)
            reference.set_weights(weights)
        elif kind == "set_healthy":
            dip = dips[args[0] % len(dips)]
            subject.set_healthy(dip, args[1])
            reference.set_healthy(dip, args[1])
        else:  # add_dip
            dip = f"DIP-{len(dips) + 1}"
            dips.append(dip)
            subject.add_dip(dip, weight=args[0])
            reference.add_dip(dip, args[0])
        if check is not None:
            check()


class TestWeightPlansAgainstOracles:
    @given(num_dips=POOL_SIZE, commands=POOL_COMMANDS)
    @settings(max_examples=150, deadline=None)
    def test_wrr_picks_and_accumulators(self, num_dips, commands):
        policy = WeightedRoundRobin(pool(num_dips))
        reference = Reference(pool(num_dips))

        def same_accumulators():
            assert policy.accumulators() == reference.current

        drive(
            commands, num_dips, policy, lambda: policy.select(FLOW),
            reference, reference.wrr_pick, check=same_accumulators,
        )

    @given(num_dips=POOL_SIZE, commands=POOL_COMMANDS, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_wrandom_picks(self, num_dips, commands, seed):
        policy = WeightedRandom(pool(num_dips), seed=seed)
        reference = Reference(pool(num_dips), seed=seed)
        drive(
            commands, num_dips, policy, lambda: policy.select(FLOW),
            reference, reference.choice_pick,
        )

    @given(num_dips=POOL_SIZE, commands=POOL_COMMANDS, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_dns_resolutions(self, num_dips, commands, seed):
        resolver = WeightedDnsResolver(pool(num_dips), seed=seed)
        reference = Reference(pool(num_dips), seed=seed)
        drive(
            commands, num_dips, resolver, resolver.resolve,
            reference, reference.choice_pick,
        )
