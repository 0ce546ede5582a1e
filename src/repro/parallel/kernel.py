"""Seed lanes and the station recursion behind sharded request-level runs.

Every shard of a sharded run (:mod:`repro.parallel.shard`) replays the
VIP-wide arrival stream and the routing decisions from the run seed, and
walks only its own DIPs' stations.  Each DIP is an M/M/c/K station whose
FCFS service order equals arrival order, so its arrivals walk the
Kiefer-Wolfowitz recursion — :class:`~repro.sim.queueing.StationWalk`,
which :func:`repro.sim.queueing.simulate_station` (re-exported here) runs
over an array of services.  No event heap, no callbacks, no per-request
objects.

Determinism: every stream hangs off :class:`numpy.random.SeedSequence`
children keyed by the run seed and, for service draws, the DIP's
**global** pool index — never its shard — so the merged run is
bit-identical across repeats *and* across shard counts for a fixed seed.
"""

from __future__ import annotations

import numpy as np

# The station recursion lives beside DipStation (sim is below parallel in
# the layer map); this module stays its import path for the parallel layer.
from repro.sim.queueing import StationOutcome as StationOutcome
from repro.sim.queueing import simulate_station as simulate_station

# SeedSequence lanes for the independent substreams of one run.  The lane
# markers are non-zero and every key ends in a non-zero word: SeedSequence
# zero-pads its entropy pool, so ``[s]``, ``[s, 0]`` and ``[s, 0, 0]`` all
# collide — a trailing-zero key would silently reuse another stream.
_ARRIVAL_LANE = 0x5EED01
_SERVICE_LANE = 0x5EED02
_FLOW_LANE = 0x5EED03
_ROUTER_LANE = 0x5EED04


def arrival_seed(seed: int) -> np.random.SeedSequence:
    """Entropy for the VIP-wide arrival stream."""
    return np.random.SeedSequence([int(seed) & 0xFFFFFFFF, _ARRIVAL_LANE])


def service_seed(seed: int, dip_index: int) -> np.random.SeedSequence:
    """Entropy for one DIP's service draws, keyed by its *global* index."""
    return np.random.SeedSequence(
        [int(seed) & 0xFFFFFFFF, _SERVICE_LANE, int(dip_index) + 1]
    )


def flow_seed(seed: int) -> np.random.SeedSequence:
    """Entropy for the per-request flow draws (client index per arrival)."""
    return np.random.SeedSequence([int(seed) & 0xFFFFFFFF, _FLOW_LANE])


def router_seed(seed: int, slot: int, replica: int = 0) -> np.random.SeedSequence:
    """Entropy for one epoch-router's private randomness.

    ``slot`` separates policies (p2 pair sampling, DNS resolution, the
    i.i.d. pickers) and ``replica`` separates per-MUX policy instances.
    Every replica of the *same* router across shards uses the same seed —
    that is what keeps the replayed routing identical everywhere.
    """
    return np.random.SeedSequence(
        [int(seed) & 0xFFFFFFFF, _ROUTER_LANE, int(slot), int(replica) + 1]
    )
