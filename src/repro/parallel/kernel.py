"""The per-DIP simulation kernel behind sharded request-level runs.

Once the shard planner has established that routing is queue- and
flow-independent (see :mod:`repro.parallel.planner`), each DIP is an
M/M/c/K station fed by its own arrival sub-stream, independent of every
other DIP.  That unlocks two things the general event-loop engine cannot
do:

* **vectorized stream generation** — the VIP-wide Poisson arrival times
  and the per-request DIP assignment are drawn in bulk numpy calls, then
  sliced per DIP (``times[d::n]`` for round robin's cyclic law, boolean
  masks for the i.i.d. laws);
* **a tight per-station recursion** — FCFS service order equals arrival
  order, so each DIP's arrivals walk the Kiefer-Wolfowitz recursion,
  :func:`repro.sim.queueing.simulate_station` (re-exported here; the
  serial replay and the epoch shards drive the same
  :class:`~repro.sim.queueing.StationWalk`).  No event heap, no
  callbacks, no per-request objects.

Determinism: every stream hangs off :class:`numpy.random.SeedSequence`
children keyed by the run seed and the DIP's **global** pool index — never
its shard — so the merged run is bit-identical across repeats *and* across
shard counts for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.lb.base import effective_weights

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
    """Entropy for the VIP-wide arrival stream (+ per-request assignment)."""
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


def poisson_arrival_times(
    rng: np.random.Generator, rate_rps: float, horizon_s: float
) -> np.ndarray:
    """Sorted Poisson arrival times over ``[0, horizon_s)``, drawn in bulk."""
    if rate_rps <= 0:
        raise ConfigurationError("rate_rps must be positive")
    if horizon_s <= 0:
        return np.empty(0, dtype=np.float64)
    chunks: list[np.ndarray] = []
    clock = 0.0
    remaining = horizon_s
    while True:
        # Slight overdraw so one chunk usually suffices; the loop covers the
        # Poisson tail where the draw falls short of the horizon.
        size = max(1024, int(rate_rps * remaining * 1.02) + 64)
        times = np.cumsum(rng.exponential(1.0 / rate_rps, size=size))
        times += clock
        chunks.append(times)
        clock = float(times[-1])
        if clock >= horizon_s:
            break
        remaining = horizon_s - clock
    times = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return times[: int(np.searchsorted(times, horizon_s, side="left"))]


def assign_dips(
    rng: np.random.Generator,
    n_arrivals: int,
    *,
    routing: str,
    probabilities: np.ndarray,
) -> np.ndarray | None:
    """Per-request DIP index for the i.i.d. routing laws (``None`` = cyclic).

    The cyclic law needs no assignment array at all — DIP ``d``'s stream is
    the slice ``times[d::n]`` — so it returns ``None`` and the caller
    slices.  The i.i.d. laws draw one uniform per request and invert the
    CDF with ``searchsorted`` (one vectorized call, not one
    ``Generator.choice`` per request).
    """
    num_dips = probabilities.shape[0]
    if routing == "cyclic":
        return None
    if routing == "iid-uniform":
        return rng.integers(num_dips, size=n_arrivals, dtype=np.int32)
    if routing == "iid-weighted":
        cdf = np.cumsum(probabilities)
        cdf[-1] = 1.0  # guard float drift so the last bucket is reachable
        draws = rng.random(n_arrivals)
        return np.searchsorted(cdf, draws, side="right").astype(np.int32)
    raise ConfigurationError(f"unknown routing law {routing!r}")


def build_dip_arrival_streams(
    *,
    seed: int,
    rate_rps: float,
    horizon_s: float,
    num_dips: int,
    routing: str,
    probabilities: np.ndarray | None = None,
    wanted: set[int] | None = None,
) -> dict[int, np.ndarray]:
    """Arrival-time arrays per global DIP index for one run.

    Every worker regenerates the *same* VIP-wide stream (same seed, same
    bulk draws) and keeps only the ``wanted`` indices — cheaper than
    shipping arrays between processes, and trivially consistent.
    """
    if probabilities is None:
        probabilities = np.full(num_dips, 1.0 / num_dips)
    else:
        weights = effective_weights(np.asarray(probabilities, dtype=np.float64))
        probabilities = weights / weights.sum()
    rng = np.random.default_rng(arrival_seed(seed))
    times = poisson_arrival_times(rng, rate_rps, horizon_s)
    assignment = assign_dips(
        rng, times.size, routing=routing, probabilities=probabilities
    )
    indices = range(num_dips) if wanted is None else sorted(wanted)
    if assignment is None:
        return {d: times[d::num_dips] for d in indices}
    return {d: times[assignment == d] for d in indices}
