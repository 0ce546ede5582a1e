"""The fluid (rate-based) model's pool arrays and splits, vectorized over
whole DIP pools.

The fluid model maps an aggregate VIP request rate and an LB policy to
per-DIP arrival rates, then uses each DIP's analytic latency model to derive
utilization and mean latency.  It is the fast substrate the KnapsackLB
controller runs against for exploration, dynamics and large-scale (Table 6,
Table 8) studies; the request-level simulator in :mod:`repro.sim.cluster`
cross-checks the resulting latency distributions.

A pool is one matrix of the DIPs' law rows (:class:`PoolArrays`), which the
compiled M/M/c/K law (:func:`repro.kernels.mean_latencies`) evaluates in
one call.  This is what lets :class:`repro.sim.fleet.Fleet` evaluate
thousands of DIPs shared by many VIPs per control interval.

Each policy declares its fluid split on its :mod:`repro.lb` class
(:class:`repro.lb.base.FluidSplit`): an equal split of the arrival rate, a
split proportional to weight (both here), or a fixed point of its own over
the pool's law rows (least connection, power of two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import kernels
from repro.backends.dip import DipServer
from repro.core.types import DipId


@dataclass(frozen=True)
class PoolArrays:
    """A DIP pool flattened for one-shot evaluation: its ids and one
    C-contiguous row per DIP of :attr:`DipServer.law` (the current model,
    after antagonist capacity scaling; a down DIP's row is zeros), so it
    must be rebuilt when a DIP's capacity, correction or health changes.
    """

    ids: tuple[DipId, ...]
    #: ``len(ids)`` x :data:`repro.kernels.LAW` float64 law rows.
    law: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ids)


def pool_arrays(dips: Mapping[DipId, DipServer]) -> PoolArrays:
    """Flatten ``dips`` (their current law rows) into :class:`PoolArrays`."""
    ids = tuple(dips)
    law = np.array([dips[d].law for d in ids], dtype=np.float64)
    return PoolArrays(ids=ids, law=law.reshape(len(ids), kernels.LAW))


# ---------------------------------------------------------------------------
# load-independent splits
# ---------------------------------------------------------------------------


def equal_split_array(n: int, total_rate_rps: float) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    return np.full(n, total_rate_rps / n)


#: below this, ``total_rate * weight`` products land in the subnormal range
#: and lose the bits the division needs (2**-960 leaves the summed rounding
#: error of the sub-``tiny`` products under 2**-100 of the total).
_MIN_EXACT_PRODUCT = 2.0**-960


def weighted_split_array(weights: np.ndarray, total_rate_rps: float) -> np.ndarray:
    """Division proportional to (non-negative) weights; equal when all zero."""
    positive = np.maximum(0.0, np.asarray(weights, dtype=np.float64))
    total = positive.sum()
    if total <= 0:
        return equal_split_array(len(positive), total_rate_rps)
    if total_rate_rps * total < _MIN_EXACT_PRODUCT:
        # Subnormal weights: normalise first (the quotients are ordinary
        # fractions).  Every other split keeps multiply-then-divide, whose
        # roundings per-seed artifacts depend on.
        return total_rate_rps * (positive / total)
    return total_rate_rps * positive / total
