"""Least-connection and weighted least-connection policies.

The paper's §2.1 analysis of least connection (LCA) hinges on its real
behaviour: it equalises the number of *concurrent* connections across DIPs,
which overloads low-capacity DIPs that hold on to connections for longer.
Our implementation reproduces exactly that dynamic because the simulator
maintains ``active_connections`` per DIP through the connection lifecycle
callbacks.

Between two updates of those counts from outside — the epoch engine's
barriers (:mod:`repro.parallel.epoch`) — a pick moves nothing but its own
DIP's count, so a whole burst of picks is a closed-form function of the
counts it starts from: :func:`least_connection_picks` is the one statement
of that, and ``select`` on live counts is its ``n = 1`` case
(``tests/property/test_least_connection_kernel.py`` holds the two together).

In the fluid model the policy's split is the equilibrium it settles to,
:func:`least_connection_split_array`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro import kernels
from repro.core.types import DipId
from repro.lb.base import FlowKey, FluidSplit, Policy, register_policy

#: the weight a DIP programmed to zero (or below) is scored with.
_ZERO_WEIGHT = 1e-9
#: the fluid fixed point's iteration cap and damping.
_ITERATIONS = 200
_DAMPING = 0.5


def least_connection_picks(
    counts: np.ndarray, weights: np.ndarray | None, rank: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The next ``n`` picks of ``lc`` / ``wlc`` and the counts after them.

    ``counts`` are the candidates' connection counts (integer-valued
    floats), ``weights`` their programmed weights (``None`` for ``lc``) and
    ``rank`` each candidate's position among the sorted DIP ids — the
    serial ``(score, dip id)`` tie-break.  Nothing but the picks themselves
    may move the counts in between.  Picks index into ``counts``.

    DIP ``i``'s ``k``-th pick from here carries the key ``((c_i + k) / w_i,
    rank_i)``, increasing in ``k``, and picking the smallest key each time
    merges those streams: the answer is the ``n`` smallest keys, in order.
    The water-filling level ``T`` with ``sum(max(0, T * w_i - c_i)) = n``
    bounds them — DIP ``i`` has ``floor(T * w_i - c_i) + 1`` keys at or
    below ``T``, which is more than ``T * w_i - c_i``, so those prefixes
    hold at least ``n`` keys (and at most one spare per DIP) and every key
    left out is above every key in them.  One sort finds ``T``, one
    ``lexsort`` orders the keys; no per-pick step.
    """
    counts = np.asarray(counts, dtype=np.float64)
    size = counts.size
    if n <= 0:
        return np.empty(0, dtype=np.intp), counts.copy()
    if weights is None:
        w = np.ones(size)
    else:
        w = np.where(weights > 0, weights, _ZERO_WEIGHT)
    # The level: over the j DIPs of lowest c / w it is (n + sum c) / sum w,
    # for the largest j whose own c / w the first j - 1 reach within n.
    ratio = counts / w
    by_ratio = ratio.argsort()
    w_sum = w[by_ratio].cumsum()
    c_sum = counts[by_ratio].cumsum()
    j = int(np.searchsorted(ratio[by_ratio] * w_sum - c_sum, n, side="right")) - 1
    # Rounding in the sums must not drop a key that ties the n-th: lift the
    # level by far more than it can err (a spare key costs one sort slot).
    level = (n + c_sum[j]) / w_sum[j] * (1.0 + 1e-9)
    take = np.maximum(np.floor(level * w - counts) + 1.0, 0.0).astype(np.intp)
    dip = np.repeat(np.arange(size), take)
    ahead = np.arange(dip.size) - np.repeat(take.cumsum() - take, take)
    # The float expression the serial score evaluates, so ties are its ties.
    score = (counts[dip] + ahead) / w[dip]
    picks = dip[np.lexsort((rank[dip], score))[:n]]
    return picks, counts + np.bincount(picks, minlength=size)


def least_connection_split_array(
    law: np.ndarray,
    total_rate_rps: float,
    *,
    weights: np.ndarray | None = None,
    background_rps: np.ndarray | float = 0.0,
) -> np.ndarray:
    """The fluid equilibrium of (weighted) least-connection selection over
    DIPs of law rows ``law`` (:mod:`repro.kernels`).

    At equilibrium the number of concurrent connections per unit weight is
    equal across DIPs: ``λ_d · T_d(λ_d) / weight_d = const``.  We iterate
    ``λ_d ∝ weight_d / T_d(λ_d)`` with damping until the split stabilises.
    This is exactly why LCA still overloads slow DIPs (§2.1): equal
    *concurrency* is not equal *utilization*.  ``background_rps`` is load
    the DIPs carry from *other* VIPs of a shared fleet; it shifts the
    latencies but is not part of the split itself.
    """
    n = len(law)
    if n == 0:
        return np.zeros(0)
    weight_vec = np.ones(n)
    if weights is not None:
        weight_vec = np.maximum(_ZERO_WEIGHT, np.asarray(weights, dtype=np.float64))
    rates = np.full(n, total_rate_rps / n)
    latencies = np.empty(n)
    for _ in range(_ITERATIONS):
        kernels.mean_latencies(law, rates + background_rps, latencies)
        target = weight_vec / np.maximum(latencies, 1e-9)
        target = target / target.sum() * total_rate_rps
        new_rates = _DAMPING * target + (1 - _DAMPING) * rates
        if np.max(np.abs(new_rates - rates)) < 1e-6 * max(1.0, total_rate_rps):
            rates = new_rates
            break
        rates = new_rates
    return rates


class LeastConnection(Policy):
    """Pick the healthy DIP with the fewest active connections."""

    name = "lc"
    supports_weights = False
    uses_flow = False
    fluid_split = FluidSplit(fixed_point=least_connection_split_array)

    def select(self, flow: FlowKey) -> DipId:
        candidates = self._candidates()
        best = min(candidates, key=lambda v: (v.active_connections, v.dip))
        return best.dip


class WeightedLeastConnection(Policy):
    """Pick the DIP minimising ``active_connections / weight``.

    This is HAProxy's ``leastconn`` with server weights: a DIP with twice
    the weight is allowed twice the concurrent connections before it stops
    being preferred.
    """

    name = "wlc"
    supports_weights = True
    uses_flow = False
    fluid_split = FluidSplit(weighted=True, fixed_point=least_connection_split_array)

    def __init__(
        self,
        dips: Iterable[DipId],
        *,
        weights: Mapping[DipId, float] | None = None,
    ) -> None:
        super().__init__(dips)
        if weights:
            self.set_weights(weights)

    def select(self, flow: FlowKey) -> DipId:
        candidates = self._candidates()

        def score(view) -> tuple[float, str]:
            weight = view.weight if view.weight > 0 else _ZERO_WEIGHT
            return (view.active_connections / weight, view.dip)

        return min(candidates, key=score).dip


register_policy("lc", LeastConnection, weighted=False, summary="least connection")
register_policy("wlc", WeightedLeastConnection, weighted=True, summary="weighted least connection")
