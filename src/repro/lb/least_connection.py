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
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.core.types import DipId
from repro.lb.base import FlowKey, Policy, register_policy

#: the weight a DIP programmed to zero (or below) is scored with.
_ZERO_WEIGHT = 1e-9


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


class LeastConnection(Policy):
    """Pick the healthy DIP with the fewest active connections."""

    name = "lc"
    supports_weights = False
    uses_flow = False

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
