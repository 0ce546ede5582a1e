"""Round-robin and weighted round-robin policies.

``WeightedRoundRobin`` implements the *smooth* WRR algorithm popularised by
Nginx: each selection advances every DIP's current score by its effective
weight and picks the highest score, subtracting the weight total.  This
spreads selections evenly over time rather than emitting bursts, and it
honours fractional weights (KnapsackLB programs weights in [0, 1]).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro import kernels
from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.lb.base import (
    EQUAL_SPLIT,
    WEIGHTED_SPLIT,
    FlowKey,
    Policy,
    effective_weights,
    register_policy,
)


def round_robin_picks(cursor: int, count: int, candidates: int) -> np.ndarray:
    """Candidate positions of ``count`` round-robin picks starting at ``cursor``.

    The cursor counts picks, not positions, so it carries across a change
    of the candidate set; :class:`RoundRobin` and the epoch engine's
    ``_RoundRobinRouter`` both pick through here.
    """
    return (cursor + np.arange(count, dtype=np.int64)) % candidates


class RoundRobin(Policy):
    """Plain round robin: rotate new connections across healthy DIPs."""

    name = "rr"
    supports_weights = False
    uses_flow = False
    uses_connection_counts = False
    replayable = True
    fluid_split = EQUAL_SPLIT

    def __init__(self, dips: Iterable[DipId]) -> None:
        super().__init__(dips)
        self._cursor = 0

    def select(self, flow: FlowKey) -> DipId:
        candidates = self.healthy_dips
        if not candidates:
            raise ConfigurationError("no healthy DIPs available")
        dip = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return dip

    def select_many(self, count, flows=None) -> np.ndarray:
        candidates = self.healthy_dips
        if not candidates:
            raise ConfigurationError("no healthy DIPs available")
        picks = round_robin_picks(self._cursor, count, len(candidates))
        self._cursor += count
        return self._positions(candidates)[picks]


def smooth_wrr_weights(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Effective weights and the total a smooth-WRR pick subtracts.

    The total is the left-to-right sum (``cumsum`` — not the pairwise
    ``np.sum``, nor the builtin ``sum``, which is compensated from Python
    3.12 on): a pick sequence is a function of its last bit, and the serial
    policy and the epoch router must read the same one.
    """
    w = effective_weights(weights)
    return w, float(w.cumsum()[-1])


def smooth_wrr_picks(
    current: np.ndarray, w: np.ndarray, total: float, count: int
) -> np.ndarray:
    """``count`` consecutive smooth-WRR picks (candidate positions) over
    aligned arrays, advancing ``current`` in place.

    Every candidate's score grows by its weight, the highest score wins —
    the first of equal scores, so ties go in pool order — and the winner
    pays the total back.  The recurrence is :func:`repro.kernels.smooth_wrr`:
    :class:`WeightedRoundRobin` and the epoch engine's ``_SmoothWrrRouter``
    both pick through it.
    """
    picks = np.empty(count, dtype=np.int32)
    kernels.smooth_wrr(current, w, total, picks, count)
    return picks


class WeightedRoundRobin(Policy):
    """Smooth weighted round robin (the WRR the paper's MUXes implement).

    Scores are frozen, not reset, while a DIP is unhealthy, and zeroed by
    ``set_weights`` so new weights take effect immediately for new
    connections (existing connections are not moved, preserving connection
    affinity as in the paper).
    """

    name = "wrr"
    supports_weights = True
    uses_flow = False
    uses_connection_counts = False
    replayable = True
    fluid_split = WEIGHTED_SPLIT

    def __init__(
        self,
        dips: Iterable[DipId],
        *,
        weights: Mapping[DipId, float] | None = None,
    ) -> None:
        super().__init__(dips)
        #: scores as of the last dropped plan (absent means 0); the live
        #: plan's ``current`` array is ahead of these for its candidates.
        self._current: dict[DipId, float] = {}
        if weights:
            self.set_weights(weights)

    def accumulators(self) -> dict[DipId, float]:
        """Every pool DIP's current smooth-WRR score."""
        scores = dict(self._current)
        if self._plan is not None:
            ids, _, _, current, _ = self._plan
            scores.update(zip(ids, current.tolist()))
        return {dip: scores.get(dip, 0.0) for dip in self.dips}

    def _drop_plan(self) -> None:
        # Scores outlive the plan that advanced them — except a removed
        # DIP's, which is no longer in the pool ``accumulators`` reports.
        self._current = self.accumulators()
        super()._drop_plan()

    def _on_weights_changed(self) -> None:
        self._current.clear()

    def _build_plan(self) -> tuple:
        ids, weights = self._candidate_weights()
        w, total = smooth_wrr_weights(weights)
        current = np.array([self._current.get(dip, 0.0) for dip in ids])
        plan = self._plan = (ids, w, total, current, kernels.smooth_wrr)
        return plan

    def select(self, flow: FlowKey) -> DipId:
        plan = self._plan
        if plan is None:
            plan = self._build_plan()
        ids, w, total, current, pick = plan
        return ids[pick(current, w, total, None, 1)]

    def select_many(self, count, flows=None) -> np.ndarray:
        ids, w, total, current, _ = self._plan or self._build_plan()
        return self._positions(ids)[smooth_wrr_picks(current, w, total, count)]


register_policy("rr", RoundRobin, weighted=False, summary="round robin")
register_policy("wrr", WeightedRoundRobin, weighted=True, summary="smooth weighted round robin")
