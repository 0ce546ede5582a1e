"""Random and weighted-random DIP selection."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.lb.base import (
    EQUAL_SPLIT,
    WEIGHTED_SPLIT,
    FlowKey,
    Policy,
    pick_cdf,
    register_policy,
)


class RandomSelect(Policy):
    """Select a healthy DIP uniformly at random (the paper's "RD" policy)."""

    name = "random"
    supports_weights = False
    uses_flow = False
    uses_connection_counts = False
    replayable = True
    fluid_split = EQUAL_SPLIT

    def __init__(self, dips: Iterable[DipId], *, seed: int | None = None) -> None:
        super().__init__(dips)
        self._rng = np.random.default_rng(seed)

    def select(self, flow: FlowKey) -> DipId:
        candidates = self.healthy_dips
        if not candidates:
            raise ConfigurationError("no healthy DIPs available")
        return candidates[int(self._rng.integers(len(candidates)))]


class WeightedRandom(Policy):
    """Select a DIP with probability proportional to its weight."""

    name = "wrandom"
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
        seed: int | None = None,
    ) -> None:
        super().__init__(dips)
        self._rng = np.random.default_rng(seed)
        if weights:
            self.set_weights(weights)

    def select(self, flow: FlowKey) -> DipId:
        plan = self._plan
        if plan is None:
            ids, weights = self._candidate_weights()
            plan = self._plan = (ids, pick_cdf(weights))
        ids, cdf = plan
        return ids[cdf.searchsorted(self._rng.random(), side="right")]


register_policy("random", RandomSelect, weighted=False, summary="uniform random")
register_policy("wrandom", WeightedRandom, weighted=True, summary="weighted random")
