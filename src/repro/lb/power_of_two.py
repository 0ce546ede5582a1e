"""Power-of-two-choices policy.

The paper's "P2" baseline (§6.2) samples two DIPs uniformly at random and
sends the connection to the one with the *lower CPU utilization*.  The
simulator feeds utilization observations through ``observe_utilization``;
when no utilization information is available the policy falls back to
comparing active connection counts (the classic power-of-two variant).
In the fluid model the policy's split is the fixed point of those
comparisons, :func:`power_of_two_split_array`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro import kernels
from repro.core.types import DipId
from repro.lb.base import FlowKey, FluidSplit, Policy, register_policy

#: the fluid fixed point's iteration cap and damping.
_ITERATIONS = 100
_DAMPING = 0.5


def power_of_two_split_array(
    law: np.ndarray,
    total_rate_rps: float,
    *,
    background_rps: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Fluid approximation of power-of-two-choices on CPU utilization, over
    DIPs of law rows ``law`` (:mod:`repro.kernels`).

    The probability DIP ``d`` receives a connection is the probability it is
    sampled and its utilization is no higher than the other sampled DIP:
    ``p_d = (1/N²) · (1 + 2·|{e ≠ d : u_d < u_e}| + |{e ≠ d : u_e = u_d}|)``.
    We iterate to a fixed point since the utilizations depend on the split.
    The win counts are computed by ranking, not pairwise comparison, so one
    iteration is O(N log N) instead of O(N²).  ``background_rps`` is load
    the DIPs carry from other VIPs of a shared fleet.
    """
    n = len(law)
    if n == 0:
        return np.zeros(0)
    if n == 1:
        return np.full(1, total_rate_rps)
    capacity = law[:, kernels.CAPACITY]
    rates = np.full(n, total_rate_rps / n)
    for _ in range(_ITERATIONS):
        utils = (rates + background_rps) / capacity
        # wins_i = |{j : u_i < u_j}| + 0.5·(|{j : u_j = u_i}| - 1), via ranks.
        order = np.argsort(utils, kind="stable")
        sorted_utils = utils[order]
        # For each DIP: how many DIPs have strictly smaller / equal utilization.
        smaller = np.searchsorted(sorted_utils, utils, side="left")
        less_or_equal = np.searchsorted(sorted_utils, utils, side="right")
        equal = less_or_equal - smaller
        greater = n - less_or_equal
        wins = greater + 0.5 * (equal - 1)
        probs = (1.0 + 2.0 * wins) / (n * n)
        probs = probs / probs.sum()
        new_rates = _DAMPING * probs * total_rate_rps + (1 - _DAMPING) * rates
        if np.max(np.abs(new_rates - rates)) < 1e-6 * max(1.0, total_rate_rps):
            rates = new_rates
            break
        rates = new_rates
    return rates


class PowerOfTwo(Policy):
    """Sample two DIPs, pick the less-loaded one."""

    name = "p2"
    supports_weights = False
    uses_flow = False
    fluid_split = FluidSplit(fixed_point=power_of_two_split_array)

    def __init__(
        self,
        dips: Iterable[DipId],
        *,
        use_cpu: bool = True,
        seed: int | None = None,
    ) -> None:
        super().__init__(dips)
        self._use_cpu = use_cpu
        self._rng = np.random.default_rng(seed)

    def _load(self, view) -> float:
        if self._use_cpu and view.cpu_utilization > 0:
            return view.cpu_utilization
        return float(view.active_connections)

    def select(self, flow: FlowKey) -> DipId:
        candidates = self._candidates()
        if len(candidates) == 1:
            return candidates[0].dip
        first, second = self._rng.choice(len(candidates), size=2, replace=False)
        a, b = candidates[int(first)], candidates[int(second)]
        return a.dip if self._load(a) <= self._load(b) else b.dip


register_policy("p2", PowerOfTwo, weighted=False, summary="power of two choices")
