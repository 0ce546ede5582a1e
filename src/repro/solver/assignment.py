"""The weight-assignment problem solved by KnapsackLB's ILP (Fig. 7).

The problem is a multiple-choice knapsack variant: for every DIP ``d`` we
must pick exactly one candidate weight from a discrete set ``W_d``; picking
weight ``w`` for DIP ``d`` costs ``l_{d,w}`` (the estimated mean latency at
that weight).  The chosen weights must sum to a target (1.0 for a full VIP,
or ``1 - w_s`` for the scheduler's residual problem, §4.6), and the spread
between the largest and smallest chosen weight may be bounded by θ.

All solver backends consume this representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.types import DipId
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class DipCandidates:
    """The candidate weights and their estimated latencies for one DIP."""

    dip: DipId
    weights: tuple[float, ...]
    latencies_ms: tuple[float, ...]
    #: maximum weight known to be safe for this DIP (w_max); used only for
    #: post-hoc overload detection, not as a hard constraint.
    w_max: float | None = None

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.latencies_ms):
            raise ConfigurationError(
                f"DIP {self.dip}: weights and latencies length mismatch"
            )
        if not self.weights:
            raise ConfigurationError(f"DIP {self.dip}: empty candidate set")
        for w in self.weights:
            if not 0 <= w <= 1:
                raise ConfigurationError(
                    f"DIP {self.dip}: candidate weight {w} outside [0, 1]"
                )
        for lat in self.latencies_ms:
            if not 0 <= lat < math.inf:
                raise ConfigurationError(
                    f"DIP {self.dip}: latency {lat} is not finite and >= 0"
                )

    @property
    def count(self) -> int:
        return len(self.weights)

    def min_weight(self) -> float:
        return min(self.weights)

    def max_weight(self) -> float:
        return max(self.weights)

    def sorted_by_weight(self) -> "DipCandidates":
        """The candidates sorted by ascending weight (``self`` when they already are)."""
        if all(a <= b for a, b in zip(self.weights, self.weights[1:])):
            return self
        order = sorted(range(self.count), key=lambda i: self.weights[i])
        return DipCandidates(
            dip=self.dip,
            weights=tuple(self.weights[i] for i in order),
            latencies_ms=tuple(self.latencies_ms[i] for i in order),
            w_max=self.w_max,
        )


@dataclass(frozen=True)
class AssignmentProblem:
    """One instance of the Fig. 7 ILP.

    Parameters
    ----------
    dips:
        Candidate weights/latencies per DIP.
    total_weight:
        Target for the sum of chosen weights (constraint (b)); 1.0 for a
        full VIP.
    total_weight_tolerance:
        Allowed absolute deviation of the sum from ``total_weight``.  The
        paper's CBC model uses an exact equality over a uniform grid; with
        per-DIP grids an exact sum may not exist, so we allow a small band
        and normalize the resulting weights afterwards.
    theta:
        Maximum allowed spread ``ymax - ymin`` between chosen weights
        (constraint (c)); ``None`` disables the constraint (θ = ∞, as used
        in the paper's evaluation).
    """

    dips: tuple[DipCandidates, ...]
    total_weight: float = 1.0
    total_weight_tolerance: float = 0.01
    theta: float | None = None

    def __post_init__(self) -> None:
        if not self.dips:
            raise ConfigurationError("AssignmentProblem needs at least one DIP")
        seen: set[DipId] = set()
        for cand in self.dips:
            if cand.dip in seen:
                raise ConfigurationError(f"duplicate DIP id {cand.dip!r}")
            seen.add(cand.dip)
        if not 0 < self.total_weight < math.inf:
            raise ConfigurationError("total_weight must be positive and finite")
        if not 0 <= self.total_weight_tolerance < math.inf:
            raise ConfigurationError("total_weight_tolerance must be finite and >= 0")
        if self.theta is not None and not 0 <= self.theta < math.inf:
            raise ConfigurationError("theta must be finite and >= 0, or None")

    @property
    def num_dips(self) -> int:
        return len(self.dips)

    @property
    def num_variables(self) -> int:
        return sum(c.count for c in self.dips)

    def dip_ids(self) -> tuple[DipId, ...]:
        return tuple(c.dip for c in self.dips)

    def candidates_for(self, dip: DipId) -> DipCandidates:
        for cand in self.dips:
            if cand.dip == dip:
                return cand
        raise KeyError(dip)

    def weight_bounds(self) -> tuple[float, float]:
        """Smallest and largest achievable total weight."""
        low = sum(c.min_weight() for c in self.dips)
        high = sum(c.max_weight() for c in self.dips)
        return low, high

    def is_sum_feasible(self) -> bool:
        """Whether the target sum lies within the achievable range."""
        low, high = self.weight_bounds()
        return (
            low - self.total_weight_tolerance
            <= self.total_weight
            <= high + self.total_weight_tolerance
        )

    def objective_of(self, selection: Mapping[DipId, int]) -> float:
        """Total latency of a selection (candidate index per DIP)."""
        total = 0.0
        for cand in self.dips:
            idx = selection[cand.dip]
            total += cand.latencies_ms[idx]
        return total

    def weights_of(self, selection: Mapping[DipId, int]) -> dict[DipId, float]:
        return {
            cand.dip: cand.weights[selection[cand.dip]] for cand in self.dips
        }

    def overloaded_dips(self, weights: Mapping[DipId, float]) -> tuple[DipId, ...]:
        """DIPs whose assigned weight exceeds their known safe maximum."""
        overloaded: list[DipId] = []
        for cand in self.dips:
            if cand.w_max is None:
                continue
            if weights.get(cand.dip, 0.0) > cand.w_max + 1e-12:
                overloaded.append(cand.dip)
        return tuple(overloaded)


def build_problem(
    latency_table: Mapping[DipId, Mapping[float, float]],
    *,
    total_weight: float = 1.0,
    total_weight_tolerance: float = 0.01,
    theta: float | None = None,
    w_max: Mapping[DipId, float] | None = None,
) -> AssignmentProblem:
    """Convenience constructor from ``{dip: {weight: latency_ms}}``."""
    w_max = w_max or {}
    dips = []
    for dip, table in latency_table.items():
        weights = tuple(sorted(table))
        latencies = tuple(float(table[w]) for w in weights)
        dips.append(
            DipCandidates(
                dip=dip,
                weights=weights,
                latencies_ms=latencies,
                w_max=w_max.get(dip),
            )
        )
    return AssignmentProblem(
        dips=tuple(dips),
        total_weight=total_weight,
        total_weight_tolerance=total_weight_tolerance,
        theta=theta,
    )


def uniform_weight_grid(
    lower: float | np.ndarray, upper: float | np.ndarray, count: int
) -> np.ndarray:
    """``count`` weights spaced uniformly over ``[lower, upper]``, clipped to [0, 1].

    The one grid law: ``lower + i * step`` per element (all ``lower`` when
    the range is empty), shared by every builder of candidate weights.
    Array bounds give one grid per element, along a new last axis.
    """
    if count < 2:
        raise ConfigurationError("count must be >= 2")
    lower, upper = np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64)
    if (upper < lower).any():
        raise ConfigurationError("upper must be >= lower")
    step = (upper - lower) / (count - 1)
    return np.clip(lower[..., None] + np.arange(count) * step[..., None], 0.0, 1.0)


def uniform_candidates(
    dip: DipId,
    latency_fn,
    *,
    count: int,
    upper: float,
    lower: float = 0.0,
    w_max: float | None = None,
) -> DipCandidates:
    """Candidate weights spaced uniformly in ``[lower, upper]``.

    ``latency_fn`` maps a weight to the estimated latency (typically the
    fitted weight-latency curve's ``predict``).
    """
    weights = uniform_weight_grid(lower, upper, count).tolist()
    return DipCandidates(
        dip=dip,
        weights=tuple(weights),
        latencies_ms=tuple(max(0.0, float(latency_fn(w))) for w in weights),
        w_max=w_max,
    )
