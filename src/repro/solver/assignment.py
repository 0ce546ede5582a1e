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

from repro.core.types import DipId, left_to_right_sum
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

    def weight_order(self) -> list[int]:
        """Candidate positions by ascending weight (stable): position ``j``
        of :meth:`sorted_by_weight` is candidate ``weight_order()[j]``."""
        return sorted(range(self.count), key=self.weights.__getitem__)

    def sorted_by_weight(self) -> "DipCandidates":
        """The candidates sorted by ascending weight (``self`` when they already are)."""
        if all(a <= b for a, b in zip(self.weights, self.weights[1:])):
            return self
        order = self.weight_order()
        return DipCandidates(
            dip=self.dip,
            weights=tuple(self.weights[i] for i in order),
            latencies_ms=tuple(self.latencies_ms[i] for i in order),
            w_max=self.w_max,
        )


@dataclass(frozen=True, eq=False)
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

    The canonical form is the candidate table: ``ids``, the read-only
    (n, k) arrays ``weights`` and ``costs`` (row ``i`` is DIP ``ids[i]``;
    a DIP with fewer candidates is padded with ``inf`` in both) and
    ``w_max``.  ``dp`` and ``mckp`` read the table; a problem built by
    :meth:`from_table` derives ``dips`` on first read, for the backends
    that walk candidates per DIP.  Problems are equal when their tables
    and bands are.
    """

    dips: tuple[DipCandidates, ...]
    total_weight: float = 1.0
    total_weight_tolerance: float = 0.01
    theta: float | None = None

    def __post_init__(self) -> None:
        if not self.dips:
            raise ConfigurationError("AssignmentProblem needs at least one DIP")
        weights = np.full((len(self.dips), max(cand.count for cand in self.dips)), math.inf)
        costs = weights.copy()
        for row, cand in enumerate(self.dips):
            weights[row, : cand.count] = cand.weights
            costs[row, : cand.count] = cand.latencies_ms
        ids = tuple(cand.dip for cand in self.dips)
        self._set_table(ids, weights, costs, tuple(cand.w_max for cand in self.dips))

    @classmethod
    def from_table(
        cls,
        ids: tuple[DipId, ...],
        weights: np.ndarray,
        costs: np.ndarray,
        w_max: tuple[float | None, ...],
        *,
        total_weight: float = 1.0,
        total_weight_tolerance: float = 0.01,
        theta: float | None = None,
    ) -> "AssignmentProblem":
        """The problem over ``k`` candidates per DIP: row ``i`` of the float64
        (n, k) arrays ``weights`` and ``costs`` for DIP ``ids[i]``.  Checked
        as a whole, with the rules and messages of :class:`DipCandidates`
        (the first DIP in order that breaks one) and of the problem."""
        in_range = weights.min() >= 0 and weights.max() <= 1
        if not (in_range and costs.min() >= 0 and costs.max() < math.inf):
            ok = (weights >= 0) & (weights <= 1) & (costs >= 0) & (costs < math.inf)
            row = int((~ok).any(axis=1).argmax())
            for w in weights[row].tolist():
                if not 0 <= w <= 1:
                    raise ConfigurationError(
                        f"DIP {ids[row]}: candidate weight {w} outside [0, 1]"
                    )
            lat = costs[row, ~ok[row]].tolist()[0]
            raise ConfigurationError(f"DIP {ids[row]}: latency {lat} is not finite and >= 0")
        problem = object.__new__(cls)
        object.__setattr__(problem, "total_weight", total_weight)
        object.__setattr__(problem, "total_weight_tolerance", total_weight_tolerance)
        object.__setattr__(problem, "theta", theta)
        problem._set_table(ids, weights, costs, w_max)
        return problem

    def _set_table(self, ids: tuple, weights: np.ndarray, costs: np.ndarray, w_max: tuple) -> None:
        if not ids:
            raise ConfigurationError("AssignmentProblem needs at least one DIP")
        if len(set(ids)) != len(ids):
            seen: set[DipId] = set()
            duplicate = next(d for d in ids if d in seen or seen.add(d))
            raise ConfigurationError(f"duplicate DIP id {duplicate!r}")
        if not 0 < self.total_weight < math.inf:
            raise ConfigurationError("total_weight must be positive and finite")
        if not 0 <= self.total_weight_tolerance < math.inf:
            raise ConfigurationError("total_weight_tolerance must be finite and >= 0")
        if self.theta is not None and not 0 <= self.theta < math.inf:
            raise ConfigurationError("theta must be finite and >= 0, or None")
        weights.flags.writeable = costs.flags.writeable = False
        for name, value in (
            ("ids", ids),
            ("weights", weights),
            ("costs", costs),
            ("w_max", w_max),
            # The rows as lists, for reading a selection back.
            ("_rows", (weights.tolist(), costs.tolist())),
            # What equality and hash read (``+ 0.0`` folds -0.0 into 0.0).
            (
                "_key",
                (ids, (weights + 0.0).tobytes(), (costs + 0.0).tobytes(), w_max)
                + (self.total_weight, self.total_weight_tolerance, self.theta),
            ),
        ):
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # Only ``dips`` of a problem built by ``from_table`` is ever missing.
        if name != "dips" or "weights" not in self.__dict__:
            raise AttributeError(name)
        rows = zip(self.ids, self.weights.tolist(), self.costs.tolist(), self.w_max)
        dips = tuple(
            DipCandidates(dip=dip, weights=tuple(w), latencies_ms=tuple(c), w_max=top)
            for dip, w, c, top in rows
        )
        object.__setattr__(self, "dips", dips)
        return dips

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssignmentProblem):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def num_dips(self) -> int:
        return len(self.ids)

    @property
    def num_variables(self) -> int:
        return int(np.isfinite(self.weights).sum())

    def dip_ids(self) -> tuple[DipId, ...]:
        return self.ids

    def objective_of(self, selection: Mapping[DipId, int]) -> float:
        """Total latency of a selection (candidate index per DIP)."""
        return left_to_right_sum(
            row[selection[dip]] for dip, row in zip(self.ids, self._rows[1])
        )

    def weights_of(self, selection: Mapping[DipId, int]) -> dict[DipId, float]:
        return {dip: row[selection[dip]] for dip, row in zip(self.ids, self._rows[0])}

    def unsorted(self, selection: Mapping[DipId, int]) -> dict[DipId, int]:
        """``selection``, made over :meth:`DipCandidates.sorted_by_weight`
        rows, as candidate indices into this problem's own rows."""
        orders = {cand.dip: cand.weight_order() for cand in self.dips}
        return {dip: orders[dip][j] for dip, j in selection.items()}

    def overloaded_dips(self, weights: Mapping[DipId, float]) -> tuple[DipId, ...]:
        """DIPs whose assigned weight exceeds their known safe maximum."""
        return tuple(
            dip
            for dip, top in zip(self.ids, self.w_max)
            if top is not None and weights.get(dip, 0.0) > top + 1e-12
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
    # ``np.clip(grid, 0.0, 1.0)``, element for element, without its wrapper.
    return np.minimum(1.0, np.maximum(0.0, lower[..., None] + np.arange(count) * step[..., None]))
