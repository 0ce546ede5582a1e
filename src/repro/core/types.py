"""Core value types shared across the KnapsackLB reproduction.

The paper's terminology is kept throughout the code base:

* **DIP** — a backend server instance ("direct IP"); identified by a string id.
* **VIP** — a virtual IP exposed by the load balancer; one VIP fronts a pool
  of DIPs and is load balanced independently of other VIPs.
* **weight** — the fraction of a VIP's traffic directed at a DIP, in [0, 1];
  weights across the DIPs of a VIP sum to 1.
* **weight-latency curve** — for a DIP, the mapping from weight to the mean
  request-response latency observed when that weight is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

DipId = str
VipId = str

#: Tolerance used when checking that weights sum to one.
WEIGHT_SUM_TOLERANCE = 1e-6


def left_to_right_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time, first to last, from 0.0.

    What the builtin ``sum`` computed up to Python 3.11; from 3.12 on it is
    compensated, so a band verdict or a golden that summed with it would
    depend on the interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def stable_group_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``keys.argsort(kind="stable")`` for integer keys in ``[0, bound)``.

    The permutation that groups equal keys, each group in its original
    order.  On the narrowest unsigned type that holds ``bound - 1``, numpy
    radix-sorts keys of 16 bits or fewer (timsort otherwise); the
    permutation is the same either way.
    """
    return keys.astype(np.min_scalar_type(bound - 1)).argsort(kind="stable")


def grouped_quantiles(
    values: np.ndarray, bounds: Sequence[int] | np.ndarray, q: np.ndarray
) -> np.ndarray:
    """``numpy.quantile(values[bounds[g]:bounds[g + 1]], q)`` for every group ``g``.

    Hyndman & Fan's method 7 (numpy's ``linear``), bit for bit: the virtual
    index ``(n - 1) * q``, its floor and the next index (both the last one
    from ``n - 1`` on) and numpy's two-sided ``_lerp``.  Returns a
    ``(groups, len(q))`` float64 array, NaN rows for empty groups.  A
    percentile ``p`` is the quantile ``np.true_divide(p, 100)``, which is
    what ``numpy.percentile`` passes on.

    Each group is sorted in place on one copy of ``values`` (numpy's sort
    beat its partition at every size measured, one group of 100k values
    included: 0.75 against 1.6 ms on a 2-vCPU x86 host) and every pick is
    one fancy index.  Values that compare equal differ in bits only as
    ``±0.0`` or NaN payloads, and there what ``numpy.quantile`` returns
    depends on how its partition left them: a group that holds a NaN, or a
    ``-0.0`` where a pick lands on zero, is done as ``numpy.quantile`` does
    it, one partition of the group in input order around the same indices.
    Nothing here imports ``numpy.ma``, which the first ``numpy.quantile``
    in a process does (through ``np.unique``).
    """
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if not (q.min() >= 0 and q.max() <= 1):  # NaN fails both
        raise ValueError("Quantiles must be in the range [0, 1]")
    bounds = np.asarray(bounds, dtype=np.intp)
    sizes = np.diff(bounds)
    count = (sizes - 1).astype(np.float64)[:, None]
    virtual = count * q
    # numpy's ``_get_indexes``: from ``n - 1`` on both picks are index -1
    # (the maximum), and gamma is measured from that -1.
    last = virtual >= count
    lower = np.where(last, -1.0, np.floor(virtual))
    gamma = virtual - lower
    lo = lower.astype(np.intp)
    hi = np.where(last, -1, lo + 1)
    result = np.full(gamma.shape, np.nan)
    if not values.size:
        return result
    start, end = bounds[:-1, None], bounds[1:, None]
    work = values.copy()
    edges = bounds.tolist()
    for s, e in zip(edges, edges[1:]):
        work[s:e].sort()
    a = work[np.where(lo < 0, end + lo, start + lo)]
    b = work[np.where(hi < 0, end + hi, start + hi)]
    exact = ((a == 0) | (b == 0)).any(axis=1) | np.isnan(work[bounds[1:] - 1])
    nans: dict[int, float] = {}
    for g in np.flatnonzero(exact & (sizes > 0)).tolist():
        group = values[edges[g] : edges[g + 1]]
        if not (np.isnan(group).any() or np.signbit(group[group == 0]).any()):
            continue
        part = group.copy()
        part.partition(sorted({0, -1, *lo[g].tolist(), *hi[g].tolist()}))
        a[g], b[g] = part[lo[g]], part[hi[g]]
        if np.isnan(part[-1]):
            nans[g] = part[-1]
    diff = b - a
    np.add(a, diff * gamma, out=result)
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    result[sizes == 0] = np.nan
    for g, nan in nans.items():  # numpy returns the group's last value
        result[g] = nan
    return result


def validate_weight(weight: float, *, name: str = "weight") -> float:
    """Validate that ``weight`` lies in [0, 1] and return it as a float."""
    value = float(weight)
    if math.isnan(value) or value < 0.0 or value > 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {weight!r}")
    return value


@dataclass(frozen=True)
class MeasurementPoint:
    """A (weight, latency) observation used to fit a weight-latency curve."""

    weight: float
    latency_ms: float
    dropped: bool = False

    def __post_init__(self) -> None:
        validate_weight(self.weight)
        if self.latency_ms < 0:
            raise ConfigurationError(
                f"latency_ms must be non-negative, got {self.latency_ms}"
            )


@dataclass(frozen=True)
class WeightAssignment:
    """The weights chosen for every DIP of one VIP.

    Produced by the ILP (§3.3) and programmed into the LB dataplane.
    """

    vip: VipId
    weights: Mapping[DipId, float]
    objective_ms: float | None = None
    solve_time_s: float | None = None

    def __post_init__(self) -> None:
        for dip, weight in self.weights.items():
            validate_weight(weight, name=f"weight for {dip}")

    @property
    def total_weight(self) -> float:
        return float(left_to_right_sum(self.weights.values()))

    def weight_for(self, dip: DipId) -> float:
        return float(self.weights.get(dip, 0.0))

    def normalized(self) -> "WeightAssignment":
        """Return a copy whose weights are rescaled to sum to exactly 1."""
        total = self.total_weight
        if total <= 0:
            raise ConfigurationError("cannot normalize an all-zero assignment")
        scaled = {dip: weight / total for dip, weight in self.weights.items()}
        return WeightAssignment(
            vip=self.vip,
            weights=scaled,
            objective_ms=self.objective_ms,
            solve_time_s=self.solve_time_s,
        )


def normalize_weights(weights: Mapping[DipId, float]) -> dict[DipId, float]:
    """Rescale ``weights`` so they sum to 1 (raises if the sum is zero)."""
    total = float(left_to_right_sum(weights.values()))
    if total <= 0:
        raise ConfigurationError("cannot normalize weights that sum to zero")
    return {dip: float(w) / total for dip, w in weights.items()}


def equal_weights(dips: Iterable[DipId]) -> dict[DipId, float]:
    """An equal split across ``dips`` (the starting point of exploration)."""
    dip_list = list(dips)
    if not dip_list:
        return {}
    share = 1.0 / len(dip_list)
    return {dip: share for dip in dip_list}
