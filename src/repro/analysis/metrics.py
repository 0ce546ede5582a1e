"""Statistics helpers shared by experiments and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.types import DipId, grouped_quantiles
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample."""

    count: int
    mean_ms: float
    p50_ms: float
    p90_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "LatencyStats":
        values = np.asarray(list(samples), dtype=float)
        if values.size == 0:
            nan = float("nan")
            return cls(0, nan, nan, nan, nan, nan, nan)
        p50, p90, p95, p99 = grouped_quantiles(
            values, [0, values.size], np.true_divide([50, 90, 95, 99], 100)
        )[0].tolist()
        return cls(
            count=int(values.size),
            mean_ms=float(values.mean()),
            p50_ms=p50,
            p90_ms=p90,
            p95_ms=p95,
            p99_ms=p99,
            max_ms=float(values.max()),
        )


def relative_gain(baseline: float, improved: float) -> float:
    """Relative reduction of ``improved`` vs ``baseline`` (positive = better)."""
    if baseline <= 0:
        raise ConfigurationError("baseline must be positive")
    return (baseline - improved) / baseline


def utilization_spread(utilization: Mapping[DipId, float]) -> float:
    """max − min CPU utilization across DIPs (0 = perfectly balanced)."""
    if not utilization:
        return 0.0
    values = list(utilization.values())
    return max(values) - min(values)


def weighted_mean(values: Mapping[DipId, float], weights: Mapping[DipId, float]) -> float:
    """Weight-averaged value (e.g. request-weighted mean latency)."""
    total_weight = sum(weights.get(d, 0.0) for d in values)
    if total_weight <= 0:
        raise ConfigurationError("weights must sum to a positive value")
    return sum(values[d] * weights.get(d, 0.0) for d in values) / total_weight


def group_mean(
    per_dip: Mapping[DipId, float], groups: Mapping[str, Sequence[DipId]]
) -> dict[str, float]:
    """Mean of a per-DIP metric within each named group (e.g. per VM type)."""
    result: dict[str, float] = {}
    for name, dips in groups.items():
        values = [per_dip[d] for d in dips if d in per_dip]
        result[name] = float(np.mean(values)) if values else float("nan")
    return result


def weights_ratio(weights: Mapping[DipId, float], groups: Mapping[str, Sequence[DipId]]) -> dict[str, float]:
    """Per-group mean weight normalised to the smallest group mean.

    Used to report statements like "weights are in ratio 1:2:3.9:9.7"
    (§6.1, Fig. 11).
    """
    means = group_mean(weights, groups)
    finite = [v for v in means.values() if v > 0]
    if not finite:
        return {name: float("nan") for name in means}
    smallest = min(finite)
    return {name: value / smallest for name, value in means.items()}
