"""Fig. 14: the 3-DIP pool at capacities 1×, 0.8× and 0.6× (§6.2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.types import DipId
from repro.experiments.klb_testbed import _converge_vip
from repro.lb import LeastConnection, MuxPool, RoundRobin, WeightedRoundRobin
from repro.sim import MetricsCollector, RequestCluster, max_latency_gain, one_vip_fleet
from repro.workloads import build_graded_three_dip_pool


@dataclass(frozen=True)
class ThreeDipRun:
    policy: str
    cpu_utilization: dict[DipId, float]
    mean_latency_ms: dict[DipId, float]
    overall_latency_ms: float
    metrics: MetricsCollector = field(repr=False, compare=False)


@dataclass(frozen=True)
class ThreeDipComparison:
    runs: dict[str, ThreeDipRun]
    klb_weights: dict[DipId, float]

    def max_gain_percent(self, baseline: str) -> float:
        return max_latency_gain(self.runs[baseline].metrics, self.runs["klb"].metrics) * 100.0


def run_three_dip_comparison(
    *,
    ratios: tuple[float, float, float] = (1.0, 0.8, 0.6),
    load_fraction: float = 0.75,
    requests: int = 6000,
    num_muxes: int = 8,
    seed: int = 33,
) -> ThreeDipComparison:
    """Fig. 14: (weighted) RR and LC vs KnapsackLB on the graded pool.

    RR and LC use weights proportional to core counts (all 1-core → equal),
    as in the paper; KnapsackLB learns its weights from probing.
    """
    pool = build_graded_three_dip_pool(ratios, seed=seed)
    rate = sum(d.capacity_rps for d in pool.values()) * load_fraction

    fluid = one_vip_fleet(build_graded_three_dip_pool(ratios, seed=seed), rate)
    klb_weights = dict(_converge_vip(fluid).controllers["vip"].last_assignment.weights)

    def evaluate(name: str, factory) -> ThreeDipRun:
        dips = build_graded_three_dip_pool(ratios, seed=seed)
        cluster = RequestCluster(dips, factory(dips), rate_rps=rate, seed=seed)
        metrics = cluster.run(num_requests=requests, warmup_s=2.0).metrics
        return ThreeDipRun(
            policy=name,
            cpu_utilization=metrics.utilization(),
            mean_latency_ms={d: metrics.mean_latency_ms(dips=[d]) for d in dips},
            overall_latency_ms=metrics.mean_latency_ms(),
            metrics=metrics,
        )

    runs = {
        "rr": evaluate("rr", lambda dips: RoundRobin(list(dips))),
        "lc": evaluate(
            "lc",
            lambda dips: MuxPool(lambda: LeastConnection(list(dips)), num_muxes=num_muxes),
        ),
        "klb": evaluate(
            "klb", lambda dips: WeightedRoundRobin(list(dips), weights=klb_weights)
        ),
    }
    return ThreeDipComparison(runs=runs, klb_weights=klb_weights)
