"""The 30-DIP testbed experiments: Figs. 9-13 and Table 4 (§6.1, §6.2).

The KnapsackLB weights are computed by running the controller against a
fluid twin of the testbed (this is the role the real controller plays), and
then each policy — KLB's weighted round robin, RR, LC, random, power-of-two
and the Azure-style 5-tuple hash — is evaluated on the request-level
simulator with the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import FleetController, KnapsackLBController
from repro.core.types import DipId
from repro.lb import (
    FiveTupleHash,
    LeastConnection,
    MuxPool,
    PowerOfTwo,
    RandomSelect,
    RoundRobin,
    WeightedLeastConnection,
    WeightedRoundRobin,
)
from repro.sim import FluidCluster, MetricsCollector, RequestCluster, max_latency_gain, fraction_of_requests_improved
from repro.workloads import build_testbed_dips

CORE_GROUPS = {"1-core": 1, "2-core": 2, "4-core": 4, "8-core": 8}


@dataclass(frozen=True)
class ExplorationStudy:
    """Fig. 9 + Fig. 10 + Fig. 11 data from one controller run."""

    iterations: int
    rounds: int
    elapsed_s: float
    weight_history: dict[DipId, list[float]]
    w_max: dict[DipId, float]
    fit_points: dict[DipId, list[tuple[float, float]]]
    curve_samples: dict[DipId, list[tuple[float, float]]]
    ilp_weights: dict[DipId, float]
    weight_ratio_by_cores: dict[str, float]


def _converge_vip(cluster: FluidCluster) -> FleetController:
    """Converge ``cluster``'s one VIP (``"vip"``) through the fleet control
    plane; its controller is ``plane.controllers["vip"]``."""
    plane = FleetController(cluster.fleet)
    plane.onboard_vip("vip")
    plane.converge_all()
    return plane


def compute_testbed_weights(
    *, load_fraction: float = 0.70, seed: int = 42
) -> tuple[dict[DipId, float], float, KnapsackLBController, FluidCluster]:
    """Run the controller on the fluid testbed; returns (weights, rate, ...)."""
    layout = build_testbed_dips(seed=seed)
    rate = layout.total_capacity_rps * load_fraction
    cluster = FluidCluster(dips=dict(layout.dips), total_rate_rps=rate, policy_name="wrr")
    controller = _converge_vip(cluster).controllers["vip"]
    return dict(controller.last_assignment.weights), rate, controller, cluster


def run_exploration_study(
    *, load_fraction: float = 0.70, seed: int = 42, sample_dips: tuple[str, ...] = ("DIP-1", "DIP-17", "DIP-25", "DIP-29")
) -> ExplorationStudy:
    """Figs. 9-11: exploration weights, fitted curves and ILP weights."""
    weights, _, controller, cluster = compute_testbed_weights(
        load_fraction=load_fraction, seed=seed
    )

    fit_points = {}
    curve_samples = {}
    for dip in sample_dips:
        state = controller.explorations[dip]
        usable = state.usable_points()
        fit_points[dip] = [(p.weight, p.latency_ms) for p in usable]
        curve = controller.curves[dip]
        upper = max(curve.w_max * 1.2, 1e-3)
        grid = [upper * i / 20 for i in range(21)]
        curve_samples[dip] = [(w, curve.predict(w)) for w in grid]

    groups = {
        name: [d for d, s in cluster.dips.items() if s.vm_type.vcpus == cores]
        for name, cores in CORE_GROUPS.items()
    }
    mean_weight = {
        name: sum(weights.get(d, 0.0) for d in dips) / len(dips)
        for name, dips in groups.items()
    }
    smallest = min(v for v in mean_weight.values() if v > 0)
    ratios = {name: value / smallest for name, value in mean_weight.items()}

    # Use the latest exploration report from the controller run.
    history = {d: controller.explorations[d].history for d in sample_dips}
    iterations = max(len(h) for h in history.values())
    return ExplorationStudy(
        iterations=iterations,
        rounds=sum(len(h) for h in history.values()),
        elapsed_s=controller.time,
        weight_history={
            d: [step.next_weight for step in controller.explorations[d].history]
            for d in sample_dips
        },
        w_max={d: controller.explorations[d].effective_w_max() for d in sample_dips},
        fit_points=fit_points,
        curve_samples=curve_samples,
        ilp_weights=weights,
        weight_ratio_by_cores=ratios,
    )


@dataclass(frozen=True)
class PolicyRun:
    """One policy's outcome on the testbed workload (feeds Figs. 12-13, Table 4)."""

    policy: str
    overall_latency_ms: float
    latency_by_group_ms: dict[str, float]
    utilization_by_group: dict[str, float]
    metrics: MetricsCollector = field(repr=False, hash=False, compare=False)


@dataclass(frozen=True)
class PolicyComparison:
    """Figs. 12-13 + Table 4: all policies side by side."""

    runs: dict[str, PolicyRun]

    def max_gain_percent(self, baseline: str, improved: str = "klb") -> float:
        """Table 4: max latency gain of ``improved`` over ``baseline``."""
        gain = max_latency_gain(
            self.runs[baseline].metrics, self.runs[improved].metrics
        )
        return gain * 100.0

    def improved_fraction_percent(self, baseline: str, improved: str = "klb") -> float:
        return (
            fraction_of_requests_improved(
                self.runs[baseline].metrics, self.runs[improved].metrics
            )
            * 100.0
        )


def _group_metrics(metrics: MetricsCollector, dips) -> tuple[dict[str, float], dict[str, float]]:
    latency = {}
    utilization = {}
    utils = metrics.utilization()
    for name, cores in CORE_GROUPS.items():
        members = [d for d, s in dips.items() if s.vm_type.vcpus == cores]
        latency[name] = metrics.mean_latency_ms(dips=members)
        utilization[name] = sum(utils.get(d, 0.0) for d in members) / len(members)
    return latency, utilization


def _evaluate_policy(
    name: str,
    policy_factory,
    rate: float,
    *,
    requests: int,
    seed: int,
) -> PolicyRun:
    dips = dict(build_testbed_dips(seed=seed).dips)
    policy = policy_factory(dips)
    cluster = RequestCluster(dips, policy, rate_rps=rate, seed=seed, queue_capacity=256)
    run = cluster.run(num_requests=requests, warmup_s=1.0)
    latency_by_group, util_by_group = _group_metrics(run.metrics, dips)
    return PolicyRun(
        policy=name,
        overall_latency_ms=run.metrics.mean_latency_ms(),
        latency_by_group_ms=latency_by_group,
        utilization_by_group=util_by_group,
        metrics=run.metrics,
    )


def run_policy_comparison(
    *,
    load_fraction: float = 0.70,
    requests: int = 8000,
    seed: int = 42,
    num_muxes: int = 8,
    policies: tuple[str, ...] = ("rr", "lc", "random", "p2", "hash", "klb"),
) -> PolicyComparison:
    """Fig. 12 + Table 4 (unweighted): RR/LC/RD/P2/Azure-hash vs KnapsackLB.

    Adaptive unweighted policies (LC, P2) run through a ``num_muxes``-wide
    MUX pool, reflecting the scaled-out dataplane of Fig. 1.
    """
    weights, rate, _, _ = compute_testbed_weights(load_fraction=load_fraction, seed=seed)

    factories = {
        "rr": lambda dips: RoundRobin(list(dips)),
        "lc": lambda dips: MuxPool(lambda: LeastConnection(list(dips)), num_muxes=num_muxes),
        "random": lambda dips: RandomSelect(list(dips), seed=seed),
        "p2": lambda dips: MuxPool(lambda: PowerOfTwo(list(dips), seed=seed), num_muxes=num_muxes),
        "hash": lambda dips: FiveTupleHash(list(dips)),
        "klb": lambda dips: WeightedRoundRobin(list(dips), weights=weights),
    }
    runs = {
        name: _evaluate_policy(name, factories[name], rate, requests=requests, seed=seed)
        for name in policies
    }
    return PolicyComparison(runs=runs)


def run_weighted_policy_comparison(
    *,
    load_fraction: float = 0.70,
    requests: int = 8000,
    seed: int = 42,
    num_muxes: int = 8,
) -> PolicyComparison:
    """Fig. 13 + Table 4 (weighted): WRR / WLC with core-count weights vs KLB.

    The operator-set weights are proportional to the DIP's core count — the
    natural static choice that ignores the sub-linear scaling of the bigger
    DS VMs and the F-series speedup, which is exactly what the paper
    criticises.
    """
    klb_weights, rate, _, _ = compute_testbed_weights(load_fraction=load_fraction, seed=seed)

    layout = build_testbed_dips(seed=seed)
    total_cores = sum(s.vm_type.vcpus for s in layout.dips.values())
    core_weights = {
        d: s.vm_type.vcpus / total_cores for d, s in layout.dips.items()
    }

    factories = {
        "wrr": lambda dips: WeightedRoundRobin(list(dips), weights=core_weights),
        "wlc": lambda dips: MuxPool(
            lambda: WeightedLeastConnection(list(dips), weights=core_weights),
            num_muxes=num_muxes,
        ),
        "klb": lambda dips: WeightedRoundRobin(list(dips), weights=klb_weights),
    }
    runs = {
        name: _evaluate_policy(name, factory, rate, requests=requests, seed=seed)
        for name, factory in factories.items()
    }
    return PolicyComparison(runs=runs)
