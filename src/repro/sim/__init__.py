"""Cluster simulation substrate.

Two complementary simulators share the same DIP models:

* :class:`FluidCluster` — rate-based; maps weights/policies to per-DIP
  arrival rates and analytic latencies.  Fast enough for the KnapsackLB
  control loop and thousand-DIP studies.
* :class:`RequestCluster` — request-level discrete-event simulation with
  per-connection LB decisions and M/M/c/K queueing, producing latency
  distributions and CPU-utilization traces for the policy-comparison
  experiments.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sim.client": ("ClientPool", "WorkloadGenerator"),
        "repro.sim.cluster": ("RequestCluster", "RunResult"),
        "repro.sim.engine": ("EventHandle", "EventScheduler"),
        "repro.sim.fleet": ("Fleet", "FleetDeployment", "FleetState"),
        "repro.sim.fluid": ("FluidCluster", "PoolArrays", "pool_arrays"),
        "repro.sim.queueing": ("DipStation", "DipQueueStats"),
        "repro.sim.request": ("Request", "RequestOutcome"),
        "repro.sim.trace": (
            "DipSummary",
            "MetricsCollector",
            "fraction_of_requests_improved",
            "max_latency_gain",
        ),
        "repro.sim.vip": ("Vip",),
    },
)
