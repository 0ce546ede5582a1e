"""KnapsackLB — performance-aware layer-4 load balancing (CoNEXT 2025).

A full reproduction of *KnapsackLB: Enabling Performance-Aware Layer-4 Load
Balancing* (Gandhi & Narayana).  The package contains the KnapsackLB
controller itself (:mod:`repro.core`), plus every substrate the paper's
evaluation depends on: a MILP solver layer (:mod:`repro.solver`), DIP/VM
models (:mod:`repro.backends`), layer-4 load-balancer policies and facades
(:mod:`repro.lb`), cluster simulators (:mod:`repro.sim`), KLM probing and
the latency store (:mod:`repro.probing`), an agent-based baseline
(:mod:`repro.agents`), analysis helpers (:mod:`repro.analysis`), workload
builders (:mod:`repro.workloads`), per-figure/table experiment drivers
(:mod:`repro.experiments`) and the multi-core execution layer
(:mod:`repro.parallel`: sharded request runs, shared-memory metric merges
and the persistent worker pool behind sweeps).

The declarative front door is :mod:`repro.api` (also on the command line as
``python -m repro``): describe a run as an :class:`~repro.api.ExperimentSpec`
— pool, workload, policy, controller, substrate, seed — and execute it into
a reproducible :class:`~repro.api.RunResult` artifact.

Quickstart::

    from repro import api

    result = api.run(api.get_spec("testbed_klb"))
    print(result.metrics["mean_latency_ms"])

or, driving the controller by hand::

    from repro import KnapsackLBController
    from repro.workloads import build_testbed_cluster

    cluster = build_testbed_cluster(load_fraction=0.7, seed=7)
    controller = KnapsackLBController("vip-1", cluster)
    assignment = controller.converge()
    print(assignment.weights)
"""

from repro.core import (
    KnapsackLBConfig,
    KnapsackLBController,
    WeightAssignment,
    WeightLatencyCurve,
    compute_weights,
    compute_weights_multistep,
    fit_curve,
)
from repro.exceptions import (
    ConfigurationError,
    CurveFitError,
    DipFailureError,
    DipOverloadError,
    InfeasibleError,
    MeasurementError,
    ReproError,
    SchedulingError,
    SimulationError,
    SolverError,
    SolverTimeoutError,
)

__version__ = "1.1.0"

# ``repro.api`` (spec, registry, runners, sweep, timeline) loads on first
# attribute access, so ``import repro`` pays for the controller re-exports
# above and no more.  Neither imports experiments, learn, service, parallel or
# SciPy: those load in the runner, CLI verb, curve fit or solve that needs them.
_LAZY_SUBMODULES = ("api",)


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "api",
    "KnapsackLBConfig",
    "KnapsackLBController",
    "WeightAssignment",
    "WeightLatencyCurve",
    "compute_weights",
    "compute_weights_multistep",
    "fit_curve",
    "ConfigurationError",
    "CurveFitError",
    "DipFailureError",
    "DipOverloadError",
    "InfeasibleError",
    "MeasurementError",
    "ReproError",
    "SchedulingError",
    "SimulationError",
    "SolverError",
    "SolverTimeoutError",
    "__version__",
]
