"""KnapsackLB — performance-aware layer-4 load balancing (CoNEXT 2025).

A full reproduction of *KnapsackLB: Enabling Performance-Aware Layer-4 Load
Balancing* (Gandhi & Narayana).  The package contains the KnapsackLB
controller itself (:mod:`repro.core`), plus every substrate the paper's
evaluation depends on: a MILP solver layer (:mod:`repro.solver`), DIP/VM
models (:mod:`repro.backends`), layer-4 load-balancer policies and facades
(:mod:`repro.lb`), cluster simulators (:mod:`repro.sim`), KLM probing
(:mod:`repro.probing`), an agent-based baseline
(:mod:`repro.agents`), analysis helpers (:mod:`repro.analysis`), workload
builders (:mod:`repro.workloads`), per-figure/table experiment drivers
(:mod:`repro.experiments`) and the multi-core execution layer
(:mod:`repro.parallel`: sharded request runs, their process fan-out and
columnar merge, and the persistent worker pool behind sweeps).

The declarative front door is :mod:`repro.api` (also on the command line as
``python -m repro``): describe a run as an :class:`~repro.api.ExperimentSpec`
— pool, workload, policy, controller, substrate, seed — and execute it into
a reproducible :class:`~repro.api.RunResult` artifact.

Quickstart::

    from repro import api

    result = api.run(api.get_spec("testbed_klb"))
    print(result.metrics["mean_latency_ms"])

or, driving the control plane by hand (a single VIP is a one-VIP fleet)::

    from repro.core import FleetController
    from repro.workloads import build_testbed_cluster

    fleet = build_testbed_cluster(load_fraction=0.7, seed=7)
    plane = FleetController(fleet)
    plane.onboard_vip("vip")
    assignment = plane.converge_all()["vip"]
    print(assignment.weights)
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

# Every name below (and ``repro.api``) loads on first access, so ``import
# repro`` — which any ``import repro.<anything>`` runs first — costs nothing
# beyond this file; a run imports the substrate it executes where it runs it.
__getattr__, __dir__, _exports = lazy_exports(
    __name__,
    {
        "repro.core.config": ("KnapsackLBConfig",),
        "repro.core.controller": ("KnapsackLBController",),
        "repro.core.types": ("WeightAssignment",),
        "repro.core.curve": ("WeightLatencyCurve", "fit_curve"),
        "repro.core.ilp": ("compute_weights",),
        "repro.core.multistep": ("compute_weights_multistep",),
        "repro.exceptions": (
            "ConfigurationError",
            "CurveFitError",
            "InfeasibleError",
            "ReproError",
            "SchedulingError",
            "SimulationError",
            "SolverError",
            "SolverTimeoutError",
        ),
    },
    submodules=("api",),
)
__all__ = [*_exports, "__version__"]
