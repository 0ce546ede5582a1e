"""KnapsackLB core: the paper's primary contribution.

Curve fitting (§4.2), adaptive weight exploration (§4.3), the Fig. 7 ILP
(§3.3) with multi-step refinement (§4.4), measurement scheduling (§4.6),
dynamics handling (§4.5) and the controller that ties them together (§3.2,
§5).  Drain-time estimation (§4.7) is not modelled: the controller measures
on the fluid substrate, where new weights hold at once, so no measurement
waits for old connections to drain.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.config": (
            "DEFAULT_CONFIG",
            "CurveConfig",
            "DynamicsConfig",
            "ExplorationConfig",
            "IlpConfig",
            "KnapsackLBConfig",
            "ProbeConfig",
            "SchedulerConfig",
            "dataclass_from_dict",
            "dataclass_to_dict",
        ),
        "repro.core.controller": (
            "ControlStepReport",
            "Deployment",
            "ExplorationReport",
            "ExplorationRoundOutcome",
            "KnapsackLBController",
        ),
        "repro.core.fleet_controller": (
            "FleetController",
            "FleetMeasurementReport",
            "FleetRound",
            "VipPhase",
        ),
        "repro.core.curve": ("WeightLatencyCurve", "fit_curve"),
        "repro.core.dynamics": (
            "DynamicsDetector",
            "DynamicsEvent",
            "DynamicsEventKind",
            "Observation",
            "rescale_all_curves",
        ),
        "repro.core.exploration": ("ExplorationState", "ExplorationStep"),
        "repro.core.ilp": (
            "IlpOutcome",
            "build_assignment_problem",
            "candidate_grid",
            "compute_weights",
            "solve_assignment",
        ),
        "repro.core.multistep": ("MultiStepOutcome", "compute_weights_multistep"),
        "repro.core.scheduler": (
            "MeasurementPriority",
            "MeasurementRequest",
            "MeasurementScheduler",
            "RoundPlan",
        ),
        "repro.core.types": (
            "DipId",
            "MeasurementPoint",
            "VipId",
            "WeightAssignment",
            "equal_weights",
            "normalize_weights",
            "validate_weight",
        ),
    },
)
