"""KnapsackLB core: the paper's primary contribution.

Curve fitting (§4.2), adaptive weight exploration (§4.3), the Fig. 7 ILP
(§3.3) with multi-step refinement (§4.4), measurement scheduling (§4.6),
dynamics handling (§4.5), drain-time estimation (§4.7) and the controller
that ties them together (§3.2, §5).
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
        "repro.core.curve": ("WeightLatencyCurve", "fit_curve", "fit_error"),
        "repro.core.drain": (
            "DrainEstimate",
            "DrainTimeEstimator",
            "analytic_drain_time_s",
        ),
        "repro.core.dynamics": (
            "DynamicsDetector",
            "DynamicsEvent",
            "DynamicsEventKind",
            "Observation",
            "RefreshBudget",
            "rescale_all_curves",
            "rescale_curve_for_observation",
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
            "DipRecord",
            "LatencySample",
            "MeasurementPoint",
            "VipId",
            "WeightAssignment",
            "equal_weights",
            "normalize_weights",
            "validate_weight",
        ),
    },
)
