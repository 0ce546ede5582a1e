"""Configuration objects for KnapsackLB.

Default values follow the paper's prototype (§4, §5):

* probe every DIP every 5 seconds, 100 requests per probe batch;
* exploration stops when the weight step falls below 5 % of the current
  weight (``D`` on line 1 of Algorithm 1);
* latency 5× the idle latency is treated as a packet-drop signal;
* α = 1 controls the pace of the multiplicative increase;
* polynomial regression of degree 2;
* the ILP is fed 10 candidate weights per DIP per step and the multi-step
  refinement uses a ±10 %·w_max window;
* capacity-change detection threshold is ±20 % of the estimated latency;
* at most 5 % of total capacity may be under curve refresh at a time.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Mapping, TypeVar

from repro.exceptions import ConfigurationError

_D = TypeVar("_D")


# ---------------------------------------------------------------------------
# generic frozen-dataclass (de)serialization
#
# Shared by the config objects below and by the declarative experiment specs
# in :mod:`repro.api.spec`: one recursive walk in each direction, with
# ``from`` errors that name the offending field by its dotted path
# (``controller.config.ilp.weights_per_dip``) instead of a bare TypeError.
# ---------------------------------------------------------------------------


def dataclass_to_dict(obj: Any) -> Any:
    """Recursively convert a dataclass tree to plain JSON/TOML-able types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: dataclass_to_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): dataclass_to_dict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [dataclass_to_dict(v) for v in obj]
    return obj


def _unwrap_optional(annotation: Any) -> tuple[Any, bool]:
    """Return (inner type, optional?) for ``X | None`` annotations."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in typing.get_args(annotation) if a is not type(None)]
        if len(members) == 1:
            return members[0], True
    return annotation, False


def dataclass_from_dict(cls: type[_D], data: Any, *, path: str = "") -> _D:
    """Build dataclass ``cls`` from a plain mapping, validating field names.

    Unknown keys and mistyped sections raise :class:`ConfigurationError`
    naming the bad field by dotted path and listing the valid fields, so a
    typo in a JSON/TOML spec file points straight at the line to fix.
    Nested dataclass fields recurse; ``tuple[...]`` fields accept lists.
    """
    label = path or cls.__name__
    if dataclasses.is_dataclass(data) and isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{label} must be a mapping, got {type(data).__name__}"
        )
    field_map = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(data) - set(field_map))
    if unknown:
        valid = ", ".join(sorted(field_map))
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigurationError(
            f"unknown field {where!r} for {cls.__name__}; valid fields: {valid}"
        )
    hints = typing.get_type_hints(cls)
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        sub_path = f"{path}.{name}" if path else name
        annotation, optional = _unwrap_optional(hints.get(name, Any))
        if value is None and optional:
            kwargs[name] = None
        elif dataclasses.is_dataclass(annotation):
            kwargs[name] = dataclass_from_dict(annotation, value, path=sub_path)
        elif typing.get_origin(annotation) is tuple and isinstance(value, list):
            args = typing.get_args(annotation)
            element = args[0] if args else Any
            if dataclasses.is_dataclass(element):
                # Homogeneous dataclass tuples (e.g. timeline events): each
                # element validates under its indexed path, so a bad key in
                # the third event reads "timeline.events[2].kindz".
                kwargs[name] = tuple(
                    dataclass_from_dict(
                        element, item, path=f"{sub_path}[{index}]"
                    )
                    for index, item in enumerate(value)
                )
            else:
                kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigurationError as error:
        # __post_init__ errors start with the field they reject; prefix the
        # section so nested specs read "controller.config.ilp.backend must ...".
        if path:
            starts_with_field = str(error).split(" ", 1)[0] in field_map
            raise ConfigurationError(
                f"{path}{'.' if starts_with_field else ': '}{error}"
            ) from None
        raise
    except TypeError as error:
        raise ConfigurationError(f"{label}: {error}") from None


@dataclass(frozen=True)
class ExplorationConfig:
    """Parameters of the adaptive weight-exploration phase (§4.3)."""

    #: stop exploring when ``w_now - w_prev`` <= ``convergence_fraction * w_now``.
    convergence_fraction: float = 0.05
    #: pace of the multiplicative increase (α in Algorithm 1).
    alpha: float = 1.0
    #: latency this many times the idle latency counts as a packet drop.
    drop_latency_multiplier: float = 5.0
    #: upper bound on exploration iterations per DIP (safety net; the paper
    #: observes 8-10 iterations in practice).
    max_iterations: int = 25
    #: smallest weight ever proposed for a measurement.
    min_weight: float = 1e-4

    def __post_init__(self) -> None:
        if not 0 < self.convergence_fraction < 1:
            raise ConfigurationError("convergence_fraction must be in (0, 1)")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.drop_latency_multiplier <= 1:
            raise ConfigurationError("drop_latency_multiplier must exceed 1")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")


@dataclass(frozen=True)
class CurveConfig:
    """Parameters of weight-latency curve fitting (§4.2)."""

    #: polynomial regression degree (the paper uses 2).
    degree: int = 2
    #: minimum number of non-dropped points required to fit.
    min_points: int = 3
    #: enforce a monotonically non-decreasing latency-vs-weight curve.
    enforce_monotone: bool = True
    #: constrain the polynomial coefficients to be non-negative, which keeps
    #: the fitted curve monotone and convex even where exploration sampled
    #: few points (an unconstrained fit can dip far below reality there).
    nonnegative_coefficients: bool = True

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ConfigurationError("degree must be >= 1")
        if self.min_points < 2:
            raise ConfigurationError("min_points must be >= 2")


#: solver backend names, ``auto`` then the order ``auto`` prefers them in
#: (:func:`repro.solver.solve` dispatches on the same tuple).
SOLVER_BACKENDS = ("auto", "mckp", "scipy", "branch_and_bound", "greedy", "dp")
#: backends that cannot express a finite θ.
_THETA_FREE_BACKENDS = ("mckp", "dp")


@dataclass(frozen=True)
class IlpConfig:
    """Parameters of the ILP weight computation (§3.3, §4.4)."""

    #: number of candidate weights per DIP per ILP step.
    weights_per_dip: int = 10
    #: maximum weight imbalance θ (Fig. 7 constraint (c)); ``None`` means ∞.
    theta: float | None = None
    #: refinement window half-width as a fraction of w_max (δ in §4.4).
    refine_window_fraction: float = 0.10
    #: run the multi-step refinement only when the pool has at least this
    #: many DIPs (the paper uses 100).
    multistep_min_dips: int = 100
    #: solver wall-clock limit in seconds (the paper's Fig. 8 uses 20 min).
    time_limit_s: float = 1200.0
    #: solver backend, one of :data:`SOLVER_BACKENDS`.  "auto" is "mckp" while
    #: ``theta`` is unset and HiGHS (else branch-and-bound) with a finite θ.
    backend: str = "auto"
    #: ILP objective: "request_weighted" minimises Σ w·l (the mean latency a
    #: request experiences, which is what the evaluation reports) while
    #: "sum_latency" is the paper's Fig. 7 objective Σ l (per-DIP latency
    #: sum).  The paper notes (footnote 2) that the objective is pluggable.
    objective: str = "request_weighted"

    def __post_init__(self) -> None:
        if self.weights_per_dip < 2:
            raise ConfigurationError("weights_per_dip must be >= 2")
        if self.objective not in ("request_weighted", "sum_latency"):
            raise ConfigurationError(
                "objective must be 'request_weighted' or 'sum_latency'"
            )
        if self.theta is not None and self.theta < 0:
            raise ConfigurationError("theta must be non-negative or None")
        if not 0 < self.refine_window_fraction <= 1:
            raise ConfigurationError("refine_window_fraction must be in (0, 1]")
        if self.time_limit_s <= 0:
            raise ConfigurationError("time_limit_s must be positive")
        if self.backend not in SOLVER_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {SOLVER_BACKENDS}, got {self.backend!r}"
            )
        if self.theta is not None and self.backend in _THETA_FREE_BACKENDS:
            raise ConfigurationError(
                f"backend {self.backend!r} cannot express a finite theta; "
                "use 'auto', 'scipy' or 'branch_and_bound'"
            )


@dataclass(frozen=True)
class DynamicsConfig:
    """Parameters for reacting to traffic/capacity changes and failures (§4.5)."""

    #: capacity change detected when observed latency deviates from the
    #: estimate by more than this fraction (±20 % in the paper).
    capacity_change_threshold: float = 0.20
    #: traffic change detected when at least this fraction of DIPs see a
    #: latency deviation in the same direction for unchanged weights.
    traffic_change_quorum: float = 0.80
    #: consecutive failed probe batches before a DIP is declared failed.
    failure_probe_threshold: int = 3
    #: fraction of total capacity allowed to be under refresh simultaneously.
    max_refresh_fraction: float = 0.05
    #: how often (seconds) the drain time is re-estimated (§4.7).
    drain_recalibration_interval_s: float = 120.0 * 60.0

    def __post_init__(self) -> None:
        if not 0 < self.capacity_change_threshold < 1:
            raise ConfigurationError("capacity_change_threshold must be in (0, 1)")
        if not 0 < self.traffic_change_quorum <= 1:
            raise ConfigurationError("traffic_change_quorum must be in (0, 1]")
        if self.failure_probe_threshold < 1:
            raise ConfigurationError("failure_probe_threshold must be >= 1")
        if not 0 < self.max_refresh_fraction <= 1:
            raise ConfigurationError("max_refresh_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ProbeConfig:
    """Parameters of KLM latency probing (§5)."""

    #: interval between probe batches per DIP, seconds.
    interval_s: float = 5.0
    #: number of requests averaged per probe batch.
    requests_per_probe: int = 100
    #: probe timeout, seconds; a timed-out probe counts as a failure.
    timeout_s: float = 2.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        if self.requests_per_probe < 1:
            raise ConfigurationError("requests_per_probe must be >= 1")
        if self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")


@dataclass(frozen=True)
class SchedulerConfig:
    """Parameters of measurement scheduling (§4.6)."""

    #: duration of one scheduling round, seconds (10 s in the paper §6.1).
    round_duration_s: float = 10.0
    #: latency above this multiple of the idle latency marks a DIP as
    #: over-utilized (priority class (a) in §4.6).
    overutilized_latency_multiplier: float = 3.0

    def __post_init__(self) -> None:
        if self.round_duration_s <= 0:
            raise ConfigurationError("round_duration_s must be positive")
        if self.overutilized_latency_multiplier <= 1:
            raise ConfigurationError(
                "overutilized_latency_multiplier must exceed 1"
            )


@dataclass(frozen=True)
class KnapsackLBConfig:
    """Top-level configuration bundling all component configs."""

    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)
    curve: CurveConfig = field(default_factory=CurveConfig)
    ilp: IlpConfig = field(default_factory=IlpConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: how often the controller recomputes weights per VIP, seconds.
    control_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.control_interval_s <= 0:
            raise ConfigurationError("control_interval_s must be positive")

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON/TOML-able); inverse of :meth:`from_dict`."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], *, path: str = "config"
    ) -> "KnapsackLBConfig":
        """Build a config from a plain mapping (e.g. a parsed spec file).

        Partial mappings are fine — omitted sections/fields keep their
        defaults; unknown fields raise :class:`ConfigurationError` naming
        the dotted path of the offender.
        """
        return dataclass_from_dict(cls, data, path=path)


DEFAULT_CONFIG = KnapsackLBConfig()
