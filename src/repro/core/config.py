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
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Self, Sequence, TypeVar, Union

from repro.exceptions import ConfigurationError

_D = TypeVar("_D")


# ---------------------------------------------------------------------------
# declared field rules
#
# Each field of a dataclass that spec loading builds states its rule once, in
# ``field(metadata={RULES: ...})`` (:func:`checked` writes it): an interval
# (:func:`within`), a choice set (:class:`OneOf`), a non-empty string
# (:class:`NonEmpty`), or the values of the class's ``kind`` field that take
# it (:class:`ByKind`).  :class:`Validated`'s ``__post_init__`` runs the one
# walker, :func:`check_fields`, over them in declaration order; a rule over
# two fields stays a named check in the class.  Rule texts are templates over
# ``{label}`` (the class's ``_prefix`` + the field name), ``{name}``,
# ``{value}``, ``{kind}`` and ``{choices}``.
# ---------------------------------------------------------------------------

#: the metadata key a field's rules live under.
RULES = "rules"


@dataclass(frozen=True)
class Within:
    """A numeric interval (NaN lies in none), plus the ``also`` exceptions."""

    lo: float
    hi: float
    lo_open: bool
    hi_open: bool
    text: str
    #: values admitted outside the interval (``None`` for a nullable field).
    also: tuple[Any, ...] = ()
    integer: bool = False
    #: the field is a tuple and each element must lie inside.
    each: bool = False

    def admits(self, value: Any) -> bool:
        return all(map(self._admits, value)) if self.each else self._admits(value)

    def _admits(self, value: Any) -> bool:
        if value in self.also:
            return True
        try:
            inside = (value > self.lo if self.lo_open else value >= self.lo) and (
                value < self.hi if self.hi_open else value <= self.hi
            )
        except TypeError:
            return False
        return inside and (not self.integer or float(value).is_integer())


def within(
    interval: str, *, null: bool = False, text: str = "", **options: Any
) -> Within:
    """The interval as its message writes it (``"(0, 1]"``, ``"[1, inf)"``);
    ``null`` admits ``None`` and ``text`` replaces the derived message."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    lo_open = interval[0] == "("
    if not text:
        if hi < float("inf"):
            phrase = f"be in {interval}"
        elif lo_open:
            phrase = "be positive" if lo == 0 else f"exceed {lo:g}"
        else:
            phrase = f"be >= {lo:g}"
        text = f"{{label}} must {phrase}" + (" or null" if null else "")
    if null:
        options["also"] = (None, *options.get("also", ()))
    return Within(lo, hi, lo_open, interval[-1] == ")", text, **options)


@dataclass(frozen=True)
class OneOf:
    """One of ``choices`` (a tuple, or a callable for a live registry)."""

    choices: tuple[str, ...] | Callable[[], Sequence[str]]
    text: str = "{label} must be one of: {choices}; got {value!r}"

    def options(self) -> Sequence[str]:
        return self.choices() if callable(self.choices) else self.choices

    def admits(self, value: Any) -> bool:
        return value in self.options()


@dataclass(frozen=True)
class NonEmpty:
    """A non-empty string (each element of a tuple field with ``each``)."""

    text: str = "{label} must be a non-empty string"
    each: bool = False

    def admits(self, value: Any) -> bool:
        return all(isinstance(v, str) and v for v in (value if self.each else (value,)))


Rule = Union[Within, OneOf, NonEmpty]


@dataclass(frozen=True)
class ByKind:
    """The ``kind`` values that take the field, each with its rule (``None``:
    any value); under another kind the field must keep its default."""

    takes: Mapping[str, Rule | None]
    forbid: str


def checked(default: Any, *rules: Rule | ByKind) -> Any:
    """A dataclass field with ``default`` (``MISSING``: none) and ``rules``."""
    return field(default=default, metadata={RULES: rules})


def rule_failure(
    rule: Rule | ByKind, name: str, label: str, value: Any, default: Any, kind: Any
) -> str | None:
    """The text ``value`` breaks ``rule`` with, or ``None`` when it keeps it."""
    if isinstance(rule, ByKind):
        if kind not in rule.takes:
            if value == default:
                return None
            return rule.forbid.format(name=name, label=label, kind=kind)
        rule = rule.takes[kind]
    if rule is None or rule.admits(value):
        return None
    choices = ", ".join(rule.options()) if isinstance(rule, OneOf) else ""
    return rule.text.format(
        name=name, label=label, value=value, kind=kind, choices=choices
    )


class Validated:
    """Base of the dataclasses whose fields declare rules: validates on init,
    loads from and dumps to plain mappings.

    ``_prefix`` is the section a subclass's messages name its fields under
    (``health.`` gives ``health.probe_interval_s must be positive``), and
    ``_root`` the dotted path :meth:`from_dict` names a bad field from.  A
    subclass with a rule over two fields extends ``__post_init__``.
    """

    _prefix = ""
    _root = ""

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, path: str | None = None
    ) -> Self:
        """Build from a plain mapping (a parsed spec file, a request body).

        Omitted fields keep their defaults; an unknown or invalid field
        raises :class:`ConfigurationError` naming it by dotted path.
        """
        root = cls._root if path is None else path
        return dataclass_from_dict(cls, data, path=root)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON/TOML-able); inverse of :meth:`from_dict`."""
        return dataclass_to_dict(self)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


_RuleTable = tuple[tuple[str, str, Any, Rule | ByKind], ...]
_RULE_TABLES: dict[type, _RuleTable] = {}


def field_rules(cls: type[Validated]) -> _RuleTable:
    """``(name, label, default, rule)`` per declared rule of ``cls``, built once."""
    table = _RULE_TABLES.get(cls)
    if table is None:
        table = _RULE_TABLES[cls] = tuple(
            (f.name, cls._prefix + f.name, f.default, rule)
            for f in dataclasses.fields(cls)
            for rule in f.metadata.get(RULES, ())
        )
    return table


def check_fields(obj: Validated) -> None:
    """Apply ``obj``'s declared field rules in order; raise the first broken."""
    kind = getattr(obj, "kind", None)
    for name, label, default, rule in field_rules(type(obj)):
        text = rule_failure(rule, name, label, getattr(obj, name), default, kind)
        if text is not None:
            raise ConfigurationError(text)


def read_spec_file(path: str | Path, what: str) -> Any:
    """The document a ``.json`` / ``.toml`` file holds; errors call it ``what``."""
    path = Path(path)
    name = f"{what} file {str(path)!r}"
    if not path.exists():
        raise ConfigurationError(f"{name} does not exist")
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        import tomllib

        parse, invalid, syntax = tomllib.loads, tomllib.TOMLDecodeError, "TOML"
    elif suffix == ".json":
        parse, invalid, syntax = json.loads, json.JSONDecodeError, "JSON"
    else:
        raise ConfigurationError(f"{name} must end in .json or .toml")
    try:
        return parse(text)
    except invalid as error:
        raise ConfigurationError(f"{name} is not valid {syntax}: {error}") from None


# One recursive walk in each direction between a dataclass tree and plain
# JSON/TOML-able types; ``from`` errors name the offending field by its dotted
# path (``controller.config.ilp.weights_per_dip``), not as a bare TypeError.


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
class ExplorationConfig(Validated):
    """Parameters of the adaptive weight-exploration phase (§4.3)."""

    #: stop exploring when ``w_now - w_prev`` <= ``convergence_fraction * w_now``.
    convergence_fraction: float = checked(0.05, within("(0, 1)"))
    #: pace of the multiplicative increase (α in Algorithm 1).
    alpha: float = checked(1.0, within("(0, inf)"))
    #: latency this many times the idle latency counts as a packet drop.
    drop_latency_multiplier: float = checked(5.0, within("(1, inf)"))
    #: upper bound on exploration iterations per DIP (safety net; the paper
    #: observes 8-10 iterations in practice).
    max_iterations: int = checked(25, within("[1, inf)"))
    #: smallest weight ever proposed for a measurement.
    min_weight: float = 1e-4


@dataclass(frozen=True)
class CurveConfig(Validated):
    """Parameters of weight-latency curve fitting (§4.2)."""

    #: polynomial regression degree (the paper uses 2).
    degree: int = checked(2, within("[1, inf)"))
    #: minimum number of non-dropped points required to fit.
    min_points: int = checked(3, within("[2, inf)"))
    #: enforce a monotonically non-decreasing latency-vs-weight curve.
    enforce_monotone: bool = True
    #: constrain the polynomial coefficients to be non-negative, which keeps
    #: the fitted curve monotone and convex even where exploration sampled
    #: few points (an unconstrained fit can dip far below reality there).
    nonnegative_coefficients: bool = True


#: solver backend names, ``auto`` then the order ``auto`` prefers them in
#: (:func:`repro.solver.solve` dispatches on the same tuple).
SOLVER_BACKENDS = ("auto", "mckp", "scipy", "branch_and_bound", "greedy", "dp")
#: backends that cannot express a finite θ.
_THETA_FREE_BACKENDS = ("mckp", "dp")


@dataclass(frozen=True)
class IlpConfig(Validated):
    """Parameters of the ILP weight computation (§3.3, §4.4)."""

    #: number of candidate weights per DIP per ILP step.
    weights_per_dip: int = checked(10, within("[2, inf)"))
    #: maximum weight imbalance θ (Fig. 7 constraint (c)); ``None`` means ∞.
    theta: float | None = checked(
        None, within("[0, inf)", null=True, text="{label} must be non-negative or None")
    )
    #: refinement window half-width as a fraction of w_max (δ in §4.4).
    refine_window_fraction: float = checked(0.10, within("(0, 1]"))
    #: run the multi-step refinement only when the pool has at least this
    #: many DIPs (the paper uses 100).
    multistep_min_dips: int = 100
    #: solver wall-clock limit in seconds (the paper's Fig. 8 uses 20 min).
    time_limit_s: float = checked(1200.0, within("(0, inf)"))
    #: solver backend, one of :data:`SOLVER_BACKENDS`.  "auto" is "mckp" while
    #: ``theta`` is unset and HiGHS (else branch-and-bound) with a finite θ.
    backend: str = checked(
        "auto",
        OneOf(
            SOLVER_BACKENDS,
            f"{{label}} must be one of {SOLVER_BACKENDS}, got {{value!r}}",
        ),
    )
    #: ILP objective: "request_weighted" minimises Σ w·l (the mean latency a
    #: request experiences, which is what the evaluation reports) while
    #: "sum_latency" is the paper's Fig. 7 objective Σ l (per-DIP latency
    #: sum).  The paper notes (footnote 2) that the objective is pluggable.
    objective: str = checked(
        "request_weighted",
        OneOf(
            ("request_weighted", "sum_latency"),
            "{label} must be 'request_weighted' or 'sum_latency'",
        ),
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if self.theta is not None and self.backend in _THETA_FREE_BACKENDS:
            raise ConfigurationError(
                f"backend {self.backend!r} cannot express a finite theta; "
                "use 'auto', 'scipy' or 'branch_and_bound'"
            )


@dataclass(frozen=True)
class DynamicsConfig(Validated):
    """Parameters for reacting to traffic/capacity changes and failures (§4.5)."""

    #: capacity change detected when observed latency deviates from the
    #: estimate by more than this fraction (±20 % in the paper).
    capacity_change_threshold: float = checked(0.20, within("(0, 1)"))
    #: traffic change detected when at least this fraction of DIPs see a
    #: latency deviation in the same direction for unchanged weights.
    traffic_change_quorum: float = checked(0.80, within("(0, 1]"))
    #: consecutive failed probe batches before a DIP is declared failed.
    failure_probe_threshold: int = checked(3, within("[1, inf)"))
    #: fraction of total capacity allowed to be under refresh simultaneously.
    max_refresh_fraction: float = checked(0.05, within("(0, 1]"))
    #: how often (seconds) the drain time is re-estimated (§4.7).
    drain_recalibration_interval_s: float = 120.0 * 60.0


@dataclass(frozen=True)
class ProbeConfig(Validated):
    """Parameters of KLM latency probing (§5)."""

    #: interval between probe batches per DIP, seconds.
    interval_s: float = checked(5.0, within("(0, inf)"))
    #: number of requests averaged per probe batch.
    requests_per_probe: int = checked(100, within("[1, inf)"))
    #: probe timeout, seconds; a timed-out probe counts as a failure.
    timeout_s: float = checked(2.0, within("(0, inf)"))


@dataclass(frozen=True)
class SchedulerConfig(Validated):
    """Parameters of measurement scheduling (§4.6)."""

    #: duration of one scheduling round, seconds (10 s in the paper §6.1).
    round_duration_s: float = checked(10.0, within("(0, inf)"))
    #: latency above this multiple of the idle latency marks a DIP as
    #: over-utilized (priority class (a) in §4.6).
    overutilized_latency_multiplier: float = checked(3.0, within("(1, inf)"))


@dataclass(frozen=True)
class KnapsackLBConfig(Validated):
    """Top-level configuration bundling all component configs."""

    _root = "config"

    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)
    curve: CurveConfig = field(default_factory=CurveConfig)
    ilp: IlpConfig = field(default_factory=IlpConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: how often the controller recomputes weights per VIP, seconds.
    control_interval_s: float = checked(5.0, within("(0, inf)"))


DEFAULT_CONFIG = KnapsackLBConfig()
