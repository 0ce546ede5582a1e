"""Hypothesis strategies read off the spec classes' declared field rules.

Every file-loaded spec class subclasses :class:`repro.core.config.Validated`
and states each field's rule in its ``field(metadata=...)``.  This module
draws from those declarations instead of restating them:

* :func:`specs` draws a valid instance of a spec class: each field from its
  rule (a value inside its interval, one of its choices, a non-empty
  string; the default under a ``kind`` that does not take it), nested
  sections recursively, then the few rules over two fields are met by
  :data:`_CROSS_FIELD` (the named checks in ``__post_init__``).
* :func:`violations` draws, for one declared rule, a valid instance, one
  field value that breaks the rule, and the message the rule declares.

Used as ``from strategies import specs``: the suite's ``conftest.py`` puts
this directory on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import math
import string
import typing
from typing import Any

from hypothesis import strategies as st

from repro.api.spec import (
    ArrivalSpec,
    ChaosSpec,
    ControllerSpec,
    EventSpec,
    ExperimentSpec,
    FleetSpec,
    HealthCheckSpec,
    PolicySpec,
    PoolSpec,
    RetryPolicy,
    ServiceSpec,
    TimelineSpec,
    VmSpec,
    WorkloadSpec,
)
from repro.core.config import (
    RULES,
    ByKind,
    CurveConfig,
    DynamicsConfig,
    ExplorationConfig,
    IlpConfig,
    KnapsackLBConfig,
    NonEmpty,
    OneOf,
    ProbeConfig,
    SchedulerConfig,
    Validated,
    Within,
    field_rules,
    rule_failure,
)
from repro.lb.base import policy_description

#: every spec class a file, a CLI flag or a request body is loaded into.
SPEC_CLASSES: tuple[type[Validated], ...] = (
    ExperimentSpec,
    PoolSpec,
    VmSpec,
    WorkloadSpec,
    ArrivalSpec,
    ServiceSpec,
    PolicySpec,
    ControllerSpec,
    FleetSpec,
    TimelineSpec,
    EventSpec,
    ChaosSpec,
    HealthCheckSpec,
    RetryPolicy,
    KnapsackLBConfig,
    ExplorationConfig,
    CurveConfig,
    IlpConfig,
    DynamicsConfig,
    ProbeConfig,
    SchedulerConfig,
)

_INF = math.inf
#: where an unbounded interval's draws stop (validation has no upper end).
_SPAN = 1e6
_NAMES = st.text(string.ascii_letters + string.digits + "-_", min_size=1, max_size=8)


# -- valid values ---------------------------------------------------------------


def _is_int(annotation: Any) -> bool:
    return annotation is int or int in typing.get_args(annotation)


def _inside(rule: Within, integer: bool) -> st.SearchStrategy:
    hi = rule.hi if rule.hi < _INF else rule.lo + _SPAN
    if integer or rule.integer:
        lo = math.floor(rule.lo) + 1 if rule.lo_open else math.ceil(rule.lo)
        top = math.ceil(hi) - 1 if rule.hi_open and rule.hi < _INF else math.floor(hi)
        values = st.integers(lo, top)
    else:
        values = st.floats(
            rule.lo,
            hi,
            exclude_min=rule.lo_open,
            exclude_max=rule.hi_open and rule.hi < _INF,
        )
    if rule.each:
        values = st.lists(values, max_size=4).map(tuple)
    return st.one_of(values, st.sampled_from(rule.also)) if rule.also else values


def _valid(rules: tuple, kind: Any, default: Any, annotation: Any) -> st.SearchStrategy:
    """Values that keep every rule of one field (under ``kind``)."""
    concrete = []
    for rule in rules:
        if isinstance(rule, ByKind):
            if kind not in rule.takes:
                return st.just(default)
            rule = rule.takes[kind]
        if rule is not None:
            concrete.append(rule)
    if not concrete:
        return st.just(default)
    first, rest = concrete[0], concrete[1:]
    if isinstance(first, OneOf):
        values = st.sampled_from(list(first.options()))
    elif isinstance(first, NonEmpty):
        values = st.lists(_NAMES, max_size=3).map(tuple) if first.each else _NAMES
    else:
        values = _inside(first, _is_int(annotation))
    return values.filter(lambda value: all(rule.admits(value) for rule in rest))


def _health(kw: dict[str, Any]) -> None:
    kw["probe_timeout_s"] = min(kw["probe_timeout_s"], kw["probe_interval_s"])


def _ilp(kw: dict[str, Any]) -> None:
    if kw["backend"] in ("mckp", "dp"):
        kw["theta"] = None  # these backends cannot express a finite theta


def _config(kw: dict[str, Any]) -> None:
    # An exploration budget that can give the curve its points.
    needed = kw["curve"].min_points - 1
    if kw["exploration"].max_iterations < needed:
        kw["exploration"] = dataclasses.replace(kw["exploration"], max_iterations=needed)


def _arrival(kw: dict[str, Any]) -> None:
    if kw["kind"] == "mmpp":  # two or more states, a switch rate each, one emits
        n = max(2, len(kw["state_rates"]))
        kw["state_rates"] = (1.0, *kw["state_rates"], 1.0)[-n:]
        kw["switch_rates"] = (*kw["switch_rates"], *[0.5] * n)[:n]


def _timeline(kw: dict[str, Any]) -> None:
    # One event per instant, each DIP failed at most once and never
    # recovered, and a horizon past every event and drain.
    events = []
    for index, event in enumerate(kw["events"]):
        if event.kind in ("dip_fail", "dip_recover"):
            event = dataclasses.replace(event, kind="dip_fail", dip=f"DIP-{index}")
        events.append(dataclasses.replace(event, time_s=float(index + 1)))
    kw["events"] = tuple(events)
    if kw["horizon_s"] is not None:
        ends = [event.time_s + event.drain_s for event in events]
        kw["horizon_s"] = max([kw["horizon_s"], *ends]) + 1.0


def _experiment(kw: dict[str, Any]) -> None:
    if kw["runner"] == "scenario":  # a bridge carries no timed phase of its own
        kw["scenario"] = "scenario"
        kw["timeline"] = TimelineSpec(window_s=kw["timeline"].window_s)
    if not policy_description(kw["policy"].name).weighted:
        kw["controller"] = dataclasses.replace(kw["controller"], enabled=False)


#: the named rules over two fields, met after the fields are drawn.
_CROSS_FIELD = {
    HealthCheckSpec: _health,
    IlpConfig: _ilp,
    KnapsackLBConfig: _config,
    ArrivalSpec: _arrival,
    TimelineSpec: _timeline,
    ExperimentSpec: _experiment,
}


@st.composite
def specs(draw: st.DrawFn, cls: type[Validated] = ExperimentSpec, **fixed: Any) -> Any:
    """A valid ``cls`` drawn from its declared field rules (``fixed`` pins
    fields, e.g. ``kind``)."""
    hints = typing.get_type_hints(cls)
    kwargs: dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        annotation = hints[f.name]
        element = (typing.get_args(annotation) or (None,))[0]
        if f.name in fixed:
            kwargs[f.name] = fixed[f.name]
        elif isinstance(annotation, type) and issubclass(annotation, Validated):
            kwargs[f.name] = draw(specs(annotation))
        elif isinstance(element, type) and issubclass(element, Validated):
            kwargs[f.name] = tuple(draw(st.lists(specs(element), max_size=3)))
        elif f.metadata.get(RULES):
            kind = kwargs.get("kind")
            default = f.default
            kwargs[f.name] = draw(_valid(f.metadata[RULES], kind, default, annotation))
    _CROSS_FIELD.get(cls, lambda kw: None)(kwargs)
    return cls(**kwargs)


# -- violations -----------------------------------------------------------------


def _outside(rule: Within | OneOf | NonEmpty) -> list[Any]:
    """Values ``rule`` refuses: past each end, the open ends, NaN, a string."""
    if isinstance(rule, OneOf):
        return ["not-a-choice"]
    if isinstance(rule, NonEmpty):
        return [("",), ("ok", "")] if rule.each else ["", None]
    values: list[Any] = [math.nan, rule.lo - 1.0] + ([rule.lo] if rule.lo_open else [])
    values += [rule.hi + 1.0, rule.hi] if rule.hi < _INF else [_INF]
    if rule.integer:
        values.append(rule.lo + 0.5)
    if rule.each:  # (elements are coerced with float(), so no string here)
        return [(value,) for value in values] + [(rule.lo + 1.0, math.nan)]
    return [*values, "1"]


def _set(default: Any) -> Any:
    """A value other than ``default`` that no range of its field refuses."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, (int, float)):
        return default + 1.0
    if isinstance(default, str):
        return default + "-set"
    return (1.0,) if isinstance(default, tuple) else 1.0


@st.composite
def violations(draw: st.DrawFn, cls: type[Validated], index: int) -> tuple:
    """``(spec, field, value, message)``: ``spec`` is valid, and replacing its
    ``field`` with ``value`` breaks rule ``index`` of ``field_rules(cls)``,
    the first rule it breaks, with ``message``."""
    table = field_rules(cls)
    name, label, default, rule = table[index]
    earlier = [entry for entry in table[:index] if entry[0] == name]
    fixed: dict[str, Any] = {}
    if isinstance(rule, ByKind):
        kinds = next(r for n, _, _, r in table if n == "kind").options()
        kind = draw(
            st.sampled_from([k for k in kinds if rule.takes.get(k, rule) is not None])
        )
        fixed["kind"] = kind
        inner = rule.takes.get(kind)
        candidates = [_set(default)] if inner is None else _outside(inner)
    else:
        candidates = _outside(rule)
    spec = draw(specs(cls, **fixed))
    kind = getattr(spec, "kind", None)

    def first_broken(value: Any) -> bool:
        if value == default:
            return False  # a default is never a violation (kinds fill some)
        return all(
            rule_failure(r, n, lb, value, d, kind) is None for n, lb, d, r in earlier
        ) and rule_failure(rule, name, label, value, default, kind) is not None

    value = draw(st.sampled_from([v for v in candidates if first_broken(v)]))
    return spec, name, value, rule_failure(rule, name, label, value, default, kind)
