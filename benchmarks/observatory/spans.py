"""Outside-in tracing: spans around the public callables of each layer.

The traced pass wraps the callables named in :data:`WRAPS` from here, at
run time — a class or module attribute is replaced and the original put
back on exit; nothing under ``src/`` is edited.  Each span records name,
start, end and the span that caused it; spans of one repetition share its
id; counts are taken at the same boundaries.  Spans stay in memory and are
written to the ``--out`` file when the benchmark ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover; ``solver.share_of_run`` and the like are ratios of
self times under the ``api.run`` root.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

ROOT = "api.run"


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the causing span in ``Tracer.spans`` (-1 for a root).
    parent: int
    #: repetition the span belongs to.
    rep: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a call stack (one thread, one process)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = {}
        #: objects the wrappers hand back for later inspection.
        self.captured: dict[str, Any] = {}
        #: wrapped names that no longer exist -> why.
        self.missing: dict[str, str] = {}
        self.rep = 0
        self._stack: list[int] = []
        self._wrapped: set[str] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.rep))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        key = (self.rep, name)
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- wrapping ----------------------------------------------------------------

    def wrap(
        self,
        target: str,
        span: str,
        note: Callable[[Tracer, Span, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``module:attr[.attr]`` with a span-recording wrapper.

        ``note(tracer, span, args, kwargs, result)`` runs after the call,
        outside the span, to take counts at the same boundary.  A name that no
        longer resolves is remembered in :attr:`missing` instead of raised,
        so the metrics built on it report ``null`` with the reason.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as error:
            if span not in self._wrapped:
                self.missing[span] = f"{target} not found ({type(error).__name__}: {error})"
            return
        # Several targets may feed one span; one live target keeps it measured.
        self._wrapped.add(span)
        self.missing.pop(span, None)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if note is not None:
                note(tracer, tracer.spans[index], args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Put every replaced attribute back (in reverse order)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unwrap_all()


# -- counts taken at span boundaries ---------------------------------------------


def _note_solve(
    tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any
) -> None:
    problem = args[0] if args else kwargs.get("problem")
    tracer.count("solver.solve.vars_total", float(problem.num_variables))
    limit = kwargs.get("time_limit_s")
    status = getattr(result.status, "name", str(result.status))
    if status == "INFEASIBLE":
        tracer.count("solver.solve.infeasible")
    # A solve cut at the wall-clock limit returns FEASIBLE (an incumbent)
    # or TIMEOUT; OPTIMAL means the gap was proven in time.
    if (
        limit is not None
        and status in ("FEASIBLE", "TIMEOUT")
        and span.duration >= 0.95 * float(limit)
    ):
        tracer.count("solver.solve.limit_hits")
    # Keep the four largest distinct problems for the per-backend probe.
    problems: list = tracer.captured.setdefault("problems", [])
    if problem not in problems:
        problems.append(problem)
        problems.sort(key=lambda p: p.num_variables, reverse=True)
        del problems[4:]


def _note_control_step(
    tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any
) -> None:
    if getattr(result, "reprogrammed", False):
        tracer.count("core.control_step.reprograms")


def _note_probe(
    tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any
) -> None:
    tracer.count("probing.requests_sampled", float(args[0].config.requests_per_probe))


def _note_plane(
    tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any
) -> None:
    # The fleet-wide SolveCache's hit and miss counts are read after the run.
    tracer.captured.setdefault("caches", {})[tracer.rep] = args[0].solve_cache


def _note_barriers(
    tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any
) -> None:
    tracer.count("parallel.epoch.barriers", float(len(result)))


#: (``module:attribute``, span name, count hook).  Several targets may feed
#: one span name (the same function bound under two module names).
WRAPS: tuple[tuple[str, str, Any], ...] = (
    ("repro.api.timeline:TimelineStepper.step", "api.timeline.step", None),
    ("repro.api.result:RunResult.to_json", "api.result.to_json", None),
    ("repro.core.controller:KnapsackLBController.converge", "core.converge", None),
    ("repro.core.fleet_controller:FleetController.converge_all", "core.converge", _note_plane),
    ("repro.core.controller:KnapsackLBController.exploration_round", "core.explore", None),
    ("repro.core.controller:KnapsackLBController.compute_weights", "core.compute_weights", None),
    ("repro.core.controller:KnapsackLBController.control_step", "core.control_step", _note_control_step),
    ("repro.core.fleet_controller:FleetController.control_step", "core.fleet_control_step", None),
    ("repro.core.scheduler:MeasurementScheduler.plan_round", "core.scheduler.plan_round", None),
    ("repro.core.controller:fit_curve", "core.curve.fit", None),
    ("repro.core.multistep:build_assignment_problem", "core.ilp.build_problem", None),
    ("repro.core.scheduler:build_assignment_problem", "core.ilp.build_problem", None),
    ("repro.core.ilp:solve", "solver.solve", _note_solve),
    ("repro.probing.klm:KLM.probe_dip", "probing.probe_dip", _note_probe),
    ("repro.sim.fleet:Fleet.apply", "sim.fleet.apply", None),
    ("repro.sim.cluster:RequestCluster.__init__", "sim.cluster.build", None),
    ("repro.sim.cluster:RequestCluster.run", "sim.cluster.run", None),
    ("repro.parallel.epoch:epoch_schedule", "parallel.epoch.schedule", _note_barriers),
)


def install(tracer: Tracer, wraps: Iterable[tuple[str, str, Any]] = WRAPS) -> None:
    for target, span, note in wraps:
        tracer.wrap(target, span, note)


# -- span arithmetic ---------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus what its direct children cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def under_root(spans: list[Span]) -> list[bool]:
    """Whether each span descends from (or is) a :data:`ROOT` span."""
    inside: list[bool] = []
    for span in spans:
        inside.append(span.name == ROOT or (span.parent >= 0 and inside[span.parent]))
    return inside


@dataclass
class RepStats:
    """Span totals of one repetition, restricted to the ``api.run`` subtree."""

    root_s: float
    calls: dict[str, int]
    total_s: dict[str, float]
    self_s: dict[str, float]
    durations: dict[str, list[float]]

    @property
    def self_sum_ratio(self) -> float:
        return sum(self.self_s.values()) / self.root_s if self.root_s else 0.0


def fold(spans: list[Span]) -> dict[int, RepStats]:
    """Group spans by repetition and total them by name."""
    own = self_times(spans)
    inside = under_root(spans)
    reps: dict[int, RepStats] = {}
    for span, self_s, keep in zip(spans, own, inside):
        if not keep:
            continue
        stats = reps.setdefault(span.rep, RepStats(0.0, {}, {}, {}, {}))
        if span.name == ROOT:
            stats.root_s += span.duration
        stats.calls[span.name] = stats.calls.get(span.name, 0) + 1
        stats.total_s[span.name] = stats.total_s.get(span.name, 0.0) + span.duration
        stats.self_s[span.name] = stats.self_s.get(span.name, 0.0) + self_s
        stats.durations.setdefault(span.name, []).append(span.duration)
    return reps


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
