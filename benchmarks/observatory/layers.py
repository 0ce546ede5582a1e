"""Per-layer metrics of one traced run: span folds plus the direct probes."""

from __future__ import annotations

from typing import Any, Callable

from . import probes, spans
from .catalog import PER_LAYER, Workload


class _Unmeasured(Exception):
    """The metric has no value on this run; the message says why."""


def metrics(
    workload: Workload,
    spec: Any,
    tracer: spans.Tracer,
    reps: list[Any],
    plain: list[Any],
) -> tuple[dict[str, float | None], dict[str, str]]:
    """Every catalogued per-layer metric: value, or ``None`` with a reason.

    ``reps`` are the traced repetitions, ``plain`` their untraced twins.
    Traced counts and times are medians over the traced repetitions of
    per-repetition totals (``p50``/``p80``/``max`` pool the calls of all
    repetitions); counts repeat exactly per seed.  A direct probe runs only
    on the workload whose inputs it is shaped like.
    """
    folded = spans.fold(tracer.spans)
    stats = [folded[i] for i in sorted(folded)]

    def need(span: str) -> None:
        if span in tracer.missing:
            raise _Unmeasured(tracer.missing[span])
        if not stats:
            raise _Unmeasured("no traced repetition completed")

    def per_rep(pick: Callable[[spans.RepStats], float]) -> float:
        return spans.median(pick(s) for s in stats)

    def calls(span: str) -> float:
        need(span)
        return per_rep(lambda s: float(s.calls.get(span, 0)))

    def total(span: str) -> float:
        need(span)
        return per_rep(lambda s: s.total_s.get(span, 0.0))

    def own(span: str) -> float:
        need(span)
        return per_rep(lambda s: s.self_s.get(span, 0.0))

    def share(span: str) -> float:
        need(span)
        return per_rep(
            lambda s: s.self_s.get(span, 0.0) / s.root_s if s.root_s else 0.0
        )

    def share_sum() -> float:
        need(spans.ROOT)
        return per_rep(lambda s: s.self_sum_ratio)

    def pooled(span: str) -> list[float]:
        need(span)
        return [d for s in stats for d in s.durations.get(span, [])]

    def counted(span: str, name: str) -> float:
        need(span)
        return spans.median(
            tracer.counts.get((rep, name), 0.0) for rep in sorted(folded)
        )

    def cache(attr: str) -> float:
        need("core.converge")
        caches = tracer.captured.get("caches", {})
        return spans.median(
            float(getattr(caches[rep], attr)) if rep in caches else 0.0
            for rep in sorted(folded)
        )

    def overhead() -> float:
        if not reps:
            raise _Unmeasured("no traced repetition completed")
        return spans.median(t.run_s / u.run_s for t, u in zip(reps, plain)) - 1.0

    def req_per_s() -> float:
        seconds = total("sim.cluster.run")
        return spans.median(r.requests for r in reps) / seconds if seconds else 0.0

    traced: dict[str, Callable[[], float]] = {
        "api.run.self_s": lambda: own(spans.ROOT),
        "api.run.cpu_s": lambda: spans.median(r.cpu_s for r in reps),
        "api.result.to_json_ms": lambda: total("api.result.to_json") * 1e3,
        "api.timeline.step.count": lambda: calls("api.timeline.step"),
        "api.timeline.step.p50_ms": lambda: spans.percentile(pooled("api.timeline.step"), 50) * 1e3,
        "api.timeline.step.p80_ms": lambda: spans.percentile(pooled("api.timeline.step"), 80) * 1e3,
        "api.timeline.step.self_s": lambda: own("api.timeline.step"),
        "core.converge.s": lambda: total("core.converge"),
        "core.explore.rounds": lambda: calls("core.explore"),
        "core.explore.self_s": lambda: own("core.explore"),
        "core.scheduler.plan_round.calls": lambda: calls("core.scheduler.plan_round"),
        "core.scheduler.plan_round.s": lambda: total("core.scheduler.plan_round"),
        "core.curve.fit.calls": lambda: calls("core.curve.fit"),
        "core.curve.fit.s": lambda: total("core.curve.fit"),
        "core.ilp.build_problem.calls": lambda: calls("core.ilp.build_problem"),
        "core.ilp.build_problem.s": lambda: total("core.ilp.build_problem"),
        "core.control_step.calls": lambda: calls("core.control_step"),
        "core.control_step.s": lambda: total("core.control_step"),
        "core.control_step.reprograms": lambda: counted(
            "core.control_step", "core.control_step.reprograms"
        ),
        "solver.solve.calls": lambda: calls("solver.solve"),
        "solver.solve.s": lambda: total("solver.solve"),
        "solver.solve.p50_ms": lambda: spans.percentile(pooled("solver.solve"), 50) * 1e3,
        "solver.solve.max_s": lambda: max(pooled("solver.solve"), default=0.0),
        "solver.solve.vars_total": lambda: counted("solver.solve", "solver.solve.vars_total"),
        "solver.solve.limit_hits": lambda: counted("solver.solve", "solver.solve.limit_hits"),
        "solver.solve.infeasible": lambda: counted("solver.solve", "solver.solve.infeasible"),
        "solver.share_of_run": lambda: share("solver.solve"),
        "solver.cache.hits": lambda: cache("hits"),
        "solver.cache.misses": lambda: cache("misses"),
        "probing.probe_dip.calls": lambda: calls("probing.probe_dip"),
        "probing.probe_dip.s": lambda: total("probing.probe_dip"),
        "probing.requests_sampled": lambda: counted(
            "probing.probe_dip", "probing.requests_sampled"
        ),
        "sim.fleet.apply.calls": lambda: calls("sim.fleet.apply"),
        "sim.fleet.apply.s": lambda: total("sim.fleet.apply"),
        "sim.cluster.build_s": lambda: total("sim.cluster.build"),
        "sim.cluster.run_s": lambda: total("sim.cluster.run"),
        "sim.cluster.req_per_s": req_per_s,
        "parallel.epoch.barriers": lambda: counted(
            "parallel.epoch.schedule", "parallel.epoch.barriers"
        ),
        "trace.overhead": overhead,
        "trace.self_sum_ratio": share_sum,
    }

    direct, broken = probes.run(workload, spec, tracer.captured)

    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for metric in PER_LAYER:
        name = metric.name
        if name in traced:
            try:
                values[name] = float(traced[name]())
            except _Unmeasured as why:
                values[name], reasons[name] = None, str(why)
        elif name in direct:
            value = direct[name]
            if isinstance(value, str):
                values[name], reasons[name] = None, value
            else:
                values[name] = float(value)
        elif metric.measured_on in ("*", workload.name):
            values[name] = None
            reasons[name] = "; ".join(broken) or "its probe reported nothing"
        else:
            values[name] = None
            reasons[name] = f"direct probe, measured on {metric.measured_on}"
    return values, reasons
