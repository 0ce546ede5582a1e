"""The measuring side: one workload in one fresh interpreter.

The program is driven only through its public surface —
``ExperimentSpec.from_file``, ``api.run(spec, observers=, shards=,
workers=)``, the ``Observer`` hooks and ``RunResult`` — so refactors below
that surface can land without editing the benchmark.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro import api

from . import calibrate, layers, spans
from .catalog import Workload


def load_spec(workload: Workload, seed: int, *, quick: bool = False) -> "api.ExperimentSpec":
    """The workload's spec file with ``--seed`` in place of ``spec.seed``."""
    spec = api.ExperimentSpec.from_file(workload.spec_path)
    overrides: dict[str, Any] = {"seed": seed}
    if quick:
        overrides.update(workload.quick)
    return spec.with_overrides(overrides)


class _RowClock(api.BaseObserver):
    """Host time of every result row (``on_window`` call) of one run.

    ``paced``: also read the box's slowness at every row — the one place
    inside a repetition where the public surface hands control back — and
    keep the time that takes out of the repetition's.
    """

    def __init__(self, paced: bool) -> None:
        self.paced = paced
        self.arrived: list[float] = []
        self.left: list[float] = []
        self.slowness: list[float] = []

    def on_window(self, window: "api.RunWindow") -> None:
        self.arrived.append(time.perf_counter())
        if self.paced:
            self.slowness.append(calibrate.slowness(samples=1))
        self.left.append(time.perf_counter())


@dataclass
class Rep:
    """One timed repetition: ``api.run`` entry to ``to_json`` returned."""

    seed: int
    run_s: float
    first_window_s: float
    #: gaps between consecutive result rows (the one run when there is no
    #: timeline).
    row_gaps_s: list[float]
    cpu_s: float
    sim: dict[str, float]
    #: requests the run submitted (0 on the analytic substrates).
    requests: float
    #: how slow the box was (``calibrate.slowness``) before the repetition,
    #: at each of its result rows, and after it; every host time is reported
    #: divided by the mean of the readings from the one before it starts to
    #: the one after it ends.  All 1 where nothing was read (the workload is
    #: wall-limited, or the pass is the traced one).
    slowness: list[float] = field(default_factory=lambda: [1.0, 1.0])
    result: Any = field(repr=False, default=None)
    text: str = field(repr=False, default="")


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_rep(
    spec: "api.ExperimentSpec",
    workload: Workload,
    tracer: "spans.Tracer | None" = None,
    *,
    paced: bool = False,
) -> Rep:
    """Execute ``spec`` once, timing it the way ``run_s`` is defined."""
    clock = _RowClock(paced)
    cpu = _cpu_seconds()
    root = tracer.begin(spans.ROOT) if tracer is not None else -1
    start = time.perf_counter()
    try:
        result = api.run(
            spec, observers=[clock], shards=workload.shards, workers=workload.workers
        )
        returned = time.perf_counter()
        text = result.to_json()
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.end(root)
    arrived = clock.arrived or [returned]
    mean = result.metrics["mean_latency_ms"]
    return Rep(
        seed=spec.seed,
        run_s=end - start - sum(b - a for a, b in zip(clock.arrived, clock.left)),
        first_window_s=arrived[0] - start,
        row_gaps_s=(
            [b - a for a, b in zip(clock.left, arrived[1:])]
            if len(arrived) > 1
            else [arrived[0] - start]
        ),
        cpu_s=_cpu_seconds() - cpu,
        sim={
            "sim_mean_latency_ms": mean,
            # Analytic substrates record no latency distribution; the
            # repo's exponential-tail estimate stands in (see the
            # request_vs_fluid_crosscheck scenario).
            "sim_p99_latency_ms": result.metrics.get(
                "p99_latency_ms", mean * math.log(100.0)
            ),
            "sim_served_fraction": 1.0 - result.metrics.get("drop_fraction", 0.0),
        },
        requests=result.metrics.get("requests_submitted", 0.0),
        slowness=[1.0, *(clock.slowness or [1.0] * len(clock.arrived)), 1.0],
        result=result,
        text=text,
    )


# -- output checks, each a counted operation ---------------------------------------


def _assignments(detail: Any) -> list[Any]:
    """Weight assignments a run exposes through ``RunResult.detail``."""
    if isinstance(detail, dict):
        return list(detail.get("assignments", {}).values())
    return [detail] if hasattr(detail, "weights") else []


def check_rep(rep: Rep, first: Rep, workload: Workload) -> dict[str, str | None]:
    """Output checks on one repetition: name -> ``None`` (pass) or why it failed."""
    result, spec = rep.result, rep.result.spec
    checks: dict[str, str | None] = {}

    bad = [k for k, v in result.metrics.items() if not math.isfinite(v)]
    checks["finite"] = f"non-finite metrics: {bad}" if bad else None

    if workload.vary_seed:
        # Repetitions run different instances (and a solve cut at the limit
        # returns the incumbent the host reached), so results need not
        # repeat; the weights must still be a split.
        sums = [sum(a.weights.values()) for a in _assignments(result.detail)]
        off = [s for s in sums if abs(s - 1.0) > 1e-6]
        if sums:
            checks["weights_sum"] = f"weights sum to {off}" if off else None
    elif rep is not first:
        same = result.metrics_equal(first.result)
        checks["repeatable"] = None if same else "metrics differ from repetition 0"

    loaded = api.RunResult.from_dict(json.loads(rep.text))
    round_trip = (
        loaded.metrics_equal(result)
        and loaded.spec == spec
        and len(loaded.windows) == len(result.windows)
    )
    checks["round_trip"] = None if round_trip else "from_dict(to_json()) differs"

    if spec.runner == "request" and spec.timeline.empty:
        wanted = spec.workload.num_requests
        got = result.metrics["requests_submitted"]
        # Within 1 % of the spec, or four Poisson standard deviations
        # where that is wider (the --quick pass).
        near = abs(got - wanted) <= max(0.01 * wanted, 4.0 * math.sqrt(wanted))
        checks["requests_submitted"] = None if near else f"{got:g} vs spec {wanted}"

    if workload.shard_mode is not None:
        # A silent planner downgrade must not turn the parallel workload
        # into a second serial one.
        prov = result.provenance
        ok = prov.shard_mode == workload.shard_mode and (
            workload.shard_mode == "serial" or prov.fallback_reason is None
        )
        checks["shard_mode"] = (
            None if ok else f"{prov.shard_mode!r} (fallback: {prov.fallback_reason})"
        )

    if not spec.timeline.empty:
        checks.update(_check_windows(result, spec))
    if spec.runner == "fleet" and spec.controller.enabled:
        got = result.metrics.get("vips_with_assignment")
        ok = got == float(spec.fleet.num_vips)
        checks["vips_with_assignment"] = None if ok else f"{got} of {spec.fleet.num_vips}"
    return checks


def _check_windows(result: Any, spec: Any) -> dict[str, str | None]:
    timeline, windows = spec.timeline, result.windows
    expected = math.ceil(timeline.duration_s() / timeline.window_s - 1e-9)
    contiguous = (
        len(windows) == expected
        and windows[0].start_s == 0.0
        and all(a.end_s == b.start_s for a, b in zip(windows, windows[1:]))
        and abs(windows[-1].end_s - timeline.duration_s()) < 1e-9
    )
    seen = {label for window in windows for label in window.events}
    lost = [e.label() for e in timeline.events if e.label() not in seen]
    shares = [sum(window.dip_share.values()) for window in windows]
    off = [s for s in shares if abs(s - 1.0) > 1e-9]
    return {
        "windows": None if contiguous else f"{len(windows)} windows, expected {expected} contiguous",
        "events": f"events missing from windows: {lost}" if lost else None,
        "dip_share": f"dip_share sums {off}" if off else None,
    }


# -- phases ------------------------------------------------------------------------


def setup(workload: Workload, seed: int, t0: float, *, quick: bool) -> tuple[Any, float]:
    """Parse and validate the spec, run the scaled-down warm-up repetition.

    ``t0`` is the parent's ``time.monotonic()`` just before it spawned this
    interpreter, so the returned ``setup_s`` covers interpreter start and
    imports too; it is divided by the box's slowness right after.  With
    ``--quick`` the warm-up is the quick spec itself.
    """
    spec = load_spec(workload, seed, quick=quick)
    warm = spec if quick else spec.with_overrides(workload.warmup)
    run_rep(warm, workload)
    elapsed = time.monotonic() - t0
    return spec, elapsed / calibrate.slowness(samples=5)


#: Every pool builder seeds DIP ``k`` with ``seed + k``, so seeds ``n`` and
#: ``n + 1`` draw all but one of the same DIP streams and make nearly the
#: same instance (measured on a uniform 100-DIP pool, where the streams are
#: all that differs: ten cold-convergence runs of nine repetitions over
#: ``n + i`` read 2.2-3.4 s, each run's repetitions within 10 % of each
#: other).  A stride past any pool size makes the instances independent.
SEED_STRIDE = 1009


def _rep_spec(spec: Any, workload: Workload, index: int) -> Any:
    if workload.vary_seed and index:
        return spec.with_overrides({"seed": spec.seed + SEED_STRIDE * index})
    return spec


def _repeat(spec: Any, workload: Workload, seconds: float, ops: "Ops") -> list[Rep]:
    """Closed loop, one client: repetitions back to back for ``seconds``.

    Unless the workload is wall-limited the calibration kernel runs between
    repetitions, and at every result row inside one.
    """
    reps: list[Rep] = []
    least = 1 if workload.vary_seed else 2
    paced = not workload.wall_limited
    started = time.perf_counter()
    before = calibrate.slowness() if paced else 1.0
    while True:
        try:
            rep = run_rep(_rep_spec(spec, workload, len(reps)), workload, paced=paced)
        except Exception as error:  # the boundary that must report, not die
            ops.record("rep", f"{type(error).__name__}: {error}")
            break
        after = calibrate.slowness() if paced else 1.0
        rep.slowness[0], rep.slowness[-1] = before, after
        before = after
        ops.record("rep", None)
        reps.append(rep)
        for name, why in check_rep(rep, reps[0], workload).items():
            ops.record(name, why)
        # Only repetition 0 is compared against later; its in-memory detail
        # (a request run's per-request columns) must not pile up in the
        # resident set the benchmark reports.
        rep.result = replace(rep.result, detail=None) if rep is reps[0] else None
        rep.text = ""
        # The run's object graph is cyclic; collect it now so the resident
        # set peaks at one repetition however many fit into the run.
        del rep
        gc.collect()
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.run_s for r in reps)
        # Stop where the next repetition would overshoot by more than it
        # undershoots.
        if len(reps) >= least and elapsed + 0.5 * typical >= seconds:
            break
    return reps


@dataclass
class Ops:
    """Checked operations: attempted, failed, and why."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failed += 1
            self.failures.append(f"{name}: {why}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
        }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def measure(workload: Workload, spec: Any, seconds: float) -> dict[str, Any]:
    """The untraced pass: end-to-end samples of one workload."""
    ops = Ops()
    reps = _repeat(spec, workload, seconds, ops)
    if not reps:
        # Nothing was measured: end without a result rather than invent one.
        raise SystemExit(f"{workload.name}: no repetition completed ({ops.failures[-1]})")
    mean = statistics.fmean
    samples = {
        "run_s": [r.run_s / mean(r.slowness) for r in reps],
        "first_window_s": [r.first_window_s / mean(r.slowness[:2]) for r in reps],
        "tick_ms": [
            gap * 1e3 / mean(r.slowness[i + 1 : i + 3] if len(r.row_gaps_s) > 1 else r.slowness)
            for r in reps
            for i, gap in enumerate(r.row_gaps_s)
        ],
        "peak_rss_mb": [_peak_rss_mb()],
    }
    for name in ("sim_mean_latency_ms", "sim_p99_latency_ms", "sim_served_fraction"):
        samples[name] = [r.sim[name] for r in reps]
    return {
        "seeds": [r.seed for r in reps],
        "samples": samples,
        # As the clock read them, and what they were divided by.
        "as_measured": {
            "run_s": [r.run_s for r in reps],
            "slowness": [mean(r.slowness) for r in reps],
        },
        "ops": ops.to_dict(),
    }


def traced(workload: Workload, spec: Any, seconds: float) -> dict[str, Any]:
    """The traced pass: per-layer metrics of one workload.

    For half the run, pairs of repetitions on the same seed — one untraced,
    one traced — then the direct probes that live on this workload.
    ``trace.overhead`` is the median traced / untraced ratio of the pairs,
    less one.
    """
    ops = Ops()
    reps: list[Rep] = []
    plain: list[Rep] = []
    tracer = spans.Tracer()
    started = time.perf_counter()
    while not ops.failed:
        pair_spec = _rep_spec(spec, workload, len(reps))
        try:
            plain.append(run_rep(pair_spec, workload))
            tracer.rep = len(reps)
            with tracer:
                spans.install(tracer)
                reps.append(run_rep(pair_spec, workload, tracer))
        except Exception as error:  # the boundary that must report, not die
            ops.record("rep", f"{type(error).__name__}: {error}")
            break
        ops.record("rep", None)
        ops.record("rep", None)
        for rep in (plain[-1], reps[-1]):
            rep.result, rep.text = None, ""
        pair_s = plain[-1].run_s + reps[-1].run_s
        if time.perf_counter() - started + 0.5 * pair_s >= seconds / 2.0:
            break
    values, reasons = layers.metrics(workload, spec, tracer, reps, plain)
    return {
        "seeds": [r.seed for r in reps],
        "per_layer": values,
        "reasons": reasons,
        "run_s_traced": [r.run_s for r in reps],
        "run_s_untraced": [r.run_s for r in plain],
        "spans": [
            [s.name, s.start, s.end, s.parent, s.rep] for s in tracer.spans
        ],
        "ops": ops.to_dict(),
    }
