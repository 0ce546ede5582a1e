"""What the observatory measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the machine-readable copy of
this file (``test_observatory.py`` holds the two together).  Every later
performance claim names one metric and one workload from these lists.

Layers are this repo's modules: ``api``, ``core``, ``solver``, ``probing``
(with ``backends``), ``sim.fleet`` / ``sim.fluid``, ``sim.cluster`` /
``sim.engine`` / ``sim.queueing`` / ``sim.client`` / ``sim.trace``, ``lb``
and ``parallel``.  ``sim_*`` quantities are what the modelled system would
see; everything else is host time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
WORKLOAD_DIR = HERE / "workloads"

#: seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 20
#: set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: per-solve HiGHS budget on ``ctl_cold_100``: two ILP steps fit the paper's
#: 645 ms at 100 DIPs (Table 6).  HiGHS has the weights it ends with after
#: ~30 ms (no solve of 600 ended without one under a 0.04 s limit) but proves
#: the 1e-6 gap on these instances either within the limit or not within
#: minutes, so the limit bounds host time, not quality; solves that end at it
#: are counted (``solver.solve.limit_hits``), not hidden.
ILP_TIME_LIMIT_S = 0.3


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a spec file plus how to execute it.

    One client: a repetition is a fixed amount of work (one ``api.run`` of
    the spec) and the next starts when the previous returns.
    """

    name: str
    #: one line, <= 200 characters (copied into BENCHMARK.json).
    why: str
    #: ``api.run(shards=, workers=)``; ``None`` runs the serial path.
    shards: int | None = None
    workers: int | None = None
    #: The controller's host time and the latency its weights reach swing
    #: by a quarter and more between statistically equal instances (how
    #: many rounds, how many re-solves; HiGHS several-fold), so repetition
    #: ``i`` runs seed ``seed + i`` and the run reports the middle of its
    #: instances.  Results are then checked structurally.  Workloads whose
    #: work does not depend on the instance repeat one seed and must
    #: reproduce it bit-for-bit.
    vary_seed: bool = False
    #: Most of a repetition is spent in solves that end at a wall-clock
    #: limit, which take as long on a slow box as on a fast one; its host
    #: times are reported as measured, not divided by the box's slowness
    #: (see ``calibrate.py``).
    wall_limited: bool = False
    #: ``provenance.shard_mode`` the run must report (``None``: unchecked).
    shard_mode: str | None = None
    #: spec overrides of the scaled-down warm-up repetition timed in set-up.
    warmup: dict[str, Any] = field(default_factory=dict)
    #: spec overrides of the ``--quick`` self-test pass.
    quick: dict[str, Any] = field(default_factory=dict)

    @property
    def spec_path(self) -> Path:
        return WORKLOAD_DIR / f"{self.name}.json"


_SMALL_FLEET = {"pool": {"kind": "mixed_core", "num_dips": 8}, "fleet.num_vips": 2}
_SMALL_POOL = {"pool": {"kind": "uniform", "num_dips": 8}}

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="ctl_cold_100",
        why=(
            "Paper-scale cold convergence (explore, fit, two-step ILP) on 100 "
            "mixed-core DIPs: HiGHS does ~70% of the work on 1000-variable "
            "instances, half its solves ending at the 0.3 s limit; sim.*, lb idle."
        ),
        vary_seed=True,
        wall_limited=True,
        warmup={"pool.num_dips": 8},
        quick={"pool.num_dips": 8},
    ),
    Workload(
        name="fleet_dynamics",
        why=(
            "The control loop at fleet scope: 8 interleaved cold convergences, "
            "then a tick per window under churn: api.timeline, fleet_controller, "
            "probing, Fleet.apply and ~300 small dp solves share the load."
        ),
        vary_seed=True,
        warmup={
            **_SMALL_FLEET,
            "timeline": {"window_s": 5.0, "horizon_s": 10.0, "events": []},
        },
        quick={
            **_SMALL_FLEET,
            "timeline": {
                "window_s": 5.0,
                "horizon_s": 15.0,
                "events": [
                    {"time_s": 5.0, "kind": "capacity_ratio", "dip": "DIP-2", "value": 0.6}
                ],
            },
        },
    ),
    Workload(
        name="req_serial_rr",
        why=(
            "Bare request engine: rr routing costs ~0, so sim.engine, "
            "sim.queueing, sim.client and sim.trace are the whole run. "
            "Bypasses solver, lb cost and parallel."
        ),
        shard_mode="serial",
        warmup={"pool.num_dips": 8, "workload.num_requests": 10_000},
        quick={"pool.num_dips": 8, "workload.num_requests": 5_000},
    ),
    Workload(
        name="req_serial_klb_wrr",
        why=(
            "The paper's pool and method through the same engine: Table 3 DIPs, "
            "weights converged on the fluid twin and replayed; the smooth-WRR "
            "pick is ~2/3 of per-request cost, so a policy change shows here."
        ),
        vary_seed=True,
        shard_mode="serial",
        warmup={"workload.num_requests": 4_000},
        quick={**_SMALL_POOL, "workload.num_requests": 3_000},
    ),
    Workload(
        name="req_epoch_lc",
        why=(
            "parallel (planner, epoch routers, Kiefer-Wolfowitz kernel, merge; "
            "2 shards run inline) replaces engine, station and lb: the same "
            "routing-plus-station job done the other way."
        ),
        shards=2,
        # One process: two workers and the merging parent on the sizing
        # box's two shared cores took 2x as long whenever a neighbour was
        # busy.  The fan-out is measured per layer (parallel.epoch.fanout_s).
        workers=1,
        shard_mode="epoch",
        warmup={"pool.num_dips": 8, "workload.num_requests": 30_000},
        quick={"pool.num_dips": 8, "workload.num_requests": 10_000},
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the system would see, with its regression bound.

    Host times are seconds on a box of reference speed: the clock's reading
    divided by the box's slowness around it (``calibrate.py``), except on a
    wall-limited workload.
    """

    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse.
    bound: float
    definition: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "interpreter start -> imports -> spec file parsed and validated -> "
        "one scaled-down warm-up repetition done; median of the run's set-ups",
    ),
    EndToEnd(
        "run_s", "s", "lower", 0.25,
        "one repetition: api.run(spec, ...) entry to RunResult.to_json() returned",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.25,
        "max of ru_maxrss over the measuring process and its children",
    ),
    EndToEnd(
        "first_window_s", "s", "lower", 0.25,
        "api.run entry to the first result row: the first Observer.on_window "
        "call, or the returned RunResult when the spec has no timeline",
    ),
    EndToEnd(
        "tick_ms", "ms", "lower", 0.25,
        "gap between consecutive result rows, pooled over repetitions: one "
        "window advance plus one control tick for every VIP; without a "
        "timeline the one row is the result itself",
    ),
    EndToEnd(
        "sim_mean_latency_ms", "ms", "lower", 0.25,
        "RunResult.metrics['mean_latency_ms'], median over repetitions",
    ),
    EndToEnd(
        "sim_p99_latency_ms", "ms", "lower", 0.25,
        "metrics['p99_latency_ms']; analytic substrates record no "
        "distribution, so the repo's exponential-tail estimate "
        "mean * ln(100) stands in",
    ),
    EndToEnd(
        "sim_served_fraction", "fraction", "higher", 0.001,
        "1 - metrics['drop_fraction'] (1 where the substrate drops nothing)",
    ),
    EndToEnd(
        "ops_ok_fraction", "fraction", "higher", 0.001,
        "checked operations that passed / attempted; an operation is one "
        "set-up, one repetition or one output check on it",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    """A metric of one layer, and the end-to-end number it should move."""

    name: str
    unit: str
    better: str
    #: "traced": from spans the traced pass records around calls into the
    #: layer; "direct": the benchmark calls the layer's public function in
    #: a loop on inputs shaped like the workload's (wherever the call
    #: happens once per request, where a span per call would measure the
    #: tracer).
    how: str
    #: workload whose traced run measures it ("*": every workload).
    measured_on: str
    #: (end-to-end metric, workload) it should move, written down before
    #: measuring.
    moves: tuple[str, str]


def _layer(prefix: str, how: str, measured_on: str, moves: tuple[str, str],
           *rows: tuple[str, str, str]) -> tuple[PerLayer, ...]:
    return tuple(
        PerLayer(f"{prefix}.{suffix}", unit, better, how, measured_on, moves)
        for suffix, unit, better in rows
    )


PER_LAYER: tuple[PerLayer, ...] = (
    *_layer(
        "api", "direct", "*", ("setup_s", "req_serial_rr"),
        ("spec.from_file_ms", "ms", "lower"),
    ),
    *_layer(
        "api", "traced", "*", ("run_s", "req_serial_rr"),
        ("run.self_s", "s", "lower"),
        ("run.cpu_s", "s", "lower"),
        ("result.to_json_ms", "ms", "lower"),
    ),
    *_layer(
        "api.timeline.step", "traced", "*", ("tick_ms", "fleet_dynamics"),
        ("count", "count", "lower"),
        ("p50_ms", "ms", "lower"),
        ("p80_ms", "ms", "lower"),
        ("self_s", "s", "lower"),
    ),
    *_layer(
        "core", "traced", "*", ("run_s", "ctl_cold_100"),
        ("converge.s", "s", "lower"),
        ("explore.rounds", "count", "lower"),
        ("explore.self_s", "s", "lower"),
        ("scheduler.plan_round.calls", "count", "lower"),
        ("scheduler.plan_round.s", "s", "lower"),
        ("curve.fit.calls", "count", "lower"),
        ("curve.fit.s", "s", "lower"),
        ("ilp.build_problem.calls", "count", "lower"),
        ("ilp.build_problem.s", "s", "lower"),
    ),
    *_layer(
        "core.control_step", "traced", "*", ("tick_ms", "fleet_dynamics"),
        ("calls", "count", "lower"),
        ("s", "s", "lower"),
        ("reprograms", "count", "lower"),
    ),
    *_layer(
        "solver", "traced", "*", ("run_s", "ctl_cold_100"),
        ("solve.calls", "count", "lower"),
        ("solve.s", "s", "lower"),
        ("solve.p50_ms", "ms", "lower"),
        ("solve.max_s", "s", "lower"),
        ("solve.vars_total", "count", "lower"),
        ("solve.limit_hits", "count", "lower"),
        ("solve.infeasible", "count", "lower"),
        ("share_of_run", "fraction", "lower"),
    ),
    *_layer(
        "solver.cache", "traced", "*", ("tick_ms", "fleet_dynamics"),
        ("hits", "count", "higher"),
        ("misses", "count", "lower"),
    ),
    *(
        row
        for backend in ("scipy", "branch_and_bound", "greedy", "dp")
        for row in _layer(
            f"solver.backend.{backend}", "direct", "fleet_dynamics",
            ("first_window_s", "fleet_dynamics"),
            ("p50_ms", "ms", "lower"),
            ("gap_pct", "%", "lower"),
        )
    ),
    *_layer(
        "probing", "traced", "*", ("tick_ms", "fleet_dynamics"),
        ("probe_dip.calls", "count", "lower"),
        ("probe_dip.s", "s", "lower"),
        ("requests_sampled", "count", "lower"),
    ),
    *_layer(
        "sim.fleet", "traced", "*", ("tick_ms", "fleet_dynamics"),
        ("apply.calls", "count", "lower"),
        ("apply.s", "s", "lower"),
    ),
    *_layer(
        "sim.fleet", "direct", "fleet_dynamics", ("tick_ms", "fleet_dynamics"),
        ("apply_ms.2000x20", "ms", "lower"),
    ),
    *_layer(
        "sim.cluster", "traced", "*", ("run_s", "req_serial_rr"),
        ("build_s", "s", "lower"),
        ("run_s", "s", "lower"),
        ("req_per_s", "1/s", "higher"),
    ),
    *_layer(
        "sim", "direct", "req_serial_rr", ("run_s", "req_serial_rr"),
        ("engine.bare_events_per_s", "1/s", "higher"),
        ("queueing.station_req_per_s", "1/s", "higher"),
        ("client.gaps_per_s", "1/s", "higher"),
        ("trace.record_per_s", "1/s", "higher"),
    ),
    *_layer(
        "sim.trace", "direct", "req_serial_rr", ("peak_rss_mb", "req_epoch_lc"),
        ("fold_ms", "ms", "lower"),
        ("bytes_per_request", "B", "lower"),
    ),
    *_layer(
        "lb", "direct", "req_serial_klb_wrr", ("run_s", "req_serial_klb_wrr"),
        ("rr.picks_per_s", "1/s", "higher"),
        ("wrr.picks_per_s", "1/s", "higher"),
        ("lc.picks_per_s", "1/s", "higher"),
        ("wlc.picks_per_s", "1/s", "higher"),
        ("p2.picks_per_s", "1/s", "higher"),
    ),
    *_layer(
        "parallel", "direct", "req_epoch_lc", ("run_s", "req_epoch_lc"),
        ("plan_ms", "ms", "lower"),
        ("kernel.station_req_per_s", "1/s", "higher"),
        ("epoch.inline_s", "s", "lower"),
        ("epoch.fanout_s", "s", "lower"),
        ("scaling_2w", "x", "higher"),
        ("epoch.mean_rel_err", "fraction", "lower"),
    ),
    *_layer(
        "parallel", "traced", "*", ("run_s", "req_epoch_lc"),
        ("epoch.barriers", "count", "lower"),
    ),
    *_layer(
        "trace", "traced", "*", ("run_s", "req_serial_rr"),
        ("overhead", "fraction", "lower"),
        ("self_sum_ratio", "fraction", "higher"),
    ),
)


def manifest(command: list[str], paths: list[str]) -> dict[str, Any]:
    """The BENCHMARK.json document this catalog describes."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
