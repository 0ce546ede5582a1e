"""Direct probes: a layer's public function called in a loop.

Used wherever the call happens once per request, where a span per call
would measure the tracer.  Each probe runs on the workload whose inputs it
is shaped like (``PerLayer.measured_on``) and yields numbers keyed by
metric name.  A probe whose target no longer exists is reported by name
with the error, and the metrics it feeds read ``null``.
"""

from __future__ import annotations

import collections
import itertools
import time
import tracemalloc
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from repro import api

from .catalog import Workload

Values = dict[str, "float | str"]

#: requests / events / picks per direct loop.
_N = 200_000


def _clock(func: Callable[[], Any]) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def spec_from_file(workload: Workload, spec: Any, captured: dict) -> Values:
    loads = 20
    seconds = _clock(
        lambda: [api.ExperimentSpec.from_file(workload.spec_path) for _ in range(loads)]
    )
    return {"api.spec.from_file_ms": seconds / loads * 1e3}


# -- sim.engine / sim.queueing / sim.client / sim.trace (req_serial_rr) --------------


def engine_bare(workload: Workload, spec: Any, captured: dict) -> Values:
    """``run_stream`` merging an arrival stream with no-op heap events."""
    from repro.sim.engine import EventScheduler

    scheduler = EventScheduler()
    gap = 1e-3
    arrivals = itertools.count(1)

    def noop() -> None:
        pass

    def fire() -> float:
        scheduler.schedule(1.5 * gap, noop)
        return next(arrivals) * gap

    horizon = _N / 2 * gap
    seconds = _clock(lambda: scheduler.run_stream(horizon, 0.0, fire))
    return {"sim.engine.bare_events_per_s": scheduler.processed_events / seconds}


def station(workload: Workload, spec: Any, captured: dict) -> Values:
    """One ``DipStation`` of the workload's pool at rho = 0.7."""
    from repro.api.runners import pool_from_spec
    from repro.sim.engine import EventScheduler
    from repro.sim.queueing import DipStation
    from repro.sim.request import Request

    dip = next(iter(pool_from_spec(replace(spec.pool, num_dips=1), spec.seed).values()))
    scheduler = EventScheduler()
    done = [0]

    def sink(request: Request) -> None:
        done[0] += 1

    one = DipStation(dip, scheduler, seed=spec.seed, completion_sink=sink)
    rng = np.random.default_rng(spec.seed)
    times = rng.exponential(1.0 / (0.7 * dip.capacity_rps), size=_N).cumsum().tolist()
    times.append(float("inf"))
    cursor = itertools.count(1)

    def fire() -> float:
        index = next(cursor)
        one.submit(Request(index, None, scheduler.now, dip.dip_id))
        return times[index]

    seconds = _clock(lambda: scheduler.run_stream(times[-2] + 1.0, times[0], fire))
    return {"sim.queueing.station_req_per_s": done[0] / seconds}


def client_gaps(workload: Workload, spec: Any, captured: dict) -> Values:
    from repro.sim.client import WorkloadGenerator

    generator = WorkloadGenerator(1000.0, seed=spec.seed)
    batches, size = 500, 4096
    seconds = _clock(
        lambda: [generator.next_interarrival_batch(size) for _ in range(batches)]
    )
    return {"sim.client.gaps_per_s": batches * size / seconds}


def collector(workload: Workload, spec: Any, captured: dict) -> Values:
    """``record_request`` x 1M, then the folds a request run ends with."""
    from repro.sim.trace import MetricsCollector

    records = 1_000_000
    dips = [f"DIP-{i + 1}" for i in range(spec.pool.num_dips)]
    latencies = np.random.default_rng(spec.seed).exponential(3.0, size=records).tolist()

    def fill(metrics: Any, count: int) -> None:
        record = metrics.record_request
        for index in range(count):
            record(dips[index % len(dips)], latencies[index], True, index * 1e-5)

    metrics = MetricsCollector()
    record_s = _clock(lambda: fill(metrics, records))

    def fold() -> None:
        metrics.mean_latency_ms()
        metrics.percentile_latency_ms(50)
        metrics.percentile_latency_ms(99)
        metrics.summaries()

    fold_s = _clock(fold)
    # Bytes held per recorded request, on a smaller pass of its own: the
    # allocation tracer slows the recording it watches.
    sample = records // 5
    tracemalloc.start()
    try:
        held = MetricsCollector()
        fill(held, sample)
        held.mean_latency_ms()  # flushes the staged rows into the columns
        held_bytes, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "sim.trace.record_per_s": records / record_s,
        "sim.trace.fold_ms": fold_s * 1e3,
        "sim.trace.bytes_per_request": held_bytes / sample,
    }


# -- lb (req_serial_klb_wrr) -------------------------------------------------------------


def lb_picks(workload: Workload, spec: Any, captured: dict) -> Values:
    """``select`` over 64 DIPs with the open/close callbacks count policies need."""
    from repro.lb import FlowKey, make_policy, policy_seed_kwargs

    dips = [f"DIP-{i + 1}" for i in range(64)]
    weights = dict(zip(dips, np.random.default_rng(spec.seed).uniform(0.5, 2.0, 64).tolist()))
    flow = FlowKey(src_ip="10.1.0.1", src_port=1024, dst_ip="10.0.0.1", dst_port=80)
    picks = _N // 2
    values: Values = {}
    for name in ("rr", "wrr", "lc", "wlc", "p2"):
        policy = make_policy(name, dips, **policy_seed_kwargs(name, seed=spec.seed))
        if policy.supports_weights:
            policy.set_weights(weights)
        select = policy.select
        opened, closed = policy.on_connection_open, policy.on_connection_close
        in_flight: collections.deque[str] = collections.deque()

        def loop() -> None:
            # 128 connections stay open, about what the serial engine holds
            # in flight on 64 two-core DIPs at this load.
            for _ in range(picks):
                dip = select(flow)
                opened(dip)
                in_flight.append(dip)
                if len(in_flight) > 128:
                    closed(in_flight.popleft())

        values[f"lb.{name}.picks_per_s"] = picks / _clock(loop)
    return values


# -- solver backends and the fleet scale probe (fleet_dynamics) -----------------------------


def solver_backends(workload: Workload, spec: Any, captured: dict) -> Values:
    """The four largest distinct problems the traced run solved, per backend."""
    from repro.solver import solve

    problems = captured.get("problems", [])
    backends = ("scipy", "branch_and_bound", "greedy", "dp")
    if not problems:
        why = "the traced run handed no problem to solve"
        return {f"solver.backend.{b}.{m}": why for b in backends for m in ("p50_ms", "gap_pct")}
    times: dict[str, list[float]] = {b: [] for b in backends}
    objectives: dict[str, list[float]] = {b: [] for b in backends}
    for problem in problems:
        for backend in backends:
            start = time.perf_counter()
            result = solve(problem, backend=backend, time_limit_s=0.5)
            times[backend].append(time.perf_counter() - start)
            objectives[backend].append(
                result.objective_ms if result.status.has_solution else float("inf")
            )
    best = [min(objectives[b][i] for b in backends) for i in range(len(problems))]
    values: Values = {}
    for backend in backends:
        gaps = [
            (objective - floor) / floor * 100.0
            for objective, floor in zip(objectives[backend], best)
            if np.isfinite(objective) and floor > 0
        ]
        values[f"solver.backend.{backend}.p50_ms"] = float(np.median(times[backend])) * 1e3
        values[f"solver.backend.{backend}.gap_pct"] = (
            float(np.median(gaps)) if gaps else "no solution within 0.5 s"
        )
    return values


def fleet_apply_scale(workload: Workload, spec: Any, captured: dict) -> Values:
    """``Fleet.apply`` on the ``datacenter_scale_fluid`` shape (2000 DIPs x 20 VIPs)."""
    from repro.workloads import build_shared_dip_fleet

    fleet = build_shared_dip_fleet(
        num_vips=20, num_dips=2000, load_fraction=0.6, seed=spec.seed
    )
    evaluations = 5
    seconds = _clock(lambda: [fleet.apply() for _ in range(evaluations)])
    return {"sim.fleet.apply_ms.2000x20": seconds / evaluations * 1e3}


# -- parallel (req_epoch_lc) -----------------------------------------------------------------


def parallel_plan(workload: Workload, spec: Any, captured: dict) -> Values:
    from repro.parallel import plan_shards

    plans = 20
    seconds = _clock(lambda: [plan_shards(spec, shards=2) for _ in range(plans)])
    return {"parallel.plan_ms": seconds / plans * 1e3}


def parallel_kernel(workload: Workload, spec: Any, captured: dict) -> Values:
    """The Kiefer-Wolfowitz kernel on one station's stream at rho = 0.7."""
    from repro.parallel import simulate_station

    vm = spec.pool.vm
    rng = np.random.default_rng(spec.seed)
    arrivals = rng.exponential(1.0 / (0.7 * vm.capacity_rps), size=_N).cumsum()
    services = rng.exponential(vm.vcpus / vm.capacity_rps, size=_N)
    seconds = _clock(
        lambda: simulate_station(arrivals, services, servers=vm.vcpus, queue_capacity=256)
    )
    return {"parallel.kernel.station_req_per_s": _N / seconds}


def parallel_epoch(workload: Workload, spec: Any, captured: dict) -> Values:
    """The workload's spec at 300k requests: inline, fanned out, and serial."""
    small = spec.with_overrides(
        {"workload.num_requests": min(300_000, spec.workload.num_requests)}
    )

    def timed(**how: Any) -> tuple[Any, float]:
        start = time.perf_counter()
        result = api.run(small, **how)
        return result, time.perf_counter() - start

    _, inline_s = timed(shards=2, workers=1)
    fanout, fanout_s = timed(shards=2, workers=2)
    serial, _ = timed()
    epoch_ms = fanout.metrics["mean_latency_ms"]
    serial_ms = serial.metrics["mean_latency_ms"]
    return {
        "parallel.epoch.inline_s": inline_s,
        "parallel.epoch.fanout_s": fanout_s,
        "parallel.scaling_2w": inline_s / fanout_s,
        "parallel.epoch.mean_rel_err": abs(epoch_ms - serial_ms) / serial_ms,
    }


Probe = Callable[[Workload, Any, dict], Values]

#: workload -> the probes shaped like its inputs ("*": every workload).
PROBES: dict[str, tuple[Probe, ...]] = {
    "*": (spec_from_file,),
    "fleet_dynamics": (solver_backends, fleet_apply_scale),
    "req_serial_rr": (engine_bare, station, client_gaps, collector),
    "req_serial_klb_wrr": (lb_picks,),
    "req_epoch_lc": (parallel_plan, parallel_kernel, parallel_epoch),
}


def run(workload: Workload, spec: Any, captured: dict) -> tuple[Values, list[str]]:
    """Run the probes of ``workload``: their values, and the probes that broke."""
    values: Values = {}
    errors: list[str] = []
    for probe in PROBES["*"] + PROBES.get(workload.name, ()):
        try:
            values.update(probe(workload, spec, captured))
        except (ImportError, AttributeError, TypeError) as error:
            errors.append(f"{probe.__name__}: {type(error).__name__}: {error}")
    return values, errors
