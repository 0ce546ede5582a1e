"""Workload-generator throughput: bursty/heavy-tailed vs the Poisson engine.

The robustness envelope (MMPP and flash-crowd arrivals, Pareto/lognormal
service) streams through the same allocation-lean ``next_batch`` chunk
interface as the Poisson baseline, so arbitrarily-shaped workloads must not
tax the request engine's hot path: per-request cost is dominated by the
queueing simulation, and the generators amortize their extra math (thinning,
segment bookkeeping) over fixed-size candidate blocks.  This bench runs the
same 32-DIP deployment through the request engine under four workload
shapes and gates each non-Poisson variant's throughput at
``MIN_RELATIVE_THROUGHPUT`` of the Poisson run.  Emits
``BENCH_workloads.json``.

What it measures now: ``cluster.run`` of a round-robin spec replays (see
``repro.sim.cluster``), on every variant alike, so both sides of each ratio
are the replay — arrivals drawn batch by batch, one FCFS recursion per DIP —
and the ratio isolates the generators (arrival batches, service draws) even
more than it did on the event engine, where per-event overhead diluted them.
The floor keeps its meaning and its value.

Run directly (``PYTHONPATH=src python benchmarks/bench_workloads.py``) or
under pytest-benchmark.  ``BENCH_WORKLOADS_REQUESTS`` overrides the request
count (useful for quick local runs; the recorded JSON should come from the
full 500k-request setting).
"""

from __future__ import annotations

import gc
import os
import time

from _harness import save_json, save_report

from repro.api.spec import ArrivalSpec, ServiceSpec
from repro.backends import DipServer, custom_vm_type
from repro.lb import RoundRobin
from repro.sim import RequestCluster

NUM_DIPS = 32
NUM_REQUESTS = int(os.environ.get("BENCH_WORKLOADS_REQUESTS", 500_000))
#: kept low enough that the MMPP high state (~1.79x the mean rate with the
#: default parameters) stays subcritical: at 0.6 the bursts overload the
#: pool and the floor would gate drop-handling under overload — a real but
#: different cost — instead of the generators' streaming overhead.
LOAD_FRACTION = 0.4
ROUNDS = 3
#: every non-Poisson workload must keep >= this fraction of the Poisson
#: engine's throughput (CPU-time ratio; the generators batch their math).
MIN_RELATIVE_THROUGHPUT = 0.8

#: the benched workload shapes, in measurement order (baseline first).
VARIANTS: tuple[tuple[str, ArrivalSpec, ServiceSpec], ...] = (
    ("poisson", ArrivalSpec(), ServiceSpec()),
    ("mmpp_arrivals", ArrivalSpec(kind="mmpp"), ServiceSpec()),
    ("pareto_service", ArrivalSpec(), ServiceSpec(kind="pareto")),
    (
        "mmpp_pareto",
        ArrivalSpec(kind="mmpp"),
        ServiceSpec(kind="pareto"),
    ),
)


def build_pool(num_dips: int, *, cores: int = 4, cap_per_core: float = 400.0):
    dips = {}
    for index in range(num_dips):
        vm = custom_vm_type(
            f"vm-{index}", vcpus=cores, capacity_rps=cap_per_core * cores
        )
        dips[f"d{index}"] = DipServer(
            f"d{index}", vm, seed=index, jitter_fraction=0.0
        )
    return dips


def run_workloads_bench(
    *, num_dips: int = NUM_DIPS, num_requests: int = NUM_REQUESTS
) -> dict:
    dips = build_pool(num_dips)
    total_capacity = sum(d.capacity_rps for d in dips.values())
    rate = LOAD_FRACTION * total_capacity

    # Best-of-N per variant, *interleaved* across rounds so every variant
    # samples the same process epochs (later runs in a process are
    # systematically slower as the heap ages; a blocked ordering would
    # charge all of that drift to whichever variant ran last).
    best: dict[str, dict] = {
        name: {"wall_s": float("inf"), "cpu_s": float("inf")}
        for name, _, _ in VARIANTS
    }
    for _ in range(ROUNDS):
        for name, arrival, service in VARIANTS:
            cluster = RequestCluster(
                build_pool(num_dips),
                RoundRobin(list(dips)),
                rate_rps=rate,
                seed=7,
                arrival=arrival,
                service=service,
            )
            gc.collect()  # timed runs start from the same collector state
            started = time.perf_counter()
            started_cpu = time.process_time()
            result = cluster.run(num_requests=num_requests)
            cpu_s = time.process_time() - started_cpu
            wall_s = time.perf_counter() - started
            row = best[name]
            if cpu_s < row["cpu_s"]:
                row.update(
                    cpu_s=cpu_s,
                    wall_s=wall_s,
                    requests=result.requests_submitted,
                    requests_per_s=result.requests_submitted / wall_s,
                    mean_latency_ms=result.metrics.mean_latency_ms(),
                    p99_latency_ms=result.metrics.percentile_latency_ms(99),
                    drop_fraction=result.drop_fraction,
                )

    # Relative throughput from best-of-N *per-request* CPU cost: the runs
    # execute back to back, process_time is immune to the runner-contention
    # noise that dwarfs a ~10% effect in wall clock on shared CI machines,
    # and normalizing per request keeps the ratio fair when a bursty
    # process lands a different arrival count inside the fixed horizon.
    base = best["poisson"]
    base_req_per_cpu = base["requests"] / base["cpu_s"]
    for name, row in best.items():
        row["relative_throughput"] = (
            row["requests"] / row["cpu_s"] / base_req_per_cpu
        )
    return {
        "scale": {
            "num_dips": num_dips,
            "num_requests": num_requests,
            "load_fraction": LOAD_FRACTION,
            "rate_rps": rate,
        },
        "variants": best,
        "floor": MIN_RELATIVE_THROUGHPUT,
    }


def _render(results: dict) -> str:
    scale = results["scale"]
    lines = [
        f"scale           : {scale['num_dips']} DIPs, "
        f"{scale['num_requests']:,} requests @ {scale['load_fraction']:.0%} load"
    ]
    for name, row in results["variants"].items():
        lines.append(
            f"{name:<16}: {row['wall_s']:.1f} s "
            f"({row['requests_per_s']:,.0f} req/s, "
            f"{row['relative_throughput']:.0%} of poisson, "
            f"mean {row['mean_latency_ms']:.2f} ms, "
            f"p99 {row['p99_latency_ms']:.2f} ms)"
        )
    lines.append(f"floor           : {results['floor']:.0%} of poisson")
    return "\n".join(lines)


def _check(results: dict) -> None:
    floor = results["floor"]
    for name, row in results["variants"].items():
        assert row["relative_throughput"] >= floor, (
            f"workload {name!r} throughput {row['relative_throughput']:.2%} "
            f"of the Poisson engine, below the {floor:.0%} floor"
        )
    # Every variant must have simulated real work inside the horizon.
    for name, row in results["variants"].items():
        assert row["requests"] > 0, f"workload {name!r} produced no requests"


def test_workloads_throughput(benchmark):
    results = benchmark.pedantic(run_workloads_bench, rounds=1, iterations=1)
    save_report("workloads", _render(results))
    save_json("BENCH_workloads", results)
    _check(results)


if __name__ == "__main__":
    bench_results = run_workloads_bench()
    save_report("workloads", _render(bench_results))
    save_json("BENCH_workloads", bench_results)
    _check(bench_results)
    print("ok")
