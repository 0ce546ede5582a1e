"""Fleet-scale fluid substrate: vectorized kernels vs the seed per-DIP loop.

Measures, at the Table 8 scale path (a 1000-DIP VIP — the largest VIP class
of the datacenter mix), how much faster the numpy-vectorized fluid splits
are than the original per-DIP Python loops, plus the joint multi-VIP fleet
evaluation throughput.  Emits ``BENCH_fleet_scale.json`` so the speedup is
tracked across PRs; the refactor's acceptance bar is >= 5x.

Run directly (``PYTHONPATH=src python benchmarks/bench_fleet_scale.py``) or
under pytest-benchmark (``pytest benchmarks/bench_fleet_scale.py``).
"""

from __future__ import annotations

import time

import numpy as np

from _harness import save_json, save_report

from repro.backends import DipServer, custom_vm_type
from repro.lb.least_connection import least_connection_split_array
from repro.lb.power_of_two import power_of_two_split_array
from repro.sim.fluid import pool_arrays
from repro.workloads import build_shared_dip_fleet

TABLE8_LARGEST_VIP_DIPS = 1000
SPEEDUP_FLOOR = 5.0


def build_heterogeneous_pool(num_dips: int, *, seed: int = 0):
    """A mixed-SKU pool so the LC/P2C fixed points genuinely iterate."""
    rng = np.random.default_rng(seed)
    dips = {}
    for index in range(num_dips):
        cores = int(rng.choice([1, 2, 4, 8]))
        capacity = 400.0 * cores * float(rng.uniform(0.6, 1.4))
        vm = custom_vm_type(f"vm-{index}", vcpus=cores, capacity_rps=capacity)
        dips[f"d{index}"] = DipServer(f"d{index}", vm, seed=index)
    return dips


# --- the vectorized splits, as a run takes them, returned as dicts -------------


def least_connection_split(dips, total_rate_rps):
    pool = pool_arrays(dips)
    rates = least_connection_split_array(pool.law, total_rate_rps)
    return {dip: float(r) for dip, r in zip(pool.ids, rates)}


def power_of_two_split(dips, total_rate_rps):
    pool = pool_arrays(dips)
    rates = power_of_two_split_array(pool.law, total_rate_rps)
    return {dip: float(r) for dip, r in zip(pool.ids, rates)}


# --- the seed's per-DIP reference loops (preserved for comparison) -------------


def least_connection_split_perdip(dips, total_rate_rps, *, iterations=200, damping=0.5):
    ids = list(dips)
    if not ids:
        return {}
    weight_vec = np.ones(len(ids))
    rates = np.full(len(ids), total_rate_rps / len(ids))
    for _ in range(iterations):
        latencies = np.array(
            [dips[d].latency_model.mean_latency_ms(r) for d, r in zip(ids, rates)]
        )
        target = weight_vec / np.maximum(latencies, 1e-9)
        target = target / target.sum() * total_rate_rps
        new_rates = damping * target + (1 - damping) * rates
        if np.max(np.abs(new_rates - rates)) < 1e-6 * max(1.0, total_rate_rps):
            rates = new_rates
            break
        rates = new_rates
    return {d: float(r) for d, r in zip(ids, rates)}


def power_of_two_split_perdip(dips, total_rate_rps, *, iterations=100, damping=0.5):
    ids = list(dips)
    n = len(ids)
    if n == 0:
        return {}
    if n == 1:
        return {ids[0]: total_rate_rps}
    rates = np.full(n, total_rate_rps / n)
    for _ in range(iterations):
        utils = np.array(
            [dips[d].latency_model.utilization(r) for d, r in zip(ids, rates)]
        )
        probs = np.zeros(n)
        for i in range(n):
            wins = np.sum(utils[i] < utils) + 0.5 * (np.sum(utils[i] == utils) - 1)
            probs[i] = (1.0 + 2.0 * wins) / (n * n)
        probs = probs / probs.sum()
        new_rates = damping * probs * total_rate_rps + (1 - damping) * rates
        if np.max(np.abs(new_rates - rates)) < 1e-6 * max(1.0, total_rate_rps):
            rates = new_rates
            break
        rates = new_rates
    return {d: float(r) for d, r in zip(ids, rates)}


def _time(func, *args, repeats=3, **kwargs):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_fleet_scale_bench(*, num_dips: int = TABLE8_LARGEST_VIP_DIPS) -> dict:
    dips = build_heterogeneous_pool(num_dips)
    total_rate = sum(d.capacity_rps for d in dips.values()) * 0.7

    lc_loop_s, lc_loop = _time(least_connection_split_perdip, dips, total_rate)
    lc_vec_s, lc_vec = _time(least_connection_split, dips, total_rate)
    p2_loop_s, p2_loop = _time(power_of_two_split_perdip, dips, total_rate)
    p2_vec_s, p2_vec = _time(power_of_two_split, dips, total_rate)

    lc_diff = max(abs(lc_loop[d] - lc_vec[d]) for d in lc_loop)
    p2_diff = max(abs(p2_loop[d] - p2_vec[d]) for d in p2_loop)

    # Joint multi-VIP evaluation throughput (20 VIPs x 2000 shared DIPs).
    fleet = build_shared_dip_fleet(
        num_vips=20, num_dips=2000, load_fraction=0.6, seed=9
    )
    apply_s, _ = _time(fleet.apply)

    return {
        "scale": {
            "num_dips": num_dips,
            "load_fraction": 0.7,
            "fleet_vips": 20,
            "fleet_dips": 2000,
        },
        "least_connection": {
            "per_dip_loop_s": lc_loop_s,
            "vectorized_s": lc_vec_s,
            "speedup": lc_loop_s / lc_vec_s,
            "max_abs_rate_diff_rps": lc_diff,
        },
        "power_of_two": {
            "per_dip_loop_s": p2_loop_s,
            "vectorized_s": p2_vec_s,
            "speedup": p2_loop_s / p2_vec_s,
            "max_abs_rate_diff_rps": p2_diff,
        },
        "fleet_apply": {
            "joint_eval_s": apply_s,
            "dip_evaluations_per_s": 2000 / apply_s,
        },
        "speedup_floor": SPEEDUP_FLOOR,
    }


def _render(results: dict) -> str:
    lc = results["least_connection"]
    p2 = results["power_of_two"]
    fleet = results["fleet_apply"]
    return (
        f"scale                        : {results['scale']['num_dips']} DIPs "
        f"(largest Table 8 VIP class) @ 70 % load\n"
        f"LC   per-DIP loop            : {lc['per_dip_loop_s'] * 1000:.1f} ms\n"
        f"LC   vectorized              : {lc['vectorized_s'] * 1000:.1f} ms "
        f"({lc['speedup']:.1f}x, max rate diff {lc['max_abs_rate_diff_rps']:.2e} rps)\n"
        f"P2C  per-DIP loop            : {p2['per_dip_loop_s'] * 1000:.1f} ms\n"
        f"P2C  vectorized              : {p2['vectorized_s'] * 1000:.1f} ms "
        f"({p2['speedup']:.1f}x, max rate diff {p2['max_abs_rate_diff_rps']:.2e} rps)\n"
        f"fleet joint eval (20x2000)   : {fleet['joint_eval_s'] * 1000:.1f} ms "
        f"({fleet['dip_evaluations_per_s']:,.0f} DIP evals/s)"
    )


def _check(results: dict) -> None:
    assert results["least_connection"]["speedup"] >= SPEEDUP_FLOOR
    assert results["least_connection"]["max_abs_rate_diff_rps"] < 1e-6
    assert results["power_of_two"]["max_abs_rate_diff_rps"] < 1e-6


def test_fleet_scale_speedup(benchmark):
    results = benchmark.pedantic(
        run_fleet_scale_bench, rounds=1, iterations=1
    )
    save_report("fleet_scale", _render(results))
    save_json("BENCH_fleet_scale", results)
    _check(results)


if __name__ == "__main__":
    bench_results = run_fleet_scale_bench()
    save_report("fleet_scale", _render(bench_results))
    save_json("BENCH_fleet_scale", bench_results)
    _check(bench_results)
    print("ok")
