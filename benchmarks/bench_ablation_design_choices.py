"""Ablation benches for the design choices called out in DESIGN.md §5:
solver backend, curve-fit degree and probe budget."""

from __future__ import annotations

import pytest
from _harness import run_once, save_report

from repro.analysis import format_table
from repro.core.config import CurveConfig, ExplorationConfig, IlpConfig, KnapsackLBConfig
from repro.core.fleet_controller import FleetController
from repro.core.ilp import build_assignment_problem
from repro.experiments.ilp_scale import f_series_like_curve
from repro.solver import available_backends, solve
from repro.workloads import build_testbed_cluster


def _solver_backend_study(num_dips: int = 60):
    curve = f_series_like_curve(num_dips)
    curves = {f"d{i}": curve for i in range(num_dips)}
    problem = build_assignment_problem(curves, config=IlpConfig())
    rows = []
    for backend in available_backends():
        if backend == "dp":
            continue  # no finite-theta support needed here, but dp is slow at this size
        result = solve(problem, backend=backend, time_limit_s=30.0)
        rows.append(
            [
                backend,
                result.status.value,
                f"{result.solve_time_s * 1000:.0f} ms",
                f"{(result.objective_ms or 0.0):.3f}",
            ]
        )
    return rows


def test_ablation_solver_backends(benchmark):
    rows = run_once(benchmark, _solver_backend_study)
    save_report(
        "ablation_solver_backends",
        format_table(["backend", "status", "time", "objective"], rows),
    )
    # Backends that prove optimality agree exactly; backends that stop at a
    # time limit (pure-Python branch & bound at this size) or are heuristic
    # (greedy) must stay within 2× of the best solution found.
    by_backend = {row[0]: (row[1], float(row[3])) for row in rows}
    solved = {
        name: value
        for name, (status, value) in by_backend.items()
        if status in ("optimal", "feasible")
    }
    assert solved
    best = min(solved.values())
    optimal = [
        value for name, (status, value) in by_backend.items() if status == "optimal"
    ]
    for value in optimal:
        assert value == pytest.approx(min(optimal), rel=0.01)
    for value in solved.values():
        assert value <= best * 2.0


def _curve_degree_study(degrees=(1, 2, 3)):
    rows = []
    for degree in degrees:
        cluster = build_testbed_cluster(load_fraction=0.70, seed=42)
        config = KnapsackLBConfig(curve=CurveConfig(degree=degree))
        plane = FleetController(cluster.fleet, config=config)
        plane.onboard_vip("vip")
        plane.converge_all()
        state = cluster.state()
        utils = state.utilization.values()
        rows.append(
            [
                degree,
                f"{state.overall_mean_latency_ms():.2f}",
                f"{max(utils) - min(utils):.2f}",
            ]
        )
    return rows


def test_ablation_curve_degree(benchmark):
    rows = run_once(benchmark, _curve_degree_study)
    save_report(
        "ablation_curve_degree",
        format_table(["poly degree", "mean latency (ms)", "util spread"], rows)
        + "\n(paper uses degree 2)",
    )
    latencies = [float(row[1]) for row in rows]
    assert all(value > 0 for value in latencies)


def _probe_budget_study(budgets=(4, 10, 25)):
    rows = []
    for budget in budgets:
        cluster = build_testbed_cluster(load_fraction=0.70, seed=42)
        config = KnapsackLBConfig(exploration=ExplorationConfig(max_iterations=budget))
        plane = FleetController(cluster.fleet, config=config)
        controller = plane.onboard_vip("vip")
        plane.converge_all()
        measurements = [e.measurements for e in controller.explorations.values()]
        state = cluster.state()
        rows.append(
            [
                budget,
                f"{sum(measurements) / len(measurements):.1f}",
                f"{state.overall_mean_latency_ms():.2f}",
            ]
        )
    return rows


def test_ablation_probe_budget(benchmark):
    rows = run_once(benchmark, _probe_budget_study)
    save_report(
        "ablation_probe_budget",
        format_table(
            ["max iterations", "mean measurements/DIP", "mean latency (ms)"], rows
        )
        + "\n(paper: fewer than 10 measurements per DIP suffice)",
    )
    assert len(rows) == 3
