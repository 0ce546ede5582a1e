"""The import graph follows need: what a start loads, and what it must not.

``scipy.optimize`` (HiGHS and everything around it) costs about 0.3 s and
40 MiB to import, and ``multiprocessing`` a further 35 ms; a run that solves
no ILP with HiGHS and forks no worker should pay for neither.  A curve fit
loads one compiled SciPy module, ``scipy.optimize._slsqplib`` (the NNLS
routine), and nothing else of SciPy; where that module cannot be loaded
alone, the fit falls back to importing ``scipy.optimize`` with the same
coefficients.  Inside ``repro`` the same rule holds per substrate: package
exports resolve on first access, so a controller-off request run loads no
control plane and a fleet run no request engine, and an observatory
workload's warm-up loads every module its timed repetitions run.  Each case
runs in a fresh interpreter and reports ``sorted(sys.modules)`` — what was
loaded, not what ``-X importtime`` happened to print.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api.registry import get_spec, list_specs

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGES = sorted(
    ".".join(path.parent.relative_to(REPO_ROOT / "src").parts)
    for path in (REPO_ROOT / "src" / "repro").rglob("__init__.py")
)
RR_SPEC = "benchmarks/observatory/workloads/req_serial_rr.json"
#: registered spec names by where they resolve: the spec registry itself, or
#: a scenario bridged in from ``repro.experiments``.
BUILTIN_SPECS = sorted(
    name for name, _ in list_specs() if get_spec(name).runner != "scenario"
)
SCENARIO_SPECS = sorted(
    name for name, _ in list_specs() if get_spec(name).runner == "scenario"
)

#: appended to every script: the last stdout line is the report.
_REPORT = """
import json as _json, sys as _sys
print(_json.dumps({"modules": sorted(_sys.modules), "out": globals().get("out")}))
"""


def run_python(script: str) -> dict:
    """Run ``script`` in a fresh interpreter at the repo root; its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script) + _REPORT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, f"stdout:\n{done.stdout}\nstderr:\n{done.stderr}"
    return json.loads(done.stdout.splitlines()[-1])


def loaded(report: dict, *packages: str) -> list[str]:
    """Loaded modules that are one of ``packages`` or inside one."""
    return [
        name
        for name in report["modules"]
        if any(name == p or name.startswith(p + ".") for p in packages)
    ]


class TestWhatAStartDoesNotLoad:
    def test_import_api_loads_no_scipy(self):
        assert loaded(run_python("import repro.api"), "scipy") == []

    @pytest.mark.parametrize(
        "policy, run_kwargs",
        [("rr", ""), ("lc", "shards=2, workers=1")],
        ids=["rr-serial", "lc-2-shards-inline"],
    )
    def test_controller_off_request_run(self, policy, run_kwargs):
        report = run_python(
            f"""
            from repro import api
            spec = api.ExperimentSpec.from_file({RR_SPEC!r}).with_overrides(
                {{"policy.name": {policy!r}, "workload.num_requests": 2000}}
            )
            result = api.run(spec, {run_kwargs})
            out = [result.provenance.shard_mode, result.metrics["requests_submitted"]]
            """
        )
        mode, submitted = report["out"]
        assert mode == ("epoch" if run_kwargs else "serial")
        assert submitted > 1500
        assert loaded(report, "scipy", "multiprocessing") == []

    def test_sharded_runs_load_no_shared_memory(self):
        # Both plan modes, inline and fanned out: the count board is an
        # anonymous ``RawArray`` and the record columns come back on a
        # pipe per process, so no named segment exists to create or clean up.
        report = run_python(
            f"""
            from repro import api
            spec = api.ExperimentSpec.from_file({RR_SPEC!r}).with_overrides(
                {{"workload.num_requests": 4000}}
            )
            out = [
                api.run(
                    spec.with_overrides({{"policy.name": policy}}),
                    shards=2,
                    workers=workers,
                ).provenance.shard_mode
                for policy in ("rr", "lc")
                for workers in (1, 2)
            ]
            """
        )
        assert report["out"] == ["exact", "exact", "epoch", "epoch"]
        assert "multiprocessing" in report["modules"]  # the fan-out ran
        assert loaded(report, "multiprocessing.shared_memory") == []

    def test_cli_validate_spec_file(self):
        report = run_python(
            f"""
            from repro.api.cli import main
            out = main(["validate", {RR_SPEC!r}])
            """
        )
        assert report["out"] == 0
        # Checking a spec file needs no solver, no worker machinery, and none
        # of the registries a *name* would have to be looked up in.
        assert loaded(
            report, "scipy", "multiprocessing", "repro.service",
            "repro.parallel", "repro.experiments",
        ) == []

    @pytest.mark.parametrize("name", BUILTIN_SPECS)
    def test_cli_validate_builtin_name(self, name):
        report = run_python(
            f"""
            from repro.api.cli import main
            out = main(["validate", {name!r}])
            """
        )
        assert report["out"] == 0
        # A built-in name resolves in the spec registry alone: validating it
        # runs nothing, so no runner, scenario or worker module is loaded.
        assert loaded(
            report, "repro.api.runners", "repro.api.timeline",
            "repro.experiments", "repro.parallel", "repro.service", "scipy",
            "multiprocessing",
        ) == []

    @pytest.mark.parametrize("name", SCENARIO_SPECS)
    def test_cli_validate_scenario_name(self, name):
        report = run_python(
            f"""
            from repro.api.cli import main
            out = main(["validate", {name!r}])
            """
        )
        assert report["out"] == 0
        # A scenario name is looked up in ``repro.experiments`` (that is
        # where scenarios register), but validating one still runs nothing:
        # no timeline engine, solver, worker machinery or daemon.
        assert loaded(report, "repro.experiments.scenarios")
        assert loaded(
            report, "repro.api.timeline", "repro.parallel", "repro.service",
            "scipy", "multiprocessing",
        ) == []

    def test_cli_list(self):
        report = run_python(
            """
            from repro.api.cli import main
            out = main(["list"])
            """
        )
        assert report["out"] == 0
        assert loaded(
            report, "scipy", "multiprocessing", "repro.service", "repro.parallel"
        ) == []

    def test_worker_modules_load_no_scipy(self):
        # What a ``spawn`` / ``forkserver`` child imports before its first task.
        report = run_python(
            "import repro.parallel.epoch, repro.parallel.pool, "
            "repro.parallel.kernel, repro.parallel.shard"
        )
        assert loaded(report, "scipy", "multiprocessing") == []

    def test_auto_solve_without_theta(self):
        # The default ILP path: a knapsack, solved with numpy alone.
        report = run_python(
            _CURVE_AND_PROBLEM
            + """
solved = solve(problem, backend="auto")
out = [solved.backend, solved.status.name, solved.objective_ms, solved.weights]
"""
        )
        assert report["out"] == ["mckp", "OPTIMAL", OPTIMUM_MS, OPTIMUM_WEIGHTS]
        assert loaded(report, "scipy") == []


_WORKLOAD_RUN = """
import sys
sys.path.insert(0, "benchmarks/observatory")
from catalog import WORKLOAD_BY_NAME
from repro import api

workload = WORKLOAD_BY_NAME[{name!r}]
spec = api.ExperimentSpec.from_file(workload.spec_path)
api.run(spec.with_overrides(workload.warmup), shards=workload.shards, workers=workload.workers)
"""


def run_warmup(name: str, then: str = "") -> dict:
    """The observatory's scaled-down warm-up of workload ``name``, then ``then``."""
    return run_python(_WORKLOAD_RUN.format(name=name) + textwrap.dedent(then))


class TestTheImportGraphFollowsTheRun:
    """Each package resolves its exports on first access, and each runner
    imports the substrate it executes, so a run loads only what it runs."""

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves(self, package):
        """A name left in ``__all__`` after its definition went fails here,
        not only when someone first accesses it."""
        module = importlib.import_module(package)
        assert module.__all__
        for name in module.__all__:
            getattr(module, name)

    def test_import_repro_loads_no_subpackage(self):
        report = run_python("import repro")
        assert loaded(report, "repro") == ["repro", "repro._lazy"]

    def test_controller_off_rr_run_loads_no_control_plane(self):
        report = run_warmup("req_serial_rr")
        assert loaded(
            report,
            "repro.core.controller", "repro.core.fleet_controller", "repro.core.curve",
            "repro.solver", "repro.probing", "repro.sim.fleet", "repro.sim.fluid",
            "repro.api.timeline", "repro.api.sweep", "repro.workloads.arrivals",
            "repro.workloads.divergence", "repro.lb.facades", "repro.lb.mux",
        ) == []
        assert "repro.sim.cluster" in report["modules"]

    def test_dp_fleet_run_loads_no_request_engine(self):
        report = run_warmup("fleet_dynamics")
        assert loaded(
            report,
            "repro.sim.cluster", "repro.sim.queueing", "repro.sim.trace",
            "repro.sim.engine", "repro.sim.client", "repro.solver.mckp",
            "repro.solver.greedy", "repro.solver.branch_and_bound", "repro.lb.facades",
        ) == []
        assert "repro.solver.dp" in report["modules"]

    def test_epoch_run_loads_no_control_plane(self):
        report = run_warmup("req_epoch_lc")
        assert loaded(
            report,
            "repro.core.controller", "repro.core.fleet_controller", "repro.solver",
            "repro.probing", "repro.sim.fleet", "repro.sim.fluid",
        ) == []
        assert "repro.parallel.epoch" in report["modules"]

    @pytest.mark.parametrize("workload", ["req_serial_rr", "req_serial_klb_wrr", "req_epoch_lc"])
    def test_a_request_run_loads_no_masked_arrays(self, workload):
        # Its quantiles are ``grouped_quantiles``'; the first ``np.percentile``
        # in a process imports ``numpy.ma`` (15-20 ms) through ``np.unique``.
        assert loaded(run_warmup(workload), "numpy.ma") == []

    def test_a_windowed_request_timeline_loads_no_masked_arrays(self):
        report = run_python(
            """
            from repro import api
            spec = api.ExperimentSpec.from_file("examples/specs/bursty_outage.json")
            result = api.run(spec.with_overrides({"timeline.horizon_s": 15.0}))
            out = [len(result.windows), result.provenance.station_path]
            """
        )
        assert report["out"] == [3, "events"]
        assert loaded(report, "numpy.ma") == []

    @pytest.mark.parametrize(
        "workload",
        ["ctl_cold_100", "fleet_dynamics", "req_serial_rr", "req_serial_klb_wrr", "req_epoch_lc"],
    )
    def test_no_import_lands_in_a_timed_repetition(self, workload):
        # Set-up's warm-up must load everything a full repetition of the
        # workload runs, or the first timed repetition pays for the import.
        report = run_warmup(
            workload,
            """
            before = set(sys.modules)
            api.run(spec, shards=workload.shards, workers=workload.workers)
            out = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
            """,
        )
        assert report["out"] == []


#: five measured points and a three-DIP ILP, shared by the cases that solve;
#: the expected values were recorded at the commit before the deferral.
_CURVE_AND_PROBLEM = """
from repro.core.config import CurveConfig
from repro.core.curve import fit_curve
from repro.core.types import MeasurementPoint
from repro.solver import AssignmentProblem, DipCandidates, available_backends, solve, solve_scipy

points = [
    MeasurementPoint(w, l)
    for w, l in ((0.02, 2.61), (0.05, 2.9), (0.08, 3.7), (0.11, 5.2), (0.13, 9.4))
]
grid = (0.1, 0.2, 0.4, 0.6)
problem = AssignmentProblem(
    dips=(
        DipCandidates(dip="a", weights=grid, latencies_ms=(1.13, 2.41, 4.77, 8.9), w_max=0.6),
        DipCandidates(dip="b", weights=grid, latencies_ms=(2.3, 6.1, 14.2, 30.5), w_max=0.4),
        DipCandidates(dip="c", weights=grid, latencies_ms=(1.7, 3.3, 7.9, 19.0), w_max=0.6),
    ),
    total_weight=1.0,
    total_weight_tolerance=0.01,
)
"""
NONNEGATIVE_FIT = [383.6816979549708, 0.0, 1.8229981936649235]
FREE_FIT = [874.1328383826302, -76.9482097952344, 4.068102822017335]
OPTIMUM_MS, OPTIMUM_WEIGHTS = 18.3, {"a": 0.6, "b": 0.2, "c": 0.2}


class TestScipyLoadsWhereItIsUsed:
    def test_first_constrained_fit_and_first_highs_solve(self):
        report = run_python(
            _CURVE_AND_PROBLEM
            + """
import sys
curve = fit_curve(points, config=CurveConfig(nonnegative_coefficients=True))
after_fit = "scipy.optimize" in sys.modules
solved = solve(problem, backend="scipy")
out = [list(curve.coefficients), after_fit, solved.backend, solved.objective_ms, solved.weights]
"""
        )
        assert report["out"] == [NONNEGATIVE_FIT, False, "scipy", OPTIMUM_MS, OPTIMUM_WEIGHTS]
        assert "repro.solver.scipy_backend" in report["modules"]
        assert "scipy.optimize" in report["modules"]

    def test_a_fit_loads_the_nnls_extension_alone(self):
        report = run_python(
            _CURVE_AND_PROBLEM
            + """
import sys
curve = fit_curve(points, config=CurveConfig(nonnegative_coefficients=True))
out = list(curve.coefficients)
"""
        )
        assert report["out"] == NONNEGATIVE_FIT
        assert loaded(report, "scipy") == ["scipy.optimize._slsqplib"]

    @pytest.mark.parametrize(
        "locator",
        ["lambda: None", "lambda: curve_module.__file__"],
        ids=["nothing-found", "load-raises-import-error"],
    )
    def test_fallback_imports_the_package_with_the_same_fit(self, locator):
        report = run_python(
            _CURVE_AND_PROBLEM
            + f"""
import repro.core.curve as curve_module
curve_module._nnls_extension_path = {locator}
curve = fit_curve(points, config=CurveConfig(nonnegative_coefficients=True))
out = list(curve.coefficients)
"""
        )
        assert report["out"] == NONNEGATIVE_FIT
        assert "scipy.optimize" in report["modules"]

    @pytest.mark.parametrize(
        "workload", ["fleet_dynamics", "req_serial_klb_wrr", "ctl_cold_100"]
    )
    def test_controller_run_loads_only_the_nnls_extension(self, workload):
        # The observatory's scaled-down warm-up of each controller workload:
        # explore, fit and solve with the default backends, then SciPy's own
        # ``nnls`` still works on the extension the fits loaded.
        report = run_python(
            f"""
            import sys
            sys.path.insert(0, "benchmarks/observatory")
            from catalog import WORKLOAD_BY_NAME
            from repro import api

            workload = WORKLOAD_BY_NAME[{workload!r}]
            spec = api.ExperimentSpec.from_file(workload.spec_path)
            result = api.run(spec.with_overrides(workload.warmup))
            after_run = [m for m in sys.modules if m.split(".")[0] == "scipy"]

            import numpy as np
            import scipy.optimize

            x, rnorm = scipy.optimize.nnls(np.eye(2), np.array([1.0, -1.0]))
            out = [after_run, x.tolist(), rnorm]
            """
        )
        assert report["out"] == [["scipy.optimize._slsqplib"], [1.0, 0.0], 1.0]


class TestWithoutScipy:
    def test_solver_and_unconstrained_fit_work(self):
        report = run_python(
            """
import dataclasses, sys
sys.modules["scipy"] = None  # ``import scipy`` now raises ImportError
"""
            + _CURVE_AND_PROBLEM
            + """
from repro.exceptions import ConfigurationError

try:
    solve_scipy(problem)
    refused = None
except ConfigurationError as error:
    refused = str(error)
free = fit_curve(points, config=CurveConfig(nonnegative_coefficients=False))
auto, dp = solve(problem, backend="auto"), solve(problem, backend="dp")
bounded = solve(dataclasses.replace(problem, theta=0.4), backend="auto")
out = {
    "backends": list(available_backends()),
    "auto": [auto.backend, auto.objective_ms, auto.weights],
    "auto_with_theta": [bounded.backend, bounded.objective_ms, bounded.weights],
    "dp": [dp.backend, dp.objective_ms, dp.weights],
    "refused": refused,
    "free": list(free.coefficients),
}
"""
        )
        out = report["out"]
        assert out["backends"] == ["mckp", "branch_and_bound", "greedy", "dp"]
        assert out["auto"] == ["mckp", OPTIMUM_MS, OPTIMUM_WEIGHTS]
        # θ couples the DIPs: not a knapsack, so the generic exact solver.
        assert out["auto_with_theta"] == ["branch_and_bound", OPTIMUM_MS, OPTIMUM_WEIGHTS]
        assert out["dp"] == ["dp", OPTIMUM_MS, OPTIMUM_WEIGHTS]
        assert out["refused"] == "SciPy MILP backend is not available"
        assert out["free"] == FREE_FIT
        assert loaded(report, "scipy") == ["scipy"]  # the blocking entry itself


class TestSpawnedWorkers:
    def test_spawn_fanout_equals_inline(self):
        # ``spawn`` children import the task's modules afresh (the default
        # everywhere but Linux, and ``forkserver`` from Python 3.14 on).
        report = run_python(
            f"""
            import multiprocessing

            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn", force=True)
                from repro import api

                spec = api.ExperimentSpec.from_file({RR_SPEC!r}).with_overrides(
                    {{"policy.name": "wrandom", "workload.num_requests": 20000}}
                )
                fanned = api.run(spec, shards=2, workers=2)
                inline = api.run(spec, shards=2, workers=1)
                out = [
                    fanned.metrics_equal(inline),
                    fanned.provenance.shard_mode,
                    fanned.provenance.workers,
                    inline.provenance.workers,
                ]
            """
        )
        assert report["out"] == [True, "exact", 2, 1]

    def test_spawn_epoch_fanout_equals_inline(self):
        # The epoch barrier and the ``RawArray`` count board, pickled to
        # children that import afresh.
        report = run_python(
            f"""
            import multiprocessing

            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn", force=True)
                from repro import api

                spec = api.ExperimentSpec.from_file({RR_SPEC!r}).with_overrides(
                    {{"policy.name": "lc", "workload.num_requests": 20000}}
                )
                fanned = api.run(spec, shards=4, workers=2)
                inline = api.run(spec, shards=4, workers=1)
                out = [
                    fanned.metrics_equal(inline),
                    fanned.provenance.shard_mode,
                    fanned.provenance.workers,
                    inline.provenance.workers,
                ]
            """
        )
        assert report["out"] == [True, "epoch", 2, 1]
