"""Self-tests of the perf observatory (collected by tier-1, a few seconds)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.exceptions import ConfigurationError

from . import catalog, measure, report, spans

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
RUN = HERE / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- BENCHMARK.json and the catalog ------------------------------------------------


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_manifest_is_the_catalog(manifest: dict) -> None:
    assert manifest == catalog.manifest(manifest["command"], manifest["paths"])
    assert manifest["paths"] == ["benchmarks/observatory"]
    assert manifest["command"] == ["python3", "benchmarks/observatory/run.py"]
    assert 1 <= manifest["run_seconds"] <= 60


def test_manifest_shape(manifest: dict) -> None:
    assert len(manifest["workloads"]) == 5
    assert len(manifest["end_to_end"]) == 9
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [
        row["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for row in manifest[section]
    ]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.fullmatch(name) for name in names)
    for row in manifest["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in manifest["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in manifest["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    setup = next(row for row in manifest["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in manifest["end_to_end"])


def test_every_per_layer_metric_names_what_it_should_move() -> None:
    end_to_end = {m.name for m in catalog.END_TO_END}
    for metric in catalog.PER_LAYER:
        moved, workload = metric.moves
        assert moved in end_to_end, metric.name
        assert workload in catalog.WORKLOAD_BY_NAME, metric.name
        assert metric.measured_on == "*" or metric.measured_on in catalog.WORKLOAD_BY_NAME
        assert metric.how in ("traced", "direct")


def test_workload_files_load_through_the_public_surface() -> None:
    for workload in catalog.WORKLOADS:
        spec = api.ExperimentSpec.from_file(workload.spec_path)
        assert spec.name == workload.name
        # The scaled-down variants must validate too.
        spec.with_overrides(workload.warmup)
        spec.with_overrides(workload.quick)
    cold = api.ExperimentSpec.from_file(catalog.WORKLOAD_BY_NAME["ctl_cold_100"].spec_path)
    assert cold.controller.config.ilp.time_limit_s == catalog.ILP_TIME_LIMIT_S


# -- span arithmetic -----------------------------------------------------------------


def _tree() -> list[spans.Span]:
    # api.run [0, 10] -> converge [1, 7] -> solve [2, 4], solve [5, 6]
    #                 -> to_json  [8, 9];   a stray span outside any root.
    return [
        spans.Span(spans.ROOT, 0.0, 10.0, -1, 0),
        spans.Span("core.converge", 1.0, 7.0, 0, 0),
        spans.Span("solver.solve", 2.0, 4.0, 1, 0),
        spans.Span("solver.solve", 5.0, 6.0, 1, 0),
        spans.Span("api.result.to_json", 8.0, 9.0, 0, 0),
        spans.Span("solver.solve", 20.0, 21.0, -1, 0),
    ]


def test_self_time_is_duration_minus_children() -> None:
    assert spans.self_times(_tree()) == [3.0, 3.0, 2.0, 1.0, 1.0, 1.0]


def test_fold_keeps_the_root_subtree_and_sums_to_the_root() -> None:
    stats = spans.fold(_tree())[0]
    assert stats.root_s == 10.0
    assert stats.calls["solver.solve"] == 2  # the stray span is outside api.run
    assert stats.total_s["solver.solve"] == 3.0
    assert stats.self_s == {
        spans.ROOT: 3.0,
        "core.converge": 3.0,
        "solver.solve": 3.0,
        "api.result.to_json": 1.0,
    }
    assert stats.self_sum_ratio == 1.0


def test_percentile_is_nearest_rank() -> None:
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert spans.percentile(values, 50) == 3.0
    assert spans.percentile(values, 80) == 4.0
    assert spans.percentile([], 50) == 0.0


def test_midmean_drops_the_tails_and_keeps_equal_samples_exact() -> None:
    assert report.midmean([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    value = 14.194769318035841  # a plain mean of five of these rounds off the last digit
    assert all(report.midmean([value] * n) == value for n in (5, 29, 36))


# -- wrapping --------------------------------------------------------------------------


def test_wrappers_record_spans_and_restore_the_originals() -> None:
    from repro.core import ilp
    from repro.probing.klm import KLM

    before = (ilp.solve, KLM.__dict__["probe_dip"])
    with spans.Tracer() as tracer:
        spans.install(tracer)
        assert ilp.solve is not before[0]
        assert ilp.solve.__wrapped__ is before[0]
        assert not tracer.missing
    assert (ilp.solve, KLM.__dict__["probe_dip"]) == before


def test_a_vanished_name_is_a_reason_not_a_crash() -> None:
    with spans.Tracer() as tracer:
        tracer.wrap("repro.core.ilp:no_such_function", "solver.gone")
        tracer.wrap("repro.no_such_module:thing", "api.gone")
    assert "no_such_function" in tracer.missing["solver.gone"]
    assert "no_such_module" in tracer.missing["api.gone"]


def test_a_wrapped_call_nests_under_its_caller() -> None:
    from repro.core import ilp

    with spans.Tracer() as tracer:
        tracer.wrap("repro.core.ilp:candidate_grid", "inner")
        root = tracer.begin(spans.ROOT)
        with pytest.raises(ConfigurationError):
            ilp.candidate_grid(None, count=1)  # raises; the span still closes
        tracer.end(root)
    inner = tracer.spans[1]
    assert (inner.name, inner.parent) == ("inner", 0)
    assert inner.end >= inner.start > 0.0


# -- compare ---------------------------------------------------------------------------


def _document(run_s: float, q3: float | None = None, sim: float = 3.0) -> dict:
    def row(median: float, hi: float | None = None) -> dict:
        return {"value": median, "q1": median, "q3": hi or median, "n": 5}

    rows = {m.name: row(1.0) for m in catalog.END_TO_END}
    rows["run_s"] = row(run_s, q3)
    rows["sim_mean_latency_ms"] = row(sim)
    return {"seed": 17, "workloads": {"req_serial_rr": {"end_to_end": rows}}}


def test_compare_verdicts() -> None:
    table, regressed = report.compare(_document(1.0), _document(1.1))
    assert not regressed and "regressed" not in table
    table, regressed = report.compare(_document(1.0), _document(1.5))
    assert regressed and "regressed" in table
    table, regressed = report.compare(_document(1.0), _document(1.0, q3=1.6))
    assert not regressed and "unresolved" in table
    table, _ = report.compare(_document(1.0), _document(1.0, sim=3.01))
    assert "changed" in table


# -- the command -----------------------------------------------------------------------


def _run(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_quick_pass_runs_end_to_end(tmp_path: Path) -> None:
    out = tmp_path / "quick.json"
    done = _run(str(RUN), "--quick", "--out", str(out))
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    wanted = {m.name for m in catalog.END_TO_END}
    assert set(summary["workloads"]) == set(catalog.WORKLOAD_BY_NAME)
    for workload, metrics in summary["workloads"].items():
        assert set(metrics) == wanted, workload
        for name, cell in metrics.items():
            assert cell["value"] > 0, (workload, name)
            assert name in done.stdout  # printed by name, with its unit
    document = json.loads(out.read_text(encoding="utf-8"))
    assert {"usable_cpus", "python", "numpy", "scipy", "git_sha"} <= set(document["machine"])
    for name, result in document["workloads"].items():
        workload = catalog.WORKLOAD_BY_NAME[name]
        clock = result["as_measured"]
        # Host times are the clock's divided by the box's slowness, which is
        # left at 1 where repetitions end at wall-clock limits.
        assert all(s == 1.0 for s in clock["slowness"]) == workload.wall_limited
        assert result["samples"]["run_s"] == pytest.approx(
            [t / s for t, s in zip(clock["run_s"], clock["slowness"])]
        )
        assert all((seed - 17) % measure.SEED_STRIDE == 0 for seed in result["seeds"])
        if not workload.vary_seed:
            assert set(result["seeds"]) == {17}


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path: Path) -> None:
    # The driver also runs the command where only BENCHMARK.json and the
    # benchmark's own files exist.
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "observatory",
        ignore=shutil.ignore_patterns("__pycache__", "last_run.*", ".result-*"),
    )
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = _run(
        "benchmarks/observatory/run.py", "--workload", "req_serial_rr",
        "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
