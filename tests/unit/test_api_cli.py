"""End-to-end coverage of the ``python -m repro`` command line."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, RunResult
from repro.api.cli import main
from repro.api.registry import get_spec, list_specs
from repro.lb import policy_registry
from repro.workloads import ARRIVAL_KINDS, SERVICE_KINDS

REPO_ROOT = Path(__file__).resolve().parents[2]
#: every name ``repro list`` offers, then every committed example spec file.
SPEC_REFS = [name for name, _ in list_specs()] + sorted(
    str(path) for path in (REPO_ROOT / "examples" / "specs").glob("*.json")
)
SPEC_IDS = [Path(ref).name for ref in SPEC_REFS]


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, f"exit {code}; stderr: {captured.err}"
    return captured.out


class TestList:
    def test_lists_bridged_scenarios_and_builtins(self, capsys):
        out = run_cli(capsys, "list")
        assert "multi_vip_shared_dips" in out
        assert "testbed_klb" in out
        assert "fluid_uniform_pool" in out
        assert "LB policies" in out
        assert "wrr" in out

    def test_prints_exactly_the_four_registries(self, capsys):
        out = run_cli(capsys, "list")
        titles = [
            line for line in out.splitlines() if line and not line.startswith("|")
        ]
        assert titles == [
            "Registered specs",
            "LB policies",
            "Workload arrival kinds (workload.arrival.kind)",
            "Service-time kinds (workload.service.kind)",
        ]
        rows = {line.split("|")[1].strip() for line in out.splitlines() if line.startswith("|")}
        assert {name for name, _ in list_specs()} <= rows
        assert set(policy_registry()) <= rows
        assert set(ARRIVAL_KINDS) <= rows
        assert set(SERVICE_KINDS) <= rows


def test_learn_is_not_a_verb(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["learn", "train"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'learn'" in capsys.readouterr().err


@pytest.mark.parametrize("ref", SPEC_REFS, ids=SPEC_IDS)
class TestEveryListedSpec:
    """``show`` over every registered name and example file."""

    def test_show_is_a_fixed_point_through_a_file(self, capsys, tmp_path, ref):
        shown = run_cli(capsys, "show", ref)
        assert ExperimentSpec.from_dict(json.loads(shown)) == get_spec(ref)
        path = tmp_path / "shown.json"
        path.write_text(shown)
        assert run_cli(capsys, "show", str(path)) == shown
        assert run_cli(capsys, "validate", str(path)) == run_cli(capsys, "validate", ref)

    def test_set_seed_moves_the_seed_alone(self, capsys, ref):
        shown = json.loads(run_cli(capsys, "show", ref))
        moved = json.loads(run_cli(capsys, "show", ref, "--set", "seed=4242"))
        assert moved.pop("seed") == 4242
        shown.pop("seed")
        assert moved == shown


class TestShow:
    def test_show_prints_resolved_json(self, capsys):
        out = run_cli(capsys, "show", "fluid_uniform_pool")
        data = json.loads(out)
        assert data["runner"] == "fluid"
        assert data["pool"]["num_dips"] == 8

    def test_show_applies_set_overrides(self, capsys):
        out = run_cli(
            capsys, "show", "fluid_uniform_pool",
            "--set", "workload.load_fraction=0.42",
            "--set", "policy.name=wlc",
        )
        data = json.loads(out)
        assert data["workload"]["load_fraction"] == 0.42
        assert data["policy"]["name"] == "wlc"

    def test_show_accepts_spec_files(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "from-file", "seed": 5}))
        out = run_cli(capsys, "show", str(path))
        assert json.loads(out)["seed"] == 5


class TestRun:
    def test_run_writes_a_loadable_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "out.json"
        out = run_cli(
            capsys, "run", "fluid_uniform_pool",
            "--set", "controller.enabled=false",
            "-o", str(out_file),
        )
        assert "mean_latency_ms" in out
        result = RunResult.load(out_file)
        assert result.runner == "fluid"
        assert result.metrics["mean_latency_ms"] > 0

    def test_runner_flag_flips_substrate(self, capsys, tmp_path):
        out_file = tmp_path / "req.json"
        run_cli(
            capsys, "run", "fluid_uniform_pool",
            "--set", "controller.enabled=false",
            "--set", "workload.num_requests=1500",
            "--runner", "request",
            "-o", str(out_file),
        )
        assert RunResult.load(out_file).runner == "request"

    def test_format_json_emits_the_artifact_on_stdout(self, capsys):
        code = main(
            [
                "run", "fluid_uniform_pool",
                "--set", "controller.enabled=false",
                "--format", "json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # stdout is exactly one RunResult document — pipeline-composable
        result = RunResult.from_dict(json.loads(captured.out))
        assert result.runner == "fluid"
        assert result.metrics["mean_latency_ms"] > 0

    def test_format_json_keeps_notes_off_stdout(self, capsys, tmp_path):
        out_file = tmp_path / "res.json"
        code = main(
            [
                "run", "fluid_uniform_pool",
                "--set", "controller.enabled=false",
                "--format", "json",
                "--watch",
                "-o", str(out_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)  # still pure JSON despite watch + -o
        assert "result written" in captured.err
        assert out_file.exists()

    def test_scenario_set_overrides_params(self, capsys, tmp_path):
        out_file = tmp_path / "scen.json"
        run_cli(
            capsys, "run", "single_vip_testbed",
            "--set", "load_fraction=0.5",
            "-o", str(out_file),
        )
        result = RunResult.load(out_file)
        assert result.spec.params["load_fraction"] == 0.5
        assert result.metrics["latency_gain"] > 1.0


class TestValidate:
    def test_valid_spec_file_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "timed",
            "timeline": {
                "window_s": 5.0,
                "events": [
                    {"time_s": 10.0, "kind": "dip_fail", "dip": "DIP-1"},
                ],
            },
        }))
        out = run_cli(capsys, "validate", str(path))
        assert "is valid" in out
        assert "1 timeline event(s)" in out

    def test_invalid_timeline_exits_nonzero_with_dotted_path(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "timed",
            "timeline": {
                "events": [
                    {"time_s": 10.0, "kind": "dip_fail", "dipz": "DIP-1"},
                ],
            },
        }))
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "timeline.events[0].dipz" in captured.err

    @pytest.mark.parametrize(
        "ilp, complaint",
        [
            ({"backend": "higs"}, "controller.config.ilp.backend must be one of"),
            ({"backend": "dp", "theta": 0.3}, "cannot express a finite theta"),
        ],
    )
    def test_unusable_solver_backend_exits_nonzero(self, capsys, tmp_path, ilp, complaint):
        # Caught here, not at the first ILP after a whole exploration.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "x",
            "controller": {"enabled": True, "config": {"ilp": ilp}},
        }))
        code = main(["validate", str(path)])
        assert code == 2
        assert complaint in capsys.readouterr().err

    @pytest.mark.parametrize("ref", SPEC_REFS, ids=SPEC_IDS)
    def test_validate_never_runs_anything(self, capsys, ref):
        # Every listed spec, the biggest registered scenario included,
        # validates in well under a run and names its runner and timeline.
        spec = get_spec(ref)
        out = run_cli(capsys, "validate", ref)
        assert out.startswith(f"spec {spec.name!r} is valid: runner={spec.runner}, ")
        if spec.timeline.empty:
            assert out.endswith(", no timeline\n")
        else:
            assert f", {len(spec.timeline.events)} timeline event(s) over " in out


class TestRunWatch:
    def test_watch_streams_events_and_windows_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "timed",
            "controller": {"enabled": False},
            "pool": {"num_dips": 4},
            "timeline": {
                "window_s": 5.0,
                "horizon_s": 20.0,
                "events": [
                    {"time_s": 10.0, "kind": "arrival_scale", "value": 1.5},
                ],
            },
        }))
        code = main(["run", str(path), "--watch"])
        captured = capsys.readouterr()
        assert code == 0
        assert "event   t=10s arrival_scale 1.5" in captured.err
        assert captured.err.count("window") == 4


class TestSweepAndCompare:
    def test_sweep_writes_artifacts_and_comparison(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        out = run_cli(
            capsys, "sweep", "fluid_uniform_pool",
            "--set", "controller.enabled=false",
            "--axis", "workload.load_fraction=0.4,0.6",
            "-o", str(out_dir),
        )
        assert "mean_latency_ms" in out
        results = sorted(out_dir.glob("result-*.json"))
        assert len(results) == 2
        comparison = json.loads((out_dir / "comparison.json").read_text())
        assert len(comparison["names"]) == 2

    def test_compare_saved_artifacts(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(capsys, "run", "fluid_uniform_pool",
                "--set", "controller.enabled=false", "-o", str(a))
        run_cli(capsys, "run", "fluid_uniform_pool",
                "--set", "controller.enabled=false",
                "--set", "workload.load_fraction=0.8", "-o", str(b))
        out = run_cli(capsys, "compare", str(a), str(b), "-o",
                      str(tmp_path / "cmp.json"))
        assert "mean_latency_ms" in out
        assert (tmp_path / "cmp.json").exists()

    def test_compare_windows_renders_trajectories(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "timed",
            "controller": {"enabled": False},
            "pool": {"num_dips": 4},
            "timeline": {
                "window_s": 5.0,
                "horizon_s": 15.0,
                "events": [
                    {"time_s": 5.0, "kind": "capacity_ratio",
                     "dip": "DIP-1", "value": 0.5},
                ],
            },
        }))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "run", str(spec), "-o", str(a))
        run_cli(capsys, "run", str(spec),
                "--set", "timeline.events=[]", "-o", str(b))
        out = run_cli(capsys, "compare", str(a), str(b), "--windows")
        assert "mean_latency_ms per window" in out
        assert "[5, 10)" in out
        assert "capacity_ratio DIP-1" in out

    def test_compare_windows_without_windows_is_an_error(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        run_cli(capsys, "run", "fluid_uniform_pool",
                "--set", "controller.enabled=false", "-o", str(a))
        code = main(["compare", str(a), "--windows"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no timeline ran" in captured.err


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "no_such_spec"),
            ("run", "fluid_uniform_pool", "--set", "garbage"),
            ("run", "fluid_uniform_pool", "--set", "pool.num_dips=0"),
            ("sweep", "fluid_uniform_pool", "--axis", "broken"),
            ("compare", "/does/not/exist.json"),
        ],
    )
    def test_errors_exit_2_with_message(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
