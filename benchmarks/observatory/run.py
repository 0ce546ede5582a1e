#!/usr/bin/env python3
"""The perf observatory's one command (see README.md beside this file).

    python3 benchmarks/observatory/run.py [--workload NAME] [--seed 17]
        [--seconds 20] [--trace [0|1]] [--out FILE] [--quick]
    python3 benchmarks/observatory/run.py --compare A.json B.json

Each workload runs in fresh interpreters with tracing off: ``SETUP_SAMPLES``
set-ups (interpreter start to a warm-up repetition done), the last of which
goes on to repeat the workload for ``--seconds``.  Outputs are checked, every
end-to-end metric is printed by name with its unit, and the last line of
standard output is one JSON object.  ``--trace 1`` is the separate traced
pass that yields the per-layer metrics instead.  Child output (HiGHS writes
straight to fd 1) goes to ``last_run.log``; only this process prints.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
LOG_PATH = HERE / "last_run.log"
DEFAULT_OUT = HERE / "last_run.json"
#: a child that has not answered by then is stopped (the driver allows 180 s).
CHILD_TIMEOUT_S = 170.0


def _require_program() -> None:
    """Make ``repro`` importable.

    The command names no file outside ``benchmarks/observatory``, so the
    program under test is found relative to this file; where it is absent
    there is nothing to measure and the run ends non-zero without a result.
    """
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"observatory: no program to measure: {src / 'repro'} does not exist")
    sys.path.insert(0, str(src))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=17, help="replaces spec.seed")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics) instead of the end-to-end one",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="full result file")
    parser.add_argument(
        "--quick", action="store_true",
        help="scaled-down pools, request counts and horizon (the self-test pass)",
    )
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    # Internal: the phases a fresh interpreter runs for the orchestrator.
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the fresh interpreter ---------------------------------------------------------


def child_main(args: argparse.Namespace) -> None:
    """One phase of one workload; the result goes to ``--result`` as JSON."""
    from observatory import measure
    from observatory.catalog import WORKLOAD_BY_NAME

    workload = WORKLOAD_BY_NAME[args.workload]
    spec, setup_s = measure.setup(workload, args.seed, args.t0, quick=args.quick)
    result: dict[str, Any] = {"setup_s": setup_s}
    if args.phase == "measure":
        result.update(measure.measure(workload, spec, args.seconds))
    elif args.phase == "trace":
        result.update(measure.traced(workload, spec, args.seconds))
    args.result.write_text(json.dumps(result), encoding="utf-8")


# -- the orchestrator ----------------------------------------------------------------


def _spawn(phase: str, workload: str, args: argparse.Namespace, log: Any) -> dict[str, Any]:
    """Run one phase in a fresh interpreter and read its result file."""
    result_path = HERE / f".result-{workload}-{phase}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--phase", phase, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--result", str(result_path),
        "--t0", repr(time.monotonic()),
    ]
    if args.quick:
        command.append("--quick")
    log.write(f"\n===== {workload} {phase} seed={args.seed} =====\n")
    log.flush()
    try:
        done = subprocess.run(
            command, stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S
        )
        if done.returncode != 0 or not result_path.exists():
            sys.exit(
                f"observatory: {workload} {phase} exited {done.returncode} "
                f"without a result; see {LOG_PATH}"
            )
        return json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        sys.exit(f"observatory: {workload} {phase} passed {CHILD_TIMEOUT_S:g} s; see {LOG_PATH}")
    finally:
        result_path.unlink(missing_ok=True)


def run_end_to_end(workload: str, args: argparse.Namespace, log: Any) -> dict[str, Any]:
    from observatory.catalog import SETUP_SAMPLES
    from observatory.report import summarize

    setups = 1 if args.quick else SETUP_SAMPLES
    setup_s = [_spawn("setup", workload, args, log)["setup_s"] for _ in range(setups - 1)]
    measured = _spawn("measure", workload, args, log)
    setup_s.append(measured["setup_s"])
    ops = measured["ops"]
    ops["attempted"] += len(setup_s)  # a set-up that fails ends the run above
    samples = {
        **measured["samples"],
        "setup_s": setup_s,
        "ops_ok_fraction": [1.0 - ops["failed"] / ops["attempted"]],
    }
    return {
        "end_to_end": {name: summarize(name, values) for name, values in samples.items()},
        "seeds": measured["seeds"],
        "samples": samples,
        "as_measured": measured["as_measured"],
        "ops": ops,
    }


def run_traced(workload: str, args: argparse.Namespace, log: Any) -> dict[str, Any]:
    traced = _spawn("trace", workload, args, log)
    traced["ops"]["attempted"] += 1  # its set-up
    return traced


def _metric_line(values: dict[str, Any], units: dict[str, str]) -> dict[str, Any]:
    # Per-layer metrics read null where unmeasured (the --out file keeps the
    # reason); the result line carries numbers only, so those print as 0.
    return {
        name: {"value": 0.0 if value is None else value, "unit": units[name]}
        for name, value in values.items()
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE.parent))  # the observatory package
    from observatory import report
    from observatory.catalog import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_BY_NAME

    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        table, regressed = report.compare(a, b)
        print(table)
        return 1 if regressed else 0

    _require_program()
    if args.phase:
        child_main(args)
        return 0

    if args.seconds is None:
        args.seconds = 0.25 if args.quick else float(RUN_SECONDS)
    if args.workload is not None and args.workload not in WORKLOAD_BY_NAME:
        sys.exit(f"observatory: unknown workload {args.workload!r}; known: {', '.join(WORKLOAD_BY_NAME)}")
    names = [args.workload] if args.workload else list(WORKLOAD_BY_NAME)

    runner = run_traced if args.trace else run_end_to_end
    with LOG_PATH.open("w", encoding="utf-8") as log:
        # One workload at a time, so nothing but the workload contends for the
        # box; the self-test pass times nothing and may overlap two.
        with ThreadPoolExecutor(max_workers=2 if args.quick else 1) as pool:
            results = dict(zip(names, pool.map(lambda name: runner(name, args, log), names)))

    document = {
        "schema": "repro.observatory/v1",
        "machine": report.metadata(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
        "workloads": results,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        print(report.per_layer_table(results))
        units = {m.name: m.unit for m in PER_LAYER}
        lines = {name: _metric_line(r["per_layer"], units) for name, r in results.items()}
    else:
        print(report.end_to_end_table(results))
        units = {m.name: m.unit for m in END_TO_END}
        lines = {
            name: _metric_line(
                {m.name: r["end_to_end"][m.name]["value"] for m in END_TO_END}, units
            )
            for name, r in results.items()
        }
    attempted = sum(r["ops"]["attempted"] for r in results.values())
    failed = sum(r["ops"]["failed"] for r in results.values())
    summary: dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if args.workload:
        summary["metrics"] = lines[args.workload]
    else:
        summary["workloads"] = lines
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
