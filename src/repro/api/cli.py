"""The ``python -m repro`` command line.

Seven verbs over the declarative API, all round-tripping through files:

* ``list`` — registered specs (scenario bridges + built-ins), policies,
  and the workload arrival / service kinds;
* ``show NAME|FILE`` — the fully-resolved spec as JSON;
* ``validate NAME|FILE`` — eager-validate a spec (timeline included) and
  exit non-zero with the dotted-path error, without running anything;
* ``run NAME|FILE [--set path=value ...] [--runner R] [--watch]
  [--shards N] [--workers N] [--sync-interval S] [-o out.json]`` —
  ``--shards`` fans a request-level run across the parallel layer
  (exact per-DIP decomposition where possible, epoch-synchronized
  sharding with ``--sync-interval`` staleness for stateful policies and
  timelines, serial fallback with the reason surfaced otherwise);
* ``sweep NAME|FILE --axis path=v1,v2 [...] [-j/--workers N] [-o dir]`` —
  the expansion runs through one warm worker pool;
* ``serve NAME|FILE [--host H] [--port P] [--time-scale X]
  [--accelerated]`` — run the spec as a live daemon: the control loop
  executes one window per ``window_s / time_scale`` wall seconds
  (``--accelerated`` runs windows back to back), REST endpoints expose
  per-VIP windowed stats and the applied/pending timeline, ``POST
  /events`` injects live mutations, ``WS /stream`` pushes each window,
  and ``GET /session`` exports a spec whose batch re-run reproduces the
  session bit-for-bit per seed (see :mod:`repro.service`);
* ``compare a.json b.json [--windows] [--window-metric M]`` — align saved
  result artifacts; ``--windows`` adds the window-by-window trajectory
  table.

``--set`` values are parsed as JSON first (so ``--set seed=3`` is an int
and ``--set policy.name=lc`` a string); dotted paths address nested spec
fields, and bare keys on scenario-backed specs address scenario
parameters.  ``run --watch`` streams progress lines (applied timeline
events, per-window headline metrics) to stderr while the run executes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.exceptions import ReproError

# Each verb imports what it runs inside its handler, so ``validate`` loads
# only the spec layer and only ``serve`` loads the daemon; parsing the
# command line needs none of it.
if TYPE_CHECKING:  # pragma: no cover
    from repro.api.result import RunResult
    from repro.api.spec import ExperimentSpec


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_overrides(pairs: Sequence[str]) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for pair in pairs:
        path, eq, value = pair.partition("=")
        if not eq or not path:
            raise ReproError(
                f"--set expects path=value, got {pair!r} "
                "(e.g. --set workload.load_fraction=0.5)"
            )
        overrides[path] = _parse_value(value)
    return overrides


def _resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    from repro.api.registry import get_spec

    spec = get_spec(args.spec)
    overrides = _parse_overrides(args.set or [])
    if getattr(args, "runner", None):
        overrides["runner"] = args.runner
    if getattr(args, "sync_interval", None) is not None:
        overrides["sync_interval_s"] = args.sync_interval
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


def _metrics_table(result: RunResult) -> str:
    from repro.analysis import format_table

    rows = [[key, value] for key, value in sorted(result.metrics.items())]
    return format_table(
        ["metric", "value"],
        rows,
        title=f"{result.spec.name} [{result.runner}] seed={result.seed}",
    )


# -- verbs ----------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.api.registry import list_specs
    from repro.lb import policy_registry
    from repro.workloads import ARRIVAL_KINDS, SERVICE_KINDS

    rows = [[name, summary] for name, summary in list_specs()]
    print(format_table(["spec", "summary"], rows, title="Registered specs"))
    policy_rows = [
        [name, "yes" if desc.weighted else "no", desc.summary]
        for name, desc in sorted(policy_registry().items())
    ]
    print()
    print(
        format_table(
            ["policy", "weighted", "summary"],
            policy_rows,
            title="LB policies",
        )
    )
    arrival_rows = [
        [name, summary] for name, summary in sorted(ARRIVAL_KINDS.items())
    ]
    print()
    print(
        format_table(
            ["arrival kind", "summary"],
            arrival_rows,
            title="Workload arrival kinds (workload.arrival.kind)",
        )
    )
    service_rows = [
        [name, summary] for name, summary in sorted(SERVICE_KINDS.items())
    ]
    print()
    print(
        format_table(
            ["service kind", "summary"],
            service_rows,
            title="Service-time kinds (workload.service.kind)",
        )
    )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(_resolve_spec(args).to_json())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)  # raises ReproError with the dotted path
    timeline = spec.timeline
    shape = (
        "no timeline"
        if timeline.empty
        else (
            f"{len(timeline.events)} timeline event(s) over "
            f"{timeline.duration_s():g}s in {timeline.window_s:g}s windows"
        )
    )
    print(f"spec {spec.name!r} is valid: runner={spec.runner}, {shape}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.runners import execute
    from repro.api.observers import PrintingObserver

    spec = _resolve_spec(args)
    observers = (PrintingObserver(),) if args.watch else ()
    sharding = args.shards is not None and args.shards > 1
    if args.workers and not sharding:
        print(
            "warning: --workers only applies to sharded runs; "
            "pass --shards N to fan out (running serially)",
            file=sys.stderr,
        )
    # Surface the planner's serial-fallback reason: it is emitted on the
    # "repro.parallel" logger, which has no handler in a bare CLI process.
    handler: logging.Handler | None = None
    parallel_logger = logging.getLogger("repro.parallel")
    if sharding and not parallel_logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("note: %(message)s"))
        parallel_logger.addHandler(handler)
        if parallel_logger.level > logging.INFO or parallel_logger.level == 0:
            parallel_logger.setLevel(logging.INFO)
    try:
        result = execute(
            spec, observers=observers, shards=args.shards, workers=args.workers
        )
    finally:
        if handler is not None:
            parallel_logger.removeHandler(handler)
    if sharding or args.watch:
        prov = result.provenance
        if prov.fallback_reason is not None:
            note = f"serial fallback: {prov.fallback_reason}"
        elif prov.shard_mode == "epoch":
            note = (
                f"epoch-sharded run: shards={prov.shards}, "
                f"workers={prov.workers}, "
                f"sync_interval_s={prov.sync_interval_s:g}"
            )
        elif prov.shard_mode == "exact":
            note = (
                f"exact-sharded run: shards={prov.shards}, "
                f"workers={prov.workers}"
            )
        else:
            note = "serial run"
        if prov.station_path is not None:
            note += f" (stations: {prov.station_path})"
        print(f"note: {note}", file=sys.stderr)
    if args.format == "json":
        # Machine-readable mode: the artifact alone on stdout (watch and
        # note lines already go to stderr), so `repro run --format json |
        # jq` composes cleanly.
        print(result.to_json())
    else:
        print(_metrics_table(result))
    if args.output:
        path = result.save(args.output)
        destination = sys.stderr if args.format == "json" else sys.stdout
        print(f"result written to {path}", file=destination)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import LiveSession, serve

    spec = _resolve_spec(args)
    session = LiveSession(spec)  # validates serve-ability (runner, health)
    serve(
        session,
        host=args.host,
        port=args.port,
        time_scale=args.time_scale,
        accelerated=args.accelerated,
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api.sweep import Sweep, SweepAxis, compare

    spec = _resolve_spec(args)
    axes = []
    for raw in args.axis:
        path, eq, values = raw.partition("=")
        if not eq or not values:
            raise ReproError(
                f"--axis expects path=v1,v2,..., got {raw!r} "
                "(e.g. --axis workload.load_fraction=0.4,0.6)"
            )
        axes.append(
            SweepAxis(
                path=path,
                values=tuple(_parse_value(v) for v in values.split(",")),
            )
        )
    sweep = Sweep(base=spec, axes=tuple(axes), mode=args.mode)
    results = sweep.run(max_workers=args.jobs)
    report = compare(results)
    print(report.render())
    failed = [r for r in results if r.error is not None]
    if failed:
        print(
            f"\n{len(failed)} of {len(results)} sweep point(s) failed:",
            file=sys.stderr,
        )
        for result in failed:
            print(f"  {result.spec.name}: {result.error}", file=sys.stderr)
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, result in enumerate(results):
            result.save(out_dir / f"result-{index:03d}.json")
        (out_dir / "comparison.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\n{len(results)} results written to {out_dir}/")
    return 1 if failed and len(failed) == len(results) else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.api.result import RunResult
    from repro.api.sweep import compare, window_table

    results = [RunResult.load(path) for path in args.results]
    report = compare(results)
    print(report.render())
    if args.windows:
        print()
        print(window_table(results, metric=args.window_metric))
    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\ncomparison written to {args.output}")
    return 0


# -- wiring ---------------------------------------------------------------------


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="registered spec name or .json/.toml file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a spec field by dotted path (repeatable)",
    )
    parser.add_argument(
        "--runner",
        choices=("fluid", "request", "fleet", "scenario"),
        help="execute on this substrate (same as --set runner=...)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Declarative KnapsackLB experiments: spec in, artifact out.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered specs").set_defaults(
        handler=_cmd_list
    )

    show = commands.add_parser("show", help="print a fully-resolved spec")
    _add_spec_arguments(show)
    show.set_defaults(handler=_cmd_show)

    validate = commands.add_parser(
        "validate",
        help="eagerly validate a spec (timeline included) without running it",
    )
    _add_spec_arguments(validate)
    validate.set_defaults(handler=_cmd_validate)

    run = commands.add_parser("run", help="execute a spec")
    _add_spec_arguments(run)
    run.add_argument("-o", "--output", help="write the RunResult JSON here")
    run.add_argument(
        "--watch",
        action="store_true",
        help="stream timeline events and per-window progress to stderr",
    )
    run.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="split a request-level run into N shards (statistically exact "
        "where possible, epoch-synchronized for stateful policies and "
        "timelines; falls back to serial with the reason surfaced "
        "otherwise)",
    )
    run.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker processes for a sharded run (default: min(shards, cores); "
        "1 runs every shard in-process)",
    )
    run.add_argument(
        "--sync-interval",
        type=float,
        metavar="S",
        help="epoch length in seconds for epoch-synchronized shards (same as "
        "--set sync_interval_s=S; smaller = less staleness, more barriers)",
    )
    run.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="stdout format: 'table' (human metrics table) or 'json' (the "
        "full RunResult artifact; progress/note lines go to stderr)",
    )
    run.set_defaults(handler=_cmd_run)

    serve = commands.add_parser(
        "serve",
        help="run a spec as a live daemon (REST + WebSocket control plane)",
    )
    _add_spec_arguments(serve)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port; 0 picks an ephemeral port (printed on stdout)",
    )
    serve.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="simulated seconds per wall second (one window every "
        "window_s / X wall seconds; default 1.0 = real time)",
    )
    serve.add_argument(
        "--accelerated",
        action="store_true",
        help="drop wall-clock pacing and run windows back to back (CI and "
        "smoke tests)",
    )
    serve.set_defaults(handler=_cmd_serve)

    sweep = commands.add_parser("sweep", help="expand and run a parameter sweep")
    _add_spec_arguments(sweep)
    sweep.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="PATH=V1,V2,...",
        help="sweep axis (repeatable)",
    )
    sweep.add_argument(
        "--mode", choices=("grid", "zip"), default="grid", help="axis combination"
    )
    sweep.add_argument(
        "-j",
        "--jobs",
        "--workers",
        dest="jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (a warm pool reused across "
        "the whole expansion; 1 = run inline)",
    )
    sweep.add_argument("-o", "--output", help="directory for result artifacts")
    sweep.set_defaults(handler=_cmd_sweep)

    cmp_parser = commands.add_parser(
        "compare", help="compare saved result artifacts"
    )
    cmp_parser.add_argument("results", nargs="+", help="RunResult JSON files")
    cmp_parser.add_argument(
        "--windows",
        action="store_true",
        help="also print the window-by-window trajectory table",
    )
    cmp_parser.add_argument(
        "--window-metric",
        default="mean_latency_ms",
        metavar="METRIC",
        help="metric the --windows table shows (default: mean_latency_ms)",
    )
    cmp_parser.add_argument("-o", "--output", help="write the comparison JSON here")
    cmp_parser.set_defaults(handler=_cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0  # stdout consumer (e.g. `| head`) went away mid-print


if __name__ == "__main__":
    sys.exit(main())
