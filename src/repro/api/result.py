"""The run artifact: metrics + per-DIP detail + full provenance.

A :class:`RunResult` is what every runner returns and what the CLI writes
to disk: the headline metrics, per-DIP summary rows, the fully-resolved
spec that produced them, the seed, and wall-clock provenance.  It
round-trips through JSON, so a saved artifact can be reloaded, diffed
against a later run (``metrics_equal``), or re-executed from its embedded
spec to check reproducibility.

Timing lives in ``provenance`` — never in ``metrics`` — so re-running a
saved spec with the same seed reproduces the metrics dict bit-for-bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

from repro import __version__
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError

#: Schema tag embedded in every serialized artifact.
RESULT_SCHEMA = "repro.api.run_result/v1"


@dataclass(frozen=True)
class Provenance:
    """Where and when a result came from (excluded from metric comparison).

    ``shards``/``workers`` record how a request-level run was executed by
    the parallel layer (1/1 for serial runs); ``shards`` is the *effective*
    count after the planner clamps to the DIP count.  ``shard_mode`` names
    the execution path ("serial", "exact", or "epoch"), ``sync_interval_s``
    the epoch length for epoch runs, and ``fallback_reason`` why a
    requested sharding fell back to serial; ``station_path`` says how a
    serial request run drove its DIP stations — ``"replay"`` (each DIP's
    arrival sub-stream through the FCFS recursion, when no pick could read
    queue state and nothing was scheduled to perturb the run) or
    ``"events"`` (the event engine) — and is ``None`` for analytic and
    sharded runs and for artifacts written before the field existed.
    Execution shape lives here —
    not in ``metrics`` — because a sharded run's merged metrics are
    bit-identical for a fixed seed regardless of how many processes
    produced them.
    """

    started_at: str
    wall_clock_s: float
    version: str = __version__
    shards: int = 1
    workers: int = 1
    shard_mode: str = "serial"
    sync_interval_s: float | None = None
    fallback_reason: str | None = None
    #: worker-pool tasks re-dispatched after a timeout or crash.
    retries: int = 0
    #: execution mode the pool degraded to after repeated failures
    #: ("inline" when the last-resort in-process path ran), or ``None``.
    degraded_to: str | None = None
    #: runs of a sweep that ultimately failed (their rows carry ``error``).
    failed_runs: int = 0
    #: the divergence guard's warning when the workload breaks the
    #: analytic twin's M/M/c assumptions (see
    #: :func:`repro.workloads.divergence.assess_divergence`); ``None``
    #: when the analytic model is trustworthy or was not consulted.
    model_divergence: str | None = None
    station_path: str | None = None
    #: host wall-clock figures a scenario measures besides ``wall_clock_s``
    #: (e.g. a request run's ``wall_s`` and ``requests_per_s``); ``None``
    #: when it measures none.
    timings: dict[str, float] | None = None


class RunClock:
    """The wall clock of one run: started on construction, read once at the end."""

    def __init__(self) -> None:
        self._started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self._started = time.perf_counter()

    def provenance(self, **fields: Any) -> Provenance:
        """The run's :class:`Provenance`, with the elapsed wall clock filled in."""
        return Provenance(
            started_at=self._started_at,
            wall_clock_s=time.perf_counter() - self._started,
            **fields,
        )


@dataclass(frozen=True)
class RunWindow:
    """One telemetry window of a timed run (a row of the time-series).

    Windows turn a result from an end-of-run aggregate into a replayable
    trajectory: per-window headline metrics, the per-DIP request/rate share,
    and the labels of the timeline events applied during the window, in
    application order.  Times are seconds from the start of the timed phase
    (the same clock :class:`~repro.api.spec.EventSpec` times use).
    """

    start_s: float
    end_s: float
    metrics: dict[str, float]
    dip_share: dict[str, float] = field(default_factory=dict)
    events: tuple[str, ...] = ()
    #: per-DIP columns for the window (latency, utilization, in-system
    #: population where the substrate provides them), so a per-DIP
    #: trajectory needs no recomputing from aggregates.  Old artifacts
    #: without this field load as empty rows.
    dip_metrics: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        data = {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "metrics": dict(self.metrics),
            "dip_share": dict(self.dip_share),
            "events": list(self.events),
        }
        if self.dip_metrics:
            data["dip_metrics"] = {
                dip: dict(row) for dip, row in self.dip_metrics.items()
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunWindow":
        return cls(
            start_s=float(data["start_s"]),
            end_s=float(data["end_s"]),
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            dip_share={
                k: float(v) for k, v in data.get("dip_share", {}).items()
            },
            events=tuple(str(e) for e in data.get("events", ())),
            dip_metrics={
                dip: {k: float(v) for k, v in row.items()}
                for dip, row in data.get("dip_metrics", {}).items()
            },
        )


def timeline_metrics(windows: tuple[RunWindow, ...]) -> dict[str, float]:
    """Headline latency metrics of a timed phase, comparable across substrates.

    ``mean_latency_ms`` is the run average over the whole timed phase
    (rate·time-weighted across windows, so it matches the request engine's
    completed-request average in meaning), ``final_latency_ms`` the last
    window's value — end state and trajectory average stay distinct.

    Shared by the batch runners and the live service's session export: both
    fold the same window rows through the same arithmetic in the same
    order, so a replayed session reproduces these numbers bit-for-bit.
    """
    weighted = 0.0
    weight = 0.0
    for window in windows:
        mean = window.metrics.get("mean_latency_ms", float("nan"))
        if mean != mean:
            continue
        rate = window.metrics.get("total_rate_rps", 1.0)
        share = rate * (window.end_s - window.start_s)
        weighted += mean * share
        weight += share
    return {
        "mean_latency_ms": weighted / weight if weight else float("nan"),
        "final_latency_ms": (
            windows[-1].metrics.get("mean_latency_ms", float("nan"))
            if windows
            else float("nan")
        ),
    }


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing one :class:`ExperimentSpec`."""

    spec: ExperimentSpec
    runner: str
    seed: int
    metrics: dict[str, float]
    dip_summaries: dict[str, dict[str, float]]
    provenance: Provenance
    #: windowed time-series of the timed phase (empty without a timeline).
    windows: tuple[RunWindow, ...] = ()
    #: why this run produced no metrics (sweep error capture); ``None``
    #: for successful runs.
    error: str | None = None
    #: rich in-memory detail (assignments, states); never serialized.
    detail: Any = field(default=None, compare=False, repr=False)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data = {
            "schema": RESULT_SCHEMA,
            "spec": self.spec.to_dict(),
            "runner": self.runner,
            "seed": self.seed,
            "metrics": dict(self.metrics),
            "dip_summaries": {
                dip: dict(row) for dip, row in self.dip_summaries.items()
            },
            "windows": [window.to_dict() for window in self.windows],
            "provenance": asdict(self.provenance),
        }
        if self.error is not None:
            data["error"] = self.error
        return data

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        schema = data.get("schema")
        if schema != RESULT_SCHEMA:
            raise ConfigurationError(
                f"unsupported result schema {schema!r}; expected {RESULT_SCHEMA!r}"
            )
        missing = [
            key
            for key in ("spec", "runner", "seed", "metrics", "provenance")
            if key not in data
        ]
        if missing:
            raise ConfigurationError(
                f"result artifact is missing field {missing[0]!r}"
            )
        prov = data["provenance"]

        def optional(key: str, kind: type = str) -> Any:
            value = prov.get(key)
            return kind(value) if value is not None else None

        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            runner=str(data["runner"]),
            seed=int(data["seed"]),
            metrics={k: float(v) for k, v in data["metrics"].items()},
            dip_summaries={
                dip: {k: float(v) for k, v in row.items()}
                for dip, row in data.get("dip_summaries", {}).items()
            },
            windows=tuple(
                RunWindow.from_dict(row) for row in data.get("windows", ())
            ),
            error=(
                str(data["error"]) if data.get("error") is not None else None
            ),
            provenance=Provenance(
                started_at=str(prov.get("started_at", "")),
                wall_clock_s=float(prov.get("wall_clock_s", 0.0)),
                version=str(prov.get("version", "")),
                shards=int(prov.get("shards", 1)),
                workers=int(prov.get("workers", 1)),
                shard_mode=str(prov.get("shard_mode", "serial")),
                sync_interval_s=optional("sync_interval_s", float),
                fallback_reason=optional("fallback_reason"),
                retries=int(prov.get("retries", 0)),
                degraded_to=optional("degraded_to"),
                failed_runs=int(prov.get("failed_runs", 0)),
                model_divergence=optional("model_divergence"),
                station_path=optional("station_path"),
                timings=(
                    {k: float(v) for k, v in prov["timings"].items()}
                    if prov.get("timings") is not None
                    else None
                ),
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"result file {str(path)!r} does not exist")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"result file {str(path)!r} is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)

    @classmethod
    def error_result(
        cls, spec: ExperimentSpec, message: str, *, started_at: str = ""
    ) -> "RunResult":
        """A failed run's row: empty metrics, the failure under ``error``.

        Sweeps return one of these per point that raised instead of
        aborting the whole expansion — the successful points' results
        survive, and the failure is inspectable in the same table.
        """
        return cls(
            spec=spec,
            runner=spec.runner,
            seed=spec.seed,
            metrics={},
            dip_summaries={},
            provenance=Provenance(started_at=started_at, wall_clock_s=0.0),
            error=message,
        )

    def window_series(self, metric: str) -> tuple[float, ...]:
        """One metric as a time-series across the windows (NaN where absent)."""
        return tuple(w.metrics.get(metric, float("nan")) for w in self.windows)

    # -- comparison ------------------------------------------------------------

    def metrics_equal(self, other: "RunResult", *, rel_tol: float = 0.0) -> bool:
        """Same metric keys and values (within ``rel_tol`` relative error)."""
        if set(self.metrics) != set(other.metrics):
            return False
        for key, value in self.metrics.items():
            theirs = other.metrics[key]
            if value == theirs:
                continue
            if value != value and theirs != theirs:  # both NaN
                continue
            scale = max(abs(value), abs(theirs), 1e-12)
            if abs(value - theirs) / scale > rel_tol:
                return False
        return True
