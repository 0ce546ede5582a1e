"""Parameter sweeps over a base spec, with process-parallel execution.

A :class:`Sweep` holds a base :class:`ExperimentSpec` plus one axis per
swept dotted path (``workload.load_fraction = [0.4, 0.6, 0.8]``).  ``grid``
mode expands the cartesian product, ``zip`` mode pairs the axes
element-wise.  Expansion is pure (specs out, nothing run), so the same
sweep can be inspected, saved, or executed — serially or across a warm
:class:`~repro.parallel.pool.WorkerPool`; either path produces the same
results because every expanded spec carries its own seed.  Parallel runs
serialize the *base* spec once and ship only per-point overrides; a sweep
that expands to one spec runs inline with no pool at all.

``compare`` lines up any set of results (swept or hand-picked) into one
report: a metric-by-run table plus per-metric deltas against the first
result as baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.api.result import RunResult
from repro.api.runners import execute
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.pool import WorkerPool

#: Metrics shown first (when present) in comparison reports.
_HEADLINE_METRICS = (
    "mean_latency_ms",
    "p99_latency_ms",
    "max_utilization",
    "latency_gain",
    "drop_fraction",
)


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a dotted spec path and its values."""

    path: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError("sweep axis path must be non-empty")
        if not self.values:
            raise ConfigurationError(
                f"sweep axis {self.path!r} needs at least one value"
            )


@dataclass(frozen=True)
class Sweep:
    """A declarative parameter sweep over one base spec."""

    base: ExperimentSpec
    axes: tuple[SweepAxis, ...]
    #: "grid" = cartesian product of the axes, "zip" = element-wise pairing.
    mode: str = "grid"

    def __post_init__(self) -> None:
        if self.mode not in ("grid", "zip"):
            raise ConfigurationError(
                f"sweep mode must be 'grid' or 'zip'; got {self.mode!r}"
            )
        if not self.axes:
            raise ConfigurationError("sweep needs at least one axis")
        seen: set[str] = set()
        for axis in self.axes:
            if axis.path in seen:
                raise ConfigurationError(
                    f"sweep axis {axis.path!r} appears more than once"
                )
            seen.add(axis.path)
        if self.mode == "zip":
            lengths = {len(axis.values) for axis in self.axes}
            if len(lengths) > 1:
                raise ConfigurationError(
                    "zip-mode sweep axes must all have the same length"
                )

    @classmethod
    def from_axes(
        cls,
        base: ExperimentSpec,
        axes: Mapping[str, Iterable[Any]],
        *,
        mode: str = "grid",
    ) -> "Sweep":
        return cls(
            base=base,
            axes=tuple(
                SweepAxis(path=path, values=tuple(values))
                for path, values in axes.items()
            ),
            mode=mode,
        )

    # -- expansion -------------------------------------------------------------

    def expanded_overrides(self) -> tuple[dict[str, Any], ...]:
        """One overrides dict per sweep point (axis values + derived name).

        This is what actually crosses the process boundary on a parallel
        run: workers hold the parsed base spec in a per-process cache and
        apply only these overrides, instead of re-validating a full spec
        payload per point.
        """
        if self.mode == "zip":
            combos: Iterable[tuple[Any, ...]] = zip(
                *(axis.values for axis in self.axes)
            )
        else:
            combos = itertools.product(*(axis.values for axis in self.axes))
        expanded = []
        for combo in combos:
            overrides = {
                axis.path: value for axis, value in zip(self.axes, combo)
            }
            suffix = "/".join(
                f"{axis.path.rpartition('.')[2]}={value}"
                for axis, value in zip(self.axes, combo)
            )
            overrides["name"] = f"{self.base.name}/{suffix}"
            expanded.append(overrides)
        return tuple(expanded)

    def expand(self) -> tuple[ExperimentSpec, ...]:
        """Every spec of the sweep, named ``<base>/<path>=<value>/...``."""
        return tuple(
            self.base.with_overrides(overrides)
            for overrides in self.expanded_overrides()
        )

    # -- execution -------------------------------------------------------------

    def run(
        self,
        *,
        max_workers: int | None = None,
        pool: "WorkerPool | None" = None,
    ) -> tuple[RunResult, ...]:
        """Execute the expansion; ``max_workers > 1`` uses a worker pool.

        Results come back in expansion order regardless of which process
        finished first, so a sweep's output is stable run to run.  A
        caller-provided :class:`~repro.parallel.pool.WorkerPool` is reused
        warm (and left open); otherwise a pool is created for the call.  A
        sweep that expands to a single spec always runs inline — spinning
        up a process to run one spec would pay serialization and fork
        overhead for nothing.

        A point that fails to build or execute does not abort the sweep:
        its row comes back with empty metrics and the failure message under
        :attr:`RunResult.error`, and every row's provenance records the
        sweep's ``failed_runs`` count (plus any worker-pool retries).
        """
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        overrides = self.expanded_overrides()
        workers = min(
            max_workers if max_workers is not None else (pool.max_workers if pool else 1),
            len(overrides),
        )
        if len(overrides) == 1 or (workers <= 1 and pool is None):
            return self._run_inline(overrides)
        from repro.parallel.pool import WorkerPool

        own_pool = pool is None
        pool = pool or WorkerPool(max_workers=workers)
        try:
            return tuple(pool.run_specs(self.base, overrides))
        finally:
            if own_pool:
                pool.close()

    def _run_inline(
        self, overrides: Sequence[Mapping[str, Any]]
    ) -> tuple[RunResult, ...]:
        """The serial path, with the same per-point error capture."""
        from dataclasses import replace

        from repro.parallel.pool import _spec_for_error_row

        results: list[RunResult] = []
        for point in overrides:
            try:
                results.append(execute(self.base.with_overrides(point)))
            except Exception as error:  # noqa: BLE001 - captured into the row
                results.append(
                    RunResult.error_result(
                        _spec_for_error_row(self.base, point),
                        f"{type(error).__name__}: {error}",
                    )
                )
        failed = sum(1 for result in results if result.error is not None)
        if failed:
            results = [
                replace(
                    result,
                    provenance=replace(result.provenance, failed_runs=failed),
                )
                for result in results
            ]
        return tuple(results)


@dataclass(frozen=True)
class ComparisonReport:
    """A metric-by-run alignment of several results."""

    names: tuple[str, ...]
    runners: tuple[str, ...]
    seeds: tuple[int, ...]
    #: metric -> one value per run (NaN where a run lacks the metric).
    metrics: dict[str, tuple[float, ...]] = field(default_factory=dict)

    @property
    def baseline(self) -> str:
        return self.names[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "names": list(self.names),
            "runners": list(self.runners),
            "seeds": list(self.seeds),
            "metrics": {k: list(v) for k, v in self.metrics.items()},
        }

    def render(self) -> str:
        """Human-readable table (one row per metric, one column per run)."""
        from repro.analysis import format_run_comparison

        # Disambiguate identical spec names (e.g. the same spec on two
        # substrates) with the runner; missing metrics render as "-".
        labels = [
            f"{name} [{runner}]" if self.names.count(name) > 1 else name
            for name, runner in zip(self.names, self.runners)
        ]
        return format_run_comparison(
            [
                {
                    "name": label,
                    "runner": runner,
                    "seed": seed,
                    "metrics": {
                        metric: values[i]
                        for metric, values in self.metrics.items()
                        if values[i] == values[i]
                    },
                }
                for i, (label, runner, seed) in enumerate(
                    zip(labels, self.runners, self.seeds)
                )
            ]
        )


def window_table(
    results: Sequence[RunResult], *, metric: str = "mean_latency_ms"
) -> str:
    """Align the results' window time-series into one window-by-run table.

    One row per telemetry window: the window bounds (from the first result
    that recorded windows), ``metric``'s value per run (``-`` where a run
    has no such window), and the timeline events applied in that window
    (union across runs, deduplicated in order).  This is what makes two
    timed runs comparable *trajectory against trajectory* — e.g. a
    failure-injection run against its no-fault twin.
    """
    from repro.analysis import format_table

    if not results:
        raise ConfigurationError("window_table needs at least one result")
    depth = max(len(r.windows) for r in results)
    if depth == 0:
        raise ConfigurationError(
            "none of the results carry windows (no timeline ran); "
            "re-run with a spec that has a timeline"
        )
    reference = next(r for r in results if r.windows)
    labels = [
        f"{r.spec.name} [{r.runner}]"
        if [x.spec.name for x in results].count(r.spec.name) > 1
        else r.spec.name
        for r in results
    ]
    rows = []
    for index in range(depth):
        bounds = (
            f"[{reference.windows[index].start_s:g}, "
            f"{reference.windows[index].end_s:g})"
            if index < len(reference.windows)
            else f"#{index}"
        )
        values = []
        for result in results:
            if index < len(result.windows):
                value = result.windows[index].metrics.get(metric, float("nan"))
                values.append(f"{value:.4g}" if value == value else "-")
            else:
                values.append("-")
        seen: list[str] = []
        for result in results:
            if index < len(result.windows):
                for label in result.windows[index].events:
                    if label not in seen:
                        seen.append(label)
        rows.append([bounds, *values, "; ".join(seen)])
    return format_table(
        ["window (s)", *labels, "events"],
        rows,
        title=f"{metric} per window",
    )


def compare(results: Sequence[RunResult]) -> ComparisonReport:
    """Align ``results`` into one comparison (first result = baseline)."""
    if not results:
        raise ConfigurationError("compare needs at least one result")
    ordered: list[str] = [
        m
        for m in _HEADLINE_METRICS
        if any(m in r.metrics for r in results)
    ]
    for result in results:
        for metric in sorted(result.metrics):
            if metric not in ordered:
                ordered.append(metric)
    return ComparisonReport(
        names=tuple(r.spec.name for r in results),
        runners=tuple(r.runner for r in results),
        seeds=tuple(r.seed for r in results),
        metrics={
            metric: tuple(r.metrics.get(metric, float("nan")) for r in results)
            for metric in ordered
        },
    )
