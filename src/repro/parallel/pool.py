"""A persistent worker-process pool for sweeps.

``concurrent.futures.ProcessPoolExecutor`` is a good engine but a poor
lifecycle: the previous sweep path spun up a cold pool per call and paid a
full spec→dict→JSON round-trip per task.  :class:`WorkerPool` keeps the
interpreter pool warm across calls, serializes the sweep's *base* spec
exactly once (workers cache the parsed tree by content key and apply only
the per-task overrides), and dispatches in chunks so a thousand-spec sweep
does not queue a thousand pickles.

Scope note: the pool serves sweeps only.  A sharded run's processes meet
at mid-task barriers, which a futures executor cannot express, so
:mod:`repro.parallel.epoch` fans every sharded run out on dedicated
``multiprocessing.Process`` workers instead.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import traceback
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.exceptions import ConfigurationError

logger = logging.getLogger("repro.parallel")

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor

    from repro.api.result import RunResult
    from repro.api.spec import ExperimentSpec

#: parsed base specs cached per worker process, newest last.
_BASE_SPECS: "OrderedDict[str, Any]" = OrderedDict()
_BASE_CACHE_SIZE = 8


def _fresh_stats() -> dict[str, Any]:
    """Zeroed failure accounting for one :meth:`WorkerPool.map` call."""
    return {"retries": 0, "crashes": 0, "timeouts": 0, "degraded_to": None}


def _spec_for_error_row(base: "ExperimentSpec", overrides: Mapping[str, Any]):
    """The best spec to hang a failed sweep point's row on.

    The overrides themselves may be what's invalid — fall back to the base
    spec renamed to the point's derived name so the row stays addressable.
    """
    from dataclasses import replace

    try:
        return base.with_overrides(overrides)
    except Exception:  # noqa: BLE001 - the failure is already captured
        return replace(base, name=str(overrides.get("name", base.name)))


def _sweep_worker(task: Mapping[str, Any]) -> dict[str, Any]:
    """Run one sweep point: cached base spec + overrides -> result dict.

    A failing point returns an ``error`` payload instead of raising, so
    one bad parameter combination cannot abort the whole sweep (the pool
    reserves exceptions for infrastructure failures: crashes, timeouts).
    """
    from repro.api.runners import execute
    from repro.api.spec import ExperimentSpec

    key = task["base_key"]
    base = _BASE_SPECS.get(key)
    hit = base is not None
    if base is None:
        base = ExperimentSpec.from_dict(json.loads(task["base"]))
        _BASE_SPECS[key] = base
        while len(_BASE_SPECS) > _BASE_CACHE_SIZE:
            _BASE_SPECS.popitem(last=False)
    else:
        _BASE_SPECS.move_to_end(key)
    try:
        spec = base.with_overrides(task["overrides"])
        return {"result": execute(spec).to_dict(), "base_cache_hit": hit}
    except Exception as error:  # noqa: BLE001 - captured into the row
        return {
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(),
            "base_cache_hit": hit,
        }


class WorkerPool:
    """A lazily-started, reusable process pool.

    The underlying executor is created on first dispatch and survives until
    :meth:`close` (or the context manager exits), so consecutive
    ``Sweep.run`` calls reuse warm interpreters.  With
    ``max_workers=1`` nothing is ever forked — every dispatch runs inline,
    which keeps single-spec sweeps and tests process-free.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        task_timeout_s: float | None = None,
        max_task_retries: int = 2,
        retry_backoff_s: float = 0.25,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigurationError("task_timeout_s must be positive or None")
        if max_task_retries < 0:
            raise ConfigurationError("max_task_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        self.max_workers = max_workers or os.cpu_count() or 1
        #: per-task deadline; a task still running past it is presumed hung
        #: and its workers are recycled (``None`` disables the watchdog).
        self.task_timeout_s = task_timeout_s
        #: pool re-dispatches per task before degrading to inline execution.
        self.max_task_retries = max_task_retries
        #: pause before re-dispatching after a crash or timeout (doubles
        #: per consecutive incident; deterministic, no jitter).
        self.retry_backoff_s = retry_backoff_s
        self._executor: ProcessPoolExecutor | None = None
        #: tasks dispatched over this pool's lifetime (observability).
        self.tasks_dispatched = 0
        #: failure accounting of the most recent :meth:`map` call.
        self.last_map_stats: dict[str, Any] = _fresh_stats()

    @property
    def started(self) -> bool:
        return self._executor is not None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # ``multiprocessing`` loads with the first real worker, so a
            # single-worker pool (every dispatch inline) never imports it.
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def _recycle(self) -> None:
        """Tear the broken/hung executor down; the next dispatch rebuilds."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def map(
        self,
        func: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        chunksize: int | None = None,
    ) -> list[Any]:
        """Apply ``func`` to every payload, preserving order — fault-tolerant.

        Results come back in payload order regardless of completion order.
        Inline (no processes) when the pool is single-worker or there is
        only one payload — the serial fallback the sweep engine relies on.

        Failure semantics: a worker crash (``BrokenProcessPool``) or a task
        running past ``task_timeout_s`` recycles the executor and
        re-dispatches every unfinished task, with exponential backoff and at
        most ``max_task_retries`` re-dispatches per task; a task that
        exhausts its retries runs inline in this process as a last resort.
        The accounting lands in :attr:`last_map_stats` (``retries``,
        ``crashes``, ``timeouts``, ``degraded_to``) and flows into result
        provenance.  Exceptions *raised by the task itself* propagate on
        first occurrence — workers that want per-task error capture (the
        sweep worker) catch their own.
        """
        payloads = list(payloads)
        stats = _fresh_stats()
        self.last_map_stats = stats
        self.tasks_dispatched += len(payloads)
        if not payloads:
            return []
        if self.max_workers <= 1 or len(payloads) == 1:
            return [func(payload) for payload in payloads]
        return self._map_fault_tolerant(func, payloads, stats)

    def _map_fault_tolerant(
        self,
        func: Callable[[Any], Any],
        payloads: list[Any],
        stats: dict[str, Any],
    ) -> list[Any]:
        from concurrent.futures.process import BrokenProcessPool

        total = len(payloads)
        results: list[Any] = [None] * total
        done = [False] * total
        attempts = [0] * total
        pending: dict[Future, int] = {}
        deadlines: dict[Future, float] = {}
        incidents = 0

        while True:
            # (Re-)dispatch every unfinished, un-pending task.
            in_flight = set(pending.values())
            for index in range(total):
                if done[index] or index in in_flight:
                    continue
                if attempts[index] > self.max_task_retries:
                    # Last resort: run where nothing can crash under us.
                    logger.warning(
                        "task %d exhausted %d pool retries; running inline",
                        index,
                        self.max_task_retries,
                    )
                    stats["degraded_to"] = "inline"
                    results[index] = func(payloads[index])
                    done[index] = True
                    continue
                attempts[index] += 1
                if attempts[index] > 1:
                    stats["retries"] += 1
                future = self._ensure().submit(func, payloads[index])
                pending[future] = index
                if self.task_timeout_s is not None:
                    deadlines[future] = time.monotonic() + self.task_timeout_s
            if not pending:
                break

            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - time.monotonic())
            finished, _ = wait(
                set(pending), timeout=timeout, return_when=FIRST_COMPLETED
            )

            crashed = False
            for future in finished:
                index = pending.pop(future)
                deadlines.pop(future, None)
                try:
                    results[index] = future.result()
                    done[index] = True
                except BrokenProcessPool:
                    # The pool died; every sibling future is broken too.
                    crashed = True
                except Exception:
                    # A genuine task error: not an infrastructure failure.
                    raise
            if crashed:
                stats["crashes"] += 1
                incidents += 1
                logger.warning(
                    "worker pool crashed; recycling and re-dispatching "
                    "%d unfinished task(s)",
                    sum(1 for flag in done if not flag),
                )
                self._recycle()
                pending.clear()
                deadlines.clear()
                self._backoff(incidents)
            elif not finished and deadlines:
                now = time.monotonic()
                expired = [f for f, d in deadlines.items() if d <= now]
                if expired:
                    stats["timeouts"] += len(expired)
                    incidents += 1
                    logger.warning(
                        "%d task(s) exceeded task_timeout_s=%.3g; "
                        "recycling hung workers",
                        len(expired),
                        self.task_timeout_s,
                    )
                    # A hung worker cannot be killed selectively; recycle
                    # the executor and re-dispatch everything unfinished.
                    self._recycle()
                    pending.clear()
                    deadlines.clear()
                    self._backoff(incidents)
        return results

    def _backoff(self, incidents: int) -> None:
        if self.retry_backoff_s > 0:
            time.sleep(self.retry_backoff_s * 2 ** (incidents - 1))

    def run_specs(
        self,
        base: "ExperimentSpec",
        overrides: Iterable[Mapping[str, Any]],
    ) -> "list[RunResult]":
        """Execute ``base`` once per overrides dict (the sweep fast path).

        The base spec is serialized a single time; each task carries only
        its overrides plus the base's content key, and workers re-parse the
        base at most once per process.

        A point that raises inside a worker comes back as an error row
        (:meth:`RunResult.error_result`) instead of aborting the batch;
        pool-level failure accounting (task retries after crashes or
        timeouts, inline degradation, failed-run count) is stamped into
        every returned result's provenance.
        """
        from dataclasses import replace

        from repro.api.result import RunResult

        overrides = [dict(o) for o in overrides]
        base_json = json.dumps(base.to_dict(), sort_keys=True)
        base_key = hashlib.sha256(base_json.encode("utf-8")).hexdigest()
        tasks = [
            {"base": base_json, "base_key": base_key, "overrides": o}
            for o in overrides
        ]
        raw = self.map(_sweep_worker, tasks)
        results = []
        for item, point in zip(raw, overrides):
            if "error" in item:
                results.append(
                    RunResult.error_result(
                        _spec_for_error_row(base, point), item["error"]
                    )
                )
            else:
                results.append(RunResult.from_dict(item["result"]))
        stats = self.last_map_stats
        failed = sum(1 for result in results if result.error is not None)
        if failed or stats["retries"] or stats["degraded_to"]:
            results = [
                replace(
                    result,
                    provenance=replace(
                        result.provenance,
                        retries=stats["retries"],
                        degraded_to=stats["degraded_to"],
                        failed_runs=failed,
                    ),
                )
                for result in results
            ]
        return results

    def close(self) -> None:
        """Shut the executor down (idempotent); the pool can be restarted."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
