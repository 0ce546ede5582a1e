"""Metrics collection for simulation runs.

The paper's evaluation reports per-DIP (and per-DIP-type) mean latency, CPU
utilization, request counts and end-to-end latency distributions; this
module gathers those from either simulator and renders simple summaries.

Storage is columnar: per-request fields land in chunk-grown numpy append
buffers (latency, DIP code, completed flag, timestamp) with DIP ids
interned to integer codes, so a million-request run costs four staged
appends per request instead of an object allocation, and every aggregate
(``latencies_ms``, ``request_share``, ``drop_fraction``, ``summaries``) is a
vectorized single pass.  Ingestion goes through small Python-list staging
buffers that are bulk-converted into the numpy columns every ``_CHUNK``
records (one vectorized assignment per chunk — scalar numpy
``__setitem__`` per request would cost 2x the append).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.types import DipId, grouped_quantiles, stable_group_order
from repro.exceptions import ConfigurationError

#: staged records per bulk conversion into the numpy columns.
_CHUNK = 8192

_NAN = float("nan")

#: the quantiles a DIP summary and a headline (or window) row report, as
#: ``numpy.percentile`` derives them from 50 / 90 / 99 and 50 / 99.
_SUMMARY_Q = np.true_divide([50, 90, 99], 100)
_HEADLINE_Q = np.true_divide([50, 99], 100)


def _quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``numpy.quantile(values, q)`` (:func:`repro.core.types.grouped_quantiles`
    on one group; NaN for no values)."""
    return grouped_quantiles(values, [0, values.size], q)[0]


@dataclass
class DipSummary:
    """Aggregate statistics for one DIP over a run."""

    dip: DipId
    requests: int
    mean_latency_ms: float
    p50_latency_ms: float
    p90_latency_ms: float
    p99_latency_ms: float
    cpu_utilization: float
    drop_fraction: float

    def to_row(self) -> dict[str, float]:
        """The per-DIP row a ``RunResult`` carries."""
        return {
            "requests": float(self.requests),
            "mean_latency_ms": self.mean_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "cpu_utilization": self.cpu_utilization,
            "drop_fraction": self.drop_fraction,
        }


class MetricsCollector:
    """Accumulates request records and utilization observations."""

    __slots__ = (
        "_dip_ids",
        "_dip_code",
        "_lat",
        "_code",
        "_done",
        "_ts",
        "_n",
        "_p_lat",
        "_p_code",
        "_p_done",
        "_p_ts",
        "_att",
        "_tmo",
        "_gup",
        "_p_over",
        "_extended",
        "_utilization",
        "_by_code",
    )

    def __init__(self) -> None:
        self._dip_ids: list[DipId] = []
        self._dip_code: dict[DipId, int] = {}
        # Committed columnar storage (first _n entries are valid) ...
        self._lat = np.empty(_CHUNK, dtype=np.float64)
        self._code = np.empty(_CHUNK, dtype=np.int32)
        self._done = np.empty(_CHUNK, dtype=bool)
        self._ts = np.empty(_CHUNK, dtype=np.float64)
        self._n = 0
        # ... and the staging lists bulk-flushed into it per chunk.
        self._p_lat: list[float] = []
        self._p_code: list[int] = []
        self._p_done: list[bool] = []
        self._p_ts: list[float] = []
        # Resilience columns (attempts / timed_out / gave_up), allocated
        # lazily on the first record_request_full so the plain path never
        # pays for them.
        self._att: np.ndarray | None = None
        self._tmo: np.ndarray | None = None
        self._gup: np.ndarray | None = None
        #: sparse staging for the resilience columns: (staged index,
        #: attempts, timed_out, gave_up) only for rows that differ from the
        #: no-retry defaults.  Flush fills the defaults vectorized and
        #: scatters these on top, so the overwhelmingly common default row
        #: (one attempt, clean finish) stages exactly like a plain record.
        self._p_over: list[tuple] = []
        self._extended = False
        self._utilization: dict[DipId, float] = {}
        #: from :meth:`adopt_run`: the rows grouped by DIP code, each group in
        #: record order, while no record has been added since.
        self._by_code: np.ndarray | None = None

    # -- ingestion -------------------------------------------------------------

    def _grow(self, need: int) -> None:
        """Ensure the committed columns can hold ``need`` records."""
        capacity = self._lat.shape[0]
        if need <= capacity:
            return
        n = self._n
        while capacity < need:
            capacity *= 2
        names = ["_lat", "_code", "_done", "_ts"]
        if self._extended:
            names += ["_att", "_tmo", "_gup"]
        for name in names:
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def _enable_extended(self) -> None:
        """Allocate the resilience columns, padding records already taken.

        Records ingested before (committed or staged) get the no-retry
        defaults: one attempt, never timed out, never gave up.
        """
        capacity = self._lat.shape[0]
        self._att = np.ones(capacity, dtype=np.int32)
        self._tmo = np.zeros(capacity, dtype=bool)
        self._gup = np.zeros(capacity, dtype=bool)
        self._extended = True

    def enable_resilience_columns(self) -> None:
        """Force-allocate the attempts/timed_out/gave_up columns.

        The retry path calls this up front so a run with zero
        failures/retries still reports the resilience columns (all
        defaults), even though every record went down the plain path.
        """
        if not self._extended:
            self._enable_extended()

    def _flush(self) -> None:
        """Bulk-convert the staged records into the numpy columns."""
        staged = len(self._p_lat)
        if not staged:
            return
        n = self._n
        need = n + staged
        self._grow(need)
        self._lat[n:need] = self._p_lat
        self._code[n:need] = self._p_code
        self._done[n:need] = self._p_done
        self._ts[n:need] = self._p_ts
        if self._extended:
            # Defaults vectorized, then the rare non-default rows scattered
            # on top (see _p_over).
            self._att[n:need] = 1
            self._tmo[n:need] = False
            self._gup[n:need] = False
            if self._p_over:
                att, tmo, gup = self._att, self._tmo, self._gup
                for index, attempts, timed_out, gave_up in self._p_over:
                    row = n + index
                    att[row] = attempts
                    tmo[row] = timed_out
                    gup[row] = gave_up
                self._p_over.clear()
        self._n = need
        self._p_lat.clear()
        self._p_code.clear()
        self._p_done.clear()
        self._p_ts.clear()

    def record_request(
        self,
        dip: DipId,
        latency_ms: float | None,
        completed: bool = True,
        timestamp: float = 0.0,
    ) -> None:
        code = self._dip_code.get(dip)
        if code is None:
            code = len(self._dip_ids)
            self._dip_code[dip] = code
            self._dip_ids.append(dip)
        staged = self._p_lat
        staged.append(latency_ms if latency_ms is not None else _NAN)
        self._p_code.append(code)
        self._p_done.append(completed)
        self._p_ts.append(timestamp)
        if len(staged) >= _CHUNK:
            self._flush()

    def record_request_full(
        self,
        dip: DipId,
        latency_ms: float | None,
        completed: bool,
        timestamp: float,
        attempts: int,
        timed_out: bool,
        gave_up: bool,
    ) -> None:
        """One *logical* request with its resilience columns.

        The retry path records one row per logical request (not per
        attempt): ``latency_ms`` spans first arrival to final completion,
        ``attempts`` counts routing attempts, ``timed_out`` marks any
        attempt exceeding the request timeout and ``gave_up`` marks
        requests the retry policy abandoned.
        """
        if not self._extended:
            self._enable_extended()
        code = self._dip_code.get(dip)
        if code is None:
            code = len(self._dip_ids)
            self._dip_code[dip] = code
            self._dip_ids.append(dip)
        staged = self._p_lat
        staged.append(latency_ms if latency_ms is not None else _NAN)
        self._p_code.append(code)
        self._p_done.append(completed)
        self._p_ts.append(timestamp)
        if attempts != 1 or timed_out or gave_up:
            self._p_over.append((len(staged) - 1, attempts, timed_out, gave_up))
        if len(staged) >= _CHUNK:
            self._flush()

    def record_utilization(self, utilization: Mapping[DipId, float]) -> None:
        self._utilization.update({d: float(u) for d, u in utilization.items()})

    def extend_columns(
        self,
        dip: DipId,
        latency_ms: np.ndarray,
        completed: np.ndarray,
        timestamp: np.ndarray,
    ) -> None:
        """Bulk-append one DIP's pre-built record columns.

        This is the shard-merge ingestion path: a worker hands back whole
        numpy columns (arrival-ordered, NaN latency for drops) and they land
        in the committed storage with one vectorized assignment per column —
        no per-request staging, no pickled record objects.  Append order is
        the caller's contract: merging shards in global DIP order makes the
        merged collector independent of the shard count.
        """
        count = len(latency_ms)
        if not (count == len(completed) == len(timestamp)):
            raise ConfigurationError("extend_columns needs equal-length columns")
        if count == 0:
            # Still intern the DIP so request_share/summaries know about it.
            if dip not in self._dip_code:
                self._dip_code[dip] = len(self._dip_ids)
                self._dip_ids.append(dip)
            return
        self._flush()
        code = self._dip_code.get(dip)
        if code is None:
            code = len(self._dip_ids)
            self._dip_code[dip] = code
            self._dip_ids.append(dip)
        n = self._n
        need = n + count
        self._grow(need)
        self._lat[n:need] = latency_ms
        self._code[n:need] = code
        self._done[n:need] = completed
        self._ts[n:need] = timestamp
        if self._extended:
            self._att[n:need] = 1
            self._tmo[n:need] = False
            self._gup[n:need] = False
        self._n = need

    def adopt_run(
        self,
        dips: Sequence[DipId],
        latency_ms: np.ndarray,
        dip_index: np.ndarray,
        completed: np.ndarray,
        timestamp: np.ndarray,
    ) -> None:
        """Take a whole run's records as columns, in the order one-by-one
        recording would have produced.

        This is the replay ingestion path: rows come in arrival order with
        ``dip_index`` (int32) into ``dips``.  An event loop records a row
        when its ``timestamp`` comes up — equal stamps in arrival order, a
        row stamped ``inf`` never — and interns a DIP at its first record;
        one stable sort by timestamp reproduces the first, and a grouping of
        the sorted rows by DIP (:func:`repro.core.types.stable_group_order`)
        the second.  The collector must be empty and
        keeps the arrays it is given, so nothing is copied but one column
        at a time under the permutation.  That grouping, its blocks put in
        interning order, is kept for :meth:`summaries`.
        """
        if self.total_requests or self._extended:
            raise ConfigurationError(
                "adopt_run needs an empty collector without resilience columns"
            )
        count = timestamp.size - int(np.count_nonzero(timestamp == np.inf))
        if not count:
            return
        # The stable order, from numpy's faster unstable sort: each run of
        # equal stamps (rare; ``inf`` ones are cut) goes back to row order.
        order = timestamp.argsort()[:count]
        stamps = timestamp[order]
        tied = stamps[1:] == stamps[:-1]
        if tied.any():
            runs = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
            order[runs] = order[runs][np.lexsort((order[runs], stamps[runs]))]
        for column in (latency_ms, dip_index, completed):
            column[:count] = column[order]
        timestamp[:count] = stamps
        del order, stamps
        # Each DIP's first record heads its group, and the DIPs in the order
        # of those first records are the interning order.
        order = stable_group_order(dip_index[:count], len(dips))
        grouped = dip_index[order]
        heads = np.flatnonzero(np.diff(grouped, prepend=-1))
        first = order[heads]
        rank = first.argsort()
        seen = grouped[heads][rank]
        ends = np.append(heads[1:], count).tolist()
        heads = heads.tolist()
        self._by_code = np.concatenate(
            [order[heads[k] : ends[k]] for k in rank.tolist()], dtype=np.int32
        )
        del order, grouped
        self._dip_ids = [dips[index] for index in seen.tolist()]
        self._dip_code = {dip: code for code, dip in enumerate(self._dip_ids)}
        code = np.empty(len(dips), dtype=np.int32)
        code[seen] = np.arange(seen.size, dtype=np.int32)
        dip_index[:count] = code[dip_index[:count]]
        self._lat, self._code = latency_ms, dip_index
        self._done, self._ts = completed, timestamp
        self._n = count

    # -- access ---------------------------------------------------------------

    @property
    def total_requests(self) -> int:
        return self._n + len(self._p_lat)

    def _dip_mask(self, dips: Iterable[DipId]) -> np.ndarray:
        codes = [self._dip_code[d] for d in dips if d in self._dip_code]
        if not codes:
            return np.zeros(self._n, dtype=bool)
        return np.isin(self._code[: self._n], codes)

    def latencies_ms(self, *, dips: Iterable[DipId] | None = None) -> np.ndarray:
        """Latencies of completed requests, optionally restricted to ``dips``."""
        self._flush()
        mask = self._done[: self._n]
        if dips is not None:
            mask = mask & self._dip_mask(dips)
        return self._lat[: self._n][mask]  # a mask index is already a copy

    def request_share(self) -> dict[DipId, float]:
        """Fraction of all requests routed to each DIP."""
        self._flush()
        n = self._n
        if n == 0:
            return {}
        counts = np.bincount(self._code[:n], minlength=len(self._dip_ids)).tolist()
        return {
            dip: counts[code] / n
            for code, dip in enumerate(self._dip_ids)
            if counts[code]
        }

    def mean_latency_ms(self, *, dips: Iterable[DipId] | None = None) -> float:
        values = self.latencies_ms(dips=dips)
        return float(values.mean()) if values.size else float("nan")

    def percentile_latency_ms(
        self, percentile: float, *, dips: Iterable[DipId] | None = None
    ) -> float:
        q = np.true_divide(percentile, 100)
        if not 0 <= q <= 1:
            raise ValueError("Percentiles must be in the range [0, 100]")
        values = self.latencies_ms(dips=dips)
        return float(_quantiles(values, q)[0])

    def drop_fraction(self, *, dips: Iterable[DipId] | None = None) -> float:
        self._flush()
        n = self._n
        done = self._done[:n]
        if dips is not None:
            mask = self._dip_mask(dips)
            total = int(mask.sum())
            if total == 0:
                return 0.0
            return float((~done[mask]).sum() / total)
        if n == 0:
            return 0.0
        return float((~done).sum() / n)

    def utilization(self) -> dict[DipId, float]:
        return dict(self._utilization)

    def retry_summary(self) -> dict[str, float] | None:
        """Aggregate resilience metrics, or ``None`` off the retry path.

        ``attempts_mean`` averages routing attempts per logical request;
        the fractions count requests that were retried at least once,
        timed out at least once, or were abandoned by the retry policy.
        """
        if not self._extended:
            return None
        self._flush()
        n = self._n
        if n == 0:
            return {
                "attempts_mean": float("nan"),
                "retried_fraction": 0.0,
                "timed_out_fraction": 0.0,
                "gave_up_fraction": 0.0,
            }
        att = self._att[:n]
        return {
            "attempts_mean": float(att.mean()),
            "retried_fraction": float((att > 1).sum() / n),
            "timed_out_fraction": float(self._tmo[:n].sum() / n),
            "gave_up_fraction": float(self._gup[:n].sum() / n),
        }

    def headline(
        self, *, submitted: int, dropped: int, duration_s: float
    ) -> dict[str, float]:
        """The whole-run metrics every request runner reports.

        Latency over completed requests from one masked copy and one
        sort; the counters are the runner's own (warm-up excluded).
        """
        values = self.latencies_ms()
        mean = float(values.mean()) if values.size else _NAN
        p50, p99 = _quantiles(values, _HEADLINE_Q).tolist()
        return {
            "mean_latency_ms": mean,
            "p50_latency_ms": p50,
            "p99_latency_ms": p99,
            "drop_fraction": dropped / submitted if submitted else 0.0,
            "requests_submitted": float(submitted),
            "duration_s": duration_s,
        }

    def _summarise(
        self, dip: DipId, requests: int, latencies: np.ndarray, quantiles: list[float]
    ) -> DipSummary:
        """One DIP's row: its record count, the latencies of its completed
        records (record order) and their :data:`_SUMMARY_Q` quantiles."""
        p50, p90, p99 = quantiles
        return DipSummary(
            dip=dip,
            requests=requests,
            mean_latency_ms=float(latencies.mean()) if latencies.size else _NAN,
            p50_latency_ms=p50,
            p90_latency_ms=p90,
            p99_latency_ms=p99,
            cpu_utilization=self._utilization.get(dip, _NAN),
            drop_fraction=(
                (requests - latencies.size) / requests if requests else 0.0
            ),
        )

    def summaries(self) -> dict[DipId, DipSummary]:
        """Every DIP's summary, from one grouping of the records by DIP.

        A stable grouping (:func:`repro.core.types.stable_group_order`, a
        radix sort on the DIP codes, or the one :meth:`adopt_run` kept)
        keeps each DIP's rows in record order, so each value is the one a
        mask over all records selects (``tests/oracles/trace.py``), and
        every DIP's percentiles come from one
        :func:`repro.core.types.grouped_quantiles` call; a per-DIP pass over
        all records would cost O(DIPs x records), as a per-window one would
        in :meth:`window_rows`.
        """
        self._flush()
        n = self._n
        width = len(self._dip_ids)
        code, lat, done = self._code[:n], self._lat[:n], self._done[:n]
        sizes = np.bincount(code, minlength=width)
        kept_sizes = np.bincount(code[done], minlength=width)
        order = self._by_code
        if order is None or order.size != n:
            # A shard merge appends DIP by DIP: already grouped, nothing to move.
            order = (
                stable_group_order(code, width) if (code[1:] < code[:-1]).any() else None
            )
        if order is not None:
            lat, done = lat[order], done[order]
        kept = lat[done]
        edges = np.concatenate(([0], kept_sizes.cumsum())).tolist()
        quantiles = grouped_quantiles(kept, edges, _SUMMARY_Q).tolist()
        sizes = sizes.tolist()
        rows: dict[DipId, DipSummary] = {}
        for dip in sorted(set(self._dip_ids) | set(self._utilization)):
            at = self._dip_code.get(dip)
            if at is None:
                rows[dip] = self._summarise(dip, 0, kept[:0], [_NAN] * 3)
            else:
                latencies = kept[edges[at] : edges[at + 1]]
                rows[dip] = self._summarise(dip, sizes[at], latencies, quantiles[at])
        return rows

    def summary_rows(self) -> dict[DipId, dict[str, float]]:
        """:meth:`summaries` as the rows a ``RunResult`` carries."""
        return {dip: row.to_row() for dip, row in self.summaries().items()}

    def window_rows(
        self, *, window_s: float, start_s: float, end_s: float
    ) -> list[dict]:
        """Windowed time-series over ``[start_s, end_s)`` by record timestamp.

        One vectorized pass buckets every record into ``window_s``-wide
        windows (timestamps are completion times, so a window reflects the
        requests that *finished* in it); each row carries the window bounds,
        headline metrics (request count, latency mean/p50/p99 of completed
        requests, drop fraction), the per-DIP request share, and per-DIP
        columns (``dip_metrics``: mean latency, drop fraction, and the
        Little's-law in-system estimate Σlatency/window for each DIP that
        saw traffic).  Rows for empty windows are emitted too — a total
        outage should show as a flat-zero window, not a missing one.
        """
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if end_s <= start_s:
            return []
        self._flush()
        n = self._n
        num_windows = int(np.ceil((end_s - start_s) / window_s - 1e-9))
        ts = self._ts[:n]
        in_range = (ts >= start_s) & (ts < end_s)
        # One sort groups every record by window; per-window slices then
        # come from searchsorted boundaries instead of a full-array mask
        # per window (O(records · windows) would bite at 1M requests).
        index = np.floor((ts[in_range] - start_s) / window_s).astype(np.int64)
        # (A record just short of ``end_s`` may round into window
        # ``num_windows``, which the boundaries below leave out.)
        order = stable_group_order(index, num_windows + 1)
        index = index[order]
        lat = self._lat[:n][in_range][order]
        done = self._done[:n][in_range][order]
        code = self._code[:n][in_range][order]
        extended = self._extended
        if extended:
            att = self._att[:n][in_range][order]
            tmo = self._tmo[:n][in_range][order]
            gup = self._gup[:n][in_range][order]
        bounds = np.searchsorted(index, np.arange(num_windows + 1))
        # Every window's completed latencies, still grouped by window, and
        # their percentiles in one call.
        kept = lat[done]
        kept_bounds = np.searchsorted(index[done], np.arange(num_windows + 1))
        percentiles = grouped_quantiles(kept, kept_bounds, _HEADLINE_Q).tolist()
        rows: list[dict] = []
        for w in range(num_windows):
            window = slice(bounds[w], bounds[w + 1])
            total = int(bounds[w + 1] - bounds[w])
            window_done = done[window]
            completed_lat = kept[kept_bounds[w] : kept_bounds[w + 1]]
            mean = float(completed_lat.mean()) if completed_lat.size else _NAN
            p50, p99 = percentiles[w]
            drops = total - int(window_done.sum())
            share: dict[DipId, float] = {}
            dip_metrics: dict[DipId, dict[str, float]] = {}
            if total:
                window_code = code[window]
                counts = np.bincount(window_code, minlength=len(self._dip_ids))
                share = {
                    dip: counts[c] / total
                    for c, dip in enumerate(self._dip_ids)
                    if counts[c]
                }
                # Per-DIP columns via one more bincount pass: completed
                # counts, latency sums (mean + the Little's-law in-system
                # estimate Σlatency / window duration follow directly).
                window_lat = lat[window]
                done_counts = np.bincount(
                    window_code[window_done], minlength=len(self._dip_ids)
                )
                lat_sums = np.bincount(
                    window_code[window_done],
                    weights=window_lat[window_done],
                    minlength=len(self._dip_ids),
                )
                span_s = min(start_s + (w + 1) * window_s, end_s) - (
                    start_s + w * window_s
                )
                for c, dip in enumerate(self._dip_ids):
                    if not counts[c]:
                        continue
                    dip_done = int(done_counts[c])
                    row = {
                        "requests": float(counts[c]),
                        "in_system": (
                            float(lat_sums[c]) / 1000.0 / span_s
                            if span_s > 0
                            else 0.0
                        ),
                        "drop_fraction": float(
                            (counts[c] - dip_done) / counts[c]
                        ),
                    }
                    # All-dropped windows omit the latency column (instead
                    # of NaN) so rows stay JSON-round-trippable by equality.
                    if dip_done:
                        row["mean_latency_ms"] = float(lat_sums[c] / dip_done)
                    dip_metrics[dip] = row
            metrics = {
                "requests": float(total),
                "mean_latency_ms": mean,
                "p50_latency_ms": p50,
                "p99_latency_ms": p99,
                "drop_fraction": drops / total if total else 0.0,
            }
            if extended and total:
                metrics["retried_fraction"] = float(
                    (att[window] > 1).sum() / total
                )
                metrics["timed_out_fraction"] = float(tmo[window].sum() / total)
                metrics["gave_up_fraction"] = float(gup[window].sum() / total)
            rows.append(
                {
                    "start_s": start_s + w * window_s,
                    "end_s": min(start_s + (w + 1) * window_s, end_s),
                    "metrics": metrics,
                    "dip_share": share,
                    "dip_metrics": dip_metrics,
                }
            )
        return rows


def fraction_of_requests_improved(
    baseline: MetricsCollector, improved: MetricsCollector
) -> float:
    """Fraction of the latency distribution where ``improved`` beats ``baseline``.

    The paper states results like "cuts latency by up to 45 % for 79 % of
    requests": we compare the two latency distributions quantile-by-quantile
    and report the fraction of quantiles where the improved system is
    strictly faster.
    """
    base = baseline.latencies_ms()
    new = improved.latencies_ms()
    if base.size == 0 or new.size == 0:
        return 0.0
    quantiles = np.linspace(0.01, 0.99, 99)
    base_q = _quantiles(base, quantiles)
    new_q = _quantiles(new, quantiles)
    return float(np.mean(new_q < base_q))


def max_latency_gain(
    baseline: MetricsCollector, improved: MetricsCollector
) -> float:
    """Maximum relative latency reduction across quantiles (paper's "up to X %")."""
    base = baseline.latencies_ms()
    new = improved.latencies_ms()
    if base.size == 0 or new.size == 0:
        return 0.0
    quantiles = np.linspace(0.05, 0.99, 95)
    base_q = _quantiles(base, quantiles)
    new_q = _quantiles(new, quantiles)
    gains = (base_q - new_q) / np.maximum(base_q, 1e-9)
    return float(np.max(gains))
