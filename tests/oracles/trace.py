"""A collector's rows one by one, and one DIP's summary from its record
mask, the per-DIP form of ``MetricsCollector.summaries``.

:meth:`repro.sim.trace.MetricsCollector.summaries` groups every record by
DIP once; :func:`dip_summary` selects one DIP's records with a mask over
all of them, in record order, which is what each grouped row must equal.
:func:`records` reads the columns back as one :class:`RequestRecord` per
row, for tests that check a fold against a loop over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import DipId
from repro.sim.trace import _SUMMARY_Q, DipSummary, MetricsCollector, _quantiles


@dataclass
class RequestRecord:
    """One completed (or dropped) request as the collector holds it."""

    dip: DipId
    latency_ms: float
    completed: bool
    timestamp: float


def records(collector: MetricsCollector) -> tuple[RequestRecord, ...]:
    """``collector``'s rows in record order, one object each."""
    collector._flush()
    ids = collector._dip_ids
    lat, code, done, ts = collector._lat, collector._code, collector._done, collector._ts
    return tuple(
        RequestRecord(ids[code[i]], float(lat[i]), bool(done[i]), float(ts[i]))
        for i in range(collector._n)
    )


def dip_summary(collector: MetricsCollector, dip: DipId) -> DipSummary:
    collector._flush()
    n = collector._n
    rows = collector._code[:n] == collector._dip_code.get(dip, -1)
    latencies = collector._lat[:n][rows & collector._done[:n]]
    return collector._summarise(
        dip,
        int(np.count_nonzero(rows)),
        latencies,
        _quantiles(latencies, _SUMMARY_Q).tolist(),
    )
