"""One DIP's summary from its record mask, the per-DIP form of
``MetricsCollector.summaries``.

:meth:`repro.sim.trace.MetricsCollector.summaries` groups every record by
DIP once; :func:`dip_summary` selects one DIP's records with a mask over
all of them, in record order, which is what each grouped row must equal.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import DipId
from repro.sim.trace import _SUMMARY_Q, DipSummary, MetricsCollector, _quantiles


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
