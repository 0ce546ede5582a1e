"""KLM — KnapsackLB Latency Measurement (§3.2, §5).

One KLM instance runs inside each customer VNET.  Every probe interval it
sends a batch of application requests *directly to each DIP's IP*
(bypassing the MUXes so MUX queueing cannot pollute the measurement) and
averages the response latency over the batch.  The paper's KLMs write these
``<DIP, latency, time>`` samples to a Redis latency store for the
controller to read; here the controller takes the round :meth:`KLM.probe_round`
returns, and §6.7's store footprint is modelled analytically
(``experiments/overheads.py``).  Failed probes are counted per DIP so the
controller can detect DIP failures (§4.5).

KLM is agent-less from the DIP's perspective: it only issues ordinary
application requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.config import ProbeConfig
from repro.core.types import DipId

if TYPE_CHECKING:
    from repro.core.controller import Deployment

#: Measured KLM probing throughput on a 1-core DS1v2 VM (§6.7).
KLM_REQUESTS_PER_SECOND_PER_CORE = 4500.0


@dataclass
class ProbeOutcome:
    """Result of probing one DIP once."""

    dip: DipId
    latency_ms: float | None
    dropped: bool
    failed: bool
    timestamp: float


def _outcomes(
    results: Mapping[DipId, tuple[float | None, bool]], now: float
) -> dict[DipId, ProbeOutcome]:
    """A probe round's ``(latency_ms, dropped)`` per DIP as outcomes."""
    return {
        dip: ProbeOutcome(dip, latency, dropped, latency is None and not dropped, now)
        for dip, (latency, dropped) in results.items()
    }


@dataclass
class KLM:
    """A per-VNET latency prober (one VIP per VNET, §3.2).

    Parameters
    ----------
    deployment:
        What serves the probes, sent to each DIP directly by id (standing in
        for its IP): KLM sees a batch's latencies and drops, nothing else.
    config:
        Probe interval and batch size.
    """

    deployment: Deployment
    config: ProbeConfig = field(default_factory=ProbeConfig)
    #: consecutive failed probes per DIP (controller reads this for §4.5).
    consecutive_failures: dict[DipId, int] = field(default_factory=dict)

    def probe_round(
        self, dip_ids: Sequence[DipId]
    ) -> dict[DipId, tuple[float | None, bool]]:
        """Send one probe batch to each of ``dip_ids``.

        The one probe implementation: the deployment serves the batches as
        one round (``Deployment.probe_round``).  Returns ``(latency_ms,
        dropped)`` per DIP.  The latency is ``None`` when the DIP is down
        (not dropped; this counts towards its consecutive failures, any
        answer resets them) and when every request was dropped (a drop
        signal with no sample).
        """
        means, drop_counts = self.deployment.probe_round(
            dip_ids, self.config.requests_per_probe
        )
        failures = self.consecutive_failures
        results: dict[DipId, tuple[float | None, bool]] = {}
        for dip, mean, drops in zip(dip_ids, means, drop_counts):
            if mean is None:
                failures[dip] = failures.get(dip, 0) + 1
                results[dip] = (None, False)
                continue
            failures[dip] = 0
            if mean == math.inf:
                results[dip] = (None, True)
            else:
                results[dip] = (mean, drops > 0)
        return results

    def probe_dip(self, dip_id: DipId, *, now: float) -> ProbeOutcome:
        """Send one probe batch to a single DIP, stamped ``now``."""
        return _outcomes(self.probe_round((dip_id,)), now)[dip_id]

    def failures(self, threshold: int) -> tuple[DipId, ...]:
        """DIPs whose probes failed at least ``threshold`` consecutive times."""
        return tuple(
            dip
            for dip, count in self.consecutive_failures.items()
            if count >= threshold
        )
