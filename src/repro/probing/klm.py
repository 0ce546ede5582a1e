"""KLM — KnapsackLB Latency Measurement (§3.2, §5).

One KLM instance runs inside each customer VNET.  Every probe interval it
sends a batch of application requests *directly to each DIP's IP*
(bypassing the MUXes so MUX queueing cannot pollute the measurement),
averages the response latency over the batch, and writes a
``<DIP, latency, time>`` sample to the latency store.  Failed probes are
recorded as failures so the controller can detect DIP failures (§4.5).

KLM is agent-less from the DIP's perspective: it only issues ordinary
requests against the admin-provided URL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.backends.dip import DipServer, serve_probe_round
from repro.core.config import ProbeConfig
from repro.core.types import DipId, VipId
from repro.probing.latency_store import LatencyStore

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
    """A per-VNET latency prober.

    Parameters
    ----------
    vip:
        The VIP whose DIPs this KLM measures (one VIP per VNET, §3.2).
    dips:
        The DIP servers, addressed directly by id (standing in for their IPs).
    store:
        The latency store samples are written to.
    config:
        Probe interval / batch size / timeout.
    """

    vip: VipId
    dips: Mapping[DipId, DipServer]
    store: LatencyStore
    config: ProbeConfig = field(default_factory=ProbeConfig)
    probe_url: str = "/"
    #: consecutive failed probes per DIP (controller reads this for §4.5).
    consecutive_failures: dict[DipId, int] = field(default_factory=dict)

    def probe_round(
        self, dip_ids: Sequence[DipId], *, now: float
    ) -> dict[DipId, tuple[float | None, bool]]:
        """Send one probe batch to each of ``dip_ids``; record the samples.

        The one probe implementation: the batches are one
        :func:`serve_probe_round` and the store takes the round in one
        write.  Returns ``(latency_ms, dropped)`` per DIP.  The latency is
        ``None`` when the DIP is down (not dropped; this counts towards its
        consecutive failures, any answer resets them) and when every
        request was dropped (a drop signal with no sample).
        """
        means, drop_counts = serve_probe_round(
            [self.dips[dip] for dip in dip_ids], self.config.requests_per_probe
        )
        failures = self.consecutive_failures
        results: dict[DipId, tuple[float | None, bool]] = {}
        samples: list[tuple[DipId, float, bool]] = []
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
                samples.append((dip, mean, drops > 0))
        self.store.write_round(self.vip, samples, timestamp=now)
        return results

    def probe_dip(self, dip_id: DipId, *, now: float) -> ProbeOutcome:
        """Send one probe batch to a single DIP and record the sample."""
        return _outcomes(self.probe_round((dip_id,), now=now), now)[dip_id]

    def probe_all(self, *, now: float) -> dict[DipId, ProbeOutcome]:
        """Probe every DIP once (one probe round)."""
        return _outcomes(self.probe_round(tuple(self.dips), now=now), now)

    def failures(self, threshold: int) -> tuple[DipId, ...]:
        """DIPs whose probes failed at least ``threshold`` consecutive times."""
        return tuple(
            dip
            for dip, count in self.consecutive_failures.items()
            if count >= threshold
        )

    # -- capacity planning (§6.7) ---------------------------------------------------

    def probe_rate_rps(self) -> float:
        """Probe requests per second this KLM issues."""
        return len(self.dips) * self.config.requests_per_probe / self.config.interval_s

    def cores_required(self) -> float:
        """KLM cores needed to sustain the probe rate (4 500 req/s per core)."""
        return self.probe_rate_rps() / KLM_REQUESTS_PER_SECOND_PER_CORE

    def max_dips_per_core(self) -> int:
        """How many DIPs one KLM core can probe at the configured cadence."""
        per_dip_rate = self.config.requests_per_probe / self.config.interval_s
        return int(KLM_REQUESTS_PER_SECOND_PER_CORE // per_dip_rate)
