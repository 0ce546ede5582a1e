"""The latency store: the mailbox between KLMs and the controller (§5).

The paper uses Azure Redis (in-memory, persistent connections) keyed by VIP
with a list of ``<DIP, latency, time>`` tuples as the value.  This module
provides the same semantics in-process: per-VIP append-only sample lists
with optional retention limits, plus the read patterns the controller needs
(latest sample per DIP, samples since a timestamp).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import DipId, LatencySample, VipId
from repro.exceptions import ConfigurationError


@dataclass
class StoreStats:
    """Operation counters (used by the §6.7 overhead model and tests)."""

    writes: int = 0
    reads: int = 0
    evictions: int = 0


class LatencyStore:
    """An in-memory, Redis-like store of latency samples keyed by VIP."""

    def __init__(self, *, max_samples_per_dip: int = 1000) -> None:
        if max_samples_per_dip < 1:
            raise ConfigurationError("max_samples_per_dip must be >= 1")
        self._max_samples_per_dip = max_samples_per_dip
        self._data: dict[VipId, dict[DipId, list[LatencySample]]] = {}
        self.stats = StoreStats()

    # -- writes ------------------------------------------------------------------

    def write(self, vip: VipId, sample: LatencySample) -> None:
        """Append one sample for ``(vip, sample.dip)``."""
        per_vip = self._data.setdefault(vip, {})
        samples = per_vip.setdefault(sample.dip, [])
        samples.append(sample)
        self.stats.writes += 1
        if len(samples) > self._max_samples_per_dip:
            del samples[: len(samples) - self._max_samples_per_dip]
            self.stats.evictions += 1

    # -- reads --------------------------------------------------------------------

    def vips(self) -> tuple[VipId, ...]:
        return tuple(self._data)

    def dips(self, vip: VipId) -> tuple[DipId, ...]:
        self.stats.reads += 1
        return tuple(self._data.get(vip, {}))

    def samples(
        self,
        vip: VipId,
        dip: DipId | None = None,
        *,
        since: float | None = None,
    ) -> list[LatencySample]:
        """Samples for a VIP (optionally one DIP, optionally after ``since``)."""
        self.stats.reads += 1
        per_vip = self._data.get(vip, {})
        if dip is not None:
            pools = [per_vip.get(dip, [])]
        else:
            pools = list(per_vip.values())
        result: list[LatencySample] = []
        for pool in pools:
            for sample in pool:
                if since is None or sample.timestamp >= since:
                    result.append(sample)
        result.sort(key=lambda s: s.timestamp)
        return result

    def latest(self, vip: VipId, dip: DipId) -> LatencySample | None:
        """The most recent sample for ``(vip, dip)``, if any."""
        self.stats.reads += 1
        samples = self._data.get(vip, {}).get(dip, [])
        return samples[-1] if samples else None

    def latest_per_dip(self, vip: VipId) -> dict[DipId, LatencySample]:
        self.stats.reads += 1
        per_vip = self._data.get(vip, {})
        return {dip: samples[-1] for dip, samples in per_vip.items() if samples}

    # -- maintenance -----------------------------------------------------------------

    def clear(self, vip: VipId | None = None) -> None:
        if vip is None:
            self._data.clear()
        else:
            self._data.pop(vip, None)

    def sample_count(self, vip: VipId | None = None) -> int:
        if vip is not None:
            return sum(len(s) for s in self._data.get(vip, {}).values())
        return sum(
            len(samples)
            for per_vip in self._data.values()
            for samples in per_vip.values()
        )
