"""The latency store: the mailbox between KLMs and the controller (§5).

The paper uses Azure Redis (in-memory, persistent connections) keyed by VIP
with a list of ``<DIP, latency, time>`` tuples as the value.  This module
provides the same semantics in-process: per-VIP append-only sample lists
with optional retention limits, plus the read patterns the controller needs
(latest sample per DIP, samples since a timestamp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.types import DipId, LatencySample, VipId
from repro.exceptions import ConfigurationError


@dataclass
class StoreStats:
    """Operation counters (used by the §6.7 overhead model and tests)."""

    writes: int = 0
    reads: int = 0
    evictions: int = 0


class LatencyStore:
    """An in-memory, Redis-like store of latency samples keyed by VIP.

    Samples are kept as ``(latency, time, weight, dropped)`` tuples, so a
    KLM round lands without building one object per DIP; a read builds
    the :class:`LatencySample`.
    """

    def __init__(self, *, max_samples_per_dip: int = 1000) -> None:
        if max_samples_per_dip < 1:
            raise ConfigurationError("max_samples_per_dip must be >= 1")
        self._max_samples_per_dip = max_samples_per_dip
        self._data: dict[VipId, dict[DipId, list[tuple]]] = {}
        self.stats = StoreStats()

    # -- writes ------------------------------------------------------------------

    def write(self, vip: VipId, sample: LatencySample) -> None:
        """Append one sample for ``(vip, sample.dip)``."""
        entry = (sample.latency_ms, sample.timestamp, sample.weight, sample.dropped)
        self._append(self._data.setdefault(vip, {}), sample.dip, entry)

    def write_round(
        self,
        vip: VipId,
        samples: Iterable[tuple[DipId, float, bool]],
        *,
        timestamp: float,
    ) -> None:
        """Append one probe round's ``(dip, latency_ms, dropped)`` samples."""
        per_vip = self._data.setdefault(vip, {})
        for dip, latency, dropped in samples:
            self._append(per_vip, dip, (latency, timestamp, 0.0, dropped))

    def _append(self, per_vip: dict[DipId, list], dip: DipId, entry: tuple) -> None:
        samples = per_vip.setdefault(dip, [])
        samples.append(entry)
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
            pools = [(dip, per_vip.get(dip, []))]
        else:
            pools = list(per_vip.items())
        result: list[LatencySample] = []
        for owner, pool in pools:
            for entry in pool:
                sample = LatencySample(owner, *entry)
                if since is None or sample.timestamp >= since:
                    result.append(sample)
        result.sort(key=lambda s: s.timestamp)
        return result

    # -- maintenance -----------------------------------------------------------------

    def clear(self, vip: VipId | None = None) -> None:
        if vip is None:
            self._data.clear()
        else:
            self._data.pop(vip, None)
