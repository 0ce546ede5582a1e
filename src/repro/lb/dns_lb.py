"""DNS-based weighted load balancing (Azure Traffic Manager, §6.5).

When an LB offers no interface to program weights (e.g. the Azure public L4
LB), KnapsackLB falls back to DNS: a weighted resolver returns DIP addresses
with probability proportional to their weights, and clients cache the
resolution for a TTL.  The cache is what makes DNS-based balancing slower to
adhere to new weights — a behaviour the paper explicitly calls out and that
Table 5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.lb.base import (
    WEIGHTED_SPLIT,
    FlowKey,
    Policy,
    pick_cdf,
    register_policy,
    validated_weights,
)


@dataclass
class _CacheEntry:
    dip: DipId
    expires_at: float


class WeightedDnsResolver:
    """A DNS resolver that answers with DIPs proportionally to their weights."""

    def __init__(
        self,
        dips: Iterable[DipId],
        *,
        weights: Mapping[DipId, float] | None = None,
        seed: int | None = None,
    ) -> None:
        dip_list = list(dips)
        if not dip_list:
            raise ConfigurationError("resolver needs at least one DIP")
        self._weights: dict[DipId, float] = {dip: 1.0 for dip in dip_list}
        self._healthy: dict[DipId, bool] = {dip: True for dip in dip_list}
        self._rng = np.random.default_rng(seed)
        #: healthy DIPs and the CDF over their effective weights; built by
        #: ``resolve``, dropped by ``set_weights`` / ``set_healthy`` /
        #: ``add_dip``.
        self._plan: tuple[list[DipId], np.ndarray] | None = None
        if weights:
            self.set_weights(weights)

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        self._weights.update(validated_weights(weights, self._weights))
        self._plan = None

    def weights(self) -> dict[DipId, float]:
        return dict(self._weights)

    def set_healthy(self, dip: DipId, healthy: bool) -> None:
        self._require(dip)
        self._healthy[dip] = healthy
        self._plan = None

    def add_dip(self, dip: DipId, *, weight: float = 1.0) -> None:
        self._weights[dip] = float(weight)
        self._healthy[dip] = True
        self._plan = None

    def _require(self, dip: DipId) -> None:
        """Pool edits name a DIP of the pool, as ``Policy._require`` insists."""
        if dip not in self._weights:
            raise ConfigurationError(f"unknown DIP {dip!r}")

    def resolve(self) -> DipId:
        """Answer one DNS query with a weighted-random healthy DIP."""
        plan = self._plan
        if plan is None:
            dips = [d for d, ok in self._healthy.items() if ok]
            if not dips:
                raise ConfigurationError("no healthy DIPs to resolve to")
            cdf = pick_cdf(np.array([self._weights[d] for d in dips], dtype=float))
            plan = self._plan = (dips, cdf)
        dips, cdf = plan
        return dips[cdf.searchsorted(self._rng.random(), side="right")]


class DnsWeightedPolicy(Policy):
    """Client-side view of DNS load balancing with per-client caching.

    Each distinct client (source IP) resolves the VIP's name at most once
    per ``cache_ttl_s`` of simulated time; in between, all its connections
    go to the cached DIP.  ``advance_time`` must be called by the simulator
    so cache entries can expire.
    """

    name = "dns"
    supports_weights = True
    uses_connection_counts = False
    fluid_split = WEIGHTED_SPLIT

    def __init__(
        self,
        dips: Iterable[DipId],
        *,
        cache_ttl_s: float = 30.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(dips)
        if cache_ttl_s < 0:
            raise ConfigurationError("cache_ttl_s must be >= 0")
        self._resolver = WeightedDnsResolver(self.dips, seed=seed)
        self._cache: dict[str, _CacheEntry] = {}
        self._cache_ttl_s = cache_ttl_s
        self._now = 0.0

    def advance_time(self, now: float) -> None:
        self._now = max(self._now, float(now))

    def _on_weights_changed(self) -> None:
        self._resolver.set_weights(self.weights())

    def set_healthy(self, dip: DipId, healthy: bool) -> None:
        super().set_healthy(dip, healthy)
        self._resolver.set_healthy(dip, healthy)

    def add_dip(self, dip: DipId, *, weight: float = 1.0) -> None:
        super().add_dip(dip, weight=weight)
        self._resolver.add_dip(dip, weight=weight)

    def select(self, flow: FlowKey) -> DipId:
        client = flow.src_ip
        entry = self._cache.get(client)
        if entry is not None and entry.expires_at > self._now:
            if self.view(entry.dip).healthy:
                return entry.dip
        dip = self._resolver.resolve()
        self._cache[client] = _CacheEntry(
            dip=dip, expires_at=self._now + self._cache_ttl_s
        )
        return dip


register_policy("dns", DnsWeightedPolicy, weighted=True, summary="DNS weighted resolution with client caching")
