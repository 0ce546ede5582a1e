"""The DIP (backend server) model.

A :class:`DipServer` combines a VM type, an M/M/c latency model and an
optional antagonist into the behaviour KnapsackLB observes from outside:

* an *offered request rate* set by whatever load balancer fronts the DIP;
* application request latencies drawn around the analytic mean;
* ICMP/TCP ping latencies that do not depend on load (Fig. 5);
* request drops once utilization approaches 100 %;
* a failure flag (probes to a failed DIP get no response, §4.5).

The DIP is intentionally opaque: it exposes no CPU counters to KnapsackLB
(agent-less design), but the simulator and experiments may read
``cpu_utilization`` to produce the paper's CPU-utilization figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.backends.antagonist import Antagonist, PoolWrites
from repro.backends.latency_model import LatencyModel, scaled_model
from repro.backends.vm_types import VMType
from repro.exceptions import ConfigurationError, DipFailureError


@dataclass
class ProbeResult:
    """Outcome of one KLM probe batch against a DIP."""

    dip: str
    mean_latency_ms: float
    dropped: bool
    samples: int
    drop_fraction: float = 0.0


@dataclass
class DipServer:
    """A simulated backend server instance.

    Parameters
    ----------
    dip_id:
        Unique identifier (plays the role of the DIP's IP address).
    vm_type:
        Hardware SKU; fixes core count, base capacity and idle latency.
    jitter_fraction:
        Coefficient of variation of individual request latencies around the
        analytic mean.
    seed:
        Seed of the DIP's private RNG so experiments are reproducible.
    """

    dip_id: str
    vm_type: VMType
    jitter_fraction: float = 0.08
    seed: int | None = None
    antagonist: Antagonist = field(default_factory=Antagonist)
    failed: bool = False
    #: current offered application request rate (requests/second).
    offered_rate_rps: float = 0.0
    #: Allen-Cunneen M/G/c waiting-time factor ``(Ca^2 + Cs^2) / 2`` of
    #: the workload this DIP serves (see repro.workloads.divergence);
    #: 1.0 is the exact M/M/c baseline.  Runners stamp this from the
    #: workload spec so analytic latencies track non-Poisson traffic.
    scv_correction: float = 1.0

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in PoolWrites.DIP_FIELDS:
            PoolWrites.count += 1

    def __post_init__(self) -> None:
        if self.jitter_fraction < 0:
            raise ConfigurationError("jitter_fraction must be >= 0")
        self._rng = np.random.default_rng(self.seed)
        self._base_model = LatencyModel(
            servers=self.vm_type.vcpus,
            capacity_rps=self.vm_type.base_capacity_rps,
            idle_latency_ms=self.vm_type.idle_latency_ms,
        )
        #: the scaled model of the capacity factor last seen below 1.0.
        self._scaled: tuple[float, LatencyModel] | None = None
        #: requests served and dropped so far (a list: counting them is no
        #: attribute write).
        self._requests = [0, 0]

    # -- capacity ---------------------------------------------------------

    @property
    def latency_model(self) -> LatencyModel:
        """The latency model including any antagonist-induced capacity loss."""
        factor = self.antagonist.capacity_factor
        if factor >= 1.0:
            return self._base_model
        if self._scaled is None or self._scaled[0] != factor:
            self._scaled = (factor, scaled_model(self._base_model, factor))
        return self._scaled[1]

    @property
    def capacity_rps(self) -> float:
        """Current sustainable throughput (after antagonist effects)."""
        return self.latency_model.capacity_rps

    @property
    def base_capacity_rps(self) -> float:
        return self._base_model.capacity_rps

    def set_capacity_ratio(self, ratio: float, *, at_time: float = 0.0) -> None:
        """Pin the DIP's capacity to ``ratio`` of its base value."""
        self.antagonist.set_capacity_ratio(ratio, at_time=at_time)

    def reset_capacity(self, *, at_time: float = 0.0) -> None:
        self.antagonist.clear(at_time=at_time)

    # -- load & utilization ------------------------------------------------

    def set_offered_rate(self, rate_rps: float) -> None:
        if not 0.0 <= rate_rps < math.inf:
            raise ConfigurationError(
                f"rate_rps must be finite and >= 0, got {rate_rps!r}"
            )
        self.offered_rate_rps = float(rate_rps)

    @property
    def cpu_utilization(self) -> float:
        """CPU utilization in [0, 1]; saturates at 1.0 when overloaded."""
        if self.failed:
            return 0.0
        return min(1.0, self.latency_model.utilization(self.offered_rate_rps))

    @property
    def mean_latency_ms(self) -> float:
        """Mean application latency at the current offered rate."""
        return self.latency_model.mean_latency_ms(
            self.offered_rate_rps, scv_correction=self.scv_correction
        )

    @property
    def drop_probability(self) -> float:
        return self.latency_model.drop_probability(self.offered_rate_rps)

    @property
    def idle_latency_ms(self) -> float:
        return self.latency_model.idle_latency_ms

    # -- failures ----------------------------------------------------------

    def fail(self) -> None:
        """Take the DIP down; subsequent probes and requests fail."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    # -- request serving ----------------------------------------------------

    def _sample_latencies_ms(self, rate_rps: float, served: int) -> np.ndarray:
        """Latencies of ``served`` requests at ``rate_rps``: one mean, one draw.

        A vector draw fills from the same stream the scalar calls consume,
        so a batch of n and n single requests see the same latencies.
        """
        if self.failed:
            raise DipFailureError(f"DIP {self.dip_id} is down")
        mean = self.latency_model.mean_latency_ms(
            rate_rps, scv_correction=self.scv_correction
        )
        self._requests[0] += served
        if self.jitter_fraction == 0:
            return np.full(served, mean)
        draws = self._rng.normal(mean, mean * self.jitter_fraction, size=served)
        return np.maximum(mean * 0.25, draws)

    def sample_request_latency_ms(self, *, rate_rps: float | None = None) -> float:
        """Latency of one application request at the (or a given) load."""
        rate = self.offered_rate_rps if rate_rps is None else rate_rps
        return float(self._sample_latencies_ms(rate, 1)[0])

    def sample_ping_latency_ms(self) -> float:
        """ICMP / TCP-SYN latency; load independent (handled by the OS)."""
        if self.failed:
            raise DipFailureError(f"DIP {self.dip_id} is down")
        base = self.latency_model.ping_latency_ms(self.offered_rate_rps)
        return float(max(0.05, self._rng.normal(base, base * 0.05)))

    def serve_probe_batch(self, num_requests: int) -> ProbeResult:
        """Serve a KLM probe batch and report the averaged latency: a
        :func:`serve_probe_round` of this DIP alone."""
        if self.failed:
            raise DipFailureError(f"DIP {self.dip_id} is down")
        (mean,), (drops,) = serve_probe_round((self,), num_requests)
        return ProbeResult(
            dip=self.dip_id,
            mean_latency_ms=mean,
            dropped=drops > 0,
            samples=num_requests - drops,
            drop_fraction=drops / num_requests,
        )

    # -- accounting ---------------------------------------------------------

    @property
    def served_requests(self) -> int:
        return self._requests[0]

    @property
    def dropped_requests(self) -> int:
        return self._requests[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DipServer({self.dip_id!r}, type={self.vm_type.name}, "
            f"capacity={self.capacity_rps:.0f} rps, "
            f"util={self.cpu_utilization:.0%})"
        )


def serve_probe_round(
    servers: Sequence[DipServer], num_requests: int
) -> tuple[list[float | None], list[int]]:
    """One KLM probe batch of ``num_requests`` on each of ``servers``: per
    server, the batch's mean latency (``None``: down; ``inf``: every request
    dropped) and its drop count.  Probe traffic is too small to perturb the
    offered rate; drops reflect each DIP's current overload.

    Each DIP draws from its own generator what a lone batch would: its drops
    (no draw at a drop probability of 0), then a standard normal per served
    request.  ``max(mean / 4, mean + sd * z)`` and the row means are then
    one array pass, bit for bit the per-DIP ``normal`` draws and reductions.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    size = len(servers)
    loc, scale = [0.0] * size, [0.0] * size
    z = np.zeros((size, num_requests))
    means: list[float | None] = [None] * size
    drop_counts: list[int] = [0] * size
    served_rows: list[tuple[int, int]] = []
    for i, server in enumerate(servers):
        if server.failed:
            continue
        model = server.latency_model
        rate = server.offered_rate_rps
        drop_p = model.drop_probability(rate)
        drops = int(server._rng.binomial(num_requests, min(1.0, drop_p))) if drop_p else 0
        served = num_requests - drops
        counted = server._requests
        counted[1] += drops
        drop_counts[i] = drops
        means[i] = math.inf
        if not served:
            continue
        counted[0] += served
        mean = loc[i] = model.mean_latency_ms(rate, scv_correction=server.scv_correction)
        if server.jitter_fraction:
            scale[i] = mean * server.jitter_fraction
            server._rng.standard_normal(out=z[i, :served])
        served_rows.append((i, served))
    # z -> mean + sd * z, floored at mean / 4, in place.
    mean_col = np.array(loc)[:, None]
    z *= np.array(scale)[:, None]
    z += mean_col
    latencies = np.maximum(z, mean_col * 0.25, out=z)
    # A full row's sum is the row-wise reduce; a partly dropped one its own.
    full = (np.add.reduce(latencies, axis=1) / num_requests).tolist()
    for i, served in served_rows:
        if served == num_requests:
            means[i] = full[i]
        else:
            means[i] = float(np.add.reduce(latencies[i, :served]) / served)
    return means, drop_counts


def push_offered_rates(servers: Iterable[DipServer], rates: Iterable[float]) -> None:
    """Set each server's offered rate, every rate already checked finite
    and >= 0 (what :meth:`DipServer.set_offered_rate` checks one by one).
    The rate is no pool input, so the write goes past the write hook."""
    for server, rate in zip(servers, rates):
        server.__dict__["offered_rate_rps"] = rate
