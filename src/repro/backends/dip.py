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
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro import kernels
from repro.backends.antagonist import Antagonist
from repro.backends.latency_model import LatencyModel, scaled_model
from repro.backends.vm_types import VMType
from repro.exceptions import ConfigurationError


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

    def __post_init__(self) -> None:
        if self.jitter_fraction < 0:
            raise ConfigurationError("jitter_fraction must be >= 0")
        self._base_model = LatencyModel(
            servers=self.vm_type.vcpus,
            capacity_rps=self.vm_type.base_capacity_rps,
            idle_latency_ms=self.vm_type.idle_latency_ms,
        )
        #: the scaled model of the capacity factor last seen below 1.0.
        self._scaled: tuple[float, LatencyModel] | None = None

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The DIP's private generator, seeded with ``seed``.  Only probe
        rounds draw from it, so it is built on the first round that finds
        the DIP up.  :func:`repro.kernels.probe_round` draws through its
        bit generator's capsule without taking the bit generator's
        ``lock``: nothing in ``repro`` starts a thread that shares one."""
        return np.random.default_rng(self.seed)

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

    @property
    def law(self) -> tuple[float, ...]:
        """The DIP's law row (:data:`repro.kernels.LAW` columns): its
        model's :attr:`~repro.backends.latency_model.LatencyModel.law` and
        its workload correction; a down DIP's row is zeros."""
        if self.failed:
            return _DOWN
        return (*self.latency_model.law, self.scv_correction)

    # -- failures ----------------------------------------------------------

    def fail(self) -> None:
        """Take the DIP down; subsequent probes and requests fail."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DipServer({self.dip_id!r}, type={self.vm_type.name}, "
            f"capacity={self.capacity_rps:.0f} rps, "
            f"util={self.cpu_utilization:.0%})"
        )


#: a down DIP's law row.
_DOWN = (0.0,) * kernels.LAW


def serve_probe_round(
    servers: Sequence[DipServer], num_requests: int
) -> tuple[list[float | None], list[int]]:
    """One KLM probe batch of ``num_requests`` on each of ``servers``: per
    server, the batch's mean latency (``None``: down; ``inf``: every request
    dropped) and its drop count.  Probe traffic is too small to perturb the
    offered rate; drops reflect each DIP's current overload.

    Each DIP draws from its own generator what a lone batch would: its drops
    (no draw at a drop probability of 0), then a standard normal per served
    request, floored at ``max(mean / 4, mean + sd * z)`` and averaged.  The
    round is one :func:`repro.kernels.probe_round` over a row per DIP: its
    :attr:`~DipServer.law`, offered rate and jitter, and its generator
    (``None`` for a down DIP, whose row the kernel does not read).
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    rows = [(*s.law, s.offered_rate_rps, s.jitter_fraction) for s in servers]
    generators = [None if s.failed else s._rng for s in servers]
    params = np.array(rows, dtype=np.float64).reshape(len(rows), kernels.COLUMNS)
    return kernels.probe_round(params, generators, num_requests)


def push_offered_rates(servers: Iterable[DipServer], rates: Iterable[float]) -> None:
    """Set each server's offered rate, every rate already checked finite
    and >= 0 (what :meth:`DipServer.set_offered_rate` checks one by one)."""
    for server, rate in zip(servers, rates):
        server.offered_rate_rps = rate
