"""Analytical latency model for a DIP under load.

The paper's Fig. 5 shows the qualitative relationship KnapsackLB depends on:
request latency is flat at low load, rises convexly once CPU utilization
passes ~60 %, and requests start being dropped as utilization approaches
100 %; ICMP/TCP pings stay flat because they are served by the OS, not the
application.

We model the application as an M/M/c queue (c = vCPUs) with a finite queue.
The mean response time of an M/M/c system reproduces exactly that shape:

    T(rho) = service_time + Wq(rho)

where ``Wq`` is the Erlang-C mean waiting time.  Past saturation we keep the
latency finite but large (bounded by the queue capacity) and report drops.

The model is deterministic given the offered load; the simulator adds
stochastic jitter on top when sampling individual requests.  Its arithmetic
is written once, in the compiled kernels (:mod:`repro.kernels`), which a KLM
probe round evaluates per DIP; the methods here check their arguments and
call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro import kernels
from repro.exceptions import ConfigurationError


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C probability that an arriving request must queue.

    ``offered_load`` is λ/μ (in Erlangs).  Only defined for
    ``offered_load < servers``.
    """
    if servers < 1:
        raise ConfigurationError("servers must be >= 1")
    if offered_load < 0:
        raise ConfigurationError("offered_load must be >= 0")
    # Iterative Erlang-B, then convert to Erlang-C; numerically stable.
    return kernels.erlang_c(servers, offered_load)


@dataclass(frozen=True)
class LatencyModel:
    """Mean request latency as a function of offered request rate.

    Parameters
    ----------
    servers:
        Number of service workers (vCPUs).
    capacity_rps:
        Aggregate sustainable throughput; per-worker service rate is
        ``capacity_rps / servers``.
    idle_latency_ms:
        Mean latency when the system is idle (pure service time).
    max_queue:
        Mean number of requests that can be queued before drops start;
        bounds the latency past saturation.
    drop_utilization:
        Utilization above which requests begin to be dropped (paper: ~95 %).
    """

    servers: int
    capacity_rps: float
    idle_latency_ms: float
    max_queue: int = 64
    drop_utilization: float = 0.95

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ConfigurationError("servers must be >= 1")
        if self.capacity_rps <= 0:
            raise ConfigurationError("capacity_rps must be positive")
        if self.idle_latency_ms <= 0:
            raise ConfigurationError("idle_latency_ms must be positive")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if not 0 < self.drop_utilization <= 1:
            raise ConfigurationError("drop_utilization must be in (0, 1]")

    @cached_property
    def law(self) -> tuple[int, float, float, int, float]:
        """The model's columns of a law row (:mod:`repro.kernels`), in the
        kernels' column order: ``(servers, capacity_rps, idle_latency_ms,
        max_queue, drop_utilization)``."""
        return (
            self.servers,
            self.capacity_rps,
            self.idle_latency_ms,
            self.max_queue,
            self.drop_utilization,
        )

    def utilization(self, rate_rps: float) -> float:
        """CPU utilization (0..1, may exceed 1 nominally) at ``rate_rps``."""
        if rate_rps < 0:
            raise ConfigurationError("rate_rps must be >= 0")
        return rate_rps / self.capacity_rps

    def mean_latency_ms(
        self, rate_rps: float, *, scv_correction: float = 1.0
    ) -> float:
        """Mean application-level response latency at offered ``rate_rps``.

        ``scv_correction`` is the Allen-Cunneen M/G/c factor
        ``(Ca^2 + Cs^2) / 2`` (see :mod:`repro.workloads.divergence`): it
        scales the *waiting* component only — idle service time does not
        depend on variability — turning the M/M/c mean into the standard
        M/G/c approximation.  The default of 1.0 is the exact M/M/c value
        and is bit-identical to the uncorrected model.
        """
        if rate_rps < 0:
            raise ConfigurationError("rate_rps must be >= 0")
        # Below 0.999 of capacity, the Erlang-C wait bounded by the time to
        # drain a full queue; at or past it the queue stays full and the
        # latency plateaus at service time plus that drain time.
        return kernels.mean_latency(
            self.servers,
            self.capacity_rps,
            self.idle_latency_ms,
            self.max_queue,
            rate_rps,
            scv_correction,
        )

    def drop_probability(self, rate_rps: float) -> float:
        """Fraction of requests dropped at offered ``rate_rps``.

        Zero below ``drop_utilization``; above it, grows linearly with the
        excess and past capacity equals the structural loss ``1 - cap/rate``.
        """
        if rate_rps < 0:
            raise ConfigurationError("rate_rps must be >= 0")
        return kernels.drop_probability(self.capacity_rps, self.drop_utilization, rate_rps)

    def ping_latency_ms(self, rate_rps: float) -> float:
        """ICMP/TCP-SYN ping latency: handled by the OS, load-independent."""
        base = 0.3
        # A barely perceptible rise at extreme overload (kernel softirq
        # pressure), matching Fig. 5 where pings stay essentially flat.
        util = min(self.utilization(rate_rps), 2.0)
        return base * (1.0 + 0.02 * max(0.0, util - 1.0))


def scaled_model(model: LatencyModel, capacity_factor: float) -> LatencyModel:
    """A copy of ``model`` with capacity scaled by ``capacity_factor``.

    Used to emulate noisy-neighbour antagonists and dynamic capacity change
    (§2.1): cache thrash slows every request down, so the per-request
    service time grows by ``1 / capacity_factor`` and the sustainable
    throughput shrinks by ``capacity_factor``, keeping the M/M/c relation
    ``capacity = servers / service_time`` intact.
    """
    if capacity_factor <= 0:
        raise ConfigurationError("capacity_factor must be positive")
    return LatencyModel(
        servers=model.servers,
        capacity_rps=model.capacity_rps * capacity_factor,
        idle_latency_ms=model.idle_latency_ms / capacity_factor,
        max_queue=model.max_queue,
        drop_utilization=model.drop_utilization,
    )
