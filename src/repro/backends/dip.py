"""The DIP (backend server) model.

A :class:`DipServer` combines a VM type, an M/M/c latency model and an
optional antagonist into the behaviour KnapsackLB observes from outside:

* application request latencies drawn around the analytic mean at the
  request rate it is offered;
* ICMP/TCP ping latencies that do not depend on load (Fig. 5);
* request drops once utilization approaches 100 %;
* a failure flag (probes to a failed DIP get no response, §4.5).

The DIP holds no load: the fleet's evaluation is the one record of its
offered rate and serves KLM's probes (:meth:`repro.sim.fleet.Fleet.probe_round`).
Like the paper's agent-less DIPs it exposes no CPU counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        rounds (:meth:`repro.sim.fleet.Fleet.probe_round`) draw from it, so
        it is built on the first round that finds the DIP up.
        :func:`repro.kernels.probe_round` draws through its bit generator's
        capsule without taking the bit generator's ``lock``: nothing in
        ``repro`` starts a thread that shares one."""
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
            f"capacity={self.capacity_rps:.0f} rps)"
        )


#: a down DIP's law row.
_DOWN = (0.0,) * kernels.LAW
