"""VIPs — the service-facing side of the load balancer.

A :class:`Vip` is one externally-visible virtual IP fronting a pool of
DIPs.  A VIP carries its own traffic description (aggregate rate, LB
policy, programmed weights), so a :class:`repro.sim.fleet.Fleet` can
evaluate many VIPs contending for a shared DIP fleet; in the single-VIP
experiments the same container simply holds the whole pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.backends.dip import DipServer
from repro.core.types import DipId, VipId, left_to_right_sum
from repro.exceptions import ConfigurationError


@dataclass
class Vip:
    """A virtual IP, its DIP pool and its traffic/policy description."""

    vip_id: VipId
    dips: dict[DipId, DipServer] = field(default_factory=dict)
    #: aggregate client request rate arriving at this VIP.
    total_rate_rps: float = 0.0
    #: fluid LB policy splitting the VIP's traffic across its DIPs.
    policy_name: str = "wrr"
    #: per-DIP weights (used by the weighted policies; kept normalized-ish
    #: by the controller, but the fluid split renormalizes anyway).
    weights: dict[DipId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.total_rate_rps < 0:
            raise ConfigurationError("total_rate_rps must be >= 0")
        if self.dips and not self.weights:
            share = 1.0 / len(self.dips)
            self.weights = {d: share for d in self.dips}

    def add_dip(self, dip: DipServer) -> None:
        if dip.dip_id in self.dips:
            raise ConfigurationError(f"DIP {dip.dip_id!r} already in VIP {self.vip_id!r}")
        self.dips[dip.dip_id] = dip
        self.weights.setdefault(dip.dip_id, 0.0)

    def dip(self, dip_id: DipId) -> DipServer:
        return self.dips[dip_id]

    def dip_ids(self) -> tuple[DipId, ...]:
        return tuple(self.dips)

    def healthy_dip_ids(self) -> tuple[DipId, ...]:
        return tuple(d for d, s in self.dips.items() if not s.failed)

    @property
    def total_capacity_rps(self) -> float:
        return left_to_right_sum(d.capacity_rps for d in self.dips.values() if not d.failed)

    def __len__(self) -> int:
        return len(self.dips)

    def __iter__(self) -> Iterator[DipServer]:
        return iter(self.dips.values())
