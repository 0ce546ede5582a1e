"""VIPs and VNETs — the service-facing side of the load balancer.

A :class:`Vip` is one externally-visible virtual IP fronting a pool of
DIPs; a :class:`Vnet` is the customer virtual network that contains the
DIPs (KLM instances are deployed per VNET, §3.2).  A VIP carries its own
traffic description (aggregate rate, LB policy, programmed weights), so a
:class:`repro.sim.fleet.Fleet` can evaluate many VIPs contending for a
shared DIP fleet; in the single-VIP experiments the same container simply
holds the whole pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.backends.dip import DipServer
from repro.core.types import DipId, VipId, left_to_right_sum
from repro.exceptions import ConfigurationError


@dataclass
class Vip:
    """A virtual IP, its DIP pool and its traffic/policy description."""

    vip_id: VipId
    dips: dict[DipId, DipServer] = field(default_factory=dict)
    #: application URL the admin configures for KLM probing (§3.2).
    probe_url: str = "/"
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

    def remove_dip(self, dip_id: DipId) -> DipServer:
        try:
            server = self.dips.pop(dip_id)
        except KeyError:
            raise ConfigurationError(f"DIP {dip_id!r} not in VIP {self.vip_id!r}") from None
        self.weights.pop(dip_id, None)
        return server

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


@dataclass
class Vnet:
    """A customer virtual network holding one or more VIPs.

    The paper assumes one VIP per VNET (§3.2); that remains the default via
    the ``vip`` accessor, but a VNET may carry several VIPs whose pools all
    live in the same network (the Table 8 fleet mixes both shapes).
    """

    vnet_id: str
    vip: Vip
    extra_vips: list[Vip] = field(default_factory=list)

    @property
    def vips(self) -> tuple[Vip, ...]:
        return (self.vip, *self.extra_vips)

    def add_vip(self, vip: Vip) -> None:
        if vip.vip_id in {v.vip_id for v in self.vips}:
            raise ConfigurationError(f"VIP {vip.vip_id!r} already in VNET {self.vnet_id!r}")
        self.extra_vips.append(vip)

    @property
    def dips(self) -> Mapping[DipId, DipServer]:
        merged: dict[DipId, DipServer] = {}
        for vip in self.vips:
            merged.update(vip.dips)
        return merged
