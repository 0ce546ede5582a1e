"""A shared DIP fleet serving many VIPs — the multi-VIP fluid substrate.

The paper's controller is datacenter-scale: Table 8 accounts for thousands
of VIPs multiplexed over a 60 K-DIP fleet.  :class:`Fleet` models that
shape: one pool of :class:`DipServer` instances, any number of
:class:`~repro.sim.vip.Vip` tenants whose pools are (possibly overlapping)
subsets, and a joint, numpy-vectorized evaluation that maps every VIP's
(rate, policy, weights) to per-DIP arrival rates in one shot.

DIPs shared by several VIPs carry the *sum* of the per-VIP rates, so their
latency — and therefore everything KLM probes observe — reflects cross-VIP
contention.  Load-dependent policies (least-connection, power-of-two) are
resolved by an outer fixed point: each VIP's split is recomputed against
the background load the other VIPs put on its DIPs until the joint rates
stabilise.

Per-VIP :class:`FleetDeployment` views satisfy the controller's
``Deployment`` protocol, so a :class:`repro.core.KnapsackLBController` (or
the multi-VIP :class:`repro.core.fleet_controller.FleetController`) drives
a fleet exactly like a single-VIP :class:`~repro.sim.fluid.FluidCluster` —
which is itself now a one-VIP fleet.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from repro.backends.dip import DipServer
from repro.core.types import DipId, VipId
from repro.exceptions import ConfigurationError
from repro.sim.fluid import (
    LOAD_DEPENDENT_POLICIES,
    PoolArrays,
    equal_split_array,
    pool_arrays,
    split_rates_array,
    static_split_array,
    vector_mean_latency_ms,
    vector_utilization,
)
from repro.sim.vip import Vip


def _subset(pool: PoolArrays, index: np.ndarray) -> PoolArrays:
    return PoolArrays(
        ids=tuple(pool.ids[i] for i in index),
        servers=pool.servers[index],
        capacity_rps=pool.capacity_rps[index],
        idle_latency_ms=pool.idle_latency_ms[index],
        max_queue=pool.max_queue[index],
        drop_utilization=pool.drop_utilization[index],
        failed=pool.failed[index],
    )


class FleetState:
    """The whole fleet after one joint evaluation.

    A lazy view: it keeps the evaluation's arrays (which :meth:`Fleet.apply`
    builds afresh each time and never touches again, so the view stays that
    of its own evaluation) and builds each dict — and the latency pass
    behind ``mean_latency_ms`` — on first read.
    """

    def __init__(
        self,
        time: float,
        pool: PoolArrays,
        total: np.ndarray,
        contributions: Mapping[VipId, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.time = time
        self._pool = pool
        self._total = total
        self._contributions = contributions

    @cached_property
    def total_rates_rps(self) -> dict[DipId, float]:
        """Total arrival rate per DIP, summed over every VIP it serves."""
        return dict(zip(self._pool.ids, self._total.tolist()))

    @cached_property
    def utilization(self) -> dict[DipId, float]:
        pool = self._pool
        utilization = np.minimum(1.0, vector_utilization(pool, self._total))
        return dict(zip(pool.ids, np.where(pool.failed, 0.0, utilization).tolist()))

    @cached_property
    def mean_latency_ms(self) -> dict[DipId, float]:
        pool = self._pool
        latency = vector_mean_latency_ms(pool, self._total)
        return dict(zip(pool.ids, np.where(pool.failed, np.inf, latency).tolist()))

    @cached_property
    def per_vip_rates(self) -> dict[VipId, dict[DipId, float]]:
        """Each VIP's own contribution per DIP."""
        ids = self._pool.ids
        return {
            vip_id: dict(zip((ids[i] for i in index.tolist()), rates.tolist()))
            for vip_id, (index, rates) in self._contributions.items()
        }

    def vip_mean_latency_ms(self, vip: VipId) -> float:
        """Request-weighted mean latency experienced by one VIP's traffic."""
        rates = self.per_vip_rates.get(vip, {})
        total = sum(rates.values())
        if total <= 0:
            return float("nan")
        return (
            sum(rate * self.mean_latency_ms[d] for d, rate in rates.items()) / total
        )

    def overall_mean_latency_ms(self) -> float:
        """Request-weighted mean latency across the whole fleet."""
        total = sum(self.total_rates_rps.values())
        if total <= 0:
            return float("nan")
        return (
            sum(
                rate * self.mean_latency_ms[d]
                for d, rate in self.total_rates_rps.items()
            )
            / total
        )

    def dip_summaries(self) -> dict[DipId, dict[str, float]]:
        """Per-DIP {rate, utilization, latency, #vips} rows for result artifacts."""
        vips_per_dip: dict[DipId, int] = {}
        for rates in self.per_vip_rates.values():
            for dip in rates:
                vips_per_dip[dip] = vips_per_dip.get(dip, 0) + 1
        return {
            dip: {
                "rate_rps": self.total_rates_rps[dip],
                "utilization": self.utilization[dip],
                "mean_latency_ms": self.mean_latency_ms[dip],
                "vips": float(vips_per_dip.get(dip, 0)),
            }
            for dip in sorted(self.total_rates_rps)
        }


class FleetDeployment:
    """One VIP's view of a shared fleet (satisfies ``Deployment``).

    The controller programs weights and advances time through this view; it
    only ever sees its own VIP's DIPs, while the underlying rates include
    whatever the other tenants put on the shared servers.
    """

    def __init__(self, fleet: "Fleet", vip_id: VipId) -> None:
        self._fleet = fleet
        self.vip_id = vip_id

    @property
    def dips(self) -> dict[DipId, DipServer]:
        return self._fleet.vips[self.vip_id].dips

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        self._fleet.set_weights(self.vip_id, weights)

    def advance(self, duration_s: float) -> FleetState:
        return self._fleet.advance(duration_s)

    def healthy_dip_ids(self) -> tuple[DipId, ...]:
        return self._fleet.vips[self.vip_id].healthy_dip_ids()


class Fleet:
    """A pool of DIP servers shared by any number of VIPs."""

    def __init__(
        self,
        dips: Mapping[DipId, DipServer] | None = None,
        *,
        start_time: float = 0.0,
        contention_iterations: int = 12,
        contention_tolerance: float = 1e-6,
    ) -> None:
        if contention_iterations < 1:
            raise ConfigurationError("contention_iterations must be >= 1")
        self.dips: dict[DipId, DipServer] = dict(dips) if dips else {}
        self.vips: dict[VipId, Vip] = {}
        self.time = float(start_time)
        self.contention_iterations = contention_iterations
        self.contention_tolerance = contention_tolerance
        self._last_state: FleetState | None = None

    # -- membership --------------------------------------------------------------

    def add_dip(self, server: DipServer) -> None:
        if server.dip_id in self.dips:
            raise ConfigurationError(f"DIP {server.dip_id!r} already in fleet")
        self.dips[server.dip_id] = server
        self._last_state = None

    def create_vip(
        self,
        vip_id: VipId,
        *,
        dip_ids: Iterable[DipId],
        total_rate_rps: float,
        policy_name: str = "wrr",
        weights: Mapping[DipId, float] | None = None,
        probe_url: str = "/",
    ) -> Vip:
        """Register a VIP fronting a subset of the fleet's DIPs."""
        if vip_id in self.vips:
            raise ConfigurationError(f"VIP {vip_id!r} already in fleet")
        members = list(dip_ids)
        if not members:
            raise ConfigurationError(f"VIP {vip_id!r} needs at least one DIP")
        unknown = [d for d in members if d not in self.dips]
        if unknown:
            raise ConfigurationError(f"unknown DIPs for VIP {vip_id!r}: {unknown}")
        vip = Vip(
            vip_id=vip_id,
            dips={d: self.dips[d] for d in members},
            probe_url=probe_url,
            total_rate_rps=float(total_rate_rps),
            policy_name=policy_name,
            weights=dict(weights) if weights else {},
        )
        self.vips[vip_id] = vip
        self._last_state = None
        return vip

    def add_vip(self, vip: Vip) -> Vip:
        """Register an existing :class:`Vip`; its DIPs join the fleet."""
        if vip.vip_id in self.vips:
            raise ConfigurationError(f"VIP {vip.vip_id!r} already in fleet")
        for dip_id, server in vip.dips.items():
            existing = self.dips.get(dip_id)
            if existing is None:
                self.dips[dip_id] = server
            elif existing is not server:
                raise ConfigurationError(
                    f"DIP {dip_id!r} of VIP {vip.vip_id!r} conflicts with the fleet's"
                )
        self.vips[vip.vip_id] = vip
        self._last_state = None
        return vip

    def remove_vip(self, vip_id: VipId) -> Vip:
        try:
            vip = self.vips.pop(vip_id)
        except KeyError:
            raise ConfigurationError(f"VIP {vip_id!r} not in fleet") from None
        self.apply()
        return vip

    def view(self, vip_id: VipId) -> FleetDeployment:
        """A ``Deployment``-protocol view scoped to one VIP."""
        if vip_id not in self.vips:
            raise ConfigurationError(f"VIP {vip_id!r} not in fleet")
        return FleetDeployment(self, vip_id)

    # -- control interface --------------------------------------------------------

    def set_weights(self, vip_id: VipId, weights: Mapping[DipId, float]) -> None:
        vip = self._vip(vip_id)
        for dip in weights:
            if dip not in vip.dips:
                raise ConfigurationError(f"unknown DIP {dip!r}")
        vip.weights.update({d: float(w) for d, w in weights.items()})
        self.apply()

    def set_total_rate(self, vip_id: VipId, total_rate_rps: float) -> None:
        if total_rate_rps < 0:
            raise ConfigurationError("total_rate_rps must be >= 0")
        self._vip(vip_id).total_rate_rps = float(total_rate_rps)
        self.apply()

    def scale_traffic(self, vip_id: VipId, factor: float) -> None:
        if factor < 0:
            raise ConfigurationError("factor must be >= 0")
        vip = self._vip(vip_id)
        self.set_total_rate(vip_id, vip.total_rate_rps * factor)

    def fail_dip(self, dip: DipId) -> None:
        self.dips[dip].fail()
        self.apply()

    def recover_dip(self, dip: DipId) -> None:
        self.dips[dip].recover()
        self.apply()

    def set_capacity_ratio(self, dip: DipId, ratio: float) -> None:
        self.dips[dip].set_capacity_ratio(ratio, at_time=self.time)
        self.apply()

    def set_antagonist_copies(self, dip: DipId, copies: int) -> None:
        """Run ``copies`` antagonist processes on ``dip`` (0 clears them)."""
        self.dips[dip].antagonist.set_copies(copies, at_time=self.time)
        self.apply()

    # -- joint evaluation ----------------------------------------------------------

    def apply(self) -> FleetState:
        """Recompute every DIP's arrival rate from all VIPs' traffic at once.

        Load-independent policies (equal/weighted splits) are evaluated in a
        single vectorized pass; load-dependent ones (lc/wlc/p2) then iterate
        against the background load of the other VIPs until the joint rates
        converge.  The rates reach the servers before this returns; the
        returned :class:`FleetState` builds the rest on first read.
        """
        pool = pool_arrays(self.dips)
        n = pool.size
        index_of = {dip: i for i, dip in enumerate(pool.ids)}
        total = np.zeros(n)
        contributions: dict[VipId, tuple[np.ndarray, np.ndarray]] = {}
        reactive: list[VipId] = []

        for vip_id, vip in self.vips.items():
            healthy = vip.healthy_dip_ids()
            if not healthy:
                raise ConfigurationError(f"VIP {vip_id!r}: no healthy DIPs")
            index = np.array([index_of[d] for d in healthy], dtype=np.intp)
            if vip.policy_name in LOAD_DEPENDENT_POLICIES:
                # Seed with an equal split; refined by the fixed point below.
                rates = equal_split_array(len(healthy), vip.total_rate_rps)
                reactive.append(vip_id)
            else:
                weight_vec = np.array(
                    [vip.weights.get(d, 0.0) for d in healthy], dtype=np.float64
                )
                rates = static_split_array(
                    vip.policy_name, len(healthy), vip.total_rate_rps, weight_vec
                )
            contributions[vip_id] = (index, rates)
            total[index] += rates

        for _ in range(self.contention_iterations if reactive else 0):
            max_delta = 0.0
            for vip_id in reactive:
                vip = self.vips[vip_id]
                index, old_rates = contributions[vip_id]
                sub_pool = _subset(pool, index)
                background = total[index] - old_rates
                weight_vec = np.array(
                    [vip.weights.get(d, 0.0) for d in sub_pool.ids],
                    dtype=np.float64,
                )
                new_rates = split_rates_array(
                    vip.policy_name,
                    sub_pool,
                    vip.total_rate_rps,
                    weights=weight_vec,
                    background_rps=background,
                )
                total[index] += new_rates - old_rates
                contributions[vip_id] = (index, new_rates)
                delta = float(np.max(np.abs(new_rates - old_rates))) if len(index) else 0.0
                max_delta = max(max_delta, delta)
            scale = max(1.0, float(total.sum()))
            if max_delta < self.contention_tolerance * scale:
                break

        # KLM reads the servers directly, so the rates are pushed eagerly;
        # everything else about the evaluation waits in the lazy state.
        for server, rate in zip(self.dips.values(), total.tolist()):
            server.set_offered_rate(rate)
        self._last_state = FleetState(self.time, pool, total, contributions)
        return self._last_state

    def advance(self, duration_s: float) -> FleetState:
        """Advance shared simulated time (loads are steady in the fluid model)."""
        if duration_s < 0:
            raise ConfigurationError("duration_s must be >= 0")
        self.time += duration_s
        return self.apply()

    # -- observation ---------------------------------------------------------------

    def state(self) -> FleetState:
        """The state of the last joint evaluation (no re-evaluation).

        Every mutating entry point (``set_weights``, ``set_total_rate``,
        ``fail_dip``, ``advance``, …) re-runs :meth:`apply`, so the cached
        state is current unless DIPs were mutated directly — call
        :meth:`apply` after doing that.
        """
        if self._last_state is None or self._last_state.time != self.time:
            return self.apply()
        return self._last_state

    def _vip(self, vip_id: VipId) -> Vip:
        try:
            return self.vips[vip_id]
        except KeyError:
            raise ConfigurationError(f"VIP {vip_id!r} not in fleet") from None

    @property
    def total_capacity_rps(self) -> float:
        return sum(s.capacity_rps for s in self.dips.values() if not s.failed)

    def healthy_dip_ids(self) -> tuple[DipId, ...]:
        return tuple(d for d, s in self.dips.items() if not s.failed)

    def shared_dip_ids(self) -> tuple[DipId, ...]:
        """DIPs that belong to more than one VIP (the contention set)."""
        owners: dict[DipId, int] = {}
        for vip in self.vips.values():
            for dip in vip.dips:
                owners[dip] = owners.get(dip, 0) + 1
        return tuple(d for d, count in owners.items() if count > 1)

    def __len__(self) -> int:
        return len(self.dips)
