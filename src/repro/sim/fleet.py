"""A shared DIP fleet serving many VIPs — the multi-VIP fluid substrate.

The paper's controller is datacenter-scale: Table 8 accounts for thousands
of VIPs multiplexed over a 60 K-DIP fleet.  :class:`Fleet` models that
shape: one pool of :class:`DipServer` instances, any number of
:class:`~repro.sim.vip.Vip` tenants whose pools are (possibly overlapping)
subsets, and a joint, numpy-vectorized evaluation that maps every VIP's
(rate, policy, weights) to per-DIP arrival rates in one shot.

DIPs shared by several VIPs carry the *sum* of the per-VIP rates, so their
latency — and therefore everything KLM probes observe — reflects cross-VIP
contention.  Each VIP splits as its policy's :mod:`repro.lb` class declares
(:class:`~repro.lb.base.FluidSplit`); load-dependent policies
(least-connection, power-of-two) are resolved by an outer fixed point:
each VIP's split is recomputed against the background load the other VIPs
put on its DIPs until the joint rates stabilise.  While every VIP is load-independent, a weight, rate or clock
write re-evaluates only the written VIP's DIPs, to the same bits.

Per-VIP :class:`FleetDeployment` views satisfy the controller's
``Deployment`` protocol: the :class:`repro.core.fleet_controller.FleetController`
drives every VIP's :class:`repro.core.KnapsackLBController` through one, a
single-VIP :class:`~repro.sim.fluid.FluidCluster` (itself a one-VIP fleet)
included.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from repro import kernels
from repro.backends.dip import DipServer, push_offered_rates
from repro.core.types import DipId, VipId, left_to_right_sum
from repro.exceptions import ConfigurationError
from repro.lb.base import FluidSplit, policy_description
from repro.sim.fluid import PoolArrays, equal_split_array, pool_arrays, weighted_split_array
from repro.sim.vip import Vip


def _fluid_split(policy_name: str) -> FluidSplit | None:
    """The fluid split ``policy_name``'s class declares; ``None`` for a
    name without one, or without a class."""
    try:
        factory = policy_description(policy_name).factory
    except ConfigurationError:
        return None
    return getattr(factory, "fluid_split", None)


#: rounds of the load-dependent VIPs' outer fixed point, at most, and the
#: largest change of one VIP's rates, relative to the fleet's total rate
#: (at least 1), at which it stops.
_CONTENTION_ITERATIONS = 12
_CONTENTION_TOLERANCE = 1e-6


class _Kept(NamedTuple):
    """One VIP's evaluation inputs: its healthy DIPs and their positions in
    the pool."""

    healthy: tuple[DipId, ...]
    index: np.ndarray
    #: the split, or a load-dependent VIP's equal-split seed.
    rates: np.ndarray
    #: a load-dependent VIP's law rows and its fixed point (its weights
    #: bound), as ``fixed_point(law, total_rate_rps, background_rps=)``.
    law: np.ndarray | None
    fixed_point: Callable[..., np.ndarray] | None


class _Sums:
    """The per-DIP contributor map of an all-static fleet's last full
    evaluation: every VIP's split stacked in VIP order (``rates``,
    ``index``) and each VIP's ``span`` of it.  A write to one VIP stores its
    new split in its span and re-sums only its DIPs from :meth:`rows`, each
    DIP 0.0 plus its contributors' rates in VIP order — the sum the
    evaluation's ``np.bincount`` formed."""

    def __init__(
        self,
        index: np.ndarray,
        rates: np.ndarray,
        span: dict[VipId, slice],
        servers: tuple[DipServer, ...],
    ) -> None:
        self.index = index
        self.rates = rates
        self.span = span
        #: the pool's servers, by position.
        self.servers = servers
        self.size = len(servers)
        self._rows: dict[VipId, tuple[np.ndarray, np.ndarray, list[DipServer]]] = {}

    @cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions in ``rates`` grouped by DIP (VIP order within a group),
        and each DIP's group start and length."""
        order = np.argsort(self.index, kind="stable")
        count = np.bincount(self.index, minlength=self.size)
        return order, np.cumsum(count) - count, count

    def rows(
        self, vip_id: VipId, index: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[DipServer]]:
        """For a VIP over pool positions ``index``: each contribution to its
        DIPs, as (row in ``index``, position in ``rates``), and its DIPs'
        servers."""
        rows = self._rows.get(vip_id)
        if rows is None:
            order, start, count = self._groups
            count = count[index]
            row = np.repeat(np.arange(len(index)), count)
            skip = np.repeat(start[index] - (np.cumsum(count) - count), count)
            rows = self._rows[vip_id] = (
                row,
                order[skip + np.arange(len(row))],
                [self.servers[i] for i in index.tolist()],
            )
        return rows


class FleetState:
    """The whole fleet after one joint evaluation.

    A lazy view: it keeps the evaluation's arrays (nothing writes to them
    once built — an incremental write hands the last state's pool, the
    other VIPs' splits or ``total`` on, but copies any array it changes —
    so the view stays that of its own evaluation) and builds each dict —
    and the latency pass behind ``mean_latency_ms`` — on first read.
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
        """CPU utilization per DIP, at most 1; 0 on a failed DIP."""
        pool = self._pool
        capacity = pool.law[:, kernels.CAPACITY]  # 0: down
        utilization = np.divide(self._total, capacity, out=np.zeros(pool.size), where=capacity > 0)
        return dict(zip(pool.ids, np.minimum(1.0, utilization).tolist()))

    @cached_property
    def mean_latency_ms(self) -> dict[DipId, float]:
        """Mean latency per DIP; ``inf`` on a failed DIP."""
        pool = self._pool
        latency = np.empty(pool.size)
        kernels.mean_latencies(pool.law, self._total, latency)
        return dict(zip(pool.ids, latency.tolist()))

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
        total = left_to_right_sum(rates.values())
        if total <= 0:
            return float("nan")
        latency = self.mean_latency_ms
        return (
            left_to_right_sum(rate * latency[d] for d, rate in rates.items()) / total
        )

    def overall_mean_latency_ms(self) -> float:
        """Request-weighted mean latency across the whole fleet.

        A DIP without traffic adds nothing: its term is skipped, so a failed
        DIP's rate 0 never meets its infinite latency (0 × inf is NaN).
        """
        rates = self.total_rates_rps
        total = left_to_right_sum(rates.values())
        if total <= 0:
            return float("nan")
        latency = self.mean_latency_ms
        return (
            left_to_right_sum(rate * latency[d] for d, rate in rates.items() if rate)
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

    The controller programs weights through this view; it only ever sees
    its own VIP's DIPs, while the underlying rates include whatever the
    other tenants put on the shared servers.  The fleet's clock is the
    :class:`~repro.core.fleet_controller.FleetController`'s to advance.
    """

    def __init__(self, fleet: "Fleet", vip_id: VipId) -> None:
        self._fleet = fleet
        self.vip_id = vip_id

    @property
    def dips(self) -> dict[DipId, DipServer]:
        return self._fleet.vips[self.vip_id].dips

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        self._fleet.set_weights(self.vip_id, weights)

    def healthy_dip_ids(self) -> tuple[DipId, ...]:
        return self._fleet.vips[self.vip_id].healthy_dip_ids()


class Fleet:
    """A pool of DIP servers shared by any number of VIPs.

    Every entry point leaves the servers' offered rates and :meth:`state`
    current.  The membership and DIP writers run the full evaluation,
    :meth:`apply`; ``set_weights``, ``set_total_rate`` / ``scale_traffic``
    and ``advance`` evaluate incrementally, at the cost of the written VIP's
    DIPs (see :meth:`_evaluate`).

    The fleet's writers are the only ones an evaluation follows.  A caller
    that edits a DIP, an antagonist, a VIP or their dicts directly (``dips``
    and ``vips`` included) calls :meth:`apply` afterwards: until then the
    incremental writers take every DIP, and every VIP they do not write, as
    the last evaluation left them.
    """

    def __init__(
        self,
        dips: Mapping[DipId, DipServer] | None = None,
        *,
        start_time: float = 0.0,
    ) -> None:
        self.dips: dict[DipId, DipServer] = dict(dips or {})
        self.vips: dict[VipId, Vip] = {}
        self.time = float(start_time)
        self._last_state: FleetState | None = None
        #: the last full evaluation's id → pool position map and VIP inputs.
        self._index_of: dict[DipId, int] = {}
        self._kept: dict[VipId, _Kept] = {}
        #: how the last evaluation summed, while a write may re-sum one VIP.
        self._sums: _Sums | None = None

    # -- membership --------------------------------------------------------------

    def add_dip(self, server: DipServer) -> None:
        if server.dip_id in self.dips:
            raise ConfigurationError(f"DIP {server.dip_id!r} already in fleet")
        self.dips[server.dip_id] = server
        self._last_state = self._sums = None

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
        self._last_state = self._sums = None
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
        cleaned: dict[DipId, float] = {}
        for dip, weight in weights.items():
            if dip not in vip.dips:
                raise ConfigurationError(f"unknown DIP {dip!r}")
            value = float(weight)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"VIP {vip_id!r}: weight for DIP {dip!r} must be finite "
                    f"and >= 0, got {weight!r}"
                )
            cleaned[dip] = value
        vip.weights.update(cleaned)
        self._evaluate(vip_id)

    def set_total_rate(self, vip_id: VipId, total_rate_rps: float) -> None:
        if not 0.0 <= total_rate_rps < math.inf:
            raise ConfigurationError(
                f"total_rate_rps must be finite and >= 0, got {total_rate_rps!r}"
            )
        self._vip(vip_id).total_rate_rps = float(total_rate_rps)
        self._evaluate(vip_id)

    def scale_traffic(self, vip_id: VipId, factor: float) -> None:
        if not 0.0 <= factor < math.inf:
            raise ConfigurationError(f"factor must be finite and >= 0, got {factor!r}")
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

        This is the full evaluation: it re-reads every DIP and VIP, so it is
        what a caller runs after a direct edit (see :class:`Fleet`).  The
        fleet's own weight, rate and clock writers evaluate incrementally
        instead (see :meth:`_evaluate`).
        """
        self._sums = None
        pool = pool_arrays(self.dips)
        self._index_of = index_of = {dip: i for i, dip in enumerate(pool.ids)}
        kept = self._kept = {
            vip_id: self._inputs(vip_id, vip, vip.healthy_dip_ids(), pool, index_of)
            for vip_id, vip in self.vips.items()
        }
        contributions = {vip_id: (k.index, k.rates) for vip_id, k in kept.items()}
        # Per DIP, 0.0 plus each VIP's rate in VIP order: one bincount.
        total = np.zeros(pool.size)
        if kept:
            stacked_index = np.concatenate([k.index for k in kept.values()])
            stacked = np.concatenate([k.rates for k in kept.values()])
            total = np.bincount(stacked_index, weights=stacked, minlength=pool.size)
        reactive = [
            (vip_id, self.vips[vip_id], k) for vip_id, k in kept.items() if k.law is not None
        ]

        for _ in range(_CONTENTION_ITERATIONS if reactive else 0):
            max_delta = 0.0
            for vip_id, vip, k in reactive:
                index = k.index
                old_rates = contributions[vip_id][1]
                background = total[index] - old_rates
                new_rates = k.fixed_point(k.law, vip.total_rate_rps, background_rps=background)
                total[index] += new_rates - old_rates
                contributions[vip_id] = (index, new_rates)
                delta = float(np.max(np.abs(new_rates - old_rates))) if len(index) else 0.0
                max_delta = max(max_delta, delta)
            scale = max(1.0, float(total.sum()))
            if max_delta < _CONTENTION_TOLERANCE * scale:
                break

        # KLM reads the servers directly, so the rates are pushed eagerly;
        # everything else about the evaluation waits in the lazy state.
        rates = total.tolist()
        servers = tuple(self.dips.values())
        if ((total >= 0.0) & (total < math.inf)).all():
            push_offered_rates(servers, rates)
        else:
            for server, rate in zip(servers, rates):
                server.set_offered_rate(rate)  # refuses the first bad rate
        if kept and not reactive:
            ends = np.cumsum([len(k.index) for k in kept.values()]).tolist()
            span = {v: slice(e - len(k.index), e) for (v, k), e in zip(kept.items(), ends)}
            self._sums = _Sums(stacked_index, stacked, span, servers)
        self._last_state = FleetState(self.time, pool, total, contributions)
        return self._last_state

    def _inputs(
        self,
        vip_id: VipId,
        vip: Vip,
        healthy: tuple[DipId, ...],
        pool: PoolArrays,
        index_of: dict[DipId, int],
    ) -> _Kept:
        """A VIP's evaluation inputs over ``pool``, whose positions
        ``index_of`` maps."""
        if not healthy:
            raise ConfigurationError(f"VIP {vip_id!r}: no healthy DIPs")
        split = _fluid_split(vip.policy_name)
        if split is None:
            raise ConfigurationError(f"no fluid model for policy {vip.policy_name!r}")
        index = np.array([index_of[d] for d in healthy], dtype=np.intp)
        fixed_point = split.fixed_point
        if split.weighted:
            weights = np.array([vip.weights.get(d, 0.0) for d in healthy], dtype=np.float64)
            if fixed_point is None:
                rates = weighted_split_array(weights, vip.total_rate_rps)
                return _Kept(healthy, index, rates, None, None)
            fixed_point = partial(fixed_point, weights=weights)
        # Equal, or a load-dependent VIP's seed (refined by the fixed point).
        rates = equal_split_array(len(healthy), vip.total_rate_rps)
        if fixed_point is None:
            return _Kept(healthy, index, rates, None, None)
        return _Kept(healthy, index, rates, pool.law[index], fixed_point)

    def _evaluate(self, vip_id: VipId | None) -> None:
        """Evaluate after the fleet's own write to ``vip_id``'s weights or
        rate, or (``None``) to its clock alone.

        The state of the last evaluation stands for every other VIP, so a
        write costs the written VIP's DIPs, not the fleet: its split is
        recomputed, each of its DIPs' totals re-summed as 0.0 plus every
        contributor's rate in VIP order (what :meth:`apply` sums), and only
        those rates pushed; a clock write re-dates the last state's arrays.
        Where that is not provably :meth:`apply`'s result — no all-static
        evaluation since the last raise or membership change (so never
        with an lc/wlc/p2 VIP: the fixed point's stop test sums the whole
        fleet), the written VIP's healthy set changed or its policy's split
        is not load-independent, or a total is not finite — :meth:`apply`
        runs instead.
        """
        sums, last = self._sums, self._last_state
        if sums is None:
            self.apply()
            return
        if vip_id is None:
            self._last_state = FleetState(self.time, last._pool, last._total, last._contributions)
            return
        vip = self.vips[vip_id]
        kept = self._kept.get(vip_id)
        healthy = vip.healthy_dip_ids()
        split = _fluid_split(vip.policy_name)
        if (
            kept is None
            or healthy != kept.healthy
            or split is None
            or split.fixed_point is not None
        ):
            self.apply()
            return
        kept = self._inputs(vip_id, vip, healthy, last._pool, self._index_of)
        index = kept.index
        row, position, servers = sums.rows(vip_id, index)
        sums.rates[sums.span[vip_id]] = kept.rates
        fresh = np.bincount(row, weights=sums.rates[position], minlength=len(index))
        if not ((fresh >= 0.0) & (fresh < math.inf)).all():
            self.apply()  # refuses as a full evaluation does
            return
        push_offered_rates(servers, fresh.tolist())
        total = last._total.copy()
        total[index] = fresh
        contributions = dict(last._contributions)
        contributions[vip_id] = (index, kept.rates)
        self._last_state = FleetState(self.time, last._pool, total, contributions)

    def advance(self, duration_s: float) -> FleetState:
        """Advance shared simulated time (loads are steady in the fluid model)."""
        if duration_s < 0:
            raise ConfigurationError("duration_s must be >= 0")
        self.time += duration_s
        self._evaluate(None)
        return self._last_state

    # -- observation ---------------------------------------------------------------

    def state(self) -> FleetState:
        """The state of the last joint evaluation (no re-evaluation).

        Every mutating entry point leaves it current: ``fail_dip``,
        ``recover_dip``, ``set_capacity_ratio``, ``set_antagonist_copies``
        and ``remove_vip`` run :meth:`apply`; ``set_weights``,
        ``set_total_rate`` / ``scale_traffic`` and ``advance`` update it
        incrementally.  After a direct edit, call :meth:`apply` (see
        :class:`Fleet`).
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
        return left_to_right_sum(s.capacity_rps for s in self.dips.values() if not s.failed)

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
