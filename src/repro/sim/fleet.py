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
put on its DIPs until the joint rates stabilise.  While every VIP is
load-independent, a weight or rate write recomputes only the written VIP's
split and re-sums the last evaluation's splits, to the same bits.  The
evaluation is the only record of a DIP's load, and KLM's probes are served
from it (:meth:`Fleet.probe_round`): a DIP exposes nothing (§3.2).

Per-VIP :class:`FleetDeployment` views satisfy the controller's
``Deployment`` protocol: the :class:`repro.core.fleet_controller.FleetController`
drives every VIP's :class:`repro.core.KnapsackLBController` through one, a
single-VIP :class:`~repro.sim.fluid.FluidCluster` (itself a one-VIP fleet)
included.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro import kernels
from repro.backends.dip import DipServer
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


def _checked(total: np.ndarray) -> np.ndarray:
    """Per-DIP totals, refused at the first that is not finite and >= 0."""
    bad = ~((total >= 0.0) & (total < math.inf))
    if bad.any():
        rate = total[bad.argmax()].item()
        raise ConfigurationError(f"rate_rps must be finite and >= 0, got {rate!r}")
    return total


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


class FleetState:
    """The whole fleet after one joint evaluation: each DIP's law row and
    total rate — the only record of its load — and each VIP's split.

    A lazy view: it keeps the evaluation's arrays (nothing writes to them
    once built — a weight or rate write hands the last state's pool and the
    other VIPs' splits on with a fresh ``total``, and ``advance`` hands all
    of them on — so the view stays that of its own evaluation) and builds
    each dict — and the latency pass behind ``mean_latency_ms`` — on first
    read.
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

    def probe_round(
        self, dip_ids: Sequence[DipId], num_requests: int
    ) -> tuple[list[float | None], list[int]]:
        return self._fleet.probe_round(dip_ids, num_requests)

    def healthy_dip_ids(self) -> tuple[DipId, ...]:
        return self._fleet.vips[self.vip_id].healthy_dip_ids()


class Fleet:
    """A pool of DIP servers shared by any number of VIPs.

    Every entry point leaves :meth:`state` current, and nothing writes a
    DIP's load to its server: the state is its only record, which
    :meth:`probe_round` serves KLM's probes from.  The membership and DIP
    writers run the full evaluation, :meth:`apply`; ``set_weights`` and
    ``set_total_rate`` / ``scale_traffic`` recompute the written VIP's split
    alone (see :meth:`_evaluate`), and ``advance`` re-dates the last state.

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
        #: while every VIP is load-independent, the last evaluation's splits
        #: stacked in VIP order as (pool positions, rates), and each VIP's
        #: span of them: what a weight or rate write re-sums.
        self._stacked: tuple[np.ndarray, np.ndarray, dict[VipId, slice]] | None = None

    # -- membership --------------------------------------------------------------

    def add_dip(self, server: DipServer) -> None:
        if server.dip_id in self.dips:
            raise ConfigurationError(f"DIP {server.dip_id!r} already in fleet")
        self.dips[server.dip_id] = server
        self._last_state = self._stacked = None

    def create_vip(
        self,
        vip_id: VipId,
        *,
        dip_ids: Iterable[DipId],
        total_rate_rps: float,
        policy_name: str = "wrr",
        weights: Mapping[DipId, float] | None = None,
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
            total_rate_rps=float(total_rate_rps),
            policy_name=policy_name,
            weights=dict(weights) if weights else {},
        )
        self.vips[vip_id] = vip
        self._last_state = self._stacked = None
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
        previous = dict(vip.weights)
        vip.weights.update(cleaned)
        try:
            self._evaluate(vip_id)
        except ConfigurationError:
            # A refused write leaves the VIP as it was.
            vip.weights.clear()
            vip.weights.update(previous)
            raise

    def set_total_rate(self, vip_id: VipId, total_rate_rps: float) -> None:
        if not 0.0 <= total_rate_rps < math.inf:
            raise ConfigurationError(
                f"total_rate_rps must be finite and >= 0, got {total_rate_rps!r}"
            )
        vip = self._vip(vip_id)
        previous, vip.total_rate_rps = vip.total_rate_rps, float(total_rate_rps)
        try:
            self._evaluate(vip_id)
        except ConfigurationError:
            # A refused write leaves the VIP as it was.
            vip.total_rate_rps = previous
            raise

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
        converge.  The returned :class:`FleetState` builds the rest on first
        read.  A total that is not finite and >= 0 is refused, and a refused
        evaluation leaves no state: :meth:`state` and ``advance`` run this
        again.

        This is the full evaluation: it re-reads every DIP and VIP, so it is
        what a caller runs after a direct edit (see :class:`Fleet`).  The
        fleet's own weight and rate writers evaluate incrementally instead
        (see :meth:`_evaluate`).
        """
        self._last_state = self._stacked = None
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

        _checked(total)
        if kept and not reactive:
            ends = np.cumsum([len(k.index) for k in kept.values()]).tolist()
            span = {v: slice(e - len(k.index), e) for (v, k), e in zip(kept.items(), ends)}
            self._stacked = (stacked_index, stacked, span)
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

    def _evaluate(self, vip_id: VipId) -> None:
        """Evaluate after the fleet's own write to ``vip_id``'s weights or
        rate: its new split replaces its span of the stacked splits, which
        :meth:`apply`'s own bincount re-sums, so the totals are its bits.  A
        total that is not finite and >= 0 is refused with the stacked
        splits and the last state left as they were.  Where the
        stacked splits are not :meth:`apply`'s — no all-static evaluation
        since the last raise or membership change (so never with an
        lc/wlc/p2 VIP: the fixed point's stop test sums the whole fleet),
        the written VIP's healthy set changed or its policy's split is not
        load-independent — :meth:`apply` runs instead.
        """
        stacked, last = self._stacked, self._last_state
        vip = self.vips[vip_id]
        healthy = vip.healthy_dip_ids()
        split = _fluid_split(vip.policy_name)
        if (
            stacked is None
            or healthy != self._kept[vip_id].healthy
            or split is None
            or split.fixed_point is not None
        ):
            self.apply()
            return
        kept = self._inputs(vip_id, vip, healthy, last._pool, self._index_of)
        index, rates, span = stacked
        rates = rates.copy()
        rates[span[vip_id]] = kept.rates
        total = _checked(np.bincount(index, weights=rates, minlength=last._pool.size))
        self._stacked = (index, rates, span)
        contributions = dict(last._contributions)
        contributions[vip_id] = (kept.index, kept.rates)
        self._last_state = FleetState(self.time, last._pool, total, contributions)

    def advance(self, duration_s: float) -> FleetState:
        """Advance shared simulated time: loads are steady in the fluid
        model, so the last state is re-dated (no evaluation reads the clock)."""
        if duration_s < 0:
            raise ConfigurationError("duration_s must be >= 0")
        self.time += duration_s
        last = self._last_state
        if last is None:
            return self.apply()
        self._last_state = FleetState(self.time, last._pool, last._total, last._contributions)
        return self._last_state

    def probe_round(
        self, dip_ids: Sequence[DipId], num_requests: int
    ) -> tuple[list[float | None], list[int]]:
        """``Deployment.probe_round`` at :meth:`state`'s load (probe traffic
        is too small to perturb it): one :func:`repro.kernels.probe_round`
        over each DIP's law row and total rate, its jitter and its generator
        (``None`` for a down DIP, whose row the kernel does not read).  Each
        DIP draws what a lone batch would: its drops (none at a drop
        probability of 0), then a normal per served request, floored at a
        quarter of the mean, averaged."""
        if num_requests < 1:
            raise ConfigurationError("num_requests must be >= 1")
        state = self.state()
        index = [self._index_of[dip] for dip in dip_ids]
        servers = [self.dips[dip] for dip in dip_ids]
        params = np.empty((len(index), kernels.COLUMNS))
        params[:, : kernels.LAW] = state._pool.law[index]
        params[:, kernels.LAW] = state._total[index]
        params[:, kernels.LAW + 1] = [server.jitter_fraction for server in servers]
        generators = [None if server.failed else server._rng for server in servers]
        return kernels.probe_round(params, generators, num_requests)

    # -- observation ---------------------------------------------------------------

    def state(self) -> FleetState:
        """The state of the last joint evaluation (no re-evaluation).

        Every mutating entry point leaves it current: ``fail_dip``,
        ``recover_dip``, ``set_capacity_ratio``, ``set_antagonist_copies``
        and ``remove_vip`` run :meth:`apply`; ``set_weights`` and
        ``set_total_rate`` / ``scale_traffic`` update it incrementally, and
        ``advance`` re-dates it.  Where there is none (no evaluation yet, a
        membership change, or a refused :meth:`apply`), this runs
        :meth:`apply`.  After a direct edit, call :meth:`apply` (see
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
