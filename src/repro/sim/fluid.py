"""Fluid (rate-based) cluster model, vectorized over whole DIP pools.

The fluid model maps an aggregate VIP request rate and an LB policy to
per-DIP arrival rates, then uses each DIP's analytic latency model to derive
utilization and mean latency.  It is the fast substrate the KnapsackLB
controller runs against for exploration, dynamics and large-scale (Table 6,
Table 8) studies; the request-level simulator in :mod:`repro.sim.cluster`
cross-checks the resulting latency distributions.

A pool is one matrix of the DIPs' law rows (:class:`PoolArrays`), which the
compiled M/M/c/K law (:func:`repro.kernels.mean_latencies`) evaluates in
one call.  This is what lets :class:`repro.sim.fleet.Fleet` evaluate
thousands of DIPs shared by many VIPs per control interval.

Each policy declares its fluid split on its :mod:`repro.lb` class
(:class:`repro.lb.base.FluidSplit`): an equal split of the arrival rate, a
split proportional to weight (both here), or a fixed point of its own over
the pool's law rows (least connection, power of two).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro import kernels
from repro.backends.dip import DipServer
from repro.core.types import DipId
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.sim.fleet import FleetState


@dataclass(frozen=True)
class PoolArrays:
    """A DIP pool flattened for one-shot evaluation: its ids and one
    C-contiguous row per DIP of :attr:`DipServer.law` (the current model,
    after antagonist capacity scaling; a down DIP's row is zeros), so it
    must be rebuilt when a DIP's capacity, correction or health changes.
    """

    ids: tuple[DipId, ...]
    #: ``len(ids)`` x :data:`repro.kernels.LAW` float64 law rows.
    law: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ids)


def pool_arrays(dips: Mapping[DipId, DipServer]) -> PoolArrays:
    """Flatten ``dips`` (their current law rows) into :class:`PoolArrays`."""
    ids = tuple(dips)
    law = np.array([dips[d].law for d in ids], dtype=np.float64)
    return PoolArrays(ids=ids, law=law.reshape(len(ids), kernels.LAW))


# ---------------------------------------------------------------------------
# load-independent splits
# ---------------------------------------------------------------------------


def equal_split_array(n: int, total_rate_rps: float) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    return np.full(n, total_rate_rps / n)


#: below this, ``total_rate * weight`` products land in the subnormal range
#: and lose the bits the division needs (2**-960 leaves the summed rounding
#: error of the sub-``tiny`` products under 2**-100 of the total).
_MIN_EXACT_PRODUCT = 2.0**-960


def weighted_split_array(weights: np.ndarray, total_rate_rps: float) -> np.ndarray:
    """Division proportional to (non-negative) weights; equal when all zero."""
    positive = np.maximum(0.0, np.asarray(weights, dtype=np.float64))
    total = positive.sum()
    if total <= 0:
        return equal_split_array(len(positive), total_rate_rps)
    if total_rate_rps * total < _MIN_EXACT_PRODUCT:
        # Subnormal weights: normalise first (the quotients are ordinary
        # fractions).  Every other split keeps multiply-then-divide, whose
        # roundings per-seed artifacts depend on.
        return total_rate_rps * (positive / total)
    return total_rate_rps * positive / total


# ---------------------------------------------------------------------------
# single-VIP cluster (a one-VIP fleet)
# ---------------------------------------------------------------------------


@dataclass
class FluidCluster:
    """A VIP's DIP pool driven by aggregate request rates.

    Internally this is a one-VIP :class:`repro.sim.fleet.Fleet` — the
    multi-VIP substrate with a single tenant.  A
    :class:`~repro.core.fleet_controller.FleetController` over ``fleet``
    drives it exactly as it would a real deployment: it programs weights on
    the (simulated) LB and reads latencies through KLM probes; it never
    touches the DIPs.
    """

    dips: dict[DipId, DipServer]
    total_rate_rps: float
    policy_name: str = "wrr"
    weights: dict[DipId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.sim.fleet import Fleet  # deferred; fleet imports this module

        if self.total_rate_rps < 0:
            raise ConfigurationError("total_rate_rps must be >= 0")
        if not self.dips:
            raise ConfigurationError("cluster needs at least one DIP")
        if not self.weights:
            share = 1.0 / len(self.dips)
            self.weights = {d: share for d in self.dips}
        #: the one-VIP fleet behind this façade (the VIP is named ``"vip"``);
        #: a ``FleetController`` over it converges the VIP and owns its clock.
        self.fleet = Fleet(dips=self.dips)
        self._vip = self.fleet.create_vip(
            "vip",
            dip_ids=list(self.dips),
            total_rate_rps=self.total_rate_rps,
            policy_name=self.policy_name,
            weights=self.weights,
        )
        # Share the weight dict so fleet-side updates stay visible here.
        self.weights = self._vip.weights
        self.apply()

    # -- control interface (what KnapsackLB programs) ---------------------------

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        self.fleet.set_weights("vip", weights)

    def set_total_rate(self, total_rate_rps: float) -> None:
        self.fleet.set_total_rate("vip", total_rate_rps)
        self.total_rate_rps = self._vip.total_rate_rps

    def scale_traffic(self, factor: float) -> None:
        self.fleet.scale_traffic("vip", factor)
        self.total_rate_rps = self._vip.total_rate_rps

    def fail_dip(self, dip: DipId) -> None:
        self.fleet.fail_dip(dip)

    def recover_dip(self, dip: DipId) -> None:
        self.fleet.recover_dip(dip)

    def set_capacity_ratio(self, dip: DipId, ratio: float) -> None:
        self.fleet.set_capacity_ratio(dip, ratio)

    def set_antagonist_copies(self, dip: DipId, copies: int) -> None:
        self.fleet.set_antagonist_copies(dip, copies)

    # -- observation ---------------------------------------------------------------

    def apply(self) -> FleetState:
        """Recompute the per-DIP rates from the current weights and traffic."""
        return self.fleet.apply()

    def state(self) -> FleetState:
        """The last evaluation (see :meth:`repro.sim.fleet.Fleet.state`)."""
        return self.fleet.state()

    @property
    def total_capacity_rps(self) -> float:
        return self.fleet.total_capacity_rps

    def healthy_dip_ids(self) -> tuple[DipId, ...]:
        return self.fleet.healthy_dip_ids()
