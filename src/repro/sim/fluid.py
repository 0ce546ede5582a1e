"""Fluid (rate-based) cluster model, vectorized over whole DIP pools.

The fluid model maps an aggregate VIP request rate and an LB policy to
per-DIP arrival rates, then uses each DIP's analytic latency model to derive
utilization and mean latency.  It is the fast substrate the KnapsackLB
controller runs against for exploration, dynamics and large-scale (Table 6,
Table 8) studies; the request-level simulator in :mod:`repro.sim.cluster`
cross-checks the resulting latency distributions.

All policy splits and latency evaluations operate on numpy arrays covering
the whole pool in one shot (:class:`PoolArrays`); the dict-based public
functions are thin wrappers over the vectorized kernels.  This is what lets
:class:`repro.sim.fleet.Fleet` evaluate thousands of DIPs shared by many
VIPs per control interval.

Fluid interpretations of the policies:

* round robin, 5-tuple hash, uniform random — equal split of the arrival rate;
* weighted round robin / weighted random / DNS — split proportional to weight;
* least connection — the split that equalises the number of in-flight
  connections across DIPs (``λ_d · T_d(λ_d)`` equal for all d), obtained by
  fixed-point iteration; this is exactly why LCA still overloads slow DIPs
  (§2.1): equal *concurrency* is not equal *utilization*;
* weighted least connection — equalises in-flight connections divided by
  weight;
* power of two — fixed-point of the pairwise-comparison selection
  probabilities using CPU utilization as the load signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.backends.dip import DipServer
from repro.core.types import DipId, left_to_right_sum
from repro.exceptions import ConfigurationError

EQUAL_SPLIT_POLICIES = {"rr", "hash", "random"}
WEIGHTED_SPLIT_POLICIES = {"wrr", "wrandom", "dns"}
CONCURRENCY_POLICIES = {"lc", "wlc"}
#: Policies whose split depends on the DIPs' load (fixed-point policies).
LOAD_DEPENDENT_POLICIES = CONCURRENCY_POLICIES | {"p2"}


# ---------------------------------------------------------------------------
# vectorized latency kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolArrays:
    """A DIP pool flattened into numpy arrays for one-shot evaluation.

    Mirrors :class:`repro.backends.latency_model.LatencyModel` per DIP; the
    arrays capture the *current* models (after antagonist capacity scaling),
    so they must be rebuilt when a DIP's capacity changes.
    """

    ids: tuple[DipId, ...]
    servers: np.ndarray
    capacity_rps: np.ndarray
    idle_latency_ms: np.ndarray
    max_queue: np.ndarray
    drop_utilization: np.ndarray
    failed: np.ndarray
    #: per-DIP Allen-Cunneen M/G/c waiting-time factor (1.0 = exact M/M/c).
    scv_correction: np.ndarray | float = 1.0

    @property
    def size(self) -> int:
        return len(self.ids)


def pool_arrays(dips: Mapping[DipId, DipServer]) -> PoolArrays:
    """Flatten ``dips`` (their current latency models) into :class:`PoolArrays`."""
    ids = tuple(dips)
    models = [dips[d].latency_model for d in ids]
    return PoolArrays(
        ids=ids,
        servers=np.array([m.servers for m in models], dtype=np.int64),
        capacity_rps=np.array([m.capacity_rps for m in models]),
        idle_latency_ms=np.array([m.idle_latency_ms for m in models]),
        max_queue=np.array([m.max_queue for m in models]),
        drop_utilization=np.array([m.drop_utilization for m in models]),
        failed=np.array([dips[d].failed for d in ids], dtype=bool),
        scv_correction=np.array(
            [getattr(dips[d], "scv_correction", 1.0) for d in ids]
        ),
    )


def vector_erlang_c(servers: np.ndarray, offered_load: np.ndarray) -> np.ndarray:
    """Erlang-C queueing probability for arrays of (servers, offered load).

    Vectorizes the iterative Erlang-B recursion of
    :func:`repro.backends.latency_model.erlang_c`: the recursion runs to the
    maximum server count and each DIP stops updating once ``k`` exceeds its
    own server count.
    """
    servers = np.asarray(servers, dtype=np.int64)
    offered = np.asarray(offered_load, dtype=np.float64)
    result = np.zeros(offered.shape)
    saturated = offered >= servers
    result[saturated] = 1.0

    active = (~saturated) & (offered > 0)
    if not np.any(active):
        return result
    load = np.where(offered > 0, offered, 1.0)  # avoid div by zero below
    inv_b = np.ones(offered.shape)
    # For near-zero load 1/B grows factorially and may overflow to inf; the
    # limit is exactly right (erlang_b -> 0), so silence the overflow noise.
    with np.errstate(over="ignore"):
        for k in range(1, int(servers.max()) + 1):
            step = 1.0 + inv_b * k / load
            inv_b = np.where(k <= servers, step, inv_b)
    erlang_b = 1.0 / inv_b
    rho = offered / servers
    erlang = erlang_b / (1.0 - rho + rho * erlang_b)
    result[active] = erlang[active]
    return result


def vector_mean_latency_ms(pool: PoolArrays, rates_rps: np.ndarray) -> np.ndarray:
    """Mean application latency per DIP at ``rates_rps``, in one shot.

    Matches :meth:`LatencyModel.mean_latency_ms` per element: idle latency at
    zero load, Erlang-C waiting below saturation (bounded by the finite
    queue) and the full-queue plateau at or past saturation.
    """
    rates = np.asarray(rates_rps, dtype=np.float64)
    if np.any(rates < 0):
        raise ConfigurationError("rates must be >= 0")
    mu = pool.capacity_rps / pool.servers
    offered = rates / mu
    max_wait_ms = pool.max_queue / pool.capacity_rps * 1000.0

    pq = vector_erlang_c(pool.servers, offered)
    headroom = pool.servers * mu - rates
    # The Allen-Cunneen factor scales the waiting component only; at the
    # default of 1.0 the multiply is exact and bit-identical to M/M/c.
    wait_ms = np.where(
        headroom > 0,
        pq / np.where(headroom > 0, headroom, 1.0)
        * 1000.0
        * pool.scv_correction,
        np.inf,
    )
    below = rates < pool.capacity_rps * 0.999
    latency = pool.idle_latency_ms + np.where(
        below, np.minimum(wait_ms, max_wait_ms), max_wait_ms
    )
    return np.where(rates == 0, pool.idle_latency_ms, latency)


def vector_utilization(pool: PoolArrays, rates_rps: np.ndarray) -> np.ndarray:
    """CPU utilization per DIP (may nominally exceed 1)."""
    return np.asarray(rates_rps, dtype=np.float64) / pool.capacity_rps


# ---------------------------------------------------------------------------
# vectorized splits
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


def least_connection_split_array(
    pool: PoolArrays,
    total_rate_rps: float,
    *,
    weights: np.ndarray | None = None,
    background_rps: np.ndarray | None = None,
    iterations: int = 200,
    damping: float = 0.5,
) -> np.ndarray:
    """The fluid equilibrium of (weighted) least-connection selection.

    At equilibrium the number of concurrent connections per unit weight is
    equal across DIPs: ``λ_d · T_d(λ_d) / weight_d = const``.  We iterate
    ``λ_d ∝ weight_d / T_d(λ_d)`` with damping until the split stabilises.
    ``background_rps`` is load the DIPs carry from *other* VIPs of a shared
    fleet; it shifts the latencies but is not part of the split itself.
    """
    n = pool.size
    if n == 0:
        return np.zeros(0)
    weight_vec = (
        np.ones(n)
        if weights is None
        else np.maximum(1e-9, np.asarray(weights, dtype=np.float64))
    )
    background = (
        np.zeros(n) if background_rps is None else np.asarray(background_rps)
    )

    rates = np.full(n, total_rate_rps / n)
    for _ in range(iterations):
        latencies = vector_mean_latency_ms(pool, rates + background)
        target = weight_vec / np.maximum(latencies, 1e-9)
        target = target / target.sum() * total_rate_rps
        new_rates = damping * target + (1 - damping) * rates
        if np.max(np.abs(new_rates - rates)) < 1e-6 * max(1.0, total_rate_rps):
            rates = new_rates
            break
        rates = new_rates
    return rates


def power_of_two_split_array(
    pool: PoolArrays,
    total_rate_rps: float,
    *,
    background_rps: np.ndarray | None = None,
    iterations: int = 100,
    damping: float = 0.5,
) -> np.ndarray:
    """Fluid approximation of power-of-two-choices on CPU utilization.

    The probability DIP ``d`` receives a connection is the probability it is
    sampled and its utilization is no higher than the other sampled DIP:
    ``p_d = (1/N²) · (1 + 2·|{e ≠ d : u_d < u_e}| + |{e ≠ d : u_e = u_d}|)``.
    We iterate to a fixed point since the utilizations depend on the split.
    The win counts are computed by ranking, not pairwise comparison, so one
    iteration is O(N log N) instead of O(N²).
    """
    n = pool.size
    if n == 0:
        return np.zeros(0)
    if n == 1:
        return np.full(1, total_rate_rps)
    background = (
        np.zeros(n) if background_rps is None else np.asarray(background_rps)
    )

    rates = np.full(n, total_rate_rps / n)
    for _ in range(iterations):
        utils = vector_utilization(pool, rates + background)
        # wins_i = |{j : u_i < u_j}| + 0.5·(|{j : u_j = u_i}| - 1), via ranks.
        order = np.argsort(utils, kind="stable")
        sorted_utils = utils[order]
        # For each DIP: how many DIPs have strictly smaller / equal utilization.
        smaller = np.searchsorted(sorted_utils, utils, side="left")
        less_or_equal = np.searchsorted(sorted_utils, utils, side="right")
        equal = less_or_equal - smaller
        greater = n - less_or_equal
        wins = greater + 0.5 * (equal - 1)
        probs = (1.0 + 2.0 * wins) / (n * n)
        probs = probs / probs.sum()
        new_rates = damping * probs * total_rate_rps + (1 - damping) * rates
        if np.max(np.abs(new_rates - rates)) < 1e-6 * max(1.0, total_rate_rps):
            rates = new_rates
            break
        rates = new_rates
    return rates


def static_split_array(
    policy_name: str,
    n: int,
    total_rate_rps: float,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """The split of a load-independent policy over ``n`` DIPs.

    Equal and weight-proportional splits need nothing of the pool but its
    size, so callers holding only an index set can skip building one.
    """
    if policy_name in WEIGHTED_SPLIT_POLICIES:
        if weights is not None:
            return weighted_split_array(weights, total_rate_rps)
    elif policy_name not in EQUAL_SPLIT_POLICIES:
        raise ConfigurationError(f"no fluid model for policy {policy_name!r}")
    return equal_split_array(n, total_rate_rps)


def split_rates_array(
    policy_name: str,
    pool: PoolArrays,
    total_rate_rps: float,
    *,
    weights: np.ndarray | None = None,
    background_rps: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch to the vectorized fluid split of the named policy."""
    if pool.size == 0:
        raise ConfigurationError("no healthy DIPs")
    if policy_name not in LOAD_DEPENDENT_POLICIES:
        return static_split_array(policy_name, pool.size, total_rate_rps, weights)
    if policy_name == "lc":
        return least_connection_split_array(
            pool, total_rate_rps, background_rps=background_rps
        )
    if policy_name == "wlc":
        return least_connection_split_array(
            pool, total_rate_rps, weights=weights, background_rps=background_rps
        )
    if policy_name == "p2":
        return power_of_two_split_array(
            pool, total_rate_rps, background_rps=background_rps
        )
    raise ConfigurationError(f"no fluid model for policy {policy_name!r}")


# ---------------------------------------------------------------------------
# dict-based wrappers (the original public API)
# ---------------------------------------------------------------------------


def equal_split(dips: Sequence[DipId], total_rate_rps: float) -> dict[DipId, float]:
    """Equal division of the arrival rate across DIPs."""
    if not dips:
        return {}
    share = total_rate_rps / len(dips)
    return {dip: share for dip in dips}


def weighted_split(
    weights: Mapping[DipId, float], total_rate_rps: float
) -> dict[DipId, float]:
    """Division proportional to (non-negative) weights."""
    ids = list(weights)
    rates = weighted_split_array(
        np.array([weights[d] for d in ids], dtype=np.float64), total_rate_rps
    )
    return {dip: float(r) for dip, r in zip(ids, rates)}


def least_connection_split(
    dips: Mapping[DipId, DipServer],
    total_rate_rps: float,
    *,
    weights: Mapping[DipId, float] | None = None,
    iterations: int = 200,
    damping: float = 0.5,
) -> dict[DipId, float]:
    """The fluid equilibrium of (weighted) least-connection selection."""
    if not dips:
        return {}
    pool = pool_arrays(dips)
    weight_vec = (
        None
        if weights is None
        else np.array([weights.get(d, 1.0) for d in pool.ids])
    )
    rates = least_connection_split_array(
        pool,
        total_rate_rps,
        weights=weight_vec,
        iterations=iterations,
        damping=damping,
    )
    return {dip: float(r) for dip, r in zip(pool.ids, rates)}


def power_of_two_split(
    dips: Mapping[DipId, DipServer],
    total_rate_rps: float,
    *,
    iterations: int = 100,
    damping: float = 0.5,
) -> dict[DipId, float]:
    """Fluid approximation of power-of-two-choices on CPU utilization."""
    if not dips:
        return {}
    pool = pool_arrays(dips)
    rates = power_of_two_split_array(
        pool, total_rate_rps, iterations=iterations, damping=damping
    )
    return {dip: float(r) for dip, r in zip(pool.ids, rates)}


def split_for_policy(
    policy_name: str,
    dips: Mapping[DipId, DipServer],
    total_rate_rps: float,
    *,
    weights: Mapping[DipId, float] | None = None,
) -> dict[DipId, float]:
    """Dispatch to the fluid split of the named policy."""
    healthy = {d: s for d, s in dips.items() if not s.failed}
    if not healthy:
        raise ConfigurationError("no healthy DIPs")
    pool = pool_arrays(healthy)
    weight_vec = (
        None
        if weights is None
        else np.array([weights.get(d, 0.0) for d in pool.ids], dtype=np.float64)
    )
    rates = split_rates_array(
        policy_name, pool, total_rate_rps, weights=weight_vec
    )
    return {dip: float(r) for dip, r in zip(pool.ids, rates)}


# ---------------------------------------------------------------------------
# single-VIP cluster (a one-VIP fleet)
# ---------------------------------------------------------------------------


@dataclass
class FluidClusterState:
    """A snapshot of the fluid cluster after applying a split."""

    time: float
    rates_rps: dict[DipId, float]
    utilization: dict[DipId, float]
    mean_latency_ms: dict[DipId, float]

    def overall_mean_latency_ms(self) -> float:
        """Request-weighted mean latency across DIPs."""
        total_rate = left_to_right_sum(self.rates_rps.values())
        if total_rate <= 0:
            return float("nan")
        return left_to_right_sum(
            self.rates_rps[d] * self.mean_latency_ms[d] for d in self.rates_rps
        ) / total_rate

    def dip_summaries(self) -> dict[DipId, dict[str, float]]:
        """Per-DIP {rate, utilization, latency} rows (result-artifact shape)."""
        return {
            dip: {
                "rate_rps": self.rates_rps[dip],
                "utilization": self.utilization[dip],
                "mean_latency_ms": self.mean_latency_ms[dip],
            }
            for dip in sorted(self.rates_rps)
        }


@dataclass
class FluidCluster:
    """A VIP's DIP pool driven by aggregate request rates.

    The KnapsackLB controller interacts with this cluster exactly as it
    would with a real deployment: it programs weights on the (simulated) LB
    and reads latencies through KLM probes; it never touches the DIPs.

    Internally this is a one-VIP :class:`repro.sim.fleet.Fleet` — the
    multi-VIP substrate with a single tenant.
    """

    dips: dict[DipId, DipServer]
    total_rate_rps: float
    policy_name: str = "wrr"
    weights: dict[DipId, float] = field(default_factory=dict)
    time: float = 0.0

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
        #: the spec runners and the timeline stepper drive it directly.
        self.fleet = Fleet(dips=self.dips, start_time=self.time)
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
        if factor < 0:
            raise ConfigurationError("factor must be >= 0")
        self.set_total_rate(self.total_rate_rps * factor)

    def fail_dip(self, dip: DipId) -> None:
        self.fleet.fail_dip(dip)

    def recover_dip(self, dip: DipId) -> None:
        self.fleet.recover_dip(dip)

    def set_capacity_ratio(self, dip: DipId, ratio: float) -> None:
        self.fleet.set_capacity_ratio(dip, ratio)

    def set_antagonist_copies(self, dip: DipId, copies: int) -> None:
        self.fleet.set_antagonist_copies(dip, copies)

    # -- dynamics ----------------------------------------------------------------

    def apply(self) -> FluidClusterState:
        """Recompute the per-DIP rates from the current weights and traffic."""
        self.fleet.apply()
        return self.state()

    def advance(self, duration_s: float) -> FluidClusterState:
        """Advance simulated time (loads are steady in the fluid model)."""
        self.fleet.advance(duration_s)
        self.time = self.fleet.time
        return self.state()

    # -- observation ---------------------------------------------------------------

    def state(self) -> FluidClusterState:
        rates = {d: s.offered_rate_rps for d, s in self.dips.items()}
        return FluidClusterState(
            time=self.time,
            rates_rps=rates,
            utilization={d: s.cpu_utilization for d, s in self.dips.items()},
            mean_latency_ms={
                d: (float("inf") if s.failed else s.mean_latency_ms)
                for d, s in self.dips.items()
            },
        )

    @property
    def total_capacity_rps(self) -> float:
        return left_to_right_sum(s.capacity_rps for s in self.dips.values() if not s.failed)

    def healthy_dip_ids(self) -> tuple[DipId, ...]:
        return tuple(d for d, s in self.dips.items() if not s.failed)
