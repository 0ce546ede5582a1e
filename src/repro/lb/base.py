"""Base classes for layer-4 load-balancing policies.

A :class:`Policy` decides which DIP receives a new connection.  Policies are
deliberately minimal — exactly the per-connection decision a MUX makes in
the paper's Fig. 1 — and are driven either by the request-level simulator
(`repro.sim`) or directly by tests.

Weighted policies additionally expose ``set_weights``; this is the interface
KnapsackLB programs (§3.2 "Using weights to control traffic").
"""

from __future__ import annotations

import abc
import importlib
import inspect
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Container, Iterable, Mapping, Sequence

import numpy as np

from repro.core.types import DipId
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class FlowKey:
    """The TCP/IP 5-tuple identifying a connection (used by hash policies)."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str = "tcp"

    def as_tuple(self) -> tuple[str, int, str, int, str]:
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol)


@dataclass
class DipView:
    """What a MUX can observe about a DIP when making a decision.

    ``active_connections`` is maintained by the MUX itself (least-connection
    policies); ``cpu_utilization`` is only available to policies that the
    paper describes as using it (power-of-two in §6.2 compares CPU of two
    sampled DIPs).
    """

    dip: DipId
    weight: float = 1.0
    active_connections: int = 0
    cpu_utilization: float = 0.0
    healthy: bool = True


def effective_weights(weights: np.ndarray) -> np.ndarray:
    """The weights a weighted pick acts on: negatives clip to zero, and a
    vector that leaves nothing positive means a uniform split.

    The one statement of the rule; every weight-programmed pick — ``wrr``,
    ``wrandom`` and the ``dns`` resolver here, their three epoch routers in
    :mod:`repro.parallel.epoch` — takes its weights through it.
    """
    clipped = np.maximum(weights, 0.0)
    if clipped.any():
        return clipped
    return np.ones(clipped.size)


def pick_cdf(weights: np.ndarray) -> np.ndarray:
    """CDF over ``effective_weights(weights)`` for one-uniform-draw picks.

    ``cdf.searchsorted(rng.random(), side="right")`` is then the index
    ``rng.choice(n, p=w / w.sum())`` returns, draw for draw: this is the
    normalisation ``Generator.choice`` applies underneath (the differential
    test in ``tests/property`` holds the two together across numpy releases).
    """
    w = effective_weights(weights)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def validated_weights(
    weights: Mapping[DipId, float], known: Container[DipId]
) -> dict[DipId, float]:
    """``weights`` as floats, or :class:`ConfigurationError` before anything
    is applied: every id must be in ``known`` and no weight negative."""
    checked: dict[DipId, float] = {}
    for dip, weight in weights.items():
        if dip not in known:
            raise ConfigurationError(f"unknown DIP {dip!r}")
        if weight < 0:
            raise ConfigurationError(f"negative weight for {dip!r}")
        checked[dip] = float(weight)
    return checked


@dataclass(frozen=True)
class FluidSplit:
    """How the fluid model (:class:`repro.sim.fleet.Fleet`) divides a VIP's
    rate over its healthy DIPs.

    Without a ``fixed_point`` the split is load-independent: equal, or in
    proportion to the programmed weights when ``weighted``.  Otherwise it
    is the policy's equilibrium, ``fixed_point(law, total_rate_rps,
    background_rps=)`` over the DIPs' law rows (see :mod:`repro.kernels`)
    and the load other VIPs put on them, passed ``weights=`` too when
    ``weighted``.
    """

    weighted: bool = False
    fixed_point: Callable[..., np.ndarray] | None = None


EQUAL_SPLIT = FluidSplit()
WEIGHTED_SPLIT = FluidSplit(weighted=True)


class Policy(abc.ABC):
    """A DIP-selection policy running on a MUX."""

    #: human-readable policy name used in experiment tables.
    name: str = "policy"
    #: whether :meth:`set_weights` has any effect.
    supports_weights: bool = False
    #: whether :meth:`select` inspects the flow 5-tuple.  Policies that
    #: ignore it (round robin, least connection, …) let the request
    #: simulator skip building a FlowKey per request on the hot path.
    uses_flow: bool = True
    #: whether :meth:`select` reads ``active_connections``.  When a policy
    #: never looks at connection counts (round robin, hash, random, DNS),
    #: the simulator skips the per-request open/close bookkeeping.
    uses_connection_counts: bool = True
    #: whether a run's picks are a function of the arrival index and the
    #: flow alone: nothing :meth:`select` reads — connection counts,
    #: utilization, the clock — is moved by the requests in flight.  Only
    #: then may the request simulator take every pick up front
    #: (:meth:`select_many`) and replay each DIP's sub-stream instead of
    #: simulating events; a policy that does not say so stays event-driven.
    replayable: bool = False
    #: the policy's split in the fluid model; ``None``: it has none.
    fluid_split: FluidSplit | None = None

    def __init__(self, dips: Iterable[DipId]) -> None:
        dip_list = list(dips)
        if not dip_list:
            raise ConfigurationError("a policy needs at least one DIP")
        if len(set(dip_list)) != len(dip_list):
            raise ConfigurationError("duplicate DIP ids")
        self._views: dict[DipId, DipView] = {
            dip: DipView(dip=dip) for dip in dip_list
        }
        # select() runs once per simulated request, so nothing on it
        # recomputes what only a pool, health or weight change can move:
        # the healthy tuple, the candidate views, and ``_plan`` — whatever
        # a weight-programmed policy derives from the candidates and their
        # weights (ids, effective weights, a total or a CDF).  All three
        # are built lazily and dropped together by the three calls that can
        # change them: add_dip, set_healthy, set_weights.
        self._healthy_cache: tuple[DipId, ...] | None = None
        self._candidates_cache: list[DipView] | None = None
        self._plan: Any = None

    # -- DIP pool management -------------------------------------------------

    def _drop_plan(self) -> None:
        self._healthy_cache = None
        self._candidates_cache = None
        self._plan = None

    @property
    def dips(self) -> tuple[DipId, ...]:
        return tuple(self._views)

    @property
    def healthy_dips(self) -> tuple[DipId, ...]:
        cached = self._healthy_cache
        if cached is None:
            cached = tuple(d for d, v in self._views.items() if v.healthy)
            self._healthy_cache = cached
        return cached

    def view(self, dip: DipId) -> DipView:
        return self._views[dip]

    def add_dip(self, dip: DipId, *, weight: float = 1.0) -> None:
        if dip in self._views:
            raise ConfigurationError(f"DIP {dip!r} already present")
        if weight < 0:
            raise ConfigurationError(f"negative weight for {dip!r}")
        self._views[dip] = DipView(dip=dip, weight=float(weight))
        self._drop_plan()

    def set_healthy(self, dip: DipId, healthy: bool) -> None:
        self._require(dip)
        self._views[dip].healthy = healthy
        self._drop_plan()

    def _require(self, dip: DipId) -> None:
        """Pool edits name a DIP of the pool, as ``set_weights`` insists."""
        if dip not in self._views:
            raise ConfigurationError(f"unknown DIP {dip!r}")

    # -- weights --------------------------------------------------------------

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        """Program per-DIP weights; ignored by unweighted policies.

        All or nothing: an unknown id or a negative weight anywhere in the
        mapping raises before any DIP is re-weighted.
        """
        for dip, weight in validated_weights(weights, self._views).items():
            self._views[dip].weight = weight
        self._drop_plan()
        self._on_weights_changed()

    def weights(self) -> dict[DipId, float]:
        return {dip: view.weight for dip, view in self._views.items()}

    def _on_weights_changed(self) -> None:
        """Hook for policies that precompute schedules from weights."""

    # -- connection lifecycle --------------------------------------------------

    @abc.abstractmethod
    def select(self, flow: FlowKey) -> DipId:
        """Choose the DIP for a new connection."""

    def select_many(
        self, count: int, flows: Iterable[FlowKey] | None = None
    ) -> np.ndarray:
        """``count`` consecutive picks, as int32 positions in :attr:`dips`.

        The picks ``count`` calls of :meth:`select` return (on ``flows`` in
        order, or on ``None``), leaving cursor, scores and generator where
        those calls leave them — this default *is* that loop.  A subclass
        overrides it only where the law is arithmetic on the pick index.
        """
        select = self.select
        if flows is None:
            flows = itertools.repeat(None)
        return self._positions(
            select(flow) for flow in itertools.islice(flows, count)
        )

    def on_connection_open(self, dip: DipId) -> None:
        self._views[dip].active_connections += 1

    def on_connection_close(self, dip: DipId) -> None:
        view = self._views[dip]
        view.active_connections = max(0, view.active_connections - 1)

    def observe_utilization(self, utilization: Mapping[DipId, float]) -> None:
        """Update CPU-utilization views (used only by CPU-aware policies)."""
        for dip, util in utilization.items():
            if dip in self._views:
                self._views[dip].cpu_utilization = float(util)

    # -- helpers ---------------------------------------------------------------

    def _candidates(self) -> list[DipView]:
        views = self._candidates_cache
        if views is None:
            views = [v for v in self._views.values() if v.healthy]
            self._candidates_cache = views
        if not views:
            raise ConfigurationError("no healthy DIPs available")
        return views

    def _candidate_weights(self) -> tuple[tuple[DipId, ...], np.ndarray]:
        """Healthy DIP ids in pool order and their programmed weights — what
        a weight plan is built from."""
        weights = np.array([v.weight for v in self._candidates()], dtype=float)
        return self.healthy_dips, weights

    def _positions(self, dips: Iterable[DipId]) -> np.ndarray:
        """Positions in :attr:`dips` of the given ids, as int32."""
        position = {dip: index for index, dip in enumerate(self._views)}
        return np.fromiter((position[dip] for dip in dips), dtype=np.int32)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dips={len(self._views)})"


@dataclass
class PolicyDescription:
    """Registry entry describing a policy implementation."""

    name: str
    factory: type
    weighted: bool
    summary: str = ""


_REGISTRY: dict[str, PolicyDescription] = {}

#: Built-in policy name -> the ``repro.lb`` module that registers it, so a
#: name is known without importing any policy and resolves by importing its
#: own module alone.
BUILTIN_POLICIES: dict[str, str] = {
    "rr": "round_robin",
    "wrr": "round_robin",
    "lc": "least_connection",
    "wlc": "least_connection",
    "random": "random_lb",
    "wrandom": "random_lb",
    "p2": "power_of_two",
    "hash": "hash_lb",
    "dns": "dns_lb",
}


def register_policy(name: str, factory: type, *, weighted: bool, summary: str = "") -> None:
    """Register a policy class under ``name`` for lookup by experiments."""
    _REGISTRY[name] = PolicyDescription(
        name=name, factory=factory, weighted=weighted, summary=summary
    )


def policy_names() -> list[str]:
    """Every policy name a spec may use, sorted; imports no policy."""
    return sorted(set(BUILTIN_POLICIES) | set(_REGISTRY))


def policy_description(name: str) -> PolicyDescription:
    """The registry entry of ``name``, importing only the module it lives in."""
    if name not in _REGISTRY and name in BUILTIN_POLICIES:
        importlib.import_module(f"repro.lb.{BUILTIN_POLICIES[name]}")
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; known: {policy_names()}"
        ) from None


def policy_registry() -> dict[str, PolicyDescription]:
    """Every registered policy, the built-ins imported first."""
    for module in dict.fromkeys(BUILTIN_POLICIES.values()):
        importlib.import_module(f"repro.lb.{module}")
    return dict(_REGISTRY)


def make_policy(name: str, dips: Sequence[DipId], **kwargs) -> Policy:
    """Instantiate a registered policy by name."""
    return policy_description(name).factory(dips, **kwargs)


def policy_seed_kwargs(name: str, *, seed: int | None = 0) -> dict[str, int | None]:
    """``{"seed": seed}`` when ``name``'s constructor accepts one, else ``{}``
    (``None`` seeds from the OS, as the constructor does).

    Derived from the registered factory's signature rather than a
    hard-coded name list, so newly registered stochastic policies seed
    correctly everywhere policies are instantiated from a spec (the
    request runner, the shard planner's throwaway probes).
    """
    parameters = inspect.signature(policy_description(name).factory.__init__).parameters
    if "seed" in parameters:
        return {"seed": None if seed is None else int(seed)}
    return {}
