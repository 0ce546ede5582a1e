"""Facades mimicking the management interfaces of real load balancers.

KnapsackLB is a *meta* LB: it never touches packets, it only programs
per-DIP weights through whatever interface the operator's LB exposes.  These
facades reproduce the three kinds of interfaces the paper exercises:

* :class:`HAProxySim` and :class:`NginxSim` — LBs with a native weight
  interface and a choice of balancing algorithm;
* :class:`AzureLBSim` — an LB with *no* weight interface (5-tuple hash only);
* :class:`AzureTrafficManagerSim` — weighted DNS used as the fallback when
  the LB itself cannot be programmed (§6.5).

Every facade exposes ``policy`` (the per-connection selection logic the
simulator drives) plus the weight-programming calls styled after the real
systems' configuration surfaces.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.lb.base import Policy, make_policy, policy_seed_kwargs
from repro.lb.dns_lb import DnsWeightedPolicy
from repro.lb.hash_lb import FiveTupleHash


class WeightedLBFacade:
    """Common behaviour of LBs with a weight-programming interface."""

    #: algorithms the facade accepts, mapped to registered policy names.
    algorithms: dict[str, str] = {}
    default_algorithm: str = ""
    vendor: str = "generic"

    def __init__(
        self,
        dips: Iterable[DipId],
        *,
        algorithm: str | None = None,
        seed: int | None = None,
    ) -> None:
        self._dips = list(dips)
        algorithm = algorithm or self.default_algorithm
        if algorithm not in self.algorithms:
            raise ConfigurationError(
                f"{self.vendor} does not support algorithm {algorithm!r}; "
                f"available: {sorted(self.algorithms)}"
            )
        self.algorithm = algorithm
        policy_name = self.algorithms[algorithm]
        self.policy: Policy = make_policy(
            policy_name, self._dips, **policy_seed_kwargs(policy_name, seed=seed)
        )

    @property
    def supports_weights(self) -> bool:
        return self.policy.supports_weights

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        """Program all server weights at once (what KnapsackLB calls)."""
        if not self.supports_weights:
            raise ConfigurationError(
                f"{self.vendor} algorithm {self.algorithm!r} ignores weights; "
                "use a weighted algorithm or a DNS traffic manager"
            )
        self.policy.set_weights(weights)

    def weights(self) -> dict[DipId, float]:
        return self.policy.weights()


class HAProxySim(WeightedLBFacade):
    """HAProxy with the algorithms the paper evaluates (§2.1, §6.2)."""

    vendor = "haproxy"
    default_algorithm = "roundrobin"
    algorithms = {
        "roundrobin": "rr",
        "static-rr": "rr",
        "leastconn": "lc",
        "weighted-roundrobin": "wrr",
        "weighted-leastconn": "wlc",
        "random": "random",
        "weighted-random": "wrandom",
        "power-of-two": "p2",
    }


class NginxSim(WeightedLBFacade):
    """Nginx stream (L4) load balancing with server weights (§6.5)."""

    vendor = "nginx"
    default_algorithm = "weighted-roundrobin"
    algorithms = {
        "roundrobin": "rr",
        "weighted-roundrobin": "wrr",
        "least_conn": "lc",
        "weighted-least_conn": "wlc",
        "random": "random",
        "random-two": "p2",
    }


class AzureLBSim:
    """Azure public L4 LB: 5-tuple hash only, no weight interface (§2.1)."""

    vendor = "azure-lb"

    def __init__(self, dips: Iterable[DipId]) -> None:
        self.policy: Policy = FiveTupleHash(list(dips))

    @property
    def supports_weights(self) -> bool:
        return False

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        raise ConfigurationError(
            "Azure L4 LB provides no weight interface; use "
            "AzureTrafficManagerSim (DNS) as the programmable layer"
        )


class AzureTrafficManagerSim:
    """Azure Traffic Manager: weighted DNS answers with client-side caching."""

    vendor = "azure-tm"

    def __init__(
        self,
        dips: Iterable[DipId],
        *,
        cache_ttl_s: float = 30.0,
        seed: int | None = None,
    ) -> None:
        self.policy: DnsWeightedPolicy = DnsWeightedPolicy(
            list(dips), cache_ttl_s=cache_ttl_s, seed=seed
        )

    @property
    def supports_weights(self) -> bool:
        return True

    def set_weights(self, weights: Mapping[DipId, float]) -> None:
        self.policy.set_weights(weights)

    def weights(self) -> dict[DipId, float]:
        return self.policy.weights()
