"""Layer-4 load balancer substrate.

Per-connection DIP-selection policies (round robin, least connection,
random, power-of-two, 5-tuple hash, weighted DNS), facades that mimic the
management interfaces of HAProxy / Nginx / Azure LB / Azure Traffic Manager,
and a MUX pool for scaled-out dataplanes.  A policy registers itself when
its module loads; :func:`make_policy` imports only the module of the name it
is asked for (:data:`~repro.lb.base.BUILTIN_POLICIES`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.lb.base": (
            "DipView",
            "FlowKey",
            "Policy",
            "PolicyDescription",
            "make_policy",
            "policy_registry",
            "policy_seed_kwargs",
            "register_policy",
        ),
        "repro.lb.dns_lb": ("DnsWeightedPolicy", "WeightedDnsResolver"),
        "repro.lb.facades": (
            "AzureLBSim",
            "AzureTrafficManagerSim",
            "HAProxySim",
            "NginxSim",
            "WeightedLBFacade",
        ),
        "repro.lb.hash_lb": ("FiveTupleHash", "stable_hash"),
        "repro.lb.least_connection": ("LeastConnection", "WeightedLeastConnection"),
        "repro.lb.mux": ("MuxPool",),
        "repro.lb.power_of_two": ("PowerOfTwo",),
        "repro.lb.random_lb": ("RandomSelect", "WeightedRandom"),
        "repro.lb.round_robin": ("RoundRobin", "WeightedRoundRobin"),
    },
)
