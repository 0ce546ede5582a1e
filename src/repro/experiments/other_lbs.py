"""Table 5 (Nginx / Azure Traffic Manager) and the §6.4 agent baseline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents import CpuAgentBalancer
from repro.backends import DipServer, custom_vm_type
from repro.core.types import DipId
from repro.experiments.klb_testbed import _converge_vip
from repro.lb import AzureTrafficManagerSim, NginxSim
from repro.sim import RequestCluster, one_vip_fleet

TABLE5_WEIGHTS = {"DIP-1": 0.2, "DIP-2": 0.3, "DIP-3": 0.5}


@dataclass(frozen=True)
class OtherLbResult:
    """Table 5: request share per DIP when weights 0.2/0.3/0.5 are programmed."""

    nginx_share: dict[DipId, float]
    traffic_manager_share: dict[DipId, float]


def run_other_lb_weights(
    *,
    requests: int = 10_000,
    rate_rps: float = 600.0,
    dns_cache_ttl_s: float = 10.0,
    num_clients: int = 200,
    seed: int = 37,
) -> OtherLbResult:
    """Program 0.2/0.3/0.5 through Nginx and DNS and measure the split.

    DNS-based balancing only approximates the weights when there are enough
    distinct clients (each client caches one resolution for the TTL), so the
    client pool here is larger than the 8-VM default.
    """
    from repro.sim import ClientPool

    vm = custom_vm_type("t5", vcpus=2, capacity_rps=800.0)
    clients = ClientPool(num_clients=num_clients)

    def pool():
        return {
            dip: DipServer(dip, vm, seed=seed + index, jitter_fraction=0.0)
            for index, dip in enumerate(TABLE5_WEIGHTS)
        }

    nginx = NginxSim(list(TABLE5_WEIGHTS), algorithm="weighted-roundrobin")
    nginx.set_weights(TABLE5_WEIGHTS)
    nginx_cluster = RequestCluster(
        pool(), nginx.policy, rate_rps=rate_rps, seed=seed, clients=clients
    )
    nginx_cluster.run(num_requests=requests)

    tm = AzureTrafficManagerSim(list(TABLE5_WEIGHTS), cache_ttl_s=dns_cache_ttl_s, seed=seed)
    tm.set_weights(TABLE5_WEIGHTS)
    tm_cluster = RequestCluster(
        pool(), tm.policy, rate_rps=rate_rps, seed=seed, clients=clients
    )
    tm_cluster.run(num_requests=requests)

    return OtherLbResult(
        nginx_share=nginx_cluster.request_share(),
        traffic_manager_share=tm_cluster.request_share(),
    )


@dataclass(frozen=True)
class AgentBaselineResult:
    """§6.4: iterations needed by the CPU-agent baseline vs KnapsackLB."""

    agent_iterations: int
    agent_final_spread: float
    klb_ilp_runs: int
    klb_utilization_spread: float


def run_agent_baseline(
    *,
    capacity_ratio: float = 0.75,
    load_fraction: float = 0.7,
    seed: int = 41,
) -> AgentBaselineResult:
    """Compare the agent-based CPU equaliser against KnapsackLB on 4 DIPs.

    One of the four same-type DIPs runs at 75 % capacity (§6.4).
    """
    def pool():
        vm = custom_vm_type("agent-vm", vcpus=2, capacity_rps=800.0)
        dips = {
            f"DIP-{i}": DipServer(f"DIP-{i}", vm, seed=seed + i, jitter_fraction=0.0)
            for i in range(1, 5)
        }
        dips["DIP-4"].set_capacity_ratio(capacity_ratio)
        return dips

    rate = sum(d.capacity_rps for d in pool().values()) * load_fraction

    balancer = CpuAgentBalancer(one_vip_fleet(pool(), rate), tolerance=0.02)
    balancer.run()

    klb_fleet = one_vip_fleet(pool(), rate)
    controller = _converge_vip(klb_fleet).controllers["vip"]
    utils = klb_fleet.state().utilization
    return AgentBaselineResult(
        agent_iterations=balancer.iterations_to_converge,
        agent_final_spread=balancer.history[-1].spread,
        klb_ilp_runs=controller.ilp_runs,
        klb_utilization_spread=max(utils.values()) - min(utils.values()),
    )
