"""Fig. 5: latency and CPU utilization as the weight (traffic) grows.

Application latency rises with the weight while ICMP/TCP ping latency stays
flat — the observation that justifies using application-level probes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends import DipServer, custom_vm_type


@dataclass(frozen=True)
class WeightSweepPoint:
    """One x-position of Fig. 5 (traffic multiplier 1×..8×)."""

    multiplier: int
    cpu_utilization: float
    app_latency_ms: float
    ping_latency_ms: float
    tcp_latency_ms: float


def run_weight_sweep(
    *,
    steps: int = 8,
    base_rate_fraction: float = 0.12,
    capacity_rps: float = 800.0,
    cores: int = 2,
    seed: int = 3,
) -> list[WeightSweepPoint]:
    """Sweep the offered traffic from 1× to ``steps``× of a base rate.

    The base rate is ``base_rate_fraction`` of the DIP's capacity, so 8×
    lands just below saturation as in the paper's figure.
    """
    vm = custom_vm_type("fig5-vm", vcpus=cores, capacity_rps=capacity_rps)
    dip = DipServer("fig5-dip", vm, seed=seed, jitter_fraction=0.0)
    base_rate = capacity_rps * base_rate_fraction

    points: list[WeightSweepPoint] = []
    model = dip.latency_model
    for multiplier in range(1, steps + 1):
        rate = base_rate * multiplier
        points.append(
            WeightSweepPoint(
                multiplier=multiplier,
                cpu_utilization=min(1.0, model.utilization(rate)) * 100.0,
                app_latency_ms=model.mean_latency_ms(rate, scv_correction=dip.scv_correction),
                ping_latency_ms=model.ping_latency_ms(rate),
                tcp_latency_ms=model.ping_latency_ms(rate) * 1.1,
            )
        )
    return points
