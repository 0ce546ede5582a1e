"""Catalogue of VM types used in the paper's evaluation (Table 3, §6.7).

Capacities are expressed in requests per second for the paper's
cache-intensive web-server workload.  Absolute values are synthetic (we do
not have the authors' Azure testbed) but the *relationships* the paper
relies on are preserved:

* capacity grows with vCPU count, slightly sub-linearly for the larger
  DS-series VMs (the paper notes the 4-core DS VM "did not scale linearly");
* F-series VMs are 15-20 % faster than the DS VM with the same core count
  (§2.2, §6), well short of the advertised 2×;
* the idle (unloaded) request latency is lower on F-series VMs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class VMType:
    """A cloud VM SKU as seen by the DIP model."""

    name: str
    series: str
    vcpus: int
    #: sustainable request throughput (requests/second) for the evaluation
    #: workload when no antagonist is running.
    base_capacity_rps: float
    #: mean service latency at (near-)zero load, milliseconds.
    idle_latency_ms: float
    #: monthly price in USD, used only by the §6.7 overhead model.
    monthly_cost_usd: float = 0.0

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise ConfigurationError("vcpus must be >= 1")
        if self.base_capacity_rps <= 0:
            raise ConfigurationError("base_capacity_rps must be positive")
        if self.idle_latency_ms <= 0:
            raise ConfigurationError("idle_latency_ms must be positive")


#: Per-core capacity of the baseline DS series, requests/second.
_DS_PER_CORE_RPS = 400.0
#: F-series speedup over DS at equal core count (paper: 15-20 %).
_F_SERIES_SPEEDUP = 1.18
#: Scaling efficiency of multi-core DS VMs (sub-linear, per the paper).
_DS_SCALING = {1: 1.00, 2: 0.97, 4: 0.88, 8: 0.82}


def _ds_capacity(vcpus: int) -> float:
    efficiency = _DS_SCALING.get(vcpus, 0.80)
    return _DS_PER_CORE_RPS * vcpus * efficiency


def _idle_latency_ms(vcpus: int, capacity_rps: float) -> float:
    """Mean per-request service time, keeping capacity = vcpus / service_time."""
    return 1000.0 * vcpus / capacity_rps


def _vm(name: str, series: str, vcpus: int, capacity: float, cost: float) -> VMType:
    return VMType(
        name=name,
        series=series,
        vcpus=vcpus,
        base_capacity_rps=capacity,
        idle_latency_ms=_idle_latency_ms(vcpus, capacity),
        monthly_cost_usd=cost,
    )


DS1_V2 = _vm("DS1v2", "DS", 1, _ds_capacity(1), 41.0)
DS2_V2 = _vm("DS2v2", "DS", 2, _ds_capacity(2), 85.0)
DS3_V2 = _vm("DS3v2", "DS", 4, _ds_capacity(4), 167.0)
DS4_V2 = _vm("DS4v2", "DS", 8, _ds_capacity(8), 335.0)
F8S_V2 = _vm("F8sv2", "F", 8, _ds_capacity(8) * _F_SERIES_SPEEDUP, 270.0)
F2S_V2 = _vm("F2sv2", "F", 2, _ds_capacity(2) * _F_SERIES_SPEEDUP, 68.0)
D8A_V4 = _vm("D8av4", "D", 8, _ds_capacity(8), 280.0)

def custom_vm_type(
    name: str,
    *,
    vcpus: int,
    capacity_rps: float,
    idle_latency_ms: float | None = None,
    series: str = "custom",
    monthly_cost_usd: float = 0.0,
) -> VMType:
    """Create an ad-hoc VM type (used by tests and small scenarios).

    When ``idle_latency_ms`` is omitted it defaults to the M/M/c-consistent
    value ``1000 · vcpus / capacity_rps``, which keeps the analytic latency
    model and the request-level simulator in agreement.
    """
    if idle_latency_ms is None:
        idle_latency_ms = _idle_latency_ms(vcpus, capacity_rps)
    return VMType(
        name=name,
        series=series,
        vcpus=vcpus,
        base_capacity_rps=capacity_rps,
        idle_latency_ms=idle_latency_ms,
        monthly_cost_usd=monthly_cost_usd,
    )
