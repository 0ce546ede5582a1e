"""Table 8 + §6.7: KnapsackLB's overhead at datacenter scale.

The overhead model follows the paper's accounting: KLM probe cores, latency
store footprint and controller cores (regression + ILP), normalised against
a 60 K-DIP datacenter whose DIPs run on 8-core VMs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends import D8A_V4, DS1_V2
from repro.core.config import IlpConfig
from repro.experiments.ilp_scale import f_series_like_curve
from repro.core.ilp import build_assignment_problem, solve_assignment
from repro.probing.klm import KLM_REQUESTS_PER_SECOND_PER_CORE
from repro.workloads import table8_vip_counts

#: Paper constants (§6.7).
REGRESSION_MS_PER_DIP = 1.0
REDIS_COST_PER_DAY_USD = 6.0
BYTES_PER_LATENCY_POINT = 64
POINTS_PER_DIP = 10


@dataclass(frozen=True)
class OverheadReport:
    """The §6.7 overhead accounting for a Table 8 datacenter."""

    total_dips: int
    total_vips: int
    klm_cores: float
    klm_core_overhead_percent: float
    klm_cost_overhead_percent: float
    store_megabytes: float
    regression_cores: float
    controller_ilp_time_s: float
    controller_vms: float
    controller_core_overhead_percent: float
    measured_ilp_time_per_vip_s: dict[int, float]
    #: the backend that solved the measured ILPs (what ``backend`` resolved to).
    ilp_backend: str


def run_overhead_model(
    *,
    probe_interval_s: float = 5.0,
    requests_per_probe: int = 100,
    control_interval_s: float = 5.0,
    controller_cores: int = 8,
    max_measured_vip_size: int = 500,
    backend: str = "auto",
) -> OverheadReport:
    """Compute the overhead numbers, measuring real ILP times per VIP size.

    ``backend`` stays ``"auto"``: unlike the solver-scaling drivers in
    :mod:`repro.experiments.ilp_scale`, this reports what *this* controller
    costs, so it times the backend the controller would use.

    For VIP sizes up to ``max_measured_vip_size`` the ILP time is measured
    with the actual solver; the largest class (1000 DIPs/VIP) is
    extrapolated quadratically from the measured points to keep the bench
    quick (Table 6 measures it directly).
    """
    vip_mix = table8_vip_counts()
    total_dips = sum(size * count for size, count in vip_mix.items())
    total_vips = sum(vip_mix.values())

    # --- KLM ------------------------------------------------------------------
    probes_per_dip_per_s = requests_per_probe / probe_interval_s
    dips_per_core = KLM_REQUESTS_PER_SECOND_PER_CORE / probes_per_dip_per_s
    klm_cores = 0.0
    for size, count in vip_mix.items():
        # One KLM per VNET/VIP (it cannot be shared across VNETs); each KLM
        # needs at least one core.
        cores_per_vip = max(1.0, size / dips_per_core)
        klm_cores += cores_per_vip * count
    dip_cores = total_dips * D8A_V4.vcpus
    klm_core_overhead = klm_cores / dip_cores * 100.0
    dip_cost = total_dips * D8A_V4.monthly_cost_usd
    klm_cost = klm_cores * DS1_V2.monthly_cost_usd
    klm_cost_overhead = klm_cost / dip_cost * 100.0

    # --- latency store ----------------------------------------------------------
    store_bytes = total_dips * POINTS_PER_DIP * BYTES_PER_LATENCY_POINT
    store_megabytes = store_bytes / (1024 * 1024)

    # --- controller: regression -------------------------------------------------
    regression_cores = (total_dips * REGRESSION_MS_PER_DIP / 1000.0) / control_interval_s

    # --- controller: ILP ---------------------------------------------------------
    config = IlpConfig(backend=backend)
    measured: dict[int, float] = {}
    for size in sorted(vip_mix):
        if size > max_measured_vip_size:
            continue
        curve = f_series_like_curve(size)
        curves = {f"d{i}": curve for i in range(size)}
        problem = build_assignment_problem(curves, config=config)
        outcome = solve_assignment("overhead", problem, config=config)
        measured[size] = outcome.solver_result.solve_time_s
        ilp_backend = outcome.solver_result.backend

    total_ilp_time = 0.0
    largest_measured = max(measured)
    for size, count in vip_mix.items():
        if size in measured:
            per_vip = measured[size]
        else:
            # Quadratic extrapolation from the largest measured VIP size.
            per_vip = measured[largest_measured] * (size / largest_measured) ** 2
        total_ilp_time += per_vip * count

    controller_vms = max(1.0, total_ilp_time / control_interval_s)
    controller_cores = controller_vms * controller_cores
    controller_core_overhead = (controller_cores + regression_cores) / dip_cores * 100.0

    return OverheadReport(
        total_dips=total_dips,
        total_vips=total_vips,
        klm_cores=klm_cores,
        klm_core_overhead_percent=klm_core_overhead,
        klm_cost_overhead_percent=klm_cost_overhead,
        store_megabytes=store_megabytes,
        regression_cores=regression_cores,
        controller_ilp_time_s=total_ilp_time,
        controller_vms=controller_vms,
        controller_core_overhead_percent=controller_core_overhead,
        measured_ilp_time_per_vip_s=measured,
        ilp_backend=ilp_backend,
    )
