"""Workload and scenario builders for the paper's experimental setups."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.workloads.kinds": ("ARRIVAL_KINDS", "POOL_KINDS", "SERVICE_KINDS"),
        "repro.workloads.arrivals": (
            "ArrivalProcess",
            "FlashCrowd",
            "MarkovModulatedPoisson",
            "TraceReplay",
            "load_trace_timestamps",
            "make_arrival_process",
            "unit_service_sampler",
        ),
        "repro.workloads.divergence": (
            "arrival_scv",
            "assess_divergence",
            "scv_correction",
            "service_scv",
        ),
        "repro.workloads.generators": (
            "TABLE8_VIP_MIX",
            "TESTBED_COMPOSITION",
            "TestbedLayout",
            "build_graded_three_dip_pool",
            "build_heterogeneous_pair",
            "build_mixed_core_pool",
            "build_pool",
            "build_shared_dip_fleet",
            "build_testbed_cluster",
            "build_testbed_dips",
            "build_three_dip_pool",
            "build_uniform_pool",
            "fleet_from_pool",
            "split_dip_ids",
            "table8_vip_counts",
        ),
    },
)
