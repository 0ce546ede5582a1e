"""DIP (backend server) substrate.

Provides the simulated equivalents of the Azure VMs in the paper's testbed:
VM SKUs (Table 3), an M/M/c-based latency model reproducing the Fig. 5
latency-vs-load shape, a noisy-neighbour antagonist, and the
:class:`DipServer` that combines them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.backends.antagonist": ("Antagonist",),
        "repro.backends.dip": ("DipServer",),
        "repro.backends.latency_model": ("LatencyModel", "erlang_c", "scaled_model"),
        "repro.backends.vm_types": (
            "VMType",
            "DS1_V2",
            "DS2_V2",
            "DS3_V2",
            "DS4_V2",
            "F2S_V2",
            "F8S_V2",
            "D8A_V4",
            "custom_vm_type",
        ),
    },
)
