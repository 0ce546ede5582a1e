"""The workload vocabulary a spec speaks, with no implementation behind it.

Spec validation checks ``pool.kind``, ``workload.arrival.kind`` and
``workload.service.kind`` against these tables, so loading a spec imports
neither the pool constructors nor the arrival processes; the modules that
implement each kind (:mod:`repro.workloads.generators`,
:mod:`repro.workloads.arrivals`) dispatch on the same tables.
"""

from __future__ import annotations

#: Pool shapes :func:`~repro.workloads.generators.build_pool` can produce.
POOL_KINDS: tuple[str, ...] = (
    "uniform",
    "testbed",
    "three_dip",
    "graded_three_dip",
    "heterogeneous_pair",
    "mixed_core",
)

#: Registered arrival-process kinds -> one-line summary (``repro list``).
ARRIVAL_KINDS: dict[str, str] = {
    "poisson": "memoryless baseline; the only kind exact sharding accepts",
    "mmpp": "Markov-modulated Poisson: a cyclic CTMC switches the intensity",
    "flash_crowd": "shot-noise bursts: Poisson onsets, exponential decay",
    "trace": "replay interarrival gaps from a CSV/JSONL trace file",
}

#: Registered service-time kinds -> one-line summary (``repro list``).
SERVICE_KINDS: dict[str, str] = {
    "exponential": "memoryless service; the M/M/c-exact baseline",
    "lognormal": "lognormal service times with configurable SCV",
    "pareto": "Pareto service times with configurable tail index",
    "elephant": "hyperexponential mice/elephant flow-size mix",
}
