"""Workload and DIP-pool builders used across experiments.

The builders mirror the setups of the paper's evaluation:

* the 41-VM testbed of Table 3 (30 DIPs of four VM types behind HAProxy);
* the 3-DIP pool of §2.1 (two high-capacity DIPs plus one whose capacity is
  squeezed by an antagonist);
* the heterogeneous DS-vs-F pair of §2.2;
* the datacenter-scale VIP mix of Table 8 (60 K DIPs split across VIPs of
  5 to 1000 DIPs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.backends.dip import DipServer
from repro.backends.vm_types import (
    DS1_V2,
    DS2_V2,
    DS3_V2,
    F2S_V2,
    F8S_V2,
    VMType,
    custom_vm_type,
)
from repro.core.types import DipId, left_to_right_sum
from repro.exceptions import ConfigurationError
from repro.workloads.kinds import POOL_KINDS

if TYPE_CHECKING:  # the analytic substrates load in the functions that make one
    from repro.sim.fleet import Fleet

#: DIP counts per VM type in the paper's 30-DIP testbed (Table 3).
TESTBED_COMPOSITION: tuple[tuple[VMType, int], ...] = (
    (DS1_V2, 16),
    (DS2_V2, 8),
    (DS3_V2, 4),
    (F8S_V2, 2),
)

#: Table 8: number of VIPs per pool size for the 60 K-DIP datacenter.
TABLE8_VIP_MIX: tuple[tuple[int, int], ...] = (
    (5, 2000),
    (10, 1000),
    (50, 200),
    (100, 100),
    (500, 20),
    (1000, 10),
)


@dataclass(frozen=True)
class TestbedLayout:
    """The DIP servers of the 30-DIP testbed, grouped by VM type."""

    dips: dict[DipId, DipServer]

    @property
    def total_capacity_rps(self) -> float:
        return left_to_right_sum(s.capacity_rps for s in self.dips.values())


def build_testbed_dips(*, seed: int | None = 42) -> TestbedLayout:
    """The 30 DIPs of Table 3: DIP-1..16 (1 core), 17..24 (2), 25..28 (4), 29..30 (8)."""
    dips: dict[DipId, DipServer] = {}
    index = 1
    for vm_type, count in TESTBED_COMPOSITION:
        for _ in range(count):
            dip_id = f"DIP-{index}"
            dips[dip_id] = DipServer(
                dip_id=dip_id,
                vm_type=vm_type,
                seed=None if seed is None else seed + index,
            )
            index += 1
    return TestbedLayout(dips=dips)


def build_testbed_cluster(
    *,
    load_fraction: float = 0.70,
    policy_name: str = "wrr",
    seed: int | None = 42,
) -> Fleet:
    """The 30-DIP testbed as a one-VIP fleet (VIP ``"vip"``) at
    ``load_fraction`` of capacity."""
    from repro.sim.fleet import one_vip_fleet

    if not 0 < load_fraction < 1.5:
        raise ConfigurationError("load_fraction must be in (0, 1.5)")
    layout = build_testbed_dips(seed=seed)
    total_rate = layout.total_capacity_rps * load_fraction
    return one_vip_fleet(layout.dips, total_rate, policy_name)


def build_three_dip_pool(
    *,
    capacity_ratio: float = 0.6,
    cores: int = 2,
    seed: int | None = 7,
) -> dict[DipId, DipServer]:
    """The §2.1 pool: DIP-HC ×2 at full capacity, DIP-LC at ``capacity_ratio``."""
    if not 0 < capacity_ratio <= 1:
        raise ConfigurationError("capacity_ratio must be in (0, 1]")
    vm = custom_vm_type(
        f"web-{cores}core",
        vcpus=cores,
        capacity_rps=400.0 * cores,
        idle_latency_ms=1000.0 * cores / (400.0 * cores),
    )
    dips = {
        "DIP-HC-1": DipServer("DIP-HC-1", vm, seed=None if seed is None else seed + 1),
        "DIP-HC-2": DipServer("DIP-HC-2", vm, seed=None if seed is None else seed + 2),
        "DIP-LC": DipServer("DIP-LC", vm, seed=None if seed is None else seed + 3),
    }
    if capacity_ratio < 1.0:
        dips["DIP-LC"].set_capacity_ratio(capacity_ratio)
    return dips


def build_graded_three_dip_pool(
    ratios: tuple[float, float, float] = (1.0, 0.8, 0.6),
    *,
    seed: int | None = 7,
) -> dict[DipId, DipServer]:
    """The Fig. 14 pool: three 1-core DIPs at capacities 1×, 0.8× and 0.6×."""
    vm = custom_vm_type("web-1core", vcpus=1, capacity_rps=400.0)
    dips: dict[DipId, DipServer] = {}
    for index, ratio in enumerate(ratios, start=1):
        if not 0 < ratio <= 1:
            raise ConfigurationError("ratios must be in (0, 1]")
        dip_id = f"DIP-{ratio:g}"
        server = DipServer(
            dip_id, vm, seed=None if seed is None else seed + index
        )
        if ratio < 1.0:
            server.set_capacity_ratio(ratio)
        dips[dip_id] = server
    return dips


def build_heterogeneous_pair(*, seed: int | None = 3) -> dict[DipId, DipServer]:
    """The §2.2 pool: one DS-series and one F-series DIP with equal cores."""
    return {
        "DIP-DS": DipServer("DIP-DS", DS2_V2, seed=None if seed is None else seed + 1),
        "DIP-F": DipServer("DIP-F", F2S_V2, seed=None if seed is None else seed + 2),
    }


def build_uniform_pool(
    num_dips: int,
    *,
    vm_type: VMType = F8S_V2,
    seed: int | None = 11,
    prefix: str = "DIP",
) -> dict[DipId, DipServer]:
    """``num_dips`` identical DIPs (used for the Fig. 8 / Table 6 ILP studies)."""
    if num_dips < 1:
        raise ConfigurationError("num_dips must be >= 1")
    return {
        f"{prefix}-{i + 1}": DipServer(
            f"{prefix}-{i + 1}", vm_type, seed=None if seed is None else seed + i
        )
        for i in range(num_dips)
    }


def build_mixed_core_pool(
    num_dips: int,
    *,
    core_choices: tuple[int, ...] = (1, 2, 4, 8),
    seed: int | None = 21,
) -> dict[DipId, DipServer]:
    """``num_dips`` DIPs with randomly mixed core counts (the fleet shape).

    Each DIP draws one of ``core_choices`` (400 rps per core, 2.5 ms idle
    latency), reproducing the heterogeneous pool
    :func:`build_shared_dip_fleet` windows its VIPs over — now addressable
    from declarative specs as ``pool.kind = "mixed_core"``.
    """
    if num_dips < 1:
        raise ConfigurationError("num_dips must be >= 1")
    rng = np.random.default_rng(seed)
    dips: dict[DipId, DipServer] = {}
    for index in range(num_dips):
        cores = int(core_choices[int(rng.integers(len(core_choices)))])
        vm = custom_vm_type(
            f"fleet-{cores}core",
            vcpus=cores,
            capacity_rps=400.0 * cores,
            idle_latency_ms=1000.0 / 400.0,
        )
        dip_id = f"DIP-{index + 1}"
        dips[dip_id] = DipServer(
            dip_id, vm, seed=None if seed is None else seed + index
        )
    return dips


def build_pool(
    kind: str = "uniform",
    *,
    num_dips: int = 8,
    vm_name: str = "api-pool",
    vcpus: int = 2,
    capacity_rps: float = 800.0,
    idle_latency_ms: float | None = None,
    capacity_ratio: float = 1.0,
    seed: int | None = 11,
) -> dict[DipId, DipServer]:
    """One entry point over every pool builder, keyed by ``kind``.

    This is the vocabulary the declarative experiment specs
    (:mod:`repro.api.spec`) speak: ``uniform`` builds ``num_dips`` identical
    DIPs of an ad-hoc VM type, the other kinds reproduce the paper's fixed
    pools (Table 3 testbed, the §2.1 / Fig. 14 three-DIP pools, the §2.2
    DS-vs-F pair) and ignore the sizing arguments that do not apply.
    """
    if kind == "uniform":
        vm = custom_vm_type(
            vm_name,
            vcpus=vcpus,
            capacity_rps=capacity_rps,
            idle_latency_ms=idle_latency_ms,
        )
        return build_uniform_pool(num_dips, vm_type=vm, seed=seed)
    if kind == "testbed":
        return dict(build_testbed_dips(seed=seed).dips)
    if kind == "three_dip":
        return build_three_dip_pool(
            capacity_ratio=capacity_ratio, cores=vcpus, seed=seed
        )
    if kind == "graded_three_dip":
        return build_graded_three_dip_pool(seed=seed)
    if kind == "heterogeneous_pair":
        return build_heterogeneous_pair(seed=seed)
    if kind == "mixed_core":
        return build_mixed_core_pool(num_dips, seed=seed)
    known = ", ".join(POOL_KINDS)
    raise ConfigurationError(f"unknown pool kind {kind!r}; known kinds: {known}")


def split_dip_ids(
    dip_ids: Sequence[DipId], shards: int
) -> tuple[tuple[DipId, ...], ...]:
    """Partition ``dip_ids`` into ``shards`` contiguous, balanced slices.

    Slice sizes differ by at most one and every DIP lands in exactly one
    slice, in pool order — the shard planner relies on this so the merged
    columnar metrics are independent of the shard count (per-DIP streams
    are keyed by the DIP's *global* index, not its shard).
    """
    ids = tuple(dip_ids)
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    shards = min(shards, len(ids))
    base, extra = divmod(len(ids), shards)
    slices: list[tuple[DipId, ...]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(ids[start : start + size])
        start += size
    return tuple(slices)


def fleet_from_pool(
    dips: dict[DipId, DipServer],
    *,
    num_vips: int = 8,
    pool_size: int | None = None,
    load_fraction: float = 0.55,
    policy_name: str = "wrr",
    rate_mix: tuple[float, ...] | None = None,
) -> Fleet:
    """Share an existing DIP pool between ``num_vips`` overlapping VIPs.

    Each VIP fronts a contiguous window of ``pool_size`` DIPs starting at a
    stride of ``len(dips) / num_vips``, so neighbouring VIPs overlap and most
    DIPs serve more than one VIP — the shared-fleet contention shape of the
    Table 8 datacenter.  Per-VIP rates are sized so the *total* load on each
    DIP (summed over the VIPs sharing it) lands around ``load_fraction`` of
    its capacity; ``rate_mix`` multiplies the per-VIP rates for heterogeneous
    traffic mixes.
    """
    from repro.sim.fleet import Fleet

    num_dips = len(dips)
    if num_vips < 1 or num_dips < 1:
        raise ConfigurationError("num_vips and the pool size must be >= 1")
    pool_size = pool_size or min(num_dips, max(2, (2 * num_dips) // num_vips))
    if pool_size > num_dips:
        raise ConfigurationError("pool_size cannot exceed the number of DIPs")
    if rate_mix is not None and len(rate_mix) != num_vips:
        raise ConfigurationError("rate_mix must have one entry per VIP")

    fleet = Fleet()
    for server in dips.values():
        fleet.add_dip(server)

    dip_ids = list(fleet.dips)
    stride = max(1, num_dips // num_vips)
    # How many VIPs share a typical DIP under this windowing.
    sharing = max(1.0, num_vips * pool_size / num_dips)
    for vip_index in range(num_vips):
        start = (vip_index * stride) % num_dips
        members = [dip_ids[(start + j) % num_dips] for j in range(pool_size)]
        pool_capacity = left_to_right_sum(fleet.dips[d].capacity_rps for d in members)
        rate = load_fraction * pool_capacity / sharing
        if rate_mix is not None:
            rate *= rate_mix[vip_index]
        # Start from capacity-proportional weights (a sane operator baseline);
        # an equal split would saturate the small DIPs of a heterogeneous
        # pool outright — the very pathology KnapsackLB is meant to fix.
        initial = {
            d: fleet.dips[d].capacity_rps / pool_capacity for d in members
        }
        fleet.create_vip(
            f"VIP-{vip_index + 1}",
            dip_ids=members,
            total_rate_rps=rate,
            policy_name=policy_name,
            weights=initial,
        )
    fleet.apply()
    return fleet


def build_shared_dip_fleet(
    *,
    num_vips: int = 8,
    num_dips: int = 32,
    pool_size: int | None = None,
    load_fraction: float = 0.55,
    policy_name: str = "wrr",
    rate_mix: tuple[float, ...] | None = None,
    core_choices: tuple[int, ...] = (1, 2, 4, 8),
    seed: int | None = 21,
) -> Fleet:
    """A fleet of ``num_dips`` heterogeneous DIPs shared by ``num_vips`` VIPs.

    Builds a random mixed-core pool (one of ``core_choices`` per DIP) and
    windows the VIPs over it with :func:`fleet_from_pool`.
    """
    dips = build_mixed_core_pool(num_dips, core_choices=core_choices, seed=seed)
    return fleet_from_pool(
        dips,
        num_vips=num_vips,
        pool_size=pool_size,
        load_fraction=load_fraction,
        policy_name=policy_name,
        rate_mix=rate_mix,
    )


def table8_vip_counts() -> dict[int, int]:
    """{DIPs-per-VIP: number of VIPs} of the Table 8 datacenter workload."""
    return {size: count for size, count in TABLE8_VIP_MIX}
