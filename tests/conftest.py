"""Shared fixtures for the KnapsackLB test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.backends import DS1_V2, DS2_V2, DS3_V2, F8S_V2, DipServer, custom_vm_type
from repro.core.config import KnapsackLBConfig
from repro.core.curve import WeightLatencyCurve, fit_curve
from repro.core.types import MeasurementPoint
from repro.sim.fluid import FluidCluster
from repro.workloads import build_testbed_cluster, build_testbed_dips


# Hypothesis profiles.  ``ci`` (the default) derandomizes the search, so
# tier-1 sees the same examples on every checkout; ``dev`` keeps the random
# search for the scheduled job and local hunting
# (``--hypothesis-profile=dev``).  Known failures are pinned with ``@example``.
settings.register_profile("ci", derandomize=True)
settings.register_profile("dev")
settings.load_profile("ci")


@pytest.fixture
def small_vm():
    """A 1-core VM type with a round 400 rps capacity."""
    return custom_vm_type("test-1core", vcpus=1, capacity_rps=400.0, idle_latency_ms=2.5)


@pytest.fixture
def two_core_vm():
    return custom_vm_type("test-2core", vcpus=2, capacity_rps=800.0, idle_latency_ms=2.5)


@pytest.fixture
def small_dip(small_vm):
    """A single deterministic 1-core DIP."""
    return DipServer("dip-a", small_vm, seed=1, jitter_fraction=0.0)


@pytest.fixture
def three_dip_cluster(small_vm):
    """Three 1-core DIPs (one at 60 % capacity) behind a weighted LB."""
    dips = {
        "hc1": DipServer("hc1", small_vm, seed=11, jitter_fraction=0.0),
        "hc2": DipServer("hc2", small_vm, seed=12, jitter_fraction=0.0),
        "lc": DipServer("lc", small_vm, seed=13, jitter_fraction=0.0),
    }
    dips["lc"].set_capacity_ratio(0.6)
    total_capacity = sum(d.capacity_rps for d in dips.values())
    return FluidCluster(dips=dips, total_rate_rps=total_capacity * 0.7, policy_name="wrr")


@pytest.fixture
def testbed_cluster():
    """The paper's 30-DIP testbed at 70 % load (fluid model)."""
    return build_testbed_cluster(load_fraction=0.70, seed=42)


@pytest.fixture
def testbed_layout():
    return build_testbed_dips(seed=42)


@pytest.fixture
def default_config():
    return KnapsackLBConfig()


@pytest.fixture
def simple_curve() -> WeightLatencyCurve:
    """A convex, monotone weight-latency curve fitted from clean points."""
    points = [
        MeasurementPoint(weight=0.0, latency_ms=2.0),
        MeasurementPoint(weight=0.05, latency_ms=2.5),
        MeasurementPoint(weight=0.10, latency_ms=4.0),
        MeasurementPoint(weight=0.15, latency_ms=7.5),
        MeasurementPoint(weight=0.20, latency_ms=13.0),
    ]
    return fit_curve(points)


def make_linear_curve(l0: float, slope: float, w_max: float) -> WeightLatencyCurve:
    """A helper for tests that need precisely controlled curves."""
    return WeightLatencyCurve(
        coefficients=(slope, l0),
        l0_ms=l0,
        w_max=w_max,
    )


@pytest.fixture
def vm_catalogue():
    return {"DS1": DS1_V2, "DS2": DS2_V2, "DS3": DS3_V2, "F8": F8S_V2}
