"""Artifacts must not depend on which Python's builtin ``sum`` ran.

From Python 3.12 on the builtin ``sum`` of floats is compensated; up to 3.11
it adds left to right.  CI runs both, so every float sum that reaches an
artifact goes through ``core/types.py::left_to_right_sum``.  Here the
builtin is shadowed by a Neumaier (compensated) sum — what 3.12 computes —
and the cut-down golden runs of ``test_fleet_controller.py`` (the
``fleet_dynamics`` one and both one-VIP ones, plus a fleet whose DIP
capacities do not sum exactly) and cut-down request runs (a replayed ``rr``
run, a KLB-over-``wrr`` replay, an epoch ``lc`` run on two shards and a
windowed timeline run, the first and last over DIPs whose capacities do not
sum exactly) must give the same artifact, byte for byte outside
``provenance``, as without it.
"""

from __future__ import annotations

import builtins
import json
from pathlib import Path

import pytest
from test_fleet_controller import GOLDEN_SPEC, ONE_VIP_SPEC, WLC_SPEC

from repro.api import ExperimentSpec, run

_builtin_sum = builtins.sum

#: The fleet golden over nine DIPs of 333.3 rps, six to a VIP: six of them
#: add up to 1999.8 left to right and 1999.8000000000002 compensated, so
#: each VIP's pool capacity — and at this load the rate sized from it,
#: 599.9399999999999 or 599.94 rps — depends on how the additions are made.
UNEVEN_FLEET_SPEC = {
    **GOLDEN_SPEC,
    "name": "uneven_fleet",
    "pool": {"kind": "uniform", "num_dips": 9, "vm": {"capacity_rps": 333.3}},
    "workload": {"load_fraction": 0.6},
}


REPO_ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = REPO_ROOT / "benchmarks" / "observatory" / "workloads"


def from_file(path: Path, overrides: dict) -> dict:
    return ExperimentSpec.from_file(str(path)).with_overrides(overrides).to_dict()


#: The uneven pool above on the request engine: a replayed round robin.
UNEVEN_RR_SPEC = from_file(
    WORKLOADS / "req_serial_rr.json",
    {
        "name": "uneven_rr",
        "pool.num_dips": 9,
        "pool.vm.capacity_rps": 333.3,
        "workload.num_requests": 6000,
    },
)
KLB_WRR_SPEC = from_file(
    WORKLOADS / "req_serial_klb_wrr.json", {"workload.num_requests": 6000}
)
EPOCH_LC_SPEC = from_file(
    WORKLOADS / "req_epoch_lc.json",
    {"pool.num_dips": 16, "workload.num_requests": 12000},
)
#: A windowed request run (``MetricsCollector.window_rows``) on the uneven pool.
WINDOWED_SPEC = from_file(
    REPO_ROOT / "examples" / "specs" / "bursty_outage.json",
    {"pool.num_dips": 9, "pool.vm.capacity_rps": 333.3, "timeline.horizon_s": 15.0},
)


def neumaier_sum(iterable, /, start=0):
    """Compensated sum of exact ints and floats; anything else as the builtin."""
    values = list(iterable)
    if not (
        type(start) is int
        and any(type(v) is float for v in values)
        and all(type(v) in (int, float) for v in values)
    ):
        return _builtin_sum(values, start)
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def artifact(spec: dict, **how) -> tuple[str, dict]:
    """The artifact outside ``provenance``, and the ``provenance``."""
    document = json.loads(run(ExperimentSpec.from_dict(spec), **how).to_json())
    provenance = document.pop("provenance")
    return json.dumps(document, sort_keys=True), provenance


def test_the_shadow_is_compensated():
    assert _builtin_sum([0.1] * 10) in (0.9999999999999999, 1.0)
    assert neumaier_sum([0.1] * 10) == 1.0
    assert neumaier_sum([1, 2]) == 3 and type(neumaier_sum([])) is int
    assert neumaier_sum([[1], [2]], []) == [1, 2]


@pytest.mark.parametrize(
    "spec",
    [GOLDEN_SPEC, ONE_VIP_SPEC, WLC_SPEC, UNEVEN_FLEET_SPEC],
    ids=["fleet_dynamics", "one_vip", "one_vip_wlc", "uneven_fleet"],
)
def test_artifact_is_the_same_under_a_compensated_builtin_sum(spec, monkeypatch):
    plain = artifact(spec)[0]
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert artifact(spec)[0] == plain


@pytest.mark.parametrize(
    "spec, how, path",
    [
        (UNEVEN_RR_SPEC, {}, ("replay", "serial")),
        (KLB_WRR_SPEC, {}, ("replay", "serial")),
        (EPOCH_LC_SPEC, {"shards": 2, "workers": 1}, (None, "epoch")),
        (WINDOWED_SPEC, {}, ("events", "serial")),
    ],
    ids=["replayed_rr", "klb_wrr_replay", "epoch_lc_2_shards", "windowed_request"],
)
def test_request_artifact_is_the_same_under_a_compensated_builtin_sum(
    spec, how, path, monkeypatch
):
    plain, provenance = artifact(spec, **how)
    assert (provenance["station_path"], provenance["shard_mode"]) == path
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert artifact(spec, **how)[0] == plain


def test_control_path_sums_add_left_to_right(monkeypatch):
    """Three sums of the control path, each on values a compensated sum adds
    differently: greedy's starting total (here the whole answer: at zero
    tolerance only the left-to-right total 1.0 is in band) and the fleet's
    and a VIP's pool capacity."""
    from repro.backends import DipServer, custom_vm_type
    from repro.core.types import left_to_right_sum
    from repro.sim.fleet import Fleet
    from repro.solver import AssignmentProblem, DipCandidates, solve_greedy

    tiny = (1.0, 1e-16, 1e-16)
    assert left_to_right_sum(tiny) == 1.0 != neumaier_sum(tiny)
    problem = AssignmentProblem(
        dips=tuple(
            DipCandidates(dip=f"d{i}", weights=(w, 1.0), latencies_ms=(1.0, 9.0))
            for i, w in enumerate(tiny)
        ),
        total_weight=1.0,
        total_weight_tolerance=0.0,
    )
    vm = custom_vm_type("uneven", vcpus=1, capacity_rps=333.3)
    fleet = Fleet({f"d{i}": DipServer(f"d{i}", vm, seed=i) for i in range(6)})
    vip = fleet.create_vip("v", dip_ids=list(fleet.dips), total_rate_rps=100.0)
    capacities = [333.3] * 6
    assert left_to_right_sum(capacities) == 1999.8 != neumaier_sum(capacities)

    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    greedy = solve_greedy(problem)
    assert greedy.status.has_solution and greedy.weights == dict(zip(("d0", "d1", "d2"), tiny))
    assert fleet.total_capacity_rps == vip.total_capacity_rps == 1999.8
