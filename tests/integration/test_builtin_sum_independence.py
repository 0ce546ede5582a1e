"""Fleet artifacts must not depend on which Python's builtin ``sum`` ran.

From Python 3.12 on the builtin ``sum`` of floats is compensated; up to 3.11
it adds left to right.  CI runs both, so every float sum that reaches an
artifact goes through ``core/types.py::left_to_right_sum``.  Here the
builtin is shadowed by a Neumaier (compensated) sum — what 3.12 computes —
and the cut-down golden runs of ``test_fleet_controller.py`` (the
``fleet_dynamics`` one and both one-VIP ones, plus a fleet whose DIP
capacities do not sum exactly) must give the same artifact, byte for byte
outside ``provenance``, as without it.
"""

from __future__ import annotations

import builtins
import json

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


def artifact(spec: dict) -> str:
    document = json.loads(run(ExperimentSpec.from_dict(spec)).to_json())
    document.pop("provenance")
    return json.dumps(document, sort_keys=True)


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
    plain = artifact(spec)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert artifact(spec) == plain
