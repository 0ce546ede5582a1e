"""Two runs of one registered spec give one artifact outside ``provenance``.

Host wall-clock figures belong in ``provenance``: a scenario that put them
in ``metrics`` made two runs of the same commit differ, and ``repro
compare`` reported timing noise as a change.  ``multi_vip_shared_dips``
copied ``provenance.wall_clock_s`` into ``converge_wall_s`` and
``request_vs_fluid_crosscheck`` timed its request run as ``wall_s`` and
``requests_per_s``; the copy is gone and the request run's figures are
``provenance.timings``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import get_spec, run

#: Scaled-down parameters of each scenario.
SCALED = {
    "multi_vip_shared_dips": {
        "num_vips": 2,
        "num_dips": 6,
        "settle_steps": 2,
        "control_steps": 1,
    },
    "request_vs_fluid_crosscheck": {"num_dips": 4, "num_requests": 4000},
}


def artifact(name: str) -> tuple[dict, dict]:
    spec = get_spec(name).with_overrides(SCALED[name])
    document = json.loads(run(spec).to_json())
    return document, document.pop("provenance")


@pytest.mark.parametrize("name", sorted(SCALED))
def test_two_runs_equal_outside_provenance(name):
    first, _ = artifact(name)
    second, provenance = artifact(name)
    assert first == second
    timed = {"converge_wall_s", "wall_s", "requests_per_s"}
    assert not timed & set(first["metrics"])
    if name == "request_vs_fluid_crosscheck":
        assert set(provenance["timings"]) == {"wall_s", "requests_per_s"}
        assert provenance["timings"]["wall_s"] > 0
    else:
        assert provenance["timings"] is None
