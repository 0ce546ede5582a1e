"""Two runs of one registered spec give one artifact outside ``provenance``.

Host wall-clock figures belong in ``provenance``: a scenario that put them
in ``metrics`` made two runs of the same commit differ, and ``repro
compare`` reported timing noise as a change.  ``multi_vip_shared_dips``
copied ``provenance.wall_clock_s`` into ``converge_wall_s`` and
``request_vs_fluid_crosscheck`` timed its request run as ``wall_s`` and
``requests_per_s``, ``datacenter_scale_fluid`` its joint evaluations as
``apply_ms`` and ``dip_evaluations_per_s``; the copy is gone and the timed
figures are ``provenance.timings``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import get_spec, run
from repro.lb import policy_registry, policy_seed_kwargs

#: Scaled-down parameters of each scenario.
SCALED = {
    "datacenter_scale_fluid": {"num_vips": 2, "num_dips": 20, "evaluations": 2},
    "multi_vip_shared_dips": {
        "num_vips": 2,
        "num_dips": 6,
        "settle_steps": 2,
        "control_steps": 1,
    },
    "request_vs_fluid_crosscheck": {"num_dips": 4, "num_requests": 4000},
}

#: The wall-clock figures each scenario times, all in ``provenance.timings``.
TIMED = {
    "datacenter_scale_fluid": {"apply_ms", "dip_evaluations_per_s"},
    "request_vs_fluid_crosscheck": {"wall_s", "requests_per_s"},
}


def artifact(name: str, **overrides) -> tuple[dict, dict]:
    spec = get_spec(name).with_overrides({**SCALED[name], **overrides})
    document = json.loads(run(spec).to_json())
    return document, document.pop("provenance")


@pytest.mark.parametrize("name", sorted(SCALED))
def test_two_runs_equal_outside_provenance(name):
    first, _ = artifact(name)
    second, provenance = artifact(name)
    assert first == second
    timed = {"converge_wall_s", *(key for keys in TIMED.values() for key in keys)}
    assert not timed & set(first["metrics"])
    if name in TIMED:
        assert set(provenance["timings"]) == TIMED[name]
        assert all(value > 0 for value in provenance["timings"].values())
    else:
        assert provenance["timings"] is None


#: policies whose picks draw from a seeded generator.
SEEDED = sorted(name for name in policy_registry() if policy_seed_kwargs(name))


@pytest.mark.parametrize("policy", SEEDED)
def test_the_crosscheck_seeds_every_stochastic_policy(policy):
    # ``dns`` was left out of a hand-written list and drew from OS entropy.
    assert "dns" in SEEDED
    first, _ = artifact("request_vs_fluid_crosscheck", policy_name=policy)
    second, _ = artifact("request_vs_fluid_crosscheck", policy_name=policy)
    assert first == second
