"""Recorded epoch-engine artifacts: the bytes a run serialises must not move.

Each digest is the sha-1 of ``RunResult.to_json()`` without ``provenance``
(host clock, shard and worker counts), taken before the least-connection
burst kernel, the one-sort dispatch, the array-derived ``StationSim``
columns and the grouped per-DIP fold replaced their per-pick / per-DIP
loops.  Every row of one case shares a digest: the merged result is
independent of the shard count and of inline-versus-process execution.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.runners import execute
from repro.api.spec import (
    ControllerSpec,
    EventSpec,
    ExperimentSpec,
    PolicySpec,
    PoolSpec,
    TimelineSpec,
    WorkloadSpec,
)


def spec_for(
    policy: str,
    *,
    load: float = 0.7,
    pool: PoolSpec = PoolSpec(kind="uniform", num_dips=8),
    num_muxes: int = 1,
    controller: bool = False,
    timeline: TimelineSpec | None = None,
) -> ExperimentSpec:
    extra = {} if timeline is None else {"timeline": timeline}
    return ExperimentSpec(
        name="epoch-golden",
        runner="request",
        pool=pool,
        workload=WorkloadSpec(load_fraction=load, num_requests=8_000, warmup_s=1.0),
        policy=PolicySpec(name=policy, num_muxes=num_muxes),
        controller=ControllerSpec(enabled=controller),
        seed=2035,
        **extra,
    )


CHURN = TimelineSpec(
    events=(
        EventSpec(time_s=1.0, kind="capacity_ratio", dip="DIP-3", value=0.5),
        EventSpec(time_s=2.0, kind="dip_fail", dip="DIP-1"),
        EventSpec(time_s=3.0, kind="arrival_scale", value=1.3),
        EventSpec(time_s=4.0, kind="dip_recover", dip="DIP-1"),
    ),
    window_s=1.0,
    horizon_s=6.0,
)

SPECS = {
    "lc": spec_for("lc"),
    "lc_overload": spec_for("lc", load=1.3),
    "wlc_programmed": spec_for("wlc", pool=PoolSpec(kind="testbed"), controller=True),
    "wlc_overload": spec_for("wlc", load=1.3),
    "p2": spec_for("p2"),
    "p2_overload": spec_for("p2", load=1.3),
    "lc_two_muxes": spec_for("lc", num_muxes=2),
    "lc_two_muxes_overload": spec_for("lc", num_muxes=2, load=1.3),
    "lc_churn": spec_for("lc", timeline=CHURN),
    "lc_churn_overload": spec_for("lc", load=1.3, timeline=CHURN),
}

#: shards = 1 plans serial: the same fold over the event engine's records.
SERIAL = {
    "lc": "f949a7ff73748facdc091d96ccc52cdffc5b6e96",
    "wlc_programmed": "c59ee7f2bc670c35a3fc11c23473ca8be2ccd9a4",
    "lc_churn": "b66d9f6fc45e87e1537685e9a9c4652cb0c177eb",
}

EPOCH = {
    "lc": "a682128d35ed14f96e1de67704f2d042b7524be6",
    "lc_overload": "f74962fb6545805528b95a25be5e5aa3ef7ee61d",
    "wlc_programmed": "bdbc7d85b1139f04535197881a6062380fefe142",
    "wlc_overload": "319f31d22cc163e0733562a4aaa1140650b7dc57",
    "p2": "8fc26c398c9f35275489a124425d44ae39dfa35e",
    "p2_overload": "bf4b55d4e1c18ccfbbb0dd3bc98253cbd1e31f08",
    "lc_two_muxes": "e7ace962ae3b22ffa48a762034d90b8ed20e07ba",
    "lc_two_muxes_overload": "89b09042c09bcfff46f1d2c90775f40a7ae9dd3b",
    "lc_churn": "f772edd2a30e58102f4ee433803dc3cb8a9ba81a",
    "lc_churn_overload": "cc16dd3779504cf3b475e3ec608894a7944898f6",
}


def digest(result) -> str:
    document = json.loads(result.to_json())
    del document["provenance"]
    return hashlib.sha1(json.dumps(document, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SERIAL))
def test_one_shard_runs_serial_and_keeps_its_bytes(case):
    result = execute(SPECS[case], shards=1)
    assert result.provenance.shard_mode == "serial"
    assert digest(result) == SERIAL[case]


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("case", sorted(EPOCH))
def test_epoch_run_keeps_its_bytes(case, shards):
    result = execute(SPECS[case], shards=shards, workers=1)
    assert result.provenance.shard_mode == "epoch"
    assert result.provenance.fallback_reason is None
    assert digest(result) == EPOCH[case]


@pytest.mark.parametrize("case", ["lc", "lc_two_muxes_overload"])
def test_process_fan_out_keeps_the_same_bytes(case):
    result = execute(SPECS[case], shards=2, workers=2)
    assert result.provenance.workers == 2
    assert digest(result) == EPOCH[case]
