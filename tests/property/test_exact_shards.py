"""Exact shards are independent runs of the one shard simulation.

An exact plan (``rr`` / ``random`` / ``wrandom``, no timeline, one MUX)
runs every shard as :class:`~repro.parallel.epoch.EpochShardSim` advanced
straight to the horizon, with no barrier.  So the same spec must give the
same artifact, outside ``provenance``, three ways: inline (one coalesced
simulation), fanned out over two worker processes, and as an epoch plan
whose one sync interval spans the whole run.  The stream the shards
replay is drawn in whole chunks, so cutting it at any boundaries returns
what one call to the horizon returns, and so do the flows drawn for those
slices."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.runners import execute
from repro.api.spec import (
    ControllerSpec,
    ExperimentSpec,
    PolicySpec,
    PoolSpec,
    WorkloadSpec,
)
from repro.parallel import ShardPlan, plan_shards, run_request_sharded
from repro.parallel.epoch import EpochArrivalStream, EpochFlowStream


def artifact(result) -> str:
    """The result's JSON outside ``provenance`` (NaN compares as text)."""
    doc = result.to_dict()
    doc.pop("provenance")
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "policy, controller",
    [("rr", False), ("random", False), ("wrandom", False), ("wrandom", True)],
)
@settings(max_examples=6, deadline=None)
@given(
    shards=st.integers(2, 4),
    warmup_s=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_inline_fanned_and_one_epoch_runs_are_one_artifact(
    policy, controller, shards, warmup_s, seed
):
    spec = ExperimentSpec(
        name="exact-shards",
        runner="request",
        pool=PoolSpec(kind="mixed_core", num_dips=6),
        workload=WorkloadSpec(
            load_fraction=0.8, num_requests=3_000, warmup_s=warmup_s
        ),
        policy=PolicySpec(name=policy),
        controller=ControllerSpec(enabled=controller),
        seed=seed,
    )
    plan = plan_shards(spec, shards=shards)
    assert plan.mode == "exact" and plan.sync_interval_s is None
    inline = execute(spec, shards=shards, workers=1)
    fanned = execute(spec, shards=shards, workers=2)
    one_epoch = run_request_sharded(
        spec,
        ShardPlan(
            shards=plan.shards,
            mode="epoch",
            dip_slices=plan.dip_slices,
            sync_interval_s=1e6,  # past the horizon: no barrier inside the run
        ),
        workers=2,
    )
    assert inline.provenance.shard_mode == fanned.provenance.shard_mode == "exact"
    assert one_epoch.provenance.shard_mode == "epoch"
    assert artifact(inline) == artifact(fanned) == artifact(one_epoch)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rate=st.floats(50.0, 50_000.0),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=12),
)
def test_take_until_in_slices_is_one_take(seed, rate, cuts):
    horizon = 2.0
    whole = EpochArrivalStream(seed, rate).take_until(horizon)
    stream = EpochArrivalStream(seed, rate)
    parts = [stream.take_until(horizon * c) for c in sorted(cuts)]
    parts.append(stream.take_until(horizon))
    assert np.array_equal(np.concatenate(parts), whole)
    # The flows the same arrivals carry, taken in the same slices.
    clients, ports = EpochFlowStream(seed).take(whole.size)
    flows = EpochFlowStream(seed)
    sliced = [flows.take(part.size) for part in parts]
    assert np.array_equal(np.concatenate([c for c, _ in sliced]), clients)
    assert np.array_equal(np.concatenate([p for _, p in sliced]), ports)
