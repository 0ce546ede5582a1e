"""Differential tests: the replay path against the event engine.

``RequestCluster.run`` replays a run — arrivals drawn up front, picks taken
from the policy in one call, each DIP's sub-stream walked through
``simulate_station`` — whenever no pick can read queue state and nothing is
scheduled to perturb the run.  The event engine stays the oracle: a twin
cluster driven through ``begin`` / ``run_to`` / ``finish`` takes it whatever
the configuration, and for every eligible configuration the two must agree
to the last bit — collector columns, counters, station stats, the policy's
end state and where every generator stands.  The second half pins what must
*not* replay: each ineligible configuration takes the event path and still
produces the numbers it produced before the replay existed.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.runners import build_request_cluster
from repro.api.spec import ArrivalSpec, ExperimentSpec, ServiceSpec
from repro.exceptions import ConfigurationError
from repro.lb import make_policy
from repro.sim import RequestCluster
from repro.workloads import build_pool

REPLAYABLE = ("rr", "wrr", "random", "wrandom", "hash")


def event_run(cluster, *, num_requests=None, duration_s=None, warmup_s=0.0):
    """``RequestCluster.run`` as it was before the replay: always the engine."""
    if duration_s is None:
        duration_s = num_requests / cluster.workload.rate_rps
    cluster.begin(duration_s=duration_s, warmup_s=warmup_s)
    cluster.run_to(warmup_s + duration_s + 30.0)
    return cluster.finish()


def build_cluster(case) -> RequestCluster:
    dips = build_pool(case["pool"], num_dips=case["num_dips"], seed=case["seed"])
    if case["degraded"]:
        next(iter(dips.values())).set_capacity_ratio(0.5)
    seeded = {"seed": case["seed"]} if case["policy"] in {"random", "wrandom"} else {}
    policy = make_policy(case["policy"], list(dips), **seeded)
    if policy.supports_weights:
        policy.set_weights(dict(zip(dips, case["weights"])))
    capacity = sum(dip.capacity_rps for dip in dips.values())
    return RequestCluster(
        dips,
        policy,
        rate_rps=case["load"] * capacity,
        seed=case["seed"],
        queue_capacity=case["queue_capacity"],
        arrival=ArrivalSpec(kind=case["arrival"]),
        service=ServiceSpec(kind=case["service"]),
    )


def assert_same_run(replayed: RequestCluster, evented: RequestCluster, a, b) -> None:
    assert (a.station_path, b.station_path) == ("replay", "events")
    assert (
        a.duration_s,
        a.requests_submitted,
        a.requests_completed,
        a.requests_dropped,
    ) == (b.duration_s, b.requests_submitted, b.requests_completed, b.requests_dropped)
    ours, theirs = replayed.metrics, evented.metrics
    theirs._flush()
    assert ours.total_requests == theirs.total_requests
    n = ours.total_requests
    assert ours._dip_ids == theirs._dip_ids  # interned in first-record order
    for column in ("_lat", "_code", "_done", "_ts"):
        assert np.array_equal(
            getattr(ours, column)[:n], getattr(theirs, column)[:n]
        ), column
    assert list(ours.request_share().items()) == list(theirs.request_share().items())
    assert ours.utilization() == theirs.utilization()
    assert replayed.scheduler.now == evented.scheduler.now
    for dip in replayed.dips:
        mine, other = replayed.station(dip), evented.station(dip)
        assert mine.stats == other.stats, dip
        assert mine._svc_buf == other._svc_buf, dip
        assert mine._rng.bit_generator.state == other._rng.bit_generator.state, dip
        assert mine._busy_workers == other._busy_workers, dip
    # where the policy and the arrival generator stand
    assert getattr(replayed.policy, "_cursor", None) == getattr(
        evented.policy, "_cursor", None
    )
    if hasattr(replayed.policy, "accumulators"):
        assert replayed.policy.accumulators() == evented.policy.accumulators()
    if hasattr(replayed.policy, "_rng"):
        assert (
            replayed.policy._rng.bit_generator.state
            == evented.policy._rng.bit_generator.state
        )
    assert np.array_equal(
        replayed.workload.next_interarrival_batch(1),
        evented.workload.next_interarrival_batch(1),
    )


@st.composite
def cases(draw):
    pool = draw(st.sampled_from(["uniform", "uniform", "mixed_core", "testbed"]))
    num_dips = 30 if pool == "testbed" else draw(st.integers(1, 5))
    return {
        "pool": pool,
        "num_dips": num_dips,
        "policy": draw(st.sampled_from(REPLAYABLE)),
        "weights": draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0]),
                min_size=num_dips,
                max_size=num_dips,
            )
        ),
        "load": draw(st.sampled_from([0.3, 0.7, 0.95, 1.1, 1.4])),
        "warmup_s": draw(st.sampled_from([0.0, 0.0, 0.4])),
        "queue_capacity": draw(st.sampled_from([0, 4, 256])),
        "arrival": draw(st.sampled_from(["poisson", "poisson", "mmpp", "flash_crowd"])),
        "service": draw(
            st.sampled_from(["exponential", "exponential", "lognormal", "pareto", "elephant"])
        ),
        "degraded": draw(st.booleans()),
        "num_requests": draw(st.sampled_from([1, 700, 1500, 5000])),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=60, deadline=None)
@given(cases())
def test_replay_equals_the_event_engine_bit_for_bit(case):
    replayed, evented = build_cluster(case), build_cluster(case)
    how = {"num_requests": case["num_requests"], "warmup_s": case["warmup_s"]}
    assert_same_run(
        replayed, evented, replayed.run(**how), event_run(evented, **how)
    )


def test_equal_timestamps_keep_arrival_order(tmp_path):
    # A millisecond-resolution trace replayed faster than 1000 rps stamps
    # many arrivals alike, and with no queue an overloaded pool drops them
    # at those very stamps: ties across stations, which the event engine
    # records in arrival order.
    trace = tmp_path / "trace.csv"
    stamps = np.sort(np.random.default_rng(5).integers(0, 400, size=4000)) / 1000.0
    trace.write_text("timestamp\n" + "\n".join(f"{t:.3f}" for t in stamps) + "\n")

    def build():
        dips = build_pool("uniform", num_dips=3, vcpus=1, capacity_rps=400.0, seed=2)
        return RequestCluster(
            dips,
            make_policy("rr", list(dips)),
            rate_rps=2000.0,
            seed=2,
            queue_capacity=0,
            arrival=ArrivalSpec(
                kind="trace", trace_path=str(trace), preserve_rate=True
            ),
        )

    replayed, evented = build(), build()
    a, b = replayed.run(num_requests=6000), event_run(evented, num_requests=6000)
    assert a.requests_dropped > 100
    ts = replayed.metrics._ts[: replayed.metrics.total_requests]
    assert np.count_nonzero(np.diff(ts) == 0) > 100
    assert_same_run(replayed, evented, a, b)


def test_a_request_in_flight_at_the_end_is_not_recorded():
    # 30 s of drain is not enough for a 100 000-slot queue at 1.4x load:
    # what has not started by then takes no service draw, what has not
    # finished has no record — on both paths alike.
    def build():
        dips = build_pool("uniform", num_dips=1, vcpus=1, capacity_rps=10.0, seed=4)
        return RequestCluster(
            dips,
            make_policy("rr", list(dips)),
            rate_rps=40.0,
            seed=4,
            queue_capacity=100_000,
        )

    replayed, evented = build(), build()
    a, b = replayed.run(duration_s=60.0), event_run(evented, duration_s=60.0)
    assert a.requests_completed + a.requests_dropped < a.requests_submitted
    assert_same_run(replayed, evented, a, b)


def request_spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec.from_dict(
        {
            "name": "replay-probe",
            "runner": "request",
            "seed": 23,
            "pool": {"kind": "testbed"},
            "workload": {"load_fraction": 0.8, "num_requests": 4000, "warmup_s": 0.5},
            "policy": {"name": "rr"},
            "controller": {"enabled": False},
        }
    )
    return spec.with_overrides(overrides) if overrides else spec


@pytest.mark.parametrize("policy", REPLAYABLE)
@pytest.mark.parametrize("load", [0.8, 1.3])
def test_artifacts_are_equal_through_the_api(policy, load):
    spec = request_spec(**{"policy.name": policy, "workload.load_fraction": load})
    replayed = api.run(spec)
    with mock.patch.object(RequestCluster, "run", event_run):
        evented = api.run(spec)
    assert replayed.provenance.station_path == "replay"
    assert evented.provenance.station_path == "events"
    assert replayed.provenance.shard_mode == evented.provenance.shard_mode == "serial"
    assert replayed.metrics_equal(evented)
    assert replayed.dip_summaries == evented.dip_summaries
    assert list(replayed.dip_summaries) == list(evented.dip_summaries)
    restored = api.RunResult.from_dict(replayed.to_dict())
    assert restored.provenance.station_path == "replay"
    assert restored.metrics_equal(replayed)


def test_the_klb_replay_of_converged_weights_is_equal_through_the_api():
    spec = request_spec(
        **{"policy.name": "wrr", "controller.enabled": True,
           "controller.config.ilp.backend": "dp"}
    )
    replayed = api.run(spec)
    with mock.patch.object(RequestCluster, "run", event_run):
        evented = api.run(spec)
    assert replayed.provenance.station_path == "replay"
    assert replayed.metrics_equal(evented)
    assert replayed.dip_summaries == evented.dip_summaries


# -- what must not replay ----------------------------------------------------------
#
# Each configuration below can read or perturb queue state mid-flight, so it
# takes the event path — and (mean_latency_ms, p99_latency_ms, drop_fraction,
# requests_submitted) are what the commit before the replay produced for it.

INELIGIBLE = {
    "retry": (
        {"retry.enabled": True},
        (210.5754717526172, 551.4781021121194, 0.0, 4051.0),
    ),
    "health": (
        {"health.enabled": True},
        (210.5754717526172, 551.4781021121194, 0.0, 4051.0),
    ),
    "muxes": (
        {"policy.num_muxes": 2},
        (208.11481933270093, 549.2001708794911, 0.0, 4063.0),
    ),
    "dns": (
        {"policy.name": "dns"},
        (338.9726391987748, 735.4555701880818, 0.7999015505783903, 4063.0),
    ),
    "lc": (
        {"policy.name": "lc"},
        (5.2535579334017255, 21.247683528228258, 0.0, 4051.0),
    ),
    "p2": (
        {"policy.name": "p2"},
        (85.54541171523245, 283.6814277047406, 0.0, 4051.0),
    ),
    "timeline": (
        {
            "timeline.events": [
                {"time_s": 0.2, "kind": "capacity_ratio", "dip": "DIP-3", "value": 0.5}
            ],
            "timeline.horizon_s": 0.6,
            "timeline.window_s": 0.2,
        },
        (268.1691750381507, 980.6771134848082, 0.043305421635794636, 11823.0),
    ),
}
GOLDEN_KEYS = ("mean_latency_ms", "p99_latency_ms", "drop_fraction", "requests_submitted")


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
def test_an_ineligible_run_takes_the_event_path_unchanged(name):
    overrides, golden = INELIGIBLE[name]
    result = api.run(request_spec(**overrides))
    assert result.provenance.station_path == "events"
    assert tuple(result.metrics[key] for key in GOLDEN_KEYS) == golden


def headline(run) -> tuple:
    return (
        run.metrics.mean_latency_ms(),
        run.metrics.percentile_latency_ms(99),
        run.drop_fraction,
        float(run.requests_submitted),
    )


def test_a_failed_dip_keeps_the_run_event_driven():
    cluster = build_request_cluster(request_spec())
    cluster.fail_dip(next(iter(cluster.dips)))
    run = cluster.run(num_requests=4000, warmup_s=0.5)
    assert run.station_path == "events"
    assert headline(run) == (222.2325455902301, 601.5573655587752, 0.0, 4051.0)


def test_a_scheduled_event_keeps_the_run_event_driven():
    cluster = build_request_cluster(request_spec())
    fired = []
    cluster.scheduler.schedule_at(0.1, lambda: fired.append(cluster.scheduler.now))
    assert cluster.run(num_requests=400).station_path == "events"
    assert fired == [0.1]


def test_a_manual_begin_is_the_event_path_and_a_cluster_runs_once():
    cluster = build_request_cluster(request_spec())
    run = event_run(cluster, num_requests=4000, warmup_s=0.5)
    assert run.station_path == "events"
    assert headline(run) == (210.5754717526172, 551.4781021121194, 0.0, 4051.0)
    # and the replay reads the same numbers off a fresh cluster
    fresh = build_request_cluster(request_spec())
    replayed = fresh.run(num_requests=4000, warmup_s=0.5)
    assert replayed.station_path == "replay"
    assert headline(replayed) == headline(run)
    for used in (cluster, fresh):
        with pytest.raises(ConfigurationError, match="already run"):
            used.run(num_requests=10)
        with pytest.raises(ConfigurationError, match="already run"):
            used.begin(duration_s=1.0)


def test_an_undeclared_policy_is_not_replayed():
    # A policy has to say its picks ignore queue state; one that merely
    # switches connection counting off does not qualify.
    from repro.lb import RoundRobin

    class Novel(RoundRobin):
        replayable = False

    dips = build_pool("uniform", num_dips=3, seed=1)
    cluster = RequestCluster(dips, Novel(list(dips)), rate_rps=900.0, seed=1)
    assert cluster.run(num_requests=500).station_path == "events"


def test_analytic_and_sharded_runs_name_no_station_path():
    fluid = api.run(request_spec(runner="fluid"))
    assert fluid.provenance.station_path is None
    sharded = api.run(request_spec(), shards=2, workers=1)
    assert sharded.provenance.shard_mode == "exact"
    assert sharded.provenance.station_path is None
    # artifacts written before the field existed load as None
    data = fluid.to_dict()
    del data["provenance"]["station_path"]
    assert api.RunResult.from_dict(data).provenance.station_path is None


def test_the_cli_note_names_the_station_path(capsys):
    from repro.api.cli import main

    base = ["run", "fluid_uniform_pool", "--runner", "request", "--format", "json",
            "--set", "controller.enabled=false", "--set", "workload.num_requests=2000"]
    assert main([*base, "--set", "policy.name=rr", "--watch"]) == 0
    assert "note: serial run (stations: replay)" in capsys.readouterr().err
    assert main([*base, "--set", "policy.name=lc", "--watch"]) == 0
    assert "note: serial run (stations: events)" in capsys.readouterr().err
    # a refused sharding still says how the serial run it fell back to went
    bursty = [*base, "--set", "policy.name=rr", "--set", "workload.arrival.kind=mmpp"]
    assert main([*bursty, "--shards", "2"]) == 0
    err = capsys.readouterr().err
    assert "note: serial fallback:" in err and "(stations: replay)" in err
