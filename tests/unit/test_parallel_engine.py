"""The multi-core execution layer: planner, kernel, epoch engine, pool.

Covers the sharding contract end to end:

* the planner's three-way verdict — which policies shard as independent
  shards, which shard approximately under the epoch engine, and the reason
  attached to every serial fallback;
* statistical equivalence of exactly-sharded and serial runs (same
  M/M/c/K system, different but equally-valid random realizations);
* the epoch engine's contract — bit-identical repeats for every
  epoch-shardable policy (MUX pools and timelines included), shard-count
  and process-vs-inline invariance, and ``sync_interval_s → 0``
  convergence of lc/wlc to the serial engine;
* determinism — merged metrics are bit-identical across repeats for a
  fixed seed and shard count (and, stronger, independent of the shard
  count and of in-process vs worker-process execution);
* the persistent WorkerPool behind sweeps, the single-spec inline rule,
  and the solver warm-start cache shared across fleet control rounds.
"""

from __future__ import annotations

import logging
import multiprocessing
import os

import numpy as np
import pytest

from repro.api.result import Provenance, RunResult
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
from repro.api.sweep import Sweep
from repro.exceptions import ConfigurationError
from repro.lb import (
    FlowKey,
    LeastConnection,
    MuxPool,
    WeightedRoundRobin,
    policy_registry,
    policy_seed_kwargs,
)
from repro.lb import base as lb_base
from repro.lb.round_robin import RoundRobin
from repro.parallel import (
    SHARDABLE_POLICIES,
    ShardPlan,
    WorkerPool,
    plan_shards,
    policy_fallback_reason,
    run_request_sharded,
    staleness_crosscheck,
)
from repro.parallel.epoch import (
    EpochArrivalStream,
    _SmoothWrrRouter,
    make_epoch_router,
)
from repro.parallel.kernel import simulate_station
from repro.sim.trace import MetricsCollector
from repro.solver import SolveCache, build_problem, solve
from repro.workloads import split_dip_ids


#: ``(shards, workers)`` fan-outs held to the inline run: one process per
#: shard, two shards per process, and one per shard again at four.
FAN_OUTS = [(2, 2), (4, 2), (4, 4)]


def request_spec(
    *,
    name: str = "shard-test",
    num_dips: int = 16,
    num_requests: int = 100_000,
    policy: str = "rr",
    num_muxes: int = 1,
    controller: bool = False,
    seed: int = 7,
    **spec_kwargs,
) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        runner="request",
        pool=PoolSpec(kind="uniform", num_dips=num_dips),
        workload=WorkloadSpec(
            load_fraction=0.7, num_requests=num_requests, warmup_s=1.0
        ),
        policy=PolicySpec(name=policy, num_muxes=num_muxes),
        controller=ControllerSpec(enabled=controller),
        seed=seed,
        **spec_kwargs,
    )


def summaries_equal(a: dict, b: dict) -> bool:
    """Bitwise dict equality that treats NaN == NaN (zero-traffic DIPs)."""
    if a.keys() != b.keys():
        return False
    for dip in a:
        if a[dip].keys() != b[dip].keys():
            return False
        for key in a[dip]:
            va, vb = a[dip][key], b[dip][key]
            if va != vb and not (va != va and vb != vb):
                return False
    return True


def dip_fail_timeline() -> TimelineSpec:
    return TimelineSpec(
        events=(
            EventSpec(time_s=2.0, kind="dip_fail", dip="DIP-1"),
            EventSpec(time_s=5.0, kind="dip_recover", dip="DIP-1"),
        ),
        window_s=1.0,
        horizon_s=8.0,
    )


class TestPlanner:
    def test_round_robin_plan_partitions_the_pool(self):
        plan = plan_shards(request_spec(num_dips=16), shards=4)
        assert plan.mode == "exact" and plan.fallback_reason is None
        assert plan.shards == 4
        assert plan.sync_interval_s is None  # exact shards never sync
        assert [len(s) for s in plan.dip_slices] == [4, 4, 4, 4]
        flat = [d for s in plan.dip_slices for d in s]
        assert len(set(flat)) == plan.num_dips == 16

    def test_weighted_random_uses_iid_thinning(self):
        plan = plan_shards(request_spec(policy="wrandom"), shards=2)
        assert plan.mode == "exact"

    def test_shards_clamped_to_pool_size(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            plan = plan_shards(request_spec(num_dips=6), shards=64)
        assert plan.shards == 6
        assert [len(s) for s in plan.dip_slices] == [1] * 6
        assert any("clamping" in record.message for record in caplog.records)

    def test_least_connection_plans_epoch_mode(self):
        plan = plan_shards(request_spec(policy="lc"), shards=4)
        assert plan.mode == "epoch"
        assert plan.fallback_reason is None
        assert plan.sync_interval_s == pytest.approx(0.25)  # spec default

    def test_mux_pool_cannot_shard_exactly(self):
        # ECMP hashes the flow onto a MUX, so even a queue-blind inner
        # policy is not one pick sequence per shard ...
        mux = MuxPool(lambda: LeastConnection(["d1", "d2"]), num_muxes=2)
        assert mux.uses_flow
        # ... but a MUX-fronted spec still plans epoch mode.
        for policy in ("lc", "rr"):
            plan = plan_shards(request_spec(policy=policy, num_muxes=2), shards=4)
            assert plan.mode == "epoch" and plan.fallback_reason is None

    @pytest.mark.parametrize(
        "policy, fragment",
        [
            ("wlc", "connection counts"),
            ("p2", "connection counts"),
            ("hash", "flow 5-tuple"),
            ("dns", "flow 5-tuple"),
            ("wrr", "deterministic sequence"),
        ],
    )
    def test_stateful_policies_cannot_shard_exactly(self, policy, fragment):
        # What the policy declares it reads is what rules out independent
        # shards: connection counts, the flow, or one global sequence.
        declared = policy_registry()[policy].factory
        if fragment == "connection counts":
            assert declared.uses_connection_counts
        elif fragment == "flow 5-tuple":
            assert declared.uses_flow
        else:
            assert not (declared.uses_connection_counts or declared.uses_flow)
        assert policy not in SHARDABLE_POLICIES
        # ... and they still shard, by epochs:
        assert policy_fallback_reason(policy) is None
        plan = plan_shards(request_spec(policy=policy), shards=4)
        assert plan.mode == "epoch"

    def test_a_policy_without_an_epoch_router_plans_serial(self, monkeypatch):
        # A copy with every built-in loaded, so nothing registers into it.
        monkeypatch.setattr(lb_base, "_REGISTRY", lb_base.policy_registry())
        lb_base.register_policy("novel", RoundRobin, weighted=False)
        plan = plan_shards(request_spec(policy="novel"), shards=4)
        assert plan.mode == "serial"
        assert plan.fallback_reason == (
            "policy 'novel' has no epoch router, so shards cannot replay its picks"
        )

    def test_timeline_specs_plan_epoch_mode(self):
        spec = request_spec(
            timeline=TimelineSpec(events=(), horizon_s=10.0)
        )
        plan = plan_shards(spec, shards=4)
        assert plan.mode == "epoch"

    def test_fleet_only_timeline_events_fall_back(self):
        spec = request_spec(
            timeline=TimelineSpec(
                events=(
                    EventSpec(
                        time_s=1.0,
                        kind="arrival_scale",
                        vip="VIP-1",
                        value=2.0,
                    ),
                ),
                horizon_s=10.0,
            )
        )
        plan = plan_shards(spec, shards=4)
        assert plan.mode == "serial"
        assert "fleet" in plan.fallback_reason

    def test_non_request_runners_fall_back(self):
        spec = ExperimentSpec(name="fluid", runner="fluid")
        plan = plan_shards(spec, shards=4)
        assert plan.mode == "serial"
        assert "request" in plan.fallback_reason

    def test_single_shard_is_serial(self):
        plan = plan_shards(request_spec(), shards=1)
        assert plan.mode == "serial"

    def test_split_dip_ids_is_balanced_and_complete(self):
        ids = [f"d{i}" for i in range(10)]
        slices = split_dip_ids(ids, 4)
        assert [len(s) for s in slices] == [3, 3, 2, 2]
        assert [d for s in slices for d in s] == ids
        with pytest.raises(ConfigurationError):
            split_dip_ids(ids, 0)


class TestKernel:
    def test_poisson_times_cover_the_horizon(self):
        times = EpochArrivalStream(3, 1000.0).take_until(5.0)
        assert times[0] > 0 and times[-1] < 5.0
        assert np.all(np.diff(times) > 0)
        # Count is Poisson(5000): 6 sigma on either side.
        assert 4575 < times.size < 5425

    def test_streams_partition_the_global_stream(self):
        times = EpochArrivalStream(1, 2000.0).take_until(4.0)
        router = make_epoch_router("rr", num_dips=8, dip_rank=range(8), seed=1)
        picks = router.route(times, None, None)
        streams = [times[picks == d] for d in range(8)]
        counts = [stream.size for stream in streams]
        assert max(counts) - min(counts) <= 1  # cyclic split is exact
        assert all(np.array_equal(streams[d], times[d::8]) for d in range(8))

    def test_station_matches_mm1_mean(self):
        # M/M/1 at rho=0.5: mean sojourn = 1 / (mu - lambda) = 2/mu.
        rng = np.random.default_rng(11)
        arrivals = rng.exponential(1.0 / 100.0, size=40_000).cumsum()
        services = np.random.default_rng(12).standard_exponential(
            arrivals.size
        ) * (1.0 / 200.0)
        outcome = simulate_station(
            arrivals, services, servers=1, queue_capacity=10_000
        )
        mean_s = float(np.nanmean(outcome.latency_ms)) / 1000.0
        assert mean_s == pytest.approx(1.0 / 100.0, rel=0.05)
        assert outcome.submitted == arrivals.size and outcome.dropped == 0

    def test_station_drops_when_queue_full(self):
        arrivals = np.array([0.0, 0.001, 0.002, 0.003])
        services = np.full(4, 10.0)
        outcome = simulate_station(
            arrivals, services, servers=1, queue_capacity=1
        )
        # One in service, one waiting, the rest dropped.
        assert outcome.dropped == 2
        assert np.isnan(outcome.latency_ms[2]) and not outcome.completed[2]
        assert outcome.timestamp[2] == pytest.approx(0.002)

    def test_warmup_requests_shape_queues_but_produce_no_records(self):
        arrivals = np.array([0.0, 0.5, 1.5])
        services = np.full(3, 1.0)
        outcome = simulate_station(
            arrivals, services, servers=1, queue_capacity=16, measure_from=1.0
        )
        assert outcome.submitted == 1  # only the t=1.5 arrival is measured
        # It queued behind both warm-up requests (departures at 1.0, 2.0).
        assert outcome.latency_ms[0] == pytest.approx((2.0 + 1.0 - 1.5) * 1000)


class TestShardedExecution:
    def test_statistical_equivalence_round_robin_1m(self):
        # The tentpole's equivalence bar: the cyclic split is the *same*
        # splitting law the serial engine applies, so at 1M requests the
        # two estimators of the same M/M/c/K system must agree tightly.
        spec = request_spec(num_dips=32, num_requests=1_000_000)
        serial = execute(spec)
        sharded = execute(spec, shards=4, workers=1)
        assert sharded.metrics["mean_latency_ms"] == pytest.approx(
            serial.metrics["mean_latency_ms"], rel=0.02
        )
        assert sharded.metrics["p99_latency_ms"] == pytest.approx(
            serial.metrics["p99_latency_ms"], rel=0.05
        )
        assert sharded.metrics["drop_fraction"] == pytest.approx(
            serial.metrics["drop_fraction"], abs=0.002
        )
        # Per-DIP shares and utilizations line up too.
        for dip, row in sharded.dip_summaries.items():
            assert row["cpu_utilization"] == pytest.approx(
                serial.dip_summaries[dip]["cpu_utilization"], abs=0.05
            )

    def test_statistical_equivalence_weighted_random(self):
        spec = request_spec(
            policy="wrandom", num_dips=16, num_requests=300_000
        )
        serial = execute(spec)
        sharded = execute(spec, shards=4, workers=1)
        assert sharded.metrics["mean_latency_ms"] == pytest.approx(
            serial.metrics["mean_latency_ms"], rel=0.03
        )
        assert sharded.metrics["p99_latency_ms"] == pytest.approx(
            serial.metrics["p99_latency_ms"], rel=0.08
        )

    def test_bit_identical_across_repeats_and_shard_counts(self):
        spec = request_spec(num_dips=8, num_requests=50_000)
        runs = [
            execute(spec, shards=4, workers=1),
            execute(spec, shards=4, workers=1),
            execute(spec, shards=2, workers=1),
        ]
        assert runs[0].metrics == runs[1].metrics  # repeat: bit-identical
        assert runs[0].metrics == runs[2].metrics  # shard-count invariant
        assert runs[0].dip_summaries == runs[1].dip_summaries
        assert runs[0].dip_summaries == runs[2].dip_summaries
        lats = [
            r.detail["collector"].latencies_ms() for r in runs
        ]
        assert np.array_equal(lats[0], lats[1])
        assert np.array_equal(lats[0], lats[2])

    @pytest.mark.parametrize("shards, workers", FAN_OUTS)
    def test_worker_processes_match_inline_bitwise(self, shards, workers):
        spec = request_spec(num_dips=8, num_requests=40_000)
        inline = execute(spec, shards=shards, workers=1)
        multi = execute(spec, shards=shards, workers=workers)
        assert inline.metrics == multi.metrics
        assert inline.dip_summaries == multi.dip_summaries
        assert multi.provenance.shard_mode == "exact"
        assert multi.provenance.shards == shards
        assert multi.provenance.workers == min(shards, workers)

    def test_controller_weights_drive_the_thinning(self):
        # A squeezed three-DIP pool: KnapsackLB shifts weight away from the
        # weak DIP, and the sharded run must route by those weights.
        spec = ExperimentSpec(
            name="weighted-shard",
            runner="request",
            pool=PoolSpec(kind="three_dip", capacity_ratio=0.5),
            workload=WorkloadSpec(
                load_fraction=0.7, num_requests=60_000, warmup_s=1.0
            ),
            policy=PolicySpec(name="wrandom"),
            controller=ControllerSpec(enabled=True),
            seed=3,
        )
        result = execute(spec, shards=3, workers=1)
        assert result.provenance.shards == 3
        shares = {
            dip: row["requests"] for dip, row in result.dip_summaries.items()
        }
        assert shares["DIP-LC"] < shares["DIP-HC-1"]
        assert shares["DIP-LC"] < shares["DIP-HC-2"]

    def test_fallback_executes_serially_with_reason_in_provenance(self, caplog):
        spec = ExperimentSpec(
            name="fluid-shard",
            runner="fluid",
            controller=ControllerSpec(enabled=False),
        )
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            result = execute(spec, shards=4)
        assert result.provenance.shards == 1
        assert result.provenance.shard_mode == "serial"
        assert "request" in result.provenance.fallback_reason
        assert any("request" in r.message for r in caplog.records)

    def test_plan_must_cover_the_pool(self):
        spec = request_spec(num_dips=8)
        bogus = ShardPlan(
            shards=2,
            mode="exact",
            dip_slices=(("DIP-1",), ("DIP-2",)),
        )
        with pytest.raises(ConfigurationError, match="cover"):
            run_request_sharded(spec, bogus, workers=1)


class TestEpochExecution:
    """The epoch-synchronized engine: every stateful policy, MUX pools,
    timelines — bit-identical per (seed, sync_interval_s), invariant to
    shard count and process fan-out, and convergent to serial as the sync
    interval shrinks."""

    @pytest.mark.parametrize("policy", ["wrr", "hash", "dns", "lc", "wlc", "p2"])
    def test_bit_identical_repeats_per_policy(self, policy):
        spec = request_spec(policy=policy, num_dips=8, num_requests=8_000)
        first = execute(spec, shards=4, workers=1)
        second = execute(spec, shards=4, workers=1)
        assert first.provenance.shard_mode == "epoch"
        assert first.metrics == second.metrics
        assert summaries_equal(first.dip_summaries, second.dip_summaries)

    def test_bit_identical_with_mux_pool(self):
        spec = request_spec(
            policy="lc", num_muxes=4, num_dips=8, num_requests=8_000
        )
        first = execute(spec, shards=4, workers=1)
        second = execute(spec, shards=4, workers=1)
        assert first.provenance.shard_mode == "epoch"
        assert first.metrics == second.metrics

    def test_bit_identical_timeline_dip_fail(self):
        spec = request_spec(
            policy="lc", num_dips=8, timeline=dip_fail_timeline()
        )
        first = execute(spec, shards=4, workers=1)
        second = execute(spec, shards=4, workers=1)
        assert first.metrics == second.metrics
        assert first.windows == second.windows
        # Events land in the same windows the serial engine puts them in.
        serial = execute(spec)
        assert [w.events for w in first.windows] == [
            w.events for w in serial.windows
        ]
        assert first.metrics["timeline_events"] == 2.0

    def test_merged_metrics_independent_of_shard_count(self):
        spec = request_spec(policy="wlc", num_dips=8, num_requests=8_000)
        two = execute(spec, shards=2, workers=1)
        four = execute(spec, shards=4, workers=1)
        assert two.metrics == four.metrics
        assert summaries_equal(two.dip_summaries, four.dip_summaries)

    @pytest.mark.parametrize(
        "shards, workers, variant",
        [(*fan_out, "lc") for fan_out in FAN_OUTS]
        + [(4, 2, "mux_pool"), (4, 2, "dip_fail")],
    )
    def test_process_mode_matches_inline_bitwise(self, shards, workers, variant):
        spec = {
            "lc": request_spec(policy="lc", num_dips=8, num_requests=8_000),
            "mux_pool": request_spec(
                policy="lc", num_muxes=4, num_dips=8, num_requests=8_000
            ),
            "dip_fail": request_spec(
                policy="lc", num_dips=8, timeline=dip_fail_timeline()
            ),
        }[variant]
        inline = execute(spec, shards=shards, workers=1)
        multi = execute(spec, shards=shards, workers=workers)
        assert inline.metrics == multi.metrics
        assert summaries_equal(inline.dip_summaries, multi.dip_summaries)
        assert inline.windows == multi.windows
        assert multi.provenance.shard_mode == "epoch"
        assert multi.provenance.shards == shards
        assert multi.provenance.workers == min(shards, workers)

    @pytest.mark.parametrize(
        "policy, shards, workers, processes",
        [("lc", 4, 2, 2), ("lc", 2, 4, 2), ("rr", 2, 4, 2), ("lc", 4, 1, 1)],
    )
    def test_provenance_records_the_processes_that_simulated(
        self, monkeypatch, tmp_path, policy, shards, workers, processes
    ):
        # Every simulating process appends its PID as it builds its
        # simulation; a forked worker inherits the patched constructor.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("counts PIDs through a fork-inherited monkeypatch")
        from repro.parallel.epoch import EpochShardSim

        pids = tmp_path / "pids"
        original = EpochShardSim.__init__

        def counting_init(self, payload):
            with open(pids, "a") as out:
                out.write(f"{os.getpid()}\n")
            original(self, payload)

        monkeypatch.setattr(EpochShardSim, "__init__", counting_init)
        spec = request_spec(policy=policy, num_dips=8, num_requests=8_000)
        result = execute(spec, shards=shards, workers=workers)
        assert len(set(pids.read_text().split())) == processes
        assert result.provenance.workers == processes

    @pytest.mark.parametrize("policy", ["lc", "wlc"])
    def test_sync_interval_to_zero_converges_to_serial(self, policy):
        # The staleness property the docs promise: as sync_interval_s → 0
        # the synced view approaches the serial engine's live counts and
        # the error shrinks roughly linearly in the interval (measured:
        # ~15% at 5ms, ~8.5% at 2ms, ~4.6% at 1ms for this workload;
        # seed-to-seed noise is ~0.6%).  Different-but-equally-valid RNG
        # draws keep the limit from being bit-equal.
        spec = request_spec(policy=policy, num_dips=8, num_requests=40_000)
        serial = execute(spec)

        def rel_error(result):
            return abs(
                result.metrics["mean_latency_ms"]
                - serial.metrics["mean_latency_ms"]
            ) / serial.metrics["mean_latency_ms"]

        tight = execute(
            spec.with_overrides({"sync_interval_s": 0.001}),
            shards=4,
            workers=1,
        )
        loose = execute(
            spec.with_overrides({"sync_interval_s": 0.05}), shards=4, workers=1
        )
        assert rel_error(tight) < 0.06
        assert rel_error(tight) < rel_error(loose)

    def test_staleness_crosscheck_reports_deltas(self):
        spec = request_spec(policy="lc", num_dips=8, num_requests=6_000)
        report = staleness_crosscheck(
            spec, shards=4, sync_intervals=(0.05, 0.5), workers=1
        )
        assert set(report) == {"serial", "epoch"}
        assert sorted(report["epoch"]) == [0.05, 0.5]
        for row in report["epoch"].values():
            for key in ("mean_rel", "p50_rel", "p99_rel", "drop_abs"):
                assert np.isfinite(row[key]) and row[key] >= 0.0

    def test_epoch_provenance_records_mode_interval_and_clamp(self):
        spec = request_spec(
            policy="lc", num_dips=4, num_requests=4_000, sync_interval_s=0.1
        )
        result = execute(spec, shards=8, workers=1)  # clamped to 4 DIPs
        assert result.provenance.shard_mode == "epoch"
        assert result.provenance.shards == 4
        assert result.provenance.sync_interval_s == pytest.approx(0.1)
        assert result.provenance.fallback_reason is None


class TestSerialEpochWrr:
    """``wrr`` has one definition: the epoch router and the serial policy
    pick through the same kernel with the same total, so they agree on
    every arrival, not just in law."""

    @staticmethod
    def weight_vector(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 65))
        kind = seed % 4
        if kind == 0:  # normalised, as the controller programs them
            w = rng.uniform(0.05, 1.0, n)
            return w / w.sum()
        if kind == 1:  # un-normalised
            return rng.uniform(0.5, 2.0, n)
        if kind == 2:  # runs of equal weights (same-capacity DIP groups)
            return np.repeat(rng.uniform(0.1, 3.0, 4), -(-n // 4))[:n]
        w = rng.uniform(0.0, 1.0, n)  # some DIPs parked at zero
        w[rng.random(n) < 0.25] = 0.0
        return w

    def test_router_returns_the_picks_select_makes(self):
        arrivals, flip_at = 50_000, 25_000
        flow = FlowKey(src_ip="10.1.0.1", src_port=1024, dst_ip="10.0.0.1", dst_port=80)
        ignored = np.empty(0, dtype=np.int64)
        for seed in range(40):
            w = self.weight_vector(seed)
            dips = [f"DIP-{i + 1}" for i in range(w.size)]
            index = {dip: i for i, dip in enumerate(dips)}
            policy = WeightedRoundRobin(dips, weights=dict(zip(dips, w.tolist())))
            router = _SmoothWrrRouter(w.size, list(range(w.size)))
            router.set_weights(w)
            flipped = int(np.argmax(w))  # the busiest DIP goes away mid-run

            serial, epoch = [], []
            for count in (flip_at, arrivals - flip_at):
                serial += [index[policy.select(flow)] for _ in range(count)]
                epoch.append(router.route(np.empty(count), ignored, ignored))
                policy.set_healthy(dips[flipped], False)
                router.set_healthy(flipped, False)
            epoch = np.concatenate(epoch)

            differing = np.flatnonzero(epoch != np.array(serial))
            assert differing.size == 0, (
                f"seed {seed} ({w.size} DIPs): first differing pick {differing[0]}"
            )


class TestPolicySeedKwargs:
    def test_seeded_policies_get_the_seed(self):
        assert policy_seed_kwargs("p2", seed=5) == {"seed": 5}
        assert policy_seed_kwargs("dns", seed=1) == {"seed": 1}
        assert policy_seed_kwargs("random", seed=0) == {"seed": 0}
        assert policy_seed_kwargs("wrandom", seed=9) == {"seed": 9}

    def test_unseeded_policies_get_nothing(self):
        for name in ("rr", "wrr", "lc", "wlc", "hash"):
            assert policy_seed_kwargs(name, seed=3) == {}

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            policy_seed_kwargs("nope")


class TestColumnarMerge:
    def test_extend_columns_interns_and_appends(self):
        collector = MetricsCollector()
        collector.extend_columns(
            "d1",
            np.array([1.0, 2.0]),
            np.array([True, True]),
            np.array([0.1, 0.2]),
        )
        collector.record_request("d2", 3.0, True, 0.3)
        collector.extend_columns(
            "d1",
            np.array([4.0, float("nan")]),
            np.array([True, False]),
            np.array([0.4, 0.5]),
        )
        assert collector.total_requests == 5
        assert collector.mean_latency_ms() == pytest.approx((1 + 2 + 3 + 4) / 4)
        share = collector.request_share()
        assert share["d1"] == pytest.approx(0.8)
        assert collector.drop_fraction() == pytest.approx(0.2)
        # Empty columns still intern the DIP for share/summaries.
        collector.extend_columns(
            "d3", np.array([]), np.array([], dtype=bool), np.array([])
        )
        assert "d3" in collector.summaries()

    def test_extend_columns_rejects_ragged_input(self):
        collector = MetricsCollector()
        with pytest.raises(ConfigurationError, match="equal-length"):
            collector.extend_columns(
                "d1", np.array([1.0]), np.array([True, False]), np.array([0.0])
            )

    def test_window_rows_fold_deterministically_on_merged_columns(self):
        def build() -> MetricsCollector:
            collector = MetricsCollector()
            rng = np.random.default_rng(5)
            for dip in ("d1", "d2", "d3"):
                n = 500
                ts = np.sort(rng.uniform(0, 10, size=n))
                collector.extend_columns(
                    dip, rng.exponential(5.0, size=n), np.ones(n, bool), ts
                )
            return collector

        rows_a = build().window_rows(window_s=2.0, start_s=0.0, end_s=10.0)
        rows_b = build().window_rows(window_s=2.0, start_s=0.0, end_s=10.0)
        assert rows_a == rows_b
        assert len(rows_a) == 5
        assert sum(r["metrics"]["requests"] for r in rows_a) == 1500


class TestWorkerPool:
    def fluid_sweep(self) -> Sweep:
        base = ExperimentSpec(
            name="pool-sweep",
            runner="fluid",
            controller=ControllerSpec(enabled=False),
        )
        return Sweep.from_axes(
            base, {"workload.load_fraction": [0.4, 0.6, 0.8]}
        )

    def test_parallel_sweep_matches_serial(self):
        sweep = self.fluid_sweep()
        serial = sweep.run()
        with WorkerPool(max_workers=2) as pool:
            parallel = sweep.run(pool=pool)
        assert len(serial) == len(parallel) == 3
        for ours, theirs in zip(serial, parallel):
            assert ours.spec.name == theirs.spec.name
            assert ours.metrics_equal(theirs)

    def test_pool_is_reused_across_sweeps(self):
        sweep = self.fluid_sweep()
        with WorkerPool(max_workers=2) as pool:
            sweep.run(pool=pool)
            executor = pool._executor
            sweep.run(pool=pool)
            assert pool._executor is executor  # warm, not re-created
            assert pool.tasks_dispatched == 6

    def test_single_spec_sweep_never_forks(self, monkeypatch):
        import repro.parallel.pool as pool_module

        def boom(*args, **kwargs):  # pragma: no cover - must not be called
            raise AssertionError("a single-spec sweep must run inline")

        monkeypatch.setattr(pool_module, "WorkerPool", boom)
        base = ExperimentSpec(
            name="solo", runner="fluid", controller=ControllerSpec(enabled=False)
        )
        sweep = Sweep.from_axes(base, {"workload.load_fraction": [0.5]})
        results = sweep.run(max_workers=8)
        assert len(results) == 1
        assert results[0].metrics["mean_latency_ms"] > 0

    def test_single_worker_pool_runs_inline(self):
        pool = WorkerPool(max_workers=1)
        assert pool.map(len, [[1, 2], [3]]) == [2, 1]
        assert not pool.started
        with pytest.raises(ConfigurationError):
            WorkerPool(max_workers=0)


class TestSolveCache:
    def problem(self, bump: float = 0.0):
        return build_problem(
            {
                "d1": {0.2: 5.0 + bump, 0.5: 8.0, 0.8: 12.0},
                "d2": {0.2: 4.0, 0.5: 7.0, 0.8: 13.0},
            },
            total_weight=1.0,
            total_weight_tolerance=0.11,
        )

    def test_identical_problems_hit(self):
        cache = SolveCache()
        first = solve(self.problem(), backend="dp", cache=cache)
        second = solve(self.problem(), backend="dp", cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert second.weights == first.weights
        assert second.solve_time_s == 0.0  # re-stamped: the solve was free

    def test_changed_problems_and_backends_miss(self):
        cache = SolveCache()
        solve(self.problem(), backend="dp", cache=cache)
        solve(self.problem(bump=1.0), backend="dp", cache=cache)
        solve(self.problem(), backend="branch_and_bound", cache=cache)
        assert cache.hits == 0 and cache.misses == 3

    def test_lru_bound(self):
        cache = SolveCache(maxsize=1)
        solve(self.problem(), backend="dp", cache=cache)
        solve(self.problem(bump=1.0), backend="dp", cache=cache)
        solve(self.problem(), backend="dp", cache=cache)  # evicted: miss
        assert cache.hits == 0 and len(cache) == 1

    def test_fleet_controller_shares_one_cache_across_vips(self):
        from repro.core import FleetController
        from repro.workloads import build_shared_dip_fleet

        fleet = build_shared_dip_fleet(num_vips=2, num_dips=6, seed=5)
        plane = FleetController(fleet)
        for vip in fleet.vips:
            plane.onboard_vip(vip)
        plane.converge_all(settle_steps=1)
        assert {
            c.solve_cache for c in plane.controllers.values()
        } == {plane.solve_cache}
        hits_before = plane.solve_cache.hits
        # Unchanged curves -> identical problems -> every re-solve is free.
        for controller in plane.controllers.values():
            controller.compute_weights()
        assert plane.solve_cache.hits >= hits_before + len(plane.controllers)


class TestCli:
    def test_run_shards_flag_round_trips_through_artifact(self, capsys, tmp_path):
        import json

        from repro.api.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(request_spec(num_requests=20_000).to_json())
        out_file = tmp_path / "result.json"
        code = main(
            [
                "run",
                str(spec_file),
                "--shards",
                "4",
                "--workers",
                "1",
                "-o",
                str(out_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        loaded = RunResult.load(out_file)
        assert loaded.provenance.shards == 4
        assert loaded.provenance.workers == 1
        assert loaded.metrics["requests_submitted"] > 0
        # And the artifact JSON carries the execution shape explicitly.
        raw = json.loads(out_file.read_text())
        assert raw["provenance"]["shards"] == 4

    def test_sync_interval_flag_round_trips_through_artifact(
        self, capsys, tmp_path
    ):
        from repro.api.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            request_spec(policy="lc", num_dips=4, num_requests=4_000).to_json()
        )
        out_file = tmp_path / "result.json"
        code = main(
            [
                "run",
                str(spec_file),
                "--shards",
                "2",
                "--workers",
                "1",
                "--sync-interval",
                "0.1",
                "-o",
                str(out_file),
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "epoch-sharded run" in err
        assert "sync_interval_s=0.1" in err
        loaded = RunResult.load(out_file)
        assert loaded.provenance.shard_mode == "epoch"
        assert loaded.provenance.sync_interval_s == pytest.approx(0.1)

    def test_fallback_note_names_the_reason(self, capsys):
        from repro.api.cli import main

        code = main(
            [
                "run",
                "fluid_uniform_pool",
                "--set",
                "controller.enabled=false",
                "--shards",
                "4",
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "serial fallback" in err

    def test_sweep_accepts_workers_alias(self, capsys):
        from repro.api.cli import main

        code = main(
            [
                "sweep",
                "fluid_uniform_pool",
                "--set",
                "controller.enabled=false",
                "--axis",
                "workload.load_fraction=0.4,0.6",
                "--workers",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "load_fraction=0.4" in out


class TestProvenance:
    def test_shards_and_workers_round_trip(self):
        spec = request_spec(num_requests=1_000, num_dips=2)
        result = RunResult(
            spec=spec,
            runner="request",
            seed=7,
            metrics={"mean_latency_ms": 1.0},
            dip_summaries={},
            provenance=Provenance(
                started_at="now", wall_clock_s=0.1, shards=4, workers=2
            ),
        )
        loaded = RunResult.from_dict(result.to_dict())
        assert loaded.provenance.shards == 4
        assert loaded.provenance.workers == 2

    def test_epoch_fields_round_trip(self):
        spec = request_spec(num_requests=1_000, num_dips=2)
        result = RunResult(
            spec=spec,
            runner="request",
            seed=7,
            metrics={},
            dip_summaries={},
            provenance=Provenance(
                started_at="now",
                wall_clock_s=0.1,
                shards=4,
                workers=2,
                shard_mode="epoch",
                sync_interval_s=0.25,
                fallback_reason=None,
            ),
        )
        loaded = RunResult.from_dict(result.to_dict())
        assert loaded.provenance.shard_mode == "epoch"
        assert loaded.provenance.sync_interval_s == pytest.approx(0.25)
        assert loaded.provenance.fallback_reason is None

    def test_fallback_reason_round_trips(self):
        spec = request_spec(num_requests=1_000, num_dips=2)
        result = RunResult(
            spec=spec,
            runner="request",
            seed=7,
            metrics={},
            dip_summaries={},
            provenance=Provenance(
                started_at="now",
                wall_clock_s=0.1,
                fallback_reason="runner 'fluid' is not request-level",
            ),
        )
        loaded = RunResult.from_dict(result.to_dict())
        assert "fluid" in loaded.provenance.fallback_reason

    def test_old_artifacts_default_to_serial(self):
        spec = request_spec(num_requests=1_000, num_dips=2)
        data = RunResult(
            spec=spec,
            runner="request",
            seed=7,
            metrics={},
            dip_summaries={},
            provenance=Provenance(started_at="now", wall_clock_s=0.1),
        ).to_dict()
        del data["provenance"]["shards"], data["provenance"]["workers"]
        del data["provenance"]["shard_mode"]
        del data["provenance"]["sync_interval_s"]
        del data["provenance"]["fallback_reason"]
        loaded = RunResult.from_dict(data)
        assert loaded.provenance.shards == 1
        assert loaded.provenance.workers == 1
        assert loaded.provenance.shard_mode == "serial"
        assert loaded.provenance.sync_interval_s is None
        assert loaded.provenance.fallback_reason is None
