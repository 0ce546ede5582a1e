"""Unit tests for the DIP substrate (VM types, latency model, antagonist, DIP)."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.probes import DipFailureError, serve_probe_batch

from repro.backends import (
    D8A_V4,
    DS1_V2,
    DS2_V2,
    DS3_V2,
    DS4_V2,
    F2S_V2,
    F8S_V2,
    Antagonist,
    DipServer,
    LatencyModel,
    custom_vm_type,
    erlang_c,
    scaled_model,
)
from repro.exceptions import ConfigurationError
from repro.sim.fleet import Fleet, FleetState, one_vip_fleet


def offered(rate: float, *dips: DipServer) -> FleetState:
    """The state of a fleet whose one VIP offers ``rate`` to ``dips``, in
    equal shares."""
    return one_vip_fleet({d.dip_id: d for d in dips}, rate, "rr").state()


class TestVmTypes:
    def test_capacity_grows_with_cores(self):
        assert DS1_V2.base_capacity_rps < DS2_V2.base_capacity_rps < DS3_V2.base_capacity_rps

    def test_ds_scaling_sublinear(self):
        """The paper notes multi-core DS VMs do not scale linearly."""
        per_core_1 = DS1_V2.base_capacity_rps / DS1_V2.vcpus
        per_core_4 = DS3_V2.base_capacity_rps / DS3_V2.vcpus
        assert per_core_4 < per_core_1

    def test_f_series_15_to_20_percent_faster(self):
        """§2.2/§6: F-series ~15-20 % faster than DS at equal core count."""
        ratio = F8S_V2.base_capacity_rps / DS4_V2.base_capacity_rps
        assert 1.14 <= ratio <= 1.21

    def test_f_series_lower_idle_latency(self):
        assert F8S_V2.idle_latency_ms < DS4_V2.idle_latency_ms

    def test_idle_latency_consistent_with_capacity(self):
        """service-time × capacity == vcpus (M/M/c consistency)."""
        for vm in (DS1_V2, DS2_V2, DS3_V2, DS4_V2, F8S_V2, F2S_V2, D8A_V4):
            implied_cores = vm.idle_latency_ms / 1000.0 * vm.base_capacity_rps
            assert implied_cores == pytest.approx(vm.vcpus, rel=1e-6)

    def test_custom_vm_type(self):
        vm = custom_vm_type("tiny", vcpus=1, capacity_rps=100.0)
        assert vm.base_capacity_rps == 100.0

    def test_invalid_vm(self):
        with pytest.raises(ConfigurationError):
            custom_vm_type("bad", vcpus=0, capacity_rps=100.0)


class TestErlangC:
    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_saturated(self):
        assert erlang_c(4, 4.0) == 1.0

    def test_single_server_equals_utilization(self):
        # For M/M/1, P(queue) = rho.
        assert erlang_c(1, 0.5) == pytest.approx(0.5)

    def test_monotone_in_load(self):
        values = [erlang_c(4, load) for load in (0.5, 1.0, 2.0, 3.0, 3.9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_more_servers_less_queueing(self):
        # Same utilization (50 %), more servers → lower queueing probability.
        assert erlang_c(8, 4.0) < erlang_c(2, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            erlang_c(0, 1.0)
        with pytest.raises(ConfigurationError):
            erlang_c(2, -1.0)


class TestLatencyModel:
    @pytest.fixture
    def model(self):
        return LatencyModel(servers=2, capacity_rps=800.0, idle_latency_ms=2.5)

    def test_idle_latency_at_zero_load(self, model):
        assert model.mean_latency_ms(0.0) == pytest.approx(2.5)

    def test_latency_flat_at_low_load(self, model):
        """Fig. 5: minimal latency increase while CPU has headroom."""
        assert model.mean_latency_ms(200.0) < 2.5 * 1.3

    def test_latency_rises_steeply_near_capacity(self, model):
        at_60 = model.mean_latency_ms(0.6 * 800)
        at_95 = model.mean_latency_ms(0.95 * 800)
        assert at_95 > at_60 * 2

    def test_latency_monotone_in_rate(self, model):
        rates = [0, 100, 300, 500, 700, 780, 900]
        latencies = [model.mean_latency_ms(r) for r in rates]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))

    def test_latency_bounded_past_saturation(self, model):
        assert model.mean_latency_ms(2000.0) < 1000.0

    def test_utilization(self, model):
        assert model.utilization(400.0) == pytest.approx(0.5)

    def test_no_drops_below_95_percent(self, model):
        assert model.drop_probability(0.9 * 800) == 0.0

    def test_drops_above_capacity(self, model):
        assert model.drop_probability(1.2 * 800) > 0.0

    def test_drop_probability_grows_with_overload(self, model):
        assert model.drop_probability(1.5 * 800) > model.drop_probability(1.1 * 800)

    def test_ping_latency_flat(self, model):
        """Fig. 5: ICMP/TCP pings do not reflect application load."""
        idle_ping = model.ping_latency_ms(0.0)
        loaded_ping = model.ping_latency_ms(0.9 * 800)
        assert loaded_ping == pytest.approx(idle_ping, rel=0.05)

    def test_scaled_model_shrinks_capacity(self, model):
        scaled = scaled_model(model, 0.6)
        assert scaled.capacity_rps == pytest.approx(480.0)
        assert scaled.idle_latency_ms > model.idle_latency_ms

    def test_scaled_model_higher_latency_same_rate(self, model):
        scaled = scaled_model(model, 0.6)
        assert scaled.mean_latency_ms(400.0) > model.mean_latency_ms(400.0)

    def test_scaled_model_invalid_factor(self, model):
        with pytest.raises(ConfigurationError):
            scaled_model(model, 0.0)

    def test_latency_plateau_is_idle_plus_a_full_queue_drain(self, model):
        """At and past saturation the queue stays full: 64 requests at 800 rps."""
        plateau = 2.5 + 64 / 800.0 * 1000.0
        assert model.mean_latency_ms(800.0) == pytest.approx(plateau)
        assert model.mean_latency_ms(4000.0) == pytest.approx(plateau)

    def test_mean_latency_inverts_by_bisection(self, model):
        """Strictly rising below saturation, so a latency names one rate."""
        target = model.mean_latency_ms(600.0)
        low, high = 0.0, 0.999 * 800.0
        for _ in range(60):
            mid = (low + high) / 2
            low, high = (mid, high) if model.mean_latency_ms(mid) < target else (low, mid)
        assert low == pytest.approx(600.0, rel=0.02)

    @pytest.mark.parametrize("factor", [0.9, 0.75, 0.6])
    def test_latency_at_equal_utilization_scales_with_service_time(self, model, factor):
        """An antagonist stretches every request by ``1 / factor``: at equal
        utilization, the queueing wait and the plateau stretch with it."""
        scaled = scaled_model(model, factor)
        for utilization in (0.1, 0.5, 0.9, 1.2):
            rate = utilization * model.capacity_rps
            assert scaled.utilization(rate * factor) == pytest.approx(utilization)
            assert scaled.mean_latency_ms(rate * factor) == pytest.approx(
                model.mean_latency_ms(rate) / factor, rel=1e-9
            )

    def test_scv_correction_scales_only_the_wait(self, model):
        wait = model.mean_latency_ms(600.0) - 2.5
        corrected = model.mean_latency_ms(600.0, scv_correction=2.0) - 2.5
        assert corrected == pytest.approx(2.0 * wait)
        assert model.mean_latency_ms(0.0, scv_correction=2.0) == 2.5

    def test_drop_ramp_between_threshold_and_capacity(self, model):
        assert model.drop_probability(0.975 * 800) == pytest.approx(0.025)
        # At capacity the structural loss is 0; the 1 % floor stands in.
        assert model.drop_probability(800.0) == pytest.approx(0.01)
        assert model.drop_probability(1600.0) == pytest.approx(0.5)

    def test_ping_latency_rise_is_capped_at_twice_capacity(self, model):
        assert model.ping_latency_ms(1600.0) == pytest.approx(0.3 * 1.02)
        assert model.ping_latency_ms(8000.0) == model.ping_latency_ms(1600.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(servers=0, capacity_rps=100.0, idle_latency_ms=1.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(servers=1, capacity_rps=0.0, idle_latency_ms=1.0)


class TestAntagonist:
    def test_no_copies_full_capacity(self):
        assert Antagonist().capacity_factor == 1.0

    def test_copies_reduce_capacity(self):
        antagonist = Antagonist(per_copy_loss=0.1)
        antagonist.set_copies(2)
        assert antagonist.capacity_factor == pytest.approx(0.81)

    def test_override_pins_exact_ratio(self):
        antagonist = Antagonist()
        antagonist.set_capacity_ratio(0.6)
        assert antagonist.capacity_factor == pytest.approx(0.6)

    def test_clear_restores(self):
        antagonist = Antagonist()
        antagonist.set_capacity_ratio(0.6)
        antagonist.clear()
        assert antagonist.capacity_factor == 1.0

    def test_history_recorded(self):
        antagonist = Antagonist()
        antagonist.set_capacity_ratio(0.75, at_time=10.0)
        antagonist.clear(at_time=20.0)
        assert antagonist.history == [(10.0, 0.75), (20.0, 1.0)]

    def test_set_copies_replaces_an_override(self):
        antagonist = Antagonist(per_copy_loss=0.1)
        antagonist.set_capacity_ratio(0.6)
        assert antagonist.set_copies(3, at_time=5.0) == pytest.approx(0.9**3)
        assert antagonist.capacity_override is None
        assert antagonist.capacity_factor == pytest.approx(0.729)
        assert antagonist.history[-1] == (5.0, pytest.approx(0.729))

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            Antagonist().set_capacity_ratio(0.0)

    def test_invalid_copies(self):
        with pytest.raises(ConfigurationError):
            Antagonist().set_copies(-1)


class TestDipServer:
    @pytest.fixture
    def dip(self, small_vm):
        return DipServer("d1", small_vm, seed=5, jitter_fraction=0.0)

    def test_capacity_matches_vm_type(self, dip, small_vm):
        assert dip.capacity_rps == pytest.approx(small_vm.base_capacity_rps)

    def test_capacity_ratio_reduces_capacity(self, dip):
        dip.set_capacity_ratio(0.6)
        assert dip.capacity_rps == pytest.approx(240.0)
        dip.antagonist.clear()
        assert dip.capacity_rps == pytest.approx(400.0)

    def test_utilization_tracks_the_offered_rate(self, dip):
        assert offered(200.0, dip).utilization["d1"] == pytest.approx(0.5)

    def test_utilization_saturates_at_one(self, dip):
        assert offered(800.0, dip).utilization["d1"] == 1.0

    def test_mean_latency_increases_with_load(self, dip):
        low = offered(100.0, dip).mean_latency_ms["d1"]
        assert offered(380.0, dip).mean_latency_ms["d1"] > low

    def test_probe_batch_reports_mean(self, dip):
        result = serve_probe_batch(dip, 200.0, 50)
        assert result.samples == 50
        assert result.mean_latency_ms == pytest.approx(
            dip.latency_model.mean_latency_ms(200.0), rel=0.05
        )
        assert not result.dropped

    def test_probe_batch_drops_when_overloaded(self, dip):
        result = serve_probe_batch(dip, 1200.0, 200)
        assert result.dropped
        assert result.drop_fraction > 0

    def test_failed_dip_raises(self, dip):
        dip.fail()
        with pytest.raises(DipFailureError):
            serve_probe_batch(dip, 0.0, 10)
        dip.recover()
        serve_probe_batch(dip, 0.0, 10)

    def test_failed_dip_zero_utilization(self, dip, small_vm):
        dip.fail()
        other = DipServer("d2", small_vm, seed=6)
        assert offered(200.0, dip, other).utilization["d1"] == 0.0

    def test_negative_rate_rejected(self, dip):
        with pytest.raises(ConfigurationError):
            dip.latency_model.utilization(-1.0)

    def test_probe_batch_validates_count(self, dip):
        fleet = one_vip_fleet({"d1": dip}, 100.0)
        with pytest.raises(ConfigurationError, match="num_requests must be >= 1"):
            fleet.probe_round(["d1"], 0)

    def test_ping_latency_ignores_load_and_antagonist(self, dip):
        idle = dip.latency_model.ping_latency_ms(0.0)
        dip.set_capacity_ratio(0.6)
        loaded = dip.latency_model.ping_latency_ms(390.0)
        assert loaded == pytest.approx(idle, rel=0.02)
        assert loaded < dip.idle_latency_ms < dip.latency_model.mean_latency_ms(390.0)

    def test_zero_jitter_batch_mean_is_the_model_mean(self, small_vm):
        dip = DipServer("d", small_vm, seed=5, jitter_fraction=0.0, scv_correction=1.7)
        result = serve_probe_batch(dip, 300.0, 25)
        corrected = dip.latency_model.mean_latency_ms(300.0, scv_correction=1.7)
        assert result.mean_latency_ms == pytest.approx(corrected, rel=1e-12)
        assert corrected > dip.latency_model.mean_latency_ms(300.0)

    def test_jitter_spreads_batch_means_around_the_model_mean(self, small_vm):
        dip = DipServer("d", small_vm, seed=5, jitter_fraction=0.2)
        means = [serve_probe_batch(dip, 200.0, 20).mean_latency_ms for _ in range(30)]
        assert len(set(means)) == len(means)
        assert np.mean(means) == pytest.approx(
            dip.latency_model.mean_latency_ms(200.0), rel=0.03
        )

    def test_probe_round_is_each_server_on_its_own(self, small_vm):
        """One fleet round over several DIPs draws what each DIP's lone
        batch draws at its rate; a down DIP reads ``None`` and costs the
        others nothing."""
        rates = {"a": 100.0, "b": 250.0, "c": 396.0}

        def pool():
            return [
                DipServer("a", small_vm, seed=3, jitter_fraction=0.0),
                DipServer("b", small_vm, seed=4, jitter_fraction=0.1),
                DipServer("c", small_vm, seed=5, jitter_fraction=0.1),
                DipServer("d", small_vm, seed=6, jitter_fraction=0.1),
            ]

        fleet, twins = Fleet({s.dip_id: s for s in pool()}), pool()
        for dip, rate in rates.items():
            fleet.create_vip(dip, dip_ids=[dip], total_rate_rps=rate)
        fleet.create_vip("down", dip_ids=["d", "a"], total_rate_rps=0.0)
        fleet.fail_dip("d")
        for _ in range(3):
            means, drops = fleet.probe_round(("a", "b", "c", "d"), 40)
            assert means[3] is None and drops[3] == 0
            for twin, mean, dropped in zip(twins[:3], means, drops):
                result = serve_probe_batch(twin, rates[twin.dip_id], 40)
                assert (result.mean_latency_ms, result.drop_fraction) == (mean, dropped / 40)

    def test_scaled_model_kept_per_capacity_factor(self, dip):
        dip.set_capacity_ratio(0.6)
        model = dip.latency_model
        assert dip.latency_model is model
        assert model == scaled_model(LatencyModel(1, 400.0, 2.5), 0.6)
        dip.set_capacity_ratio(0.75)
        assert dip.latency_model.capacity_rps == pytest.approx(300.0)
        dip.antagonist.clear()
        assert dip.latency_model.capacity_rps == pytest.approx(400.0)

    def test_the_generator_is_built_on_first_draw_from_the_seed(self, dip):
        import pickle

        assert "_rng" not in vars(dip)  # a server that never probes builds none
        unprobed = pickle.loads(pickle.dumps(dip))
        expected = np.random.default_rng(5).random(4)
        assert dip._rng.random(2).tolist() == expected[:2].tolist()
        # Pickled before its first draw, a server draws the seed's stream.
        assert unprobed._rng.random(4).tolist() == expected.tolist()
        # Pickled after, it goes on where it stopped.
        assert pickle.loads(pickle.dumps(dip))._rng.random(2).tolist() == expected[2:].tolist()


class TestOfferedRate:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rate_is_refused(self, small_dip, rate):
        fleet = one_vip_fleet({small_dip.dip_id: small_dip}, 100.0)
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            fleet.set_total_rate("vip", rate)
        assert fleet.state().total_rates_rps == {small_dip.dip_id: 100.0}


def scalar_probe_batch(dip, rate_rps, num_requests):
    """The per-request loop ``serve_probe_batch`` replaced, kept as reference.

    One Erlang-C mean and one scalar ``rng.normal`` per served request, on
    the DIP's own RNG.  Returns the ``ProbeResult`` fields plus the dropped
    count.
    """
    rng = dip._rng
    drop_p = dip.latency_model.drop_probability(rate_rps)
    drops = int(rng.binomial(num_requests, min(1.0, drop_p)))
    served = num_requests - drops
    if served == 0:
        return (float("inf"), True, 0, 1.0), drops
    latencies = []
    for _ in range(served):
        mean = dip.latency_model.mean_latency_ms(rate_rps, scv_correction=dip.scv_correction)
        if dip.jitter_fraction == 0:
            latencies.append(mean)
        else:
            sample = rng.normal(mean, mean * dip.jitter_fraction)
            latencies.append(float(max(mean * 0.25, sample)))
    fields = (float(np.mean(latencies)), drops > 0, served, drops / num_requests)
    return fields, drops


class TestProbeBatchMatchesScalarLoop:
    """One vector draw per batch consumes the stream the scalar draws did."""

    @pytest.mark.parametrize(
        "jitter, rate_rps, capacity_ratio, scv, batch, dropped",
        [
            (0.0, 200.0, None, 1.0, 100, "none"),
            (0.08, 200.0, None, 1.0, 100, "none"),
            (0.08, 200.0, 0.6, 1.0, 100, "none"),
            (0.08, 300.0, None, 1.7, 100, "none"),
            (0.0, 396.0, None, 1.0, 100, "some"),
            (0.08, 396.0, None, 1.0, 100, "some"),
            (0.08, 4e11, None, 1.0, 5, "all"),
        ],
    )
    def test_same_seed_twin(
        self, small_vm, jitter, rate_rps, capacity_ratio, scv, batch, dropped
    ):
        def build():
            dip = DipServer(
                "d", small_vm, seed=23, jitter_fraction=jitter, scv_correction=scv
            )
            if capacity_ratio is not None:
                dip.set_capacity_ratio(capacity_ratio)
            return dip

        dip, twin = build(), build()
        dropped_total = 0
        for _ in range(3):
            result = serve_probe_batch(dip, rate_rps, batch)
            expected, drops = scalar_probe_batch(twin, rate_rps, batch)
            assert (
                result.mean_latency_ms,
                result.dropped,
                result.samples,
                result.drop_fraction,
            ) == expected
            dropped_total += drops
        assert {
            "none": dropped_total == 0,
            "some": 0 < dropped_total < 3 * batch,
            "all": dropped_total == 3 * batch and result.mean_latency_ms == float("inf"),
        }[dropped]
        assert dip._rng.random() == twin._rng.random()

    @pytest.mark.parametrize("jitter", [0.0, 0.08])
    @pytest.mark.parametrize("batch", [1, 2, 7, 100])
    def test_mean_is_numpy_mean_of_the_served_draws(self, small_vm, jitter, batch):
        """Bit for bit ``latencies.mean()``, at every served count 1 … batch."""
        # Half the requests dropped at 800 rps; a few at 396 rps.
        rate_rps = 800.0 if batch < 100 else 396.0
        dip = DipServer("d", small_vm, seed=31, jitter_fraction=jitter)
        twin = DipServer("d", small_vm, seed=31, jitter_fraction=jitter)
        drop_p = twin.latency_model.drop_probability(rate_rps)
        served_counts = set()
        for _ in range(400 if batch < 100 else 20):
            result = serve_probe_batch(dip, rate_rps, batch)
            drops = int(twin._rng.binomial(batch, min(1.0, drop_p)))
            served = batch - drops
            assert result.samples == served
            if served == 0:
                assert result.mean_latency_ms == float("inf")
                continue
            served_counts.add(served)
            mean = twin.latency_model.mean_latency_ms(rate_rps)
            latencies = (
                np.full(served, mean)
                if jitter == 0
                else np.maximum(mean * 0.25, twin._rng.normal(mean, mean * jitter, size=served))
            )
            assert result.mean_latency_ms.hex() == float(latencies.mean()).hex()
        if batch < 100:
            assert served_counts == set(range(1, batch + 1))
        else:
            assert min(served_counts) < batch
