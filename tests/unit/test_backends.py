"""Unit tests for the DIP substrate (VM types, latency model, antagonist, DIP)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    DS1_V2,
    DS2_V2,
    DS3_V2,
    DS4_V2,
    F8S_V2,
    Antagonist,
    DipServer,
    LatencyModel,
    all_vm_types,
    custom_vm_type,
    erlang_c,
    get_vm_type,
    scaled_model,
)
from repro.exceptions import ConfigurationError, DipFailureError


class TestVmTypes:
    def test_catalogue_lookup(self):
        assert get_vm_type("DS1v2") is DS1_V2
        with pytest.raises(KeyError):
            get_vm_type("unknown")

    def test_catalogue_complete(self):
        names = {vm.name for vm in all_vm_types()}
        assert {"DS1v2", "DS2v2", "DS3v2", "F8sv2"}.issubset(names)

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
        for vm in all_vm_types():
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

    def test_max_rate_for_latency_inverse(self, model):
        target = model.mean_latency_ms(600.0)
        recovered = model.max_rate_for_latency(target)
        assert recovered == pytest.approx(600.0, rel=0.02)

    def test_latency_at_utilization(self, model):
        assert model.latency_at_utilization(0.5) == pytest.approx(
            model.mean_latency_ms(400.0)
        )

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

    def test_copies_for_ratio(self):
        antagonist = Antagonist(per_copy_loss=0.1)
        copies = antagonist.copies_for_ratio(0.75)
        assert (1 - 0.1) ** copies <= 0.75
        assert (1 - 0.1) ** (copies - 1) > 0.75

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
        dip.reset_capacity()
        assert dip.capacity_rps == pytest.approx(400.0)

    def test_cpu_utilization_tracks_offered_rate(self, dip):
        dip.set_offered_rate(200.0)
        assert dip.cpu_utilization == pytest.approx(0.5)

    def test_cpu_utilization_saturates_at_one(self, dip):
        dip.set_offered_rate(800.0)
        assert dip.cpu_utilization == 1.0

    def test_mean_latency_increases_with_load(self, dip):
        dip.set_offered_rate(100.0)
        low = dip.mean_latency_ms
        dip.set_offered_rate(380.0)
        assert dip.mean_latency_ms > low

    def test_request_sampling_no_jitter_equals_mean(self, dip):
        dip.set_offered_rate(200.0)
        assert dip.sample_request_latency_ms() == pytest.approx(dip.mean_latency_ms)

    def test_request_sampling_with_jitter_varies(self, small_vm):
        dip = DipServer("d2", small_vm, seed=5, jitter_fraction=0.2)
        dip.set_offered_rate(200.0)
        samples = {round(dip.sample_request_latency_ms(), 6) for _ in range(10)}
        assert len(samples) > 1

    def test_ping_latency_independent_of_load(self, dip):
        dip.set_offered_rate(0.0)
        idle = dip.sample_ping_latency_ms()
        dip.set_offered_rate(390.0)
        loaded = dip.sample_ping_latency_ms()
        assert loaded == pytest.approx(idle, rel=0.3)
        assert loaded < dip.mean_latency_ms

    def test_probe_batch_reports_mean(self, dip):
        dip.set_offered_rate(200.0)
        result = dip.serve_probe_batch(50)
        assert result.samples == 50
        assert result.mean_latency_ms == pytest.approx(dip.mean_latency_ms, rel=0.05)
        assert not result.dropped

    def test_probe_batch_drops_when_overloaded(self, dip):
        dip.set_offered_rate(1200.0)
        result = dip.serve_probe_batch(200)
        assert result.dropped
        assert result.drop_fraction > 0

    def test_failed_dip_raises(self, dip):
        dip.fail()
        with pytest.raises(DipFailureError):
            dip.serve_probe_batch(10)
        with pytest.raises(DipFailureError):
            dip.sample_request_latency_ms()
        dip.recover()
        dip.serve_probe_batch(10)

    def test_failed_dip_zero_utilization(self, dip):
        dip.set_offered_rate(200.0)
        dip.fail()
        assert dip.cpu_utilization == 0.0

    def test_negative_rate_rejected(self, dip):
        with pytest.raises(ConfigurationError):
            dip.set_offered_rate(-1.0)

    def test_probe_batch_validates_count(self, dip):
        with pytest.raises(ConfigurationError):
            dip.serve_probe_batch(0)

    def test_zero_jitter_dip_counts_served_requests(self, dip):
        """Regression: the zero-jitter path returned before counting."""
        dip.set_offered_rate(200.0)
        dip.serve_probe_batch(40)
        dip.sample_request_latency_ms()
        assert dip.served_requests == 41
        assert dip.dropped_requests == 0

    def test_scaled_model_kept_per_capacity_factor(self, dip):
        dip.set_capacity_ratio(0.6)
        model = dip.latency_model
        assert dip.latency_model is model
        assert model == scaled_model(LatencyModel(1, 400.0, 2.5), 0.6)
        dip.set_capacity_ratio(0.75)
        assert dip.latency_model.capacity_rps == pytest.approx(300.0)
        dip.reset_capacity()
        assert dip.latency_model.capacity_rps == pytest.approx(400.0)


class TestOfferedRate:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rate_is_refused(self, small_dip, rate):
        small_dip.set_offered_rate(100.0)
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            small_dip.set_offered_rate(rate)
        assert small_dip.offered_rate_rps == 100.0


def scalar_probe_batch(dip, num_requests):
    """The per-request loop ``serve_probe_batch`` replaced, kept as reference.

    One Erlang-C mean and one scalar ``rng.normal`` per served request, on
    the DIP's own RNG; counts every served request.  Returns the
    ``ProbeResult`` fields plus the served and dropped counts.
    """
    rng = dip._rng
    drops = int(rng.binomial(num_requests, min(1.0, dip.drop_probability)))
    served = num_requests - drops
    if served == 0:
        return (float("inf"), True, 0, 1.0), served, drops
    latencies = []
    for _ in range(served):
        mean = dip.latency_model.mean_latency_ms(
            dip.offered_rate_rps, scv_correction=dip.scv_correction
        )
        if dip.jitter_fraction == 0:
            latencies.append(mean)
        else:
            sample = rng.normal(mean, mean * dip.jitter_fraction)
            latencies.append(float(max(mean * 0.25, sample)))
    fields = (float(np.mean(latencies)), drops > 0, served, drops / num_requests)
    return fields, served, drops


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
            dip.set_offered_rate(rate_rps)
            return dip

        dip, twin = build(), build()
        served_total = dropped_total = 0
        for _ in range(3):
            result = dip.serve_probe_batch(batch)
            expected, served, drops = scalar_probe_batch(twin, batch)
            assert (
                result.mean_latency_ms,
                result.dropped,
                result.samples,
                result.drop_fraction,
            ) == expected
            served_total += served
            dropped_total += drops
        assert dip.served_requests == served_total
        assert dip.dropped_requests == dropped_total
        assert {
            "none": dropped_total == 0,
            "some": 0 < dropped_total < 3 * batch,
            "all": served_total == 0 and result.mean_latency_ms == float("inf"),
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
        for server in (dip, twin):
            server.set_offered_rate(rate_rps)
        served_counts = set()
        for _ in range(400 if batch < 100 else 20):
            result = dip.serve_probe_batch(batch)
            drops = int(twin._rng.binomial(batch, min(1.0, twin.drop_probability)))
            served = batch - drops
            assert result.samples == served
            if served == 0:
                assert result.mean_latency_ms == float("inf")
                continue
            served_counts.add(served)
            latencies = twin._sample_latencies_ms(rate_rps, served)
            assert result.mean_latency_ms.hex() == float(latencies.mean()).hex()
        if batch < 100:
            assert served_counts == set(range(1, batch + 1))
        else:
            assert min(served_counts) < batch

    def test_single_request_is_the_batch_of_one(self, small_vm):
        dip = DipServer("d", small_vm, seed=7)
        twin = DipServer("d", small_vm, seed=7)
        for server in (dip, twin):
            server.set_offered_rate(250.0)
        singles = [dip.sample_request_latency_ms() for _ in range(20)]
        assert twin._sample_latencies_ms(250.0, 20).tolist() == singles
        assert dip.sample_request_latency_ms(rate_rps=100.0) < min(singles)
