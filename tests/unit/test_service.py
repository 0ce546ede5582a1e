"""Unit coverage for the live service mode (``repro serve``).

Framing (hand-rolled HTTP/1.1 + RFC 6455), the exponential-mixture
percentile model, the :class:`LiveSession` mutation/validation/journal
surface, and the headline guarantee: a live session with injected
mutations exports a spec whose batch re-run reproduces the session's
windows and metrics bit-for-bit.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.api.result import RunWindow
from repro.api.runners import execute
from repro.api.spec import EventSpec, ExperimentSpec
from repro.exceptions import ConfigurationError
from repro.service import LiveSession, SessionConflict, mixture_percentile
from repro.service.http import (
    WS_OP_TEXT,
    HttpProtocolError,
    HttpRequest,
    read_request,
    response,
    websocket_accept,
    ws_read_frame,
    ws_text_frame,
)
from repro.service.server import ServiceServer
from repro.service.session import LiveSession as _LiveSession  # noqa: F401


def parse_request(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


def read_frame(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await ws_read_frame(reader)

    return asyncio.run(go())


class TestHttpFraming:
    def test_parses_request_line_headers_and_body(self):
        raw = (
            b"POST /events?dry=1 HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 16\r\n"
            b"\r\n"
            b'{"kind": "noop"}'
        )
        request = parse_request(raw)
        assert request.method == "POST"
        assert request.path == "/events"
        assert request.query == {"dry": ["1"]}
        assert request.header("content-type") == "application/json"
        assert request.json() == {"kind": "noop"}

    def test_clean_eof_yields_none(self):
        assert parse_request(b"") is None

    def test_malformed_request_line_rejected(self):
        with pytest.raises(HttpProtocolError):
            parse_request(b"NONSENSE\r\n\r\n")

    def test_bad_json_body_is_a_protocol_error(self):
        raw = (
            b"POST /events HTTP/1.1\r\nContent-Length: 4\r\n\r\n{{{{"
        )
        request = parse_request(raw)
        with pytest.raises(HttpProtocolError, match="not valid JSON"):
            request.json()

    def test_response_carries_length_and_close(self):
        raw = response(200, b'{"ok": true}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 12" in head
        assert b"Connection: close" in head
        assert body == b'{"ok": true}'


class TestWebSocket:
    def test_rfc6455_sample_accept_key(self):
        # The worked example from RFC 6455 section 1.3.
        key = "dGhlIHNhbXBsZSBub25jZQ=="
        assert websocket_accept(key) == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    def test_text_frame_round_trip(self):
        frame = ws_text_frame("hello " * 40)  # >125 bytes: 16-bit length
        opcode, payload = read_frame(frame)
        assert opcode == WS_OP_TEXT
        assert payload.decode() == "hello " * 40

    def test_masked_client_frame_is_unmasked(self):
        payload = b'{"op": "close"}'
        mask = bytes([0x12, 0x34, 0x56, 0x78])
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        frame = bytes([0x81, 0x80 | len(payload)]) + mask + masked
        opcode, decoded = read_frame(frame)
        assert opcode == WS_OP_TEXT
        assert decoded == payload


class TestMixturePercentile:
    def test_single_exponential_median_is_mean_ln2(self):
        p50 = mixture_percentile({"d": 1.0}, {"d": 10.0}, 0.50)
        assert p50 == pytest.approx(10.0 * math.log(2), rel=1e-5)

    def test_p99_exceeds_p50_and_tracks_the_slow_component(self):
        shares = {"fast": 0.9, "slow": 0.1}
        means = {"fast": 5.0, "slow": 50.0}
        p50 = mixture_percentile(shares, means, 0.50)
        p99 = mixture_percentile(shares, means, 0.99)
        assert p50 < p99
        # the 10% slow tail dominates the p99 of the mixture
        assert p99 > 50.0

    def test_empty_mixture_is_nan(self):
        assert math.isnan(mixture_percentile({}, {}, 0.5))
        assert math.isnan(
            mixture_percentile({"d": 0.0}, {"d": 1.0}, 0.5)
        )


def fleet_spec(**overrides) -> ExperimentSpec:
    data = {
        "name": "svc-test",
        "runner": "fleet",
        "pool": {"kind": "uniform", "num_dips": 6},
        "fleet": {"num_vips": 3, "deferred_vips": ["VIP-3"]},
        "timeline": {"window_s": 2.0},
        "seed": 11,
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


def fluid_spec(**overrides) -> ExperimentSpec:
    data = {
        "name": "svc-fluid",
        "runner": "fluid",
        "pool": {"kind": "three_dip"},
        "timeline": {"window_s": 1.0},
        "seed": 5,
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


class TestServeability:
    def test_request_runner_rejected(self):
        spec = fluid_spec()
        spec = spec.with_overrides(
            {"runner": "request", "controller.enabled": False}
        )
        with pytest.raises(ConfigurationError, match="analytic substrates"):
            LiveSession(spec)

    def test_health_mode_rejected_with_reason(self):
        spec = fluid_spec().with_overrides({"health.enabled": True})
        with pytest.raises(ConfigurationError, match="health.enabled"):
            LiveSession(spec)


class TestLiveSessionMutations:
    def test_mutation_stamped_at_next_window_boundary(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.tick()
        out = session.submit_event({"kind": "dip_fail", "dip": "DIP-LC"})
        assert out["scheduled_time_s"] == session.stepper.clock == 2.0
        assert any(
            entry["label"] == out["label"]
            for entry in session.timeline_view()["pending"]
        )
        session.tick()
        view = session.timeline_view()
        assert [e["label"] for e in view["applied"]] == [out["label"]]
        assert view["pending"] == []

    def test_mutation_before_first_window_lands_at_first_boundary(self):
        session = LiveSession(fluid_spec())
        out = session.submit_event({"kind": "dip_fail", "dip": "DIP-LC"})
        assert out["scheduled_time_s"] == 1.0  # window_s; time_s must be > 0

    def test_journal_records_every_mutation(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.submit_event({"kind": "dip_fail", "dip": "DIP-LC"})
        session.submit_event({"kind": "arrival_scale", "value": 1.2})
        assert [entry["kind"] for entry in session.journal] == [
            "event",
            "event",
        ]
        assert session.journal[0]["label"].endswith("dip_fail DIP-LC")

    def test_malformed_body_uses_the_validate_error_text(self):
        session = LiveSession(fluid_spec())
        session.tick()
        # the exact text EventSpec.from_dict (repro validate) produces
        with pytest.raises(ConfigurationError) as live_error:
            session.submit_event({"kind": "dip_fail"})
        with pytest.raises(ConfigurationError) as batch_error:
            EventSpec.from_dict({"time_s": 1.0, "kind": "dip_fail"})
        assert str(live_error.value) == str(batch_error.value)

    def test_unknown_dip_rejected_with_pool_names(self):
        session = LiveSession(fluid_spec())
        session.tick()
        with pytest.raises(ConfigurationError, match="unknown DIP 'DIP-9'"):
            session.submit_event({"kind": "dip_fail", "dip": "DIP-9"})

    def test_double_fail_rejected_by_alternation_rule(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.submit_event({"kind": "dip_fail", "dip": "DIP-LC"})
        session.tick()
        with pytest.raises(ConfigurationError, match="already failed"):
            session.submit_event({"kind": "dip_fail", "dip": "DIP-LC"})

    def test_past_time_rejected(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.tick()
        with pytest.raises(ConfigurationError, match="already executed"):
            session.submit_event(
                {"kind": "dip_fail", "dip": "DIP-LC", "time_s": 1.0}
            )

    def test_onboard_of_offboarded_vip_rejected(self):
        session = LiveSession(fleet_spec())
        session.tick()
        session.submit_event({"kind": "vip_offboard", "vip": "VIP-2"})
        session.tick()
        # VIP-2 left the fleet entirely; re-onboarding it could never
        # replay (a batch run would defer it from boot), so it is rejected.
        with pytest.raises(ConfigurationError, match="unknown VIP"):
            session.submit_event({"kind": "vip_onboard", "vip": "VIP-2"})

    def test_chaos_drill_injects_seeded_events(self):
        session = LiveSession(fluid_spec())
        session.tick()
        out = session.submit_chaos(
            {
                "horizon_s": 60.0,
                "chaos": {"seed": 3, "failure_rate_per_min": 30.0},
            }
        )
        assert out["starts_at_s"] == 1.0
        assert out["scheduled_events"]
        assert session.timeline_view()["pending"]
        assert session.journal[-1]["kind"] == "chaos"
        # same seed, same drill: the drawn schedule is deterministic
        repeat = LiveSession(fluid_spec())
        repeat.tick()
        again = repeat.submit_chaos(
            {
                "horizon_s": 60.0,
                "chaos": {"seed": 3, "failure_rate_per_min": 30.0},
            }
        )
        assert again["scheduled_events"] == out["scheduled_events"]

    def test_chaos_drill_requires_seed_and_horizon(self):
        session = LiveSession(fluid_spec())
        with pytest.raises(ConfigurationError, match="horizon_s"):
            session.submit_chaos({"chaos": {"seed": 1}})
        with pytest.raises(ConfigurationError, match="seed"):
            session.submit_chaos({"horizon_s": 10.0, "chaos": {}})


class TestEventValidationOverHttp:
    """``POST /events`` answers a body the validator rejects with 422."""

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_antagonist_value_is_422(self, value):
        server = ServiceServer(LiveSession(fluid_spec()))
        body = (
            '{"kind": "antagonist_phase", "dip": "DIP-LC", "value": %s}' % value
        ).encode()
        raw = server._dispatch(HttpRequest("POST", "/events", body=body))
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 422 "), head
        assert json.loads(payload)["error"] == (
            "timeline.events: event 'antagonist_phase' needs a non-negative "
            "integer value (antagonist copies)"
        )


#: ``POST /weights`` bodies the daemon refuses, each with its 422 text.
BAD_WEIGHT_BODIES = [
    ("not-an-object", '[{"DIP-LC": 1.0}]',
     "weights body must be a JSON object with a 'weights' field (and optional 'vip')"),
    ("unknown-field", '{"weights": {"DIP-LC": 1.0}, "vips": "x"}',
     "unknown field 'vips' for a weights body; valid fields: vip, weights"),
    ("no-weights", '{"vip": "vip"}',
     "weights must be a non-empty {dip: weight} mapping"),
    ("empty-weights", '{"weights": {}}',
     "weights must be a non-empty {dip: weight} mapping"),
    ("list-weights", '{"weights": [1.0, 2.0]}',
     "weights must be a non-empty {dip: weight} mapping"),
    ("unknown-vip", '{"weights": {"DIP-LC": 1.0}, "vip": "vip-9"}',
     "set_weights names unknown VIP 'vip-9'; VIPs: vip"),
    ("unknown-dip", '{"weights": {"DIP-404": 1.0}}',
     "set_weights names unknown DIP 'DIP-404' for VIP 'vip'; DIPs: DIP-HC-1, DIP-HC-2, DIP-LC"),
    ("negative", '{"weights": {"DIP-LC": -1.0}}',
     "weight for DIP 'DIP-LC' must be finite and >= 0"),
    ("nan", '{"weights": {"DIP-LC": NaN}}',
     "weight for DIP 'DIP-LC' must be finite and >= 0"),
    ("infinite", '{"weights": {"DIP-LC": Infinity}}',
     "weight for DIP 'DIP-LC' must be finite and >= 0"),
    ("text", '{"weights": {"DIP-LC": "heavy"}}',
     "weight for DIP 'DIP-LC' must be a number"),
    ("null", '{"weights": {"DIP-LC": null}}',
     "weight for DIP 'DIP-LC' must be a number"),
    ("all-zero", '{"weights": {"DIP-LC": 0.0, "DIP-HC-1": 0}}',
     "weights must sum to a positive value"),
]


class TestWeightValidationOverHttp:
    """``POST /weights`` answers a body it cannot apply with 422 and the
    validation text, and a refused body leaves the session untouched."""

    @pytest.mark.parametrize(
        "body, message",
        [case[1:] for case in BAD_WEIGHT_BODIES],
        ids=[case[0] for case in BAD_WEIGHT_BODIES],
    )
    def test_bad_body_is_422_and_changes_nothing(self, body, message):
        session = LiveSession(fluid_spec())
        session.tick()
        server = ServiceServer(session)
        journal = list(session.journal)
        raw = server._dispatch(HttpRequest("POST", "/weights", body=body.encode()))
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 422 "), head
        assert json.loads(payload)["error"] == message
        assert session.journal == journal
        window = session.tick()
        assert not any("set_weights" in label for label in window.events)
        assert session.stepper.weight_overrides == []
        assert session.export()["spec"]["name"] == "svc-fluid"

    def test_good_body_is_200_with_its_boundary_and_label(self):
        session = LiveSession(fluid_spec())
        session.tick()
        server = ServiceServer(session)
        body = b'{"weights": {"DIP-LC": 3, "DIP-HC-1": 1}, "vip": "vip"}'
        raw = server._dispatch(HttpRequest("POST", "/weights", body=body))
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 "), head
        assert json.loads(payload) == {
            "scheduled_time_s": 1.0,
            "label": "t=1s set_weights vip (2 dips)",
        }
        assert session.tick().events == ("t=1s set_weights vip (2 dips)",)
        assert session.stepper.weight_overrides == [
            (1.0, "vip", {"DIP-LC": 3.0, "DIP-HC-1": 1.0})
        ]

    def test_a_multi_vip_fleet_needs_the_vip_named(self):
        server = ServiceServer(LiveSession(fleet_spec()))
        body = b'{"weights": {"DIP-0": 1.0}}'
        raw = server._dispatch(HttpRequest("POST", "/weights", body=body))
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 422 "), head
        assert json.loads(payload)["error"].startswith(
            "set_weights needs an explicit vip on a multi-VIP substrate; VIPs: "
        )

    def test_get_is_not_allowed(self):
        server = ServiceServer(LiveSession(fluid_spec()))
        raw = server._dispatch(HttpRequest("GET", "/weights"))
        assert raw.startswith(b"HTTP/1.1 405 "), raw[:40]


class TestVipWindows:
    """Satellite: windowed per-VIP telemetry across onboard/offboard."""

    def test_offboarded_vip_rows_stop_and_shares_stay_normalized(self):
        session = LiveSession(fleet_spec())
        session.tick()
        assert set(session.substrate.vip_ids()) == {"VIP-1", "VIP-2", "VIP-3"}
        session.submit_event({"kind": "vip_offboard", "vip": "VIP-2"})
        session.tick()  # offboard applies at the start of this window
        session.tick()
        assert set(session.substrate.vip_ids()) == {"VIP-1", "VIP-3"}
        # history: VIP-2 has rows only while it was live — no stale rows
        rows = session.vip_stats("VIP-2")["windows"]
        assert [row["end_s"] for row in rows] == [2.0]
        # remaining VIPs' shares renormalize over the survivors
        last = session._vip_history[-1]
        assert set(last["vips"]) == {"VIP-1", "VIP-3"}
        total_share = sum(row["share"] for row in last["vips"].values())
        assert total_share == pytest.approx(1.0)

    def test_deferred_vip_becomes_controlled_after_live_onboard(self):
        session = LiveSession(fleet_spec())
        session.tick()
        assert set(session.substrate.controlled_vip_ids()) == {
            "VIP-1",
            "VIP-2",
        }
        session.submit_event({"kind": "vip_onboard", "vip": "VIP-3"})
        session.tick()
        assert "VIP-3" in session.substrate.controlled_vip_ids()
        vips = {row["vip"]: row["controlled"] for row in session.vips()["vips"]}
        assert vips == {"VIP-1": True, "VIP-2": True, "VIP-3": True}
        # every window row carries all three VIPs, before and after
        for entry in session._vip_history:
            assert set(entry["vips"]) == {"VIP-1", "VIP-2", "VIP-3"}

    def test_unknown_vip_stats_raise_key_error(self):
        session = LiveSession(fleet_spec())
        session.tick()
        with pytest.raises(KeyError):
            session.vip_stats("VIP-9")

    def test_stats_rows_carry_percentiles_and_dip_share(self):
        session = LiveSession(fleet_spec())
        session.tick()
        row = session.vip_stats("VIP-1")["windows"][-1]
        assert row["rate_rps"] > 0
        assert 0 < row["share"] <= 1
        assert row["p50_latency_ms"] < row["p99_latency_ms"]
        assert sum(row["dip_share"].values()) == pytest.approx(1.0)


class TestExportReplay:
    def test_export_before_first_window_conflicts(self):
        session = LiveSession(fluid_spec())
        with pytest.raises(SessionConflict, match="no window"):
            session.export()

    def test_export_during_drain_conflicts(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.submit_event(
            {"kind": "dip_fail", "dip": "DIP-LC", "drain_s": 30.0}
        )
        session.tick()
        with pytest.raises(SessionConflict, match="drain"):
            session.export()

    def test_fluid_session_replays_bit_identically(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.submit_event({"kind": "dip_fail", "dip": "DIP-LC"})
        session.tick()
        session.submit_event({"kind": "arrival_scale", "value": 1.25})
        session.tick()
        session.submit_event({"kind": "dip_recover", "dip": "DIP-LC"})
        session.tick()
        session.tick()
        export = session.export()
        live_windows = tuple(
            RunWindow.from_dict(row) for row in export["windows"]
        )
        replayed = execute(ExperimentSpec.from_dict(export["spec"]))
        assert replayed.windows == live_windows
        for key, value in export["metrics"].items():
            got = replayed.metrics[key]
            assert got == value or (got != got and value != value)

    def test_fleet_session_with_live_onboard_replays_bit_identically(self):
        session = LiveSession(fleet_spec())
        session.tick()
        session.submit_event({"kind": "dip_fail", "dip": "DIP-2"})
        session.tick()
        session.submit_event({"kind": "vip_onboard", "vip": "VIP-3"})
        session.tick()
        session.tick()
        export = session.export()
        spec = ExperimentSpec.from_dict(export["spec"])
        # the boot-deferred set survives into the replay spec
        assert spec.fleet.deferred_vips == ("VIP-3",)
        assert spec.timeline.horizon_s == session.stepper.clock
        replayed = execute(spec)
        live_windows = tuple(
            RunWindow.from_dict(row) for row in export["windows"]
        )
        assert replayed.windows == live_windows
        for key, value in export["metrics"].items():
            got = replayed.metrics[key]
            assert got == value or (got != got and value != value)

    def test_pending_events_are_not_exported(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.submit_event(
            {"kind": "dip_fail", "dip": "DIP-LC", "time_s": 500.0}
        )
        export = session.export()
        assert export["spec"]["timeline"]["events"] == []
        assert len(export["journal"]) == 1

    def test_exported_spec_round_trips_as_json(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.submit_event({"kind": "arrival_scale", "value": 0.8})
        session.tick()
        blob = json.dumps(session.export()["spec"])
        spec = ExperimentSpec.from_dict(json.loads(blob))
        assert spec.timeline.horizon_s == 2.0
        assert len(spec.timeline.events) == 1


class TestLiveWeightOverrides:
    """``POST /weights``: boundary application, journaling, export guard."""

    def _assert_override_lands(self, session):
        session.tick()
        out = session.submit_weights({"weights": {"DIP-LC": 10.0, "DIP-HC-1": 1.0, "DIP-HC-2": 1.0}})
        assert out["scheduled_time_s"] == session.stepper.clock == 1.0
        assert "set_weights" in out["label"]
        window = session.tick()
        assert out["label"] in window.events
        assert window.dip_share["DIP-LC"] > 0.5

    def test_override_lands_at_the_next_window_boundary(self):
        self._assert_override_lands(LiveSession(fluid_spec()))

    def test_vip_may_be_omitted_on_a_one_vip_fleet(self):
        # ``vip`` is optional wherever there is one VIP (the override once
        # reached the fleet as VIP None and raised from inside the window).
        spec = fluid_spec(runner="fleet", fleet={"num_vips": 1})
        self._assert_override_lands(LiveSession(spec))

    def test_override_is_journaled_with_the_session_clock(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.submit_weights({"weights": {"DIP-LC": 2.0}})
        entry = session.journal[-1]
        assert entry["kind"] == "weights"
        assert entry["time_s"] == 1.0
        assert entry["weights"] == {"DIP-LC": 2.0}

    def test_bad_bodies_use_the_validation_error_text(self):
        session = LiveSession(fluid_spec())
        with pytest.raises(ConfigurationError, match="unknown DIP"):
            session.submit_weights({"weights": {"DIP-404": 1.0}})
        with pytest.raises(ConfigurationError, match="valid fields"):
            session.submit_weights({"weights": {"DIP-LC": 1.0}, "vips": "x"})
        with pytest.raises(ConfigurationError, match="non-empty"):
            session.submit_weights({"weights": {}})

    def test_export_conflicts_after_an_applied_override(self):
        session = LiveSession(fluid_spec())
        session.tick()
        session.submit_weights({"weights": {"DIP-LC": 2.0}})
        session.tick()
        with pytest.raises(SessionConflict, match="weight override"):
            session.export()

    def test_export_still_works_without_overrides(self):
        session = LiveSession(fluid_spec())
        session.tick()
        assert session.export()["spec"]["name"] == "svc-fluid"
