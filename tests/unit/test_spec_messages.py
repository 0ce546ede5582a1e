"""The validation messages spec loading speaks, pinned one raise at a time.

One invalid document per rule of the file-loaded spec classes (the
experiment spec tree, the controller config and the learn spec), each with
the exact ``str(error)`` its loader raises.  ``repro validate`` prints these
texts and the live daemon answers ``POST /events`` with them as 422 bodies,
so they are a contract: a change to how the rules are stated must leave
every one byte-identical.
"""

from __future__ import annotations

import json

import pytest

from repro.api.spec import EventSpec, ExperimentSpec
from repro.exceptions import ConfigurationError
from repro.learn.train import LearnSpec
from repro.service import LiveSession
from repro.service.http import HttpRequest
from repro.service.server import ServiceServer

LOADERS = {
    "spec": ExperimentSpec.from_dict,
    "event": EventSpec.from_dict,
    "learn": LearnSpec.from_dict,
}


def ev(**kw):
    return ("event", {"time_s": 1.0, **kw})


def sp(**kw):
    return ("spec", {"name": "m", **kw})


def cfg(section, **kw):
    return sp(controller={"config": {section: kw} if section else kw})


def ln(**kw):
    return ("learn", {"name": "l", **kw})


CASES = [
    ("event.time_s", ("event", {"time_s": 0.0, "kind": "dip_fail", "dip": "d"}),
     "timeline.events: event time_s must be > 0 (events fire strictly inside the timed phase)"),
    ("event.kind", ev(kind="bogus"),
     "timeline.events: event kind must be one of: dip_fail, dip_recover, capacity_ratio, arrival_scale, vip_onboard, vip_offboard, antagonist_phase; got 'bogus'"),
    ("event.dip.needs", ev(kind="dip_fail"),
     "timeline.events: event 'dip_fail' needs the dip field"),
    ("event.dip.forbids", ev(kind="arrival_scale", value=2.0, dip="d"),
     "timeline.events: event 'arrival_scale' does not take a dip field"),
    ("event.vip.needs", ev(kind="vip_onboard"),
     "timeline.events: event 'vip_onboard' needs the vip field"),
    ("event.vip.forbids", ev(kind="dip_fail", dip="d", vip="v"),
     "timeline.events: event 'dip_fail' does not take a vip field"),
    ("event.value.capacity_ratio", ev(kind="capacity_ratio", dip="d", value=1.5),
     "timeline.events: event 'capacity_ratio' needs value in (0, 1]"),
    ("event.value.arrival_scale", ev(kind="arrival_scale", value=0.0),
     "timeline.events: event 'arrival_scale' needs a positive value"),
    ("event.value.antagonist_phase", ev(kind="antagonist_phase", dip="d", value=1.5),
     "timeline.events: event 'antagonist_phase' needs a non-negative integer value (antagonist copies)"),
    ("event.value.forbids", ev(kind="dip_fail", dip="d", value=1.0),
     "timeline.events: event 'dip_fail' does not take a value field"),
    ("event.drain_s", ev(kind="dip_fail", dip="d", drain_s=-1.0),
     "timeline.events: event drain_s must be >= 0"),
    ("event.drain_s.forbids", ev(kind="dip_recover", dip="d", drain_s=1.0),
     "timeline.events: event 'dip_recover' does not take a drain_s field (only dip_fail and vip_offboard drain)"),
    ("health.probe_interval_s", sp(health={"probe_interval_s": 0.0}),
     "spec.health: health.probe_interval_s must be positive"),
    ("health.probe_timeout_s", sp(health={"probe_timeout_s": 2.0}),
     "spec.health: health.probe_timeout_s must be in (0, probe_interval_s]"),
    ("health.unhealthy_threshold", sp(health={"unhealthy_threshold": 0}),
     "spec.health: health.unhealthy_threshold must be >= 1"),
    ("health.healthy_threshold", sp(health={"healthy_threshold": 0}),
     "spec.health: health.healthy_threshold must be >= 1"),
    ("retry.request_timeout_s", sp(retry={"request_timeout_s": 0.0}),
     "spec.retry: retry.request_timeout_s must be positive"),
    ("retry.max_retries", sp(retry={"max_retries": -1}),
     "spec.retry: retry.max_retries must be >= 0"),
    ("retry.backoff_base_s", sp(retry={"backoff_base_s": -1.0}),
     "spec.retry: retry.backoff_base_s must be >= 0"),
    ("retry.backoff_multiplier", sp(retry={"backoff_multiplier": 0.5}),
     "spec.retry: retry.backoff_multiplier must be >= 1"),
    ("retry.jitter_fraction", sp(retry={"jitter_fraction": 1.5}),
     "spec.retry: retry.jitter_fraction must be in [0, 1]"),
    ("retry.retry_budget", sp(retry={"retry_budget": -0.1}),
     "spec.retry: retry.retry_budget must be >= 0"),
    ("chaos.failure_rate_per_min", sp(timeline={"chaos": {"failure_rate_per_min": 0.0}}),
     "spec.timeline.chaos: timeline.chaos.failure_rate_per_min must be positive"),
    ("chaos.mean_outage_s", sp(timeline={"chaos": {"mean_outage_s": 0.0}}),
     "spec.timeline.chaos: timeline.chaos.mean_outage_s must be positive"),
    ("chaos.flap_probability", sp(timeline={"chaos": {"flap_probability": 1.0}}),
     "spec.timeline.chaos: timeline.chaos.flap_probability must be in [0, 1)"),
    ("chaos.rack_size", sp(timeline={"chaos": {"rack_size": -1}}),
     "spec.timeline.chaos: timeline.chaos.rack_size must be >= 0"),
    ("chaos.max_concurrent_failures", sp(timeline={"chaos": {"max_concurrent_failures": 0}}),
     "spec.timeline.chaos: timeline.chaos.max_concurrent_failures must be >= 1"),
    ("timeline.window_s", sp(timeline={"window_s": 0.0}),
     "spec.timeline: timeline.window_s must be positive"),
    ("timeline.horizon_s", sp(timeline={"horizon_s": 0.0}),
     "spec.timeline: timeline.horizon_s must be positive or null"),
    ("timeline.horizon.late", sp(timeline={"horizon_s": 10.0, "events": [{"time_s": 10.0, "kind": "dip_fail", "dip": "DIP-0"}]}),
     "spec.timeline: timeline.horizon_s = 10 does not cover the event at t=10s"),
    ("timeline.horizon.drain", sp(timeline={"horizon_s": 10.0, "events": [{"time_s": 5.0, "kind": "dip_fail", "dip": "DIP-0", "drain_s": 5.0}]}),
     "spec.timeline: timeline.horizon_s = 10 does not cover the drain ending at t=10s"),
    ("timeline.duplicate", sp(timeline={"events": [{"time_s": 5.0, "kind": "arrival_scale", "value": 2.0}, {"time_s": 5.0, "kind": "arrival_scale", "value": 3.0}]}),
     "spec.timeline: timeline.events declares the duplicate event 't=5s arrival_scale 3'"),
    ("timeline.fail_twice", sp(timeline={"events": [{"time_s": 1.0, "kind": "dip_fail", "dip": "DIP-0"}, {"time_s": 2.0, "kind": "dip_fail", "dip": "DIP-0"}]}),
     "spec.timeline: timeline.events: 't=2s dip_fail DIP-0' fails a DIP that an earlier event already failed"),
    ("timeline.recover_unfailed", sp(timeline={"events": [{"time_s": 1.0, "kind": "dip_recover", "dip": "DIP-0"}]}),
     "spec.timeline: timeline.events: 't=1s dip_recover DIP-0' recovers a DIP that no earlier event failed"),
    ("pool.vm.vcpus", sp(pool={"vm": {"vcpus": 0}}),
     "spec.pool.vm: pool.vm.vcpus must be >= 1"),
    ("pool.vm.capacity_rps", sp(pool={"vm": {"capacity_rps": 0.0}}),
     "spec.pool.vm: pool.vm.capacity_rps must be positive"),
    ("pool.vm.idle_latency_ms", sp(pool={"vm": {"idle_latency_ms": 0.0}}),
     "spec.pool.vm: pool.vm.idle_latency_ms must be positive or null"),
    ("pool.kind", sp(pool={"kind": "bogus"}),
     "spec.pool: pool.kind must be one of: uniform, testbed, three_dip, graded_three_dip, heterogeneous_pair, mixed_core; got 'bogus'"),
    ("pool.num_dips", sp(pool={"num_dips": 0}),
     "spec.pool: pool.num_dips must be >= 1"),
    ("pool.capacity_ratio", sp(pool={"capacity_ratio": 1.5}),
     "spec.pool: pool.capacity_ratio must be in (0, 1]"),
    ("arrival.kind", sp(workload={"arrival": {"kind": "bogus"}}),
     "spec.workload.arrival: workload.arrival.kind must be one of: flash_crowd, mmpp, poisson, trace; got 'bogus'"),
    ("arrival.mmpp.states", sp(workload={"arrival": {"kind": "mmpp", "state_rates": [1.0]}}),
     "spec.workload.arrival: workload.arrival.state_rates needs at least two states for kind 'mmpp'"),
    ("arrival.mmpp.match", sp(workload={"arrival": {"kind": "mmpp", "state_rates": [1.0, 2.0], "switch_rates": [1.0]}}),
     "spec.workload.arrival: workload.arrival.switch_rates must match state_rates (1 vs 2)"),
    ("arrival.state_rates", sp(workload={"arrival": {"kind": "mmpp", "state_rates": [-1.0, 2.0]}}),
     "spec.workload.arrival: workload.arrival.state_rates must be >= 0 with a positive maximum"),
    ("arrival.state_rates.max", sp(workload={"arrival": {"kind": "mmpp", "state_rates": [0.0, 0.0]}}),
     "spec.workload.arrival: workload.arrival.state_rates must be >= 0 with a positive maximum"),
    ("arrival.switch_rates", sp(workload={"arrival": {"kind": "mmpp", "switch_rates": [0.5, 0.0]}}),
     "spec.workload.arrival: workload.arrival.switch_rates must be positive"),
    ("arrival.state_rates.forbids", sp(workload={"arrival": {"state_rates": [1.0, 2.0]}}),
     "spec.workload.arrival: workload.arrival.state_rates/switch_rates only apply to kind 'mmpp'; kind is 'poisson'"),
    ("arrival.switch_rates.forbids", sp(workload={"arrival": {"kind": "flash_crowd", "switch_rates": [1.0]}}),
     "spec.workload.arrival: workload.arrival.state_rates/switch_rates only apply to kind 'mmpp'; kind is 'flash_crowd'"),
    ("arrival.burst_rate_per_s", sp(workload={"arrival": {"kind": "flash_crowd", "burst_rate_per_s": -1.0}}),
     "spec.workload.arrival: workload.arrival.burst_rate_per_s must be positive"),
    ("arrival.burst_height", sp(workload={"arrival": {"kind": "flash_crowd", "burst_height": -1.0}}),
     "spec.workload.arrival: workload.arrival.burst_height must be positive"),
    ("arrival.burst_decay_s", sp(workload={"arrival": {"kind": "flash_crowd", "burst_decay_s": -1.0}}),
     "spec.workload.arrival: workload.arrival.burst_decay_s must be positive"),
    ("arrival.burst.forbids", sp(workload={"arrival": {"burst_height": 2.0}}),
     "spec.workload.arrival: workload.arrival.burst_* fields only apply to kind 'flash_crowd'; kind is 'poisson'"),
    ("arrival.trace_path.needs", sp(workload={"arrival": {"kind": "trace"}}),
     "spec.workload.arrival: workload.arrival.trace_path is required for kind 'trace'"),
    ("arrival.trace_path.forbids", sp(workload={"arrival": {"trace_path": "t.csv"}}),
     "spec.workload.arrival: workload.arrival.trace_path only applies to kind 'trace'; kind is 'poisson'"),
    ("arrival.trace_column.forbids", sp(workload={"arrival": {"trace_column": "t"}}),
     "spec.workload.arrival: workload.arrival.trace_column only applies to kind 'trace'; kind is 'poisson'"),
    ("arrival.preserve_rate.forbids", sp(workload={"arrival": {"kind": "mmpp", "preserve_rate": True}}),
     "spec.workload.arrival: workload.arrival.preserve_rate only applies to kind 'trace'; kind is 'mmpp'"),
    ("service.kind", sp(workload={"service": {"kind": "bogus"}}),
     "spec.workload.service: workload.service.kind must be one of: elephant, exponential, lognormal, pareto; got 'bogus'"),
    ("service.scv", sp(workload={"service": {"kind": "lognormal", "scv": 0.0}}),
     "spec.workload.service: workload.service.scv must be positive"),
    ("service.scv.forbids", sp(workload={"service": {"scv": 2.0}}),
     "spec.workload.service: workload.service.scv only applies to kind 'lognormal'; kind is 'exponential'"),
    ("service.tail_index", sp(workload={"service": {"kind": "pareto", "tail_index": 1.0}}),
     "spec.workload.service: workload.service.tail_index must be > 1 (a unit-mean Pareto needs a finite mean)"),
    ("service.tail_index.forbids", sp(workload={"service": {"kind": "lognormal", "tail_index": 3.0}}),
     "spec.workload.service: workload.service.tail_index only applies to kind 'pareto'; kind is 'lognormal'"),
    ("service.elephant_fraction", sp(workload={"service": {"kind": "elephant", "elephant_fraction": 1.0}}),
     "spec.workload.service: workload.service.elephant_fraction must be in (0, 1)"),
    ("service.elephant_factor", sp(workload={"service": {"kind": "elephant", "elephant_factor": 0.5}}),
     "spec.workload.service: workload.service.elephant_factor must be >= 1"),
    ("service.elephant.forbids", sp(workload={"service": {"elephant_factor": 10.0}}),
     "spec.workload.service: workload.service.elephant_* fields only apply to kind 'elephant'; kind is 'exponential'"),
    ("workload.load_fraction", sp(workload={"load_fraction": 1.5}),
     "spec.workload: workload.load_fraction must be in (0, 1.5)"),
    ("workload.num_requests", sp(workload={"num_requests": 0}),
     "spec.workload: workload.num_requests must be >= 1"),
    ("workload.warmup_s", sp(workload={"warmup_s": -1.0}),
     "spec.workload: workload.warmup_s must be >= 0"),
    ("workload.divergence_tolerance", sp(workload={"divergence_tolerance": -1.0}),
     "spec.workload: workload.divergence_tolerance must be >= 0"),
    ("policy.name", sp(policy={"name": "bogus"}),
     "spec.policy: policy.name must be one of: dns, hash, lc, p2, random, rr, wlc, wrandom, wrr; got 'bogus'"),
    ("policy.num_muxes", sp(policy={"num_muxes": 0}),
     "spec.policy: policy.num_muxes must be >= 1"),
    ("controller.settle_steps", sp(controller={"settle_steps": -1}),
     "spec.controller: controller.settle_steps must be >= 0"),
    ("controller.control_steps", sp(controller={"control_steps": -1}),
     "spec.controller: controller.control_steps must be >= 0"),
    ("fleet.num_vips", sp(fleet={"num_vips": 0}),
     "spec.fleet: fleet.num_vips must be >= 1"),
    ("fleet.pool_size", sp(fleet={"pool_size": 0}),
     "spec.fleet: fleet.pool_size must be >= 1 or null"),
    ("fleet.deferred_vips", sp(fleet={"deferred_vips": [""]}),
     "spec.fleet: fleet.deferred_vips must be a list of VIP names"),
    ("spec.name", ("spec", {"name": ""}),
     "spec.name must be a non-empty string"),
    ("spec.sync_interval_s", sp(sync_interval_s=0.0),
     "spec.sync_interval_s must be positive"),
    ("spec.runner", sp(runner="bogus"),
     "spec.runner must be one of: fluid, request, fleet, scenario; got 'bogus'"),
    ("spec.scenario.needs", sp(runner="scenario"),
     "spec.runner 'scenario' needs the scenario field set"),
    ("spec.scenario.runner", sp(scenario="x"),
     "spec.scenario 'x' requires runner 'scenario', got 'fluid'"),
    ("spec.scenario.events", sp(runner="scenario", scenario="x", timeline={"horizon_s": 5.0}),
     "spec.runner 'scenario' cannot carry timeline events; scenarios build their own timed specs (use runner fluid/request/fleet)"),
    ("spec.scenario.resilience", sp(runner="scenario", scenario="x", health={"enabled": True}),
     "spec.runner 'scenario' cannot carry health/retry sections; scenarios configure resilience through their own params"),
    ("spec.retry.runner", sp(retry={"enabled": True}),
     "spec: retry.enabled needs runner 'request': retries act on individual requests, which only the request engine models"),
    ("spec.trace.preserve", sp(workload={"arrival": {"kind": "trace", "trace_path": "t.csv", "preserve_rate": True}}, timeline={"events": [{"time_s": 1.0, "kind": "arrival_scale", "value": 2.0}]}),
     "spec.timeline 'arrival_scale' events cannot rescale a trace workload with workload.arrival.preserve_rate = true: the replay clock is pinned to the trace; set workload.arrival.preserve_rate = false to allow scaling"),
    ("spec.chaos.horizon", sp(timeline={"chaos": {"seed": 1}}),
     "spec: timeline.chaos needs an explicit timeline.horizon_s: the generated failure schedule fills a fixed timed phase"),
    ("spec.policy.weighted", sp(policy={"name": "lc"}),
     "spec: policy.name 'lc' cannot carry KnapsackLB weights; pick a weighted policy (wrr, wrandom, wlc, dns) or set controller.enabled = false"),
    ("exploration.convergence_fraction", cfg("exploration", convergence_fraction=1.0),
     "spec.controller.config.exploration.convergence_fraction must be in (0, 1)"),
    ("exploration.alpha", cfg("exploration", alpha=0.0),
     "spec.controller.config.exploration.alpha must be positive"),
    ("exploration.drop_latency_multiplier", cfg("exploration", drop_latency_multiplier=1.0),
     "spec.controller.config.exploration.drop_latency_multiplier must exceed 1"),
    ("exploration.max_iterations", cfg("exploration", max_iterations=0),
     "spec.controller.config.exploration.max_iterations must be >= 1"),
    ("curve.degree", cfg("curve", degree=0),
     "spec.controller.config.curve.degree must be >= 1"),
    ("curve.min_points", cfg("curve", min_points=1),
     "spec.controller.config.curve.min_points must be >= 2"),
    ("ilp.weights_per_dip", cfg("ilp", weights_per_dip=1),
     "spec.controller.config.ilp.weights_per_dip must be >= 2"),
    ("ilp.objective", cfg("ilp", objective="bogus"),
     "spec.controller.config.ilp.objective must be 'request_weighted' or 'sum_latency'"),
    ("ilp.theta", cfg("ilp", theta=-1.0),
     "spec.controller.config.ilp.theta must be non-negative or None"),
    ("ilp.refine_window_fraction", cfg("ilp", refine_window_fraction=0.0),
     "spec.controller.config.ilp.refine_window_fraction must be in (0, 1]"),
    ("ilp.time_limit_s", cfg("ilp", time_limit_s=0.0),
     "spec.controller.config.ilp.time_limit_s must be positive"),
    ("ilp.backend", cfg("ilp", backend="bogus"),
     "spec.controller.config.ilp.backend must be one of ('auto', 'mckp', 'scipy', 'branch_and_bound', 'greedy', 'dp'), got 'bogus'"),
    ("ilp.theta.backend", cfg("ilp", theta=1.0, backend="dp"),
     "spec.controller.config.ilp.backend 'dp' cannot express a finite theta; use 'auto', 'scipy' or 'branch_and_bound'"),
    ("dynamics.capacity_change_threshold", cfg("dynamics", capacity_change_threshold=1.0),
     "spec.controller.config.dynamics.capacity_change_threshold must be in (0, 1)"),
    ("dynamics.traffic_change_quorum", cfg("dynamics", traffic_change_quorum=0.0),
     "spec.controller.config.dynamics.traffic_change_quorum must be in (0, 1]"),
    ("dynamics.failure_probe_threshold", cfg("dynamics", failure_probe_threshold=0),
     "spec.controller.config.dynamics.failure_probe_threshold must be >= 1"),
    ("dynamics.max_refresh_fraction", cfg("dynamics", max_refresh_fraction=1.5),
     "spec.controller.config.dynamics.max_refresh_fraction must be in (0, 1]"),
    ("probe.interval_s", cfg("probe", interval_s=0.0),
     "spec.controller.config.probe.interval_s must be positive"),
    ("probe.requests_per_probe", cfg("probe", requests_per_probe=0),
     "spec.controller.config.probe.requests_per_probe must be >= 1"),
    ("probe.timeout_s", cfg("probe", timeout_s=0.0),
     "spec.controller.config.probe.timeout_s must be positive"),
    ("scheduler.round_duration_s", cfg("scheduler", round_duration_s=0.0),
     "spec.controller.config.scheduler.round_duration_s must be positive"),
    ("scheduler.overutilized_latency_multiplier", cfg("scheduler", overutilized_latency_multiplier=1.0),
     "spec.controller.config.scheduler.overutilized_latency_multiplier must exceed 1"),
    ("config.control_interval_s", cfg(None, control_interval_s=0.0),
     "spec.controller.config.control_interval_s must be positive"),
    ("from_dict.unknown", sp(bogus=1),
     "unknown field 'spec.bogus' for ExperimentSpec; valid fields: controller, fleet, health, name, params, policy, pool, retry, runner, scenario, seed, sync_interval_s, timeline, workload"),
    ("from_dict.nested_unknown", sp(controller={"config": {"ilp": {"bogus": 1}}}),
     "unknown field 'spec.controller.config.ilp.bogus' for IlpConfig; valid fields: backend, multistep_min_dips, objective, refine_window_fraction, theta, time_limit_s, weights_per_dip"),
    ("from_dict.mapping", sp(pool=3),
     "spec.pool must be a mapping, got int"),
    ("from_dict.event_unknown", sp(timeline={"events": [{"time_s": 1.0, "kind": "dip_fail", "dip": "d"}, {"kindz": 1}]}),
     "unknown field 'spec.timeline.events[1].kindz' for EventSpec; valid fields: dip, drain_s, kind, time_s, value, vip"),
    ("agent.name", ln(agent={"name": "bogus"}),
     "learn.agent: unknown agent 'bogus'; known agents: bandit, random, reinforce, uniform"),
    ("agent.epsilon", ln(agent={"epsilon": 1.5}),
     "learn.agent.epsilon must be in [0, 1]"),
    ("agent.epsilon_decay", ln(agent={"epsilon_decay": -1.0}),
     "learn.agent.epsilon_decay must be >= 0"),
    ("agent.learning_rate", ln(agent={"learning_rate": 0.0}),
     "learn.agent.learning_rate must be positive"),
    ("agent.num_arms", ln(agent={"num_arms": 1}),
     "learn.agent.num_arms must be 0 (auto) or >= 2"),
    ("agent.spread", ln(agent={"spread": 1.0}),
     "learn.agent.spread must be in (0, 1)"),
    ("agent.reward_scale", ln(agent={"reward_scale": 0.0}),
     "learn.agent.reward_scale must be positive"),
    ("agent.baseline_rate", ln(agent={"baseline_rate": 0.0}),
     "learn.agent.baseline_rate must be in (0, 1]"),
    ("env.scenario", ln(env={"scenario": ""}),
     "learn.env.scenario must be a non-empty string"),
    ("env.substrate", ln(env={"substrate": "fleet"}),
     "learn.env.substrate must be one of: fluid, request; got 'fleet'"),
    ("env.action_mode", ln(env={"action_mode": "bogus"}),
     "learn.env.action_mode must be one of: weights, ops; got 'bogus'"),
    ("env.op_step", ln(env={"op_step": 0.0}),
     "learn.env.op_step must be positive"),
    ("env.drop_penalty_ms", ln(env={"drop_penalty_ms": -1.0}),
     "learn.env.drop_penalty_ms must be >= 0"),
    ("env.latency_scale_ms", ln(env={"latency_scale_ms": 0.0}),
     "learn.env.latency_scale_ms must be positive"),
    ("env.num_dips", ln(env={"num_dips": 1}),
     "learn.env.num_dips must be >= 2 or null"),
    ("env.load_fraction", ln(env={"load_fraction": 1.0}),
     "learn.env.load_fraction must be in (0, 1) or null"),
    ("env.capacity_rps", ln(env={"capacity_rps": 0.0}),
     "learn.env.capacity_rps must be positive or null"),
    ("learn.name", ("learn", {"name": ""}),
     "learn.name must be a non-empty string"),
    ("learn.episodes", ln(episodes=0),
     "learn.episodes must be >= 1"),
    ("learn.seed", ln(seed=-1),
     "learn.seed must be >= 0"),
    ("learn.eval_every", ln(eval_every=-1),
     "learn.eval_every must be >= 0"),
    ("learn.eval_episodes", ln(eval_episodes=0),
     "learn.eval_episodes must be >= 1"),
    ("learn.checkpoint_every", ln(checkpoint_every=-1),
     "learn.checkpoint_every must be >= 0"),
]


@pytest.mark.parametrize(
    ("document", "message"),
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_invalid_document_raises_its_message(document, message):
    loader, data = document
    with pytest.raises(ConfigurationError) as error:
        LOADERS[loader](data)
    assert str(error.value) == message


EVENT_CASES = [case for case in CASES if case[1][0] == "event"]


def test_the_daemon_answers_each_bad_event_with_its_message():
    session = LiveSession(
        ExperimentSpec.from_dict(
            {"name": "m", "pool": {"kind": "three_dip"}, "timeline": {"window_s": 1.0}}
        )
    )
    server = ServiceServer(session)
    for _, (_, event), message in EVENT_CASES:
        body = json.dumps(event).encode()
        raw = server._dispatch(HttpRequest("POST", "/events", body=body))
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 422 "), head
        assert json.loads(payload) == {"error": message}


def test_case_ids_are_unique():
    ids = [case[0] for case in CASES]
    assert len(ids) == len(set(ids))
