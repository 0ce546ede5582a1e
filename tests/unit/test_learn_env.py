"""The gym-style environment: determinism, substrate fidelity, actions.

The two load-bearing guarantees:

* same :class:`EnvSpec` + reset seed → bit-identical observation/reward
  trajectories on both substrates;
* a no-op episode (agent never overrides weights) produces exactly the
  windows the batch runner produces for the same spec — the env is a
  faithful re-stepping of the timed run, not an approximation of it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.runners import execute
from repro.exceptions import ConfigurationError
from repro.learn import (
    ENV_SCENARIOS,
    EnvSpec,
    LoadBalanceEnv,
    env_scenario_registry,
    episode_spec,
)


def fluid_env(**overrides) -> EnvSpec:
    base = dict(
        scenario="dip_outage_recovery",
        substrate="fluid",
        num_dips=4,
        load_fraction=0.5,
    )
    base.update(overrides)
    return EnvSpec(**base)


def request_env(**overrides) -> EnvSpec:
    base = dict(
        scenario="dip_outage_recovery",
        substrate="request",
        num_dips=3,
        load_fraction=0.5,
        capacity_rps=60.0,
    )
    base.update(overrides)
    return EnvSpec(**base)


#: a timed request spec under MMPP arrivals and Pareto service (also the
#: spec CI's learn smoke step evaluates on the request substrate).
BURSTY_SPEC = str(
    Path(__file__).resolve().parents[2] / "examples" / "specs" / "bursty_outage.json"
)


def rollout(env: LoadBalanceEnv, seed: int, actions=None):
    """Run one full episode; returns (observations, rewards, windows)."""
    obs = [env.reset(seed=seed)]
    rewards = []
    for step in range(env.num_steps):
        action = None if actions is None else actions[step % len(actions)]
        observation, reward, done, _ = env.step(action)
        obs.append(observation)
        rewards.append(reward)
    assert done
    return obs, rewards, env.windows


class TestEnvShape:
    def test_outage_shape_derives_steps_and_sizes(self):
        env = LoadBalanceEnv(fluid_env())
        assert env.num_dips == 4
        assert env.window_s == 5.0
        assert env.num_steps == int(env.horizon_s / env.window_s)
        assert env.observation_size == 3 * 4 + 1
        assert env.num_actions == 1 + 2 * 4

    def test_registry_names_the_builtin_shapes(self):
        names = set(env_scenario_registry())
        assert names == {
            "dip_outage_recovery",
            "diurnal_surge",
            "antagonist_phases",
        }
        assert names == set(ENV_SCENARIOS)

    def test_episode_spec_forces_learner_ownership(self):
        spec = episode_spec(fluid_env(), seed=123)
        assert spec.runner == "fluid"
        assert spec.controller.enabled is False
        assert spec.seed == 123
        assert spec.pool.num_dips == 4
        assert spec.workload.load_fraction == 0.5


class TestDeterminism:
    def test_fluid_trajectories_bit_identical(self):
        actions = [None, [1.0, 2.0, 1.0, 1.0], None, [3.0, 1.0, 1.0, 1.0]]
        obs_a, rew_a, win_a = rollout(LoadBalanceEnv(fluid_env()), 7, actions)
        obs_b, rew_b, win_b = rollout(LoadBalanceEnv(fluid_env()), 7, actions)
        for a, b in zip(obs_a, obs_b):
            assert np.array_equal(a, b)
        assert rew_a == rew_b
        assert [w.to_dict() for w in win_a] == [w.to_dict() for w in win_b]

    def test_request_trajectories_bit_identical(self):
        actions = [None, [2.0, 1.0, 1.0], None]
        obs_a, rew_a, win_a = rollout(
            LoadBalanceEnv(request_env()), 13, actions
        )
        obs_b, rew_b, win_b = rollout(
            LoadBalanceEnv(request_env()), 13, actions
        )
        for a, b in zip(obs_a, obs_b):
            assert np.array_equal(a, b)
        assert rew_a == rew_b
        assert [w.to_dict() for w in win_a] == [w.to_dict() for w in win_b]

    def test_different_seeds_diverge_on_request_substrate(self):
        _, rew_a, _ = rollout(LoadBalanceEnv(request_env()), 1)
        _, rew_b, _ = rollout(LoadBalanceEnv(request_env()), 2)
        assert rew_a != rew_b


class TestSubstrateFidelity:
    """A no-op episode replays the batch runner's windows exactly."""

    def test_fluid_noop_matches_batch_runner(self):
        env = LoadBalanceEnv(fluid_env())
        _, _, windows = rollout(env, 42)
        batch = execute(episode_spec(env.spec, 42))
        assert [w.to_dict() for w in windows] == [
            w.to_dict() for w in batch.windows
        ]

    def test_request_noop_matches_batch_runner(self):
        env = LoadBalanceEnv(request_env())
        _, _, windows = rollout(env, 42)
        batch = execute(episode_spec(env.spec, 42))
        assert [w.to_dict() for w in windows] == [
            w.to_dict() for w in batch.windows
        ]

    def test_request_episode_runs_the_spec_workload_kinds(self):
        # The env steps the batch runner's own cluster, so a non-Poisson
        # workload reaches it (its private copy of the set-up once ran
        # every episode Poisson / exponential).
        env = LoadBalanceEnv(EnvSpec(scenario=BURSTY_SPEC, substrate="request"))
        spec = episode_spec(env.spec, 5)
        assert spec.workload.arrival.kind == "mmpp"
        assert spec.workload.service.kind == "pareto"
        assert len(spec.timeline.events) == 1
        _, _, windows = rollout(env, 5)
        batch = execute(spec)
        assert [w.to_dict() for w in windows] == [
            w.to_dict() for w in batch.windows
        ]


class TestActions:
    def test_weight_action_shifts_fluid_share(self):
        env = LoadBalanceEnv(fluid_env())
        env.reset(seed=3)
        _, _, _, info = env.step([10.0, 1.0, 1.0, 1.0])
        shares = info["window"].dip_share
        assert shares[env.dips[0]] > 0.5  # 10/13 of the traffic

    def test_weight_action_is_normalized_in_info(self):
        env = LoadBalanceEnv(fluid_env())
        env.reset(seed=3)
        _, _, _, info = env.step([2.0, 2.0, 2.0, 2.0])
        assert all(abs(w - 0.25) < 1e-12 for w in info["weights"].values())

    def test_ops_mode_boost_and_noop(self):
        env = LoadBalanceEnv(fluid_env(action_mode="ops"))
        env.reset(seed=3)
        _, _, _, info = env.step(0)  # no-op keeps the uniform split
        assert all(abs(w - 0.25) < 1e-12 for w in info["weights"].values())
        _, _, _, info = env.step(1)  # boost the first DIP by (1 + op_step)
        weights = info["weights"]
        assert weights[env.dips[0]] > weights[env.dips[1]]
        assert abs(sum(weights.values()) - 1.0) < 1e-12

    def test_ops_mode_shed_reduces_the_target(self):
        env = LoadBalanceEnv(fluid_env(action_mode="ops"))
        env.reset(seed=3)
        _, _, _, info = env.step(2)  # shed the first DIP by 1/(1 + op_step)
        assert info["weights"][env.dips[0]] < info["weights"][env.dips[1]]

    @pytest.mark.parametrize(
        "action, message",
        [
            ([1.0, 2.0], "length 4"),
            ([1.0, -1.0, 1.0, 1.0], "finite and >= 0"),
            ([0.0, 0.0, 0.0, 0.0], "positive entry"),
            ([float("nan"), 1.0, 1.0, 1.0], "finite and >= 0"),
        ],
    )
    def test_bad_weight_actions_rejected(self, action, message):
        env = LoadBalanceEnv(fluid_env())
        env.reset(seed=0)
        with pytest.raises(ConfigurationError, match=message):
            env.step(action)

    def test_ops_action_out_of_range_rejected(self):
        env = LoadBalanceEnv(fluid_env(action_mode="ops"))
        env.reset(seed=0)
        with pytest.raises(ConfigurationError, match="ops action"):
            env.step(env.num_actions)

    def test_step_before_reset_rejected(self):
        env = LoadBalanceEnv(fluid_env())
        with pytest.raises(ConfigurationError, match="reset"):
            env.step(None)

    def test_step_past_done_rejected(self):
        env = LoadBalanceEnv(fluid_env())
        rollout(env, 0)
        with pytest.raises(ConfigurationError, match="episode is over"):
            env.step(None)


class TestEnvSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"substrate": "fleet"}, "substrate must be one of"),
            ({"action_mode": "boxes"}, "action_mode must be one of"),
            ({"op_step": 0.0}, "op_step"),
            ({"latency_scale_ms": -1.0}, "latency_scale_ms"),
            ({"drop_penalty_ms": -1.0}, "drop_penalty_ms"),
            ({"num_dips": 1}, "num_dips"),
            ({"load_fraction": 1.5}, "load_fraction"),
            ({"capacity_rps": 0.0}, "capacity_rps"),
        ],
    )
    def test_field_rules(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            EnvSpec(**kwargs)

    def test_scenario_bridge_rejected_with_builtin_names(self):
        with pytest.raises(ConfigurationError, match="scenario bridge"):
            episode_spec(EnvSpec(scenario="multi_vip_shared_dips"), seed=0)

    def test_timeline_less_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="no timeline"):
            episode_spec(EnvSpec(scenario="testbed_klb"), seed=0)

    def test_unweighted_policy_rejected_on_request_substrate(self, tmp_path):
        path = tmp_path / "lc_timed.json"
        path.write_text(
            json.dumps(
                {
                    "name": "lc-timed",
                    "policy": {"name": "lc"},
                    "timeline": {
                        "events": [
                            {"time_s": 5.0, "kind": "dip_fail", "dip": "DIP-1"}
                        ],
                        "window_s": 5.0,
                        "horizon_s": 15.0,
                    },
                }
            )
        )
        env = EnvSpec(scenario=str(path), substrate="request")
        with pytest.raises(ConfigurationError, match="weighted policy"):
            episode_spec(env, seed=0)

    def test_unknown_scenario_uses_registry_error(self):
        with pytest.raises(ConfigurationError, match="no-such-shape"):
            episode_spec(EnvSpec(scenario="no-such-shape"), seed=0)
