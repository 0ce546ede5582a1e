"""Head-to-head evaluation: learned agents vs the ILP controller.

``compare_learners`` lines up, on the same episode shape and the same
eval seeds:

* ``knapsack_ilp`` — the paper's controller, executed by the batch
  runner with ``controller.enabled = true`` (fluid substrate computes
  weights live; request substrate replays the converged weights);
* the learned agents (``bandit``, ``reinforce``) — trained inline for a
  configurable episode budget (or restored from a checkpoint), then run
  greedily;
* the static baselines (``uniform``, ``random``).

Every contender becomes a :class:`~repro.api.result.RunResult` carrying
``episode_reward`` next to the usual headline metrics, so the existing
``api/sweep`` comparison report renders the table and the artifacts land
on disk in the same schema every other run produces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.api.result import (
    RunClock,
    RunResult,
    RunWindow,
    timeline_metrics,
)
from repro.api.runners import execute
from repro.api.sweep import ComparisonReport, compare
from repro.exceptions import ConfigurationError
from repro.learn.agents import AgentSpec, agent_registry, make_agent
from repro.learn.env import EnvSpec, LoadBalanceEnv, episode_spec, window_reward
from repro.learn.train import (
    EVAL_STREAM,
    LearnSpec,
    episode_seed,
    load_checkpoint,
    run_episode,
    train,
)

#: Contender order in the report: the paper's controller is the baseline.
DEFAULT_CONTENDERS = ("knapsack_ilp", "uniform", "random", "bandit", "reinforce")


def episode_reward(
    windows: Sequence[RunWindow], *, drop_penalty_ms: float
) -> float:
    """Sum of per-window rewards — the episode return of any trajectory."""
    return sum(
        window_reward(w, drop_penalty_ms=drop_penalty_ms) for w in windows
    )


def _result(
    spec_name: str,
    env: LoadBalanceEnv,
    *,
    seed: int,
    windows: tuple[RunWindow, ...],
    metrics: dict[str, float],
    clock: RunClock,
) -> RunResult:
    template = replace(env.template_spec, name=spec_name, seed=seed)
    return RunResult(
        spec=template,
        runner=template.runner,
        seed=seed,
        metrics={k: float(v) for k, v in metrics.items()},
        dip_summaries={},
        windows=windows,
        provenance=clock.provenance(),
    )


def _run_ilp(env: LoadBalanceEnv, *, seed: int) -> RunResult:
    """The paper's controller on the identical episode spec and seed."""
    spec = episode_spec(env.spec, seed)
    spec = replace(
        spec,
        name="knapsack_ilp",
        controller=replace(spec.controller, enabled=True),
    )
    result = execute(spec)
    metrics = dict(result.metrics)
    metrics["episode_reward"] = episode_reward(
        result.windows, drop_penalty_ms=env.spec.drop_penalty_ms
    )
    return replace(result, metrics=metrics)


def _run_agent(
    name: str,
    env: LoadBalanceEnv,
    *,
    seed: int,
    eval_episodes: int,
    train_episodes: int,
    checkpoint: str | Path | None,
) -> RunResult:
    """Train (or restore) one agent, then run it greedily on eval seeds."""
    clock = RunClock()
    trainable = agent_registry()[name].trainable
    if checkpoint is not None:
        data = load_checkpoint(checkpoint)
        spec = LearnSpec.from_dict(data["learn_spec"])
        if spec.agent.name != name:
            raise ConfigurationError(
                f"checkpoint {str(checkpoint)!r} holds a "
                f"{spec.agent.name!r} agent, not {name!r}"
            )
        agent = make_agent(
            spec.agent,
            num_dips=env.num_dips,
            observation_size=env.observation_size,
            seed=spec.seed,
        )
        agent.load_state_dict(data["agent_state"])
    elif trainable:
        spec = LearnSpec(
            name=f"compare-{name}",
            env=env.spec,
            agent=AgentSpec(name=name),
            episodes=train_episodes,
            seed=seed,
        )
        agent = train(spec).agent
    else:
        agent = make_agent(
            AgentSpec(name=name),
            num_dips=env.num_dips,
            observation_size=env.observation_size,
            seed=seed,
        )
    episodes = [
        run_episode(
            env,
            agent,
            seed=episode_seed(seed, EVAL_STREAM, k),
            training=False,
        )
        for k in range(eval_episodes)
    ]
    # The first eval episode is the representative trajectory (identical
    # seed across contenders); the reward averages over all of them.
    first = episodes[0]
    metrics = dict(first.metrics)
    metrics["episode_reward"] = sum(e.reward for e in episodes) / len(episodes)
    metrics["timeline_events"] = float(
        len(env.template_spec.timeline.events)
    )
    return _result(
        name,
        env,
        seed=first.seed,
        windows=first.windows,
        metrics=metrics,
        clock=clock,
    )


@dataclass(frozen=True)
class LearnerComparison:
    """Everything ``learn compare`` produces."""

    results: tuple[RunResult, ...]
    report: ComparisonReport

    def render(self) -> str:
        return self.report.render()


def compare_learners(
    env_spec: EnvSpec,
    *,
    contenders: Sequence[str] = DEFAULT_CONTENDERS,
    train_episodes: int = 20,
    eval_episodes: int = 3,
    seed: int = 0,
    checkpoints: dict[str, str | Path] | None = None,
    progress: Callable[[str], None] | None = None,
) -> LearnerComparison:
    """Run every contender on the same episode shape and eval seeds.

    ``checkpoints`` maps an agent name to a saved training checkpoint;
    agents without one are trained inline for ``train_episodes``.
    """
    if not contenders:
        raise ConfigurationError("compare needs at least one contender")
    known = set(agent_registry()) | {"knapsack_ilp"}
    for name in contenders:
        if name not in known:
            choices = ", ".join(sorted(known))
            raise ConfigurationError(
                f"unknown contender {name!r}; known: {choices}"
            )
    checkpoints = dict(checkpoints or {})
    env = LoadBalanceEnv(
        env_spec, seed=episode_seed(seed, EVAL_STREAM, 0)
    )
    results = []
    for name in contenders:
        if progress is not None:
            progress(f"running contender {name!r}")
        if name == "knapsack_ilp":
            results.append(
                _run_ilp(env, seed=episode_seed(seed, EVAL_STREAM, 0))
            )
        else:
            results.append(
                _run_agent(
                    name,
                    env,
                    seed=seed,
                    eval_episodes=eval_episodes,
                    train_episodes=train_episodes,
                    checkpoint=checkpoints.get(name),
                )
            )
    return LearnerComparison(
        results=tuple(results), report=compare(results)
    )


def evaluate_checkpoint(
    checkpoint: str | Path,
    *,
    episodes: int = 3,
    seed: int | None = None,
) -> dict[str, Any]:
    """Greedy eval of a saved checkpoint on the shared eval seed stream."""
    data = load_checkpoint(checkpoint)
    spec = LearnSpec.from_dict(data["learn_spec"])
    base_seed = spec.seed if seed is None else int(seed)
    env = LoadBalanceEnv(
        spec.env, seed=episode_seed(base_seed, EVAL_STREAM, 0)
    )
    agent = make_agent(
        spec.agent,
        num_dips=env.num_dips,
        observation_size=env.observation_size,
        seed=spec.seed,
    )
    agent.load_state_dict(data["agent_state"])
    rows = []
    for k in range(episodes):
        result = run_episode(
            env,
            agent,
            seed=episode_seed(base_seed, EVAL_STREAM, k),
            training=False,
        )
        rows.append(
            {
                "episode": k,
                "seed": result.seed,
                "return": result.reward,
                **{
                    key: value
                    for key, value in result.metrics.items()
                    if value == value
                },
            }
        )
    returns = [row["return"] for row in rows]
    return {
        "learn_spec": spec.to_dict(),
        "agent": spec.agent.name,
        "trained_episodes": int(data["next_episode"]),
        "episodes": rows,
        "mean_return": sum(returns) / len(returns),
    }


__all__ = [
    "DEFAULT_CONTENDERS",
    "LearnerComparison",
    "compare_learners",
    "episode_reward",
    "evaluate_checkpoint",
]
