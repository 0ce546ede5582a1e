"""Training loop with resumable JSON checkpoints.

A :class:`LearnSpec` describes one training run declaratively — the
environment, the agent, the episode budget, and the eval/checkpoint
cadence — with the same eager dotted-path validation as the experiment
spec tree (``LearnSpec.from_dict`` names a bad field as ``learn.agent.
epsilon``).

Determinism is the contract: every episode's environment seed is a pure
function of ``(learn_spec.seed, stream, episode)`` via
:class:`numpy.random.SeedSequence`, and a checkpoint captures the
complete mutable state (agent parameters *and* RNG state, history,
evals), so ``train → checkpoint → resume`` reproduces the uninterrupted
run bit-for-bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro import __version__
from repro.api.result import RunWindow, timeline_metrics
from repro.core.config import NonEmpty, Validated, checked, read_spec_file, within
from repro.exceptions import ConfigurationError
from repro.learn.agents import Agent, AgentSpec, make_agent
from repro.learn.env import EnvSpec, LoadBalanceEnv

#: Schema tag embedded in every checkpoint artifact.
CHECKPOINT_SCHEMA = "repro.learn.checkpoint/v1"

#: SeedSequence stream tags: training episodes vs eval episodes.
TRAIN_STREAM = 0
EVAL_STREAM = 1


def episode_seed(base_seed: int, stream: int, episode: int) -> int:
    """The env seed for one episode — pure in ``(base, stream, episode)``."""
    sequence = np.random.SeedSequence(
        (int(base_seed), int(stream), int(episode))
    )
    return int(sequence.generate_state(1, np.uint32)[0])


# ---------------------------------------------------------------------------
# the learn spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnSpec(Validated):
    """The single declarative description of one training run."""

    _root = "learn"

    name: str = checked(MISSING, NonEmpty())
    env: EnvSpec = EnvSpec()
    agent: AgentSpec = AgentSpec()
    #: training episode budget.
    episodes: int = checked(30, within("[1, inf)"))
    seed: int = checked(0, within("[0, inf)"))
    #: run ``eval_episodes`` greedy episodes every N training episodes
    #: (0 = no periodic evals; the schedule depends only on the episode
    #: index so resumed runs checkpoint identically).
    eval_every: int = checked(0, within("[0, inf)"))
    eval_episodes: int = checked(3, within("[1, inf)"))
    #: write the checkpoint every N episodes (0 = only at the end).
    checkpoint_every: int = checked(0, within("[0, inf)"))

    @classmethod
    def from_file(cls, path: str | Path) -> "LearnSpec":
        """Load a learn spec from a ``.json`` or ``.toml`` file."""
        return cls.from_dict(read_spec_file(path, "learn spec"))


# ---------------------------------------------------------------------------
# named learn specs
# ---------------------------------------------------------------------------


def _named(name: str, scenario: str, agent: str, **kw: Any) -> LearnSpec:
    return LearnSpec(
        name=name,
        env=EnvSpec(scenario=scenario),
        agent=AgentSpec(name=agent),
        episodes=int(kw.pop("episodes", 30)),
        seed=int(kw.pop("seed", 7)),
        eval_every=int(kw.pop("eval_every", 10)),
        **kw,
    )


_LEARN_SPECS: dict[str, tuple[Callable[[], LearnSpec], str]] = {
    "bandit_outage": (
        lambda: _named("bandit_outage", "dip_outage_recovery", "bandit"),
        "epsilon-greedy bandit on the DIP outage/recovery timeline",
    ),
    "bandit_surge": (
        lambda: _named("bandit_surge", "diurnal_surge", "bandit"),
        "epsilon-greedy bandit on the diurnal traffic ramp",
    ),
    "reinforce_outage": (
        lambda: _named("reinforce_outage", "dip_outage_recovery", "reinforce"),
        "REINFORCE policy gradient on the DIP outage/recovery timeline",
    ),
    "reinforce_antagonist": (
        lambda: _named(
            "reinforce_antagonist", "antagonist_phases", "reinforce"
        ),
        "REINFORCE policy gradient against antagonist phases",
    ),
}


def learn_spec_registry() -> dict[str, str]:
    """Named learn specs and their one-line summaries."""
    return {name: summary for name, (_, summary) in _LEARN_SPECS.items()}


def get_learn_spec(ref: str) -> LearnSpec:
    """Resolve a learn spec by registered name or spec-file path."""
    entry = _LEARN_SPECS.get(ref)
    if entry is not None:
        return entry[0]()
    if ref.endswith((".json", ".toml")) or Path(ref).exists():
        return LearnSpec.from_file(ref)
    known = ", ".join(sorted(_LEARN_SPECS))
    raise ConfigurationError(
        f"unknown learn spec {ref!r}; registered: {known} "
        "(or pass a .json/.toml learn spec file)"
    )


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpisodeResult:
    """One completed episode: its return and telemetry trajectory."""

    seed: int
    reward: float
    windows: tuple[RunWindow, ...]
    metrics: dict[str, float] = field(default_factory=dict)


def run_episode(
    env: LoadBalanceEnv,
    agent: Agent,
    *,
    seed: int,
    training: bool = True,
) -> EpisodeResult:
    """Drive one full episode of ``env`` with ``agent``."""
    agent.begin_episode(training=training)
    obs = env.reset(seed=seed)
    total = 0.0
    while True:
        action = agent.act(obs)
        obs, reward, done, _ = env.step(action)
        agent.observe(reward)
        total += reward
        if done:
            break
    agent.end_episode()
    windows = env.windows
    return EpisodeResult(
        seed=seed,
        reward=total,
        windows=windows,
        metrics=timeline_metrics(windows),
    )


def evaluate(
    env: LoadBalanceEnv,
    agent: Agent,
    *,
    episodes: int,
    base_seed: int,
) -> dict[str, Any]:
    """Greedy (non-training) episodes on the shared eval seed stream."""
    results = [
        run_episode(
            env,
            agent,
            seed=episode_seed(base_seed, EVAL_STREAM, k),
            training=False,
        )
        for k in range(episodes)
    ]
    returns = [r.reward for r in results]
    latencies = [
        r.metrics["mean_latency_ms"]
        for r in results
        if r.metrics["mean_latency_ms"] == r.metrics["mean_latency_ms"]
    ]
    return {
        "episodes": episodes,
        "mean_return": sum(returns) / len(returns),
        "returns": returns,
        "mean_latency_ms": (
            sum(latencies) / len(latencies) if latencies else float("nan")
        ),
    }


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    *,
    spec: LearnSpec,
    agent: Agent,
    next_episode: int,
    history: list[dict[str, Any]],
    evals: list[dict[str, Any]],
) -> Path:
    """Write the complete resumable training state as one JSON document."""
    path = Path(path)
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "learn_spec": spec.to_dict(),
        "next_episode": int(next_episode),
        "agent_state": agent.state_dict(),
        "history": history,
        "evals": evals,
        "provenance": {"version": __version__},
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Load and schema-check a checkpoint document."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(
            f"checkpoint file {str(path)!r} does not exist"
        )
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"checkpoint file {str(path)!r} is not valid JSON: {error}"
        ) from None
    if data.get("schema") != CHECKPOINT_SCHEMA:
        raise ConfigurationError(
            f"unsupported checkpoint schema {data.get('schema')!r}; "
            f"expected {CHECKPOINT_SCHEMA!r}"
        )
    return data


def _check_resumable(spec: LearnSpec, checkpoint: Mapping[str, Any]) -> None:
    """The checkpoint must describe the same run (episode budget aside)."""
    ours = spec.to_dict()
    theirs = dict(checkpoint["learn_spec"])
    ours.pop("episodes", None)
    theirs.pop("episodes", None)
    if ours != theirs:
        raise ConfigurationError(
            "checkpoint was written by a different learn spec (only the "
            "episode budget may change on resume); retrain from scratch "
            "or restore the original spec"
        )


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one (possibly resumed) training run."""

    spec: LearnSpec
    agent: Agent
    #: one row per training episode: episode index, return, headline metrics.
    history: tuple[dict[str, Any], ...]
    #: periodic greedy evals (one row per eval point).
    evals: tuple[dict[str, Any], ...]
    wall_clock_s: float
    checkpoint_path: Path | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "learn_spec": self.spec.to_dict(),
            "history": list(self.history),
            "evals": list(self.evals),
            "wall_clock_s": self.wall_clock_s,
            "agent_state": self.agent.state_dict(),
        }


def train(
    spec: LearnSpec,
    *,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
) -> TrainResult:
    """Run (or resume) the training loop a :class:`LearnSpec` describes.

    With ``resume=True`` and an existing ``checkpoint``, training picks
    up from the recorded episode with the recorded agent state — the
    resumed run is bit-identical to one that never stopped, because the
    checkpoint carries the agent's RNG state and every episode's env
    seed depends only on ``(spec.seed, stream, episode)``.
    """
    started = time.perf_counter()
    env = LoadBalanceEnv(spec.env, seed=episode_seed(spec.seed, TRAIN_STREAM, 0))
    agent = make_agent(
        spec.agent,
        num_dips=env.num_dips,
        observation_size=env.observation_size,
        seed=spec.seed,
    )
    history: list[dict[str, Any]] = []
    evals: list[dict[str, Any]] = []
    start_episode = 0
    if resume:
        if checkpoint is None:
            raise ConfigurationError("resume needs a checkpoint path")
        data = load_checkpoint(checkpoint)
        _check_resumable(spec, data)
        agent.load_state_dict(data["agent_state"])
        history = list(data["history"])
        evals = list(data["evals"])
        start_episode = int(data["next_episode"])
        if progress is not None:
            progress(
                f"resumed from {checkpoint} at episode {start_episode}"
            )
    for episode in range(start_episode, spec.episodes):
        result = run_episode(
            env,
            agent,
            seed=episode_seed(spec.seed, TRAIN_STREAM, episode),
            training=True,
        )
        row = {
            "episode": episode,
            "seed": result.seed,
            "return": result.reward,
            "mean_latency_ms": result.metrics["mean_latency_ms"],
            "final_latency_ms": result.metrics["final_latency_ms"],
        }
        history.append(row)
        if progress is not None:
            progress(
                f"episode {episode + 1}/{spec.episodes}: "
                f"return={result.reward:.2f} "
                f"mean_latency_ms={row['mean_latency_ms']:.3f}"
            )
        done = episode + 1 == spec.episodes
        # The eval schedule depends only on the episode index — never on
        # where a run was interrupted — so a resumed run's checkpoint is
        # byte-identical to the uninterrupted run's.
        if spec.eval_every and (episode + 1) % spec.eval_every == 0:
            evaluation = evaluate(
                env,
                agent,
                episodes=spec.eval_episodes,
                base_seed=spec.seed,
            )
            evaluation["at_episode"] = episode + 1
            evals.append(evaluation)
            if progress is not None:
                progress(
                    f"eval @ {episode + 1}: "
                    f"mean_return={evaluation['mean_return']:.2f}"
                )
        if checkpoint is not None and (
            done
            or (
                spec.checkpoint_every
                and (episode + 1) % spec.checkpoint_every == 0
            )
        ):
            save_checkpoint(
                checkpoint,
                spec=spec,
                agent=agent,
                next_episode=episode + 1,
                history=history,
                evals=evals,
            )
    return TrainResult(
        spec=spec,
        agent=agent,
        history=tuple(history),
        evals=tuple(evals),
        wall_clock_s=time.perf_counter() - started,
        checkpoint_path=Path(checkpoint) if checkpoint is not None else None,
    )
