"""Learning agents over the weight-vector action space (pure numpy).

Every agent maps observations to weight vectors for
:class:`~repro.learn.env.LoadBalanceEnv` and carries its full mutable
state — including its RNG state — through ``state_dict`` /
``load_state_dict``, so a training run checkpointed mid-stream resumes
bit-identically (see :mod:`repro.learn.train`).

The discrete agents act through a shared :class:`WeightArms` library:
arm 0 is the uniform split, the rest are seeded perturbations of it.
Agents:

* ``bandit`` — epsilon-greedy over the arms, per-window reward updates;
* ``reinforce`` — a small softmax policy gradient (linear logits over
  the observation vector) with a running-baseline advantage;
* ``random`` — a fresh random weight vector every window (the
  uniform-random assignment baseline a trained agent must beat);
* ``uniform`` — the static equal split (the no-learning control).

Randomness is drawn from seeded :class:`numpy.random.SeedSequence`
substreams — one stream per agent kind — so agents sharing a seed never
share draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.config import OneOf, Validated, checked, within
from repro.exceptions import ConfigurationError

#: SeedSequence stream tags, one per agent kind (never reuse).
_STREAM_ARMS = 101
_STREAM_BANDIT = 102
_STREAM_REINFORCE = 103
_STREAM_RANDOM = 104


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream)))


def _rng_state(rng: np.random.Generator) -> dict[str, Any]:
    return rng.bit_generator.state


def _set_rng_state(rng: np.random.Generator, state: Mapping[str, Any]) -> None:
    rng.bit_generator.state = dict(state)


# ---------------------------------------------------------------------------
# the agent spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentSpec(Validated):
    """Declarative description of one agent (validated eagerly)."""

    #: registered agent kind (see :func:`agent_registry`).
    name: str = checked(
        "bandit",
        OneOf(
            lambda: sorted(_AGENTS), "unknown agent {value!r}; known agents: {choices}"
        ),
    )
    #: bandit exploration rate at episode 0 and its per-episode decay.
    epsilon: float = checked(0.3, within("[0, 1]"))
    epsilon_decay: float = checked(0.1, within("[0, inf)"))
    #: policy-gradient step size.
    learning_rate: float = checked(0.05, within("(0, inf)"))
    #: arm count for the discrete agents (0 = auto: 2 * num_dips + 1).
    num_arms: int = checked(
        0, within("[2, inf)", also=(0,), text="{label} must be 0 (auto) or >= 2")
    )
    #: relative spread of the perturbed arms around the uniform split.
    spread: float = checked(0.5, within("(0, 1)"))
    #: reward normalization inside the policy-gradient update.
    reward_scale: float = checked(0.01, within("(0, inf)"))
    #: running-baseline update rate for the advantage estimate.
    baseline_rate: float = checked(0.2, within("(0, 1]"))


# ---------------------------------------------------------------------------
# the arm library
# ---------------------------------------------------------------------------


class WeightArms:
    """A seeded library of candidate weight vectors over the pool.

    Arm 0 is always the uniform split; the remaining arms are bounded
    random perturbations of it (each entry scaled by a factor in
    ``[1 - spread, 1 + spread]``, then renormalized).  The library is a
    pure function of ``(num_dips, num_arms, spread, seed)``, so two
    agents built from the same spec share the identical action space.
    """

    def __init__(
        self,
        num_dips: int,
        *,
        num_arms: int = 0,
        spread: float = 0.5,
        seed: int = 0,
    ) -> None:
        if num_dips < 1:
            raise ConfigurationError("num_dips must be >= 1")
        if num_arms == 0:
            num_arms = 2 * num_dips + 1
        if num_arms < 2:
            raise ConfigurationError("num_arms must be >= 2")
        rng = _rng(seed, _STREAM_ARMS)
        uniform = np.full(num_dips, 1.0 / num_dips)
        factors = 1.0 + spread * rng.uniform(-1.0, 1.0, (num_arms - 1, num_dips))
        perturbed = uniform * factors
        perturbed /= perturbed.sum(axis=1, keepdims=True)
        self.vectors = np.vstack([uniform, perturbed])
        self.num_arms = num_arms

    def weights(self, arm: int) -> np.ndarray:
        return self.vectors[arm].copy()


# ---------------------------------------------------------------------------
# agents
# ---------------------------------------------------------------------------


class Agent:
    """Base class: the episode protocol every agent implements."""

    kind = "agent"

    def __init__(self) -> None:
        self.episode = 0
        self._training = True

    def begin_episode(self, *, training: bool = True) -> None:
        self._training = training

    def act(self, obs: np.ndarray) -> np.ndarray | None:
        raise NotImplementedError

    def observe(self, reward: float) -> None:
        """Per-step reward feedback for the action just taken."""

    def end_episode(self) -> None:
        if self._training:
            self.episode += 1

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "episode": self.episode}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if state.get("kind") != self.kind:
            raise ConfigurationError(
                f"checkpoint agent state is for {state.get('kind')!r}, "
                f"not {self.kind!r}"
            )
        self.episode = int(state["episode"])


class UniformAgent(Agent):
    """The static equal split — the no-learning control."""

    kind = "uniform"

    def __init__(self, num_dips: int, observation_size: int, **_: Any) -> None:
        super().__init__()
        self._weights = np.full(num_dips, 1.0 / num_dips)

    def act(self, obs: np.ndarray) -> np.ndarray:
        return self._weights.copy()


class RandomAgent(Agent):
    """A fresh random weight vector every window (Dirichlet(1) draws)."""

    kind = "random"

    def __init__(
        self, num_dips: int, observation_size: int, *, seed: int = 0, **_: Any
    ) -> None:
        super().__init__()
        self._num_dips = num_dips
        self.rng = _rng(seed, _STREAM_RANDOM)

    def act(self, obs: np.ndarray) -> np.ndarray:
        draws = self.rng.standard_exponential(self._num_dips)
        return draws / draws.sum()

    def state_dict(self) -> dict[str, Any]:
        return {**super().state_dict(), "rng": _rng_state(self.rng)}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        super().load_state_dict(state)
        _set_rng_state(self.rng, state["rng"])


class EpsilonGreedyBandit(Agent):
    """Epsilon-greedy bandit over the arm library, per-window updates.

    Q-values start at zero; with rewards strictly negative, an untried
    arm always looks best to the greedy rule, which gives systematic
    initial exploration on top of the decaying epsilon.
    """

    kind = "bandit"

    def __init__(
        self,
        num_dips: int,
        observation_size: int,
        *,
        seed: int = 0,
        spec: AgentSpec | None = None,
    ) -> None:
        super().__init__()
        spec = spec or AgentSpec(name="bandit")
        self.spec = spec
        self.arms = WeightArms(
            num_dips, num_arms=spec.num_arms, spread=spec.spread, seed=seed
        )
        self.q = np.zeros(self.arms.num_arms)
        self.counts = np.zeros(self.arms.num_arms, dtype=np.int64)
        self.rng = _rng(seed, _STREAM_BANDIT)
        self._last_arm: int | None = None

    @property
    def epsilon(self) -> float:
        return self.spec.epsilon / (1.0 + self.spec.epsilon_decay * self.episode)

    def act(self, obs: np.ndarray) -> np.ndarray:
        if self._training and self.rng.random() < self.epsilon:
            arm = int(self.rng.integers(self.arms.num_arms))
        else:
            arm = int(np.argmax(self.q))
        self._last_arm = arm
        return self.arms.weights(arm)

    def observe(self, reward: float) -> None:
        if not self._training or self._last_arm is None:
            return
        arm = self._last_arm
        self.counts[arm] += 1
        self.q[arm] += (reward - self.q[arm]) / self.counts[arm]

    def state_dict(self) -> dict[str, Any]:
        return {
            **super().state_dict(),
            "q": self.q.tolist(),
            "counts": self.counts.tolist(),
            "rng": _rng_state(self.rng),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        super().load_state_dict(state)
        q = np.asarray(state["q"], dtype=np.float64)
        counts = np.asarray(state["counts"], dtype=np.int64)
        if q.shape != self.q.shape or counts.shape != self.counts.shape:
            raise ConfigurationError(
                "checkpoint bandit state has a different arm count; "
                "the agent spec (num_arms / pool size) must match"
            )
        self.q = q
        self.counts = counts
        _set_rng_state(self.rng, state["rng"])


class ReinforceAgent(Agent):
    """Softmax policy gradient (REINFORCE) over the arm library.

    Linear logits over the observation vector (plus a bias feature), a
    reward-to-go return per step, and a running scalar baseline.  Eval
    mode takes the argmax arm and draws nothing from the RNG.
    """

    kind = "reinforce"

    def __init__(
        self,
        num_dips: int,
        observation_size: int,
        *,
        seed: int = 0,
        spec: AgentSpec | None = None,
    ) -> None:
        super().__init__()
        spec = spec or AgentSpec(name="reinforce")
        self.spec = spec
        self.arms = WeightArms(
            num_dips, num_arms=spec.num_arms, spread=spec.spread, seed=seed
        )
        self.theta = np.zeros((self.arms.num_arms, observation_size + 1))
        self.baseline = 0.0
        self.rng = _rng(seed, _STREAM_REINFORCE)
        self._features: list[np.ndarray] = []
        self._probs: list[np.ndarray] = []
        self._arms_taken: list[int] = []
        self._rewards: list[float] = []

    def begin_episode(self, *, training: bool = True) -> None:
        super().begin_episode(training=training)
        self._features.clear()
        self._probs.clear()
        self._arms_taken.clear()
        self._rewards.clear()

    def _policy(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        features = np.append(obs, 1.0)
        logits = self.theta @ features
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        return features, probs

    def act(self, obs: np.ndarray) -> np.ndarray:
        features, probs = self._policy(obs)
        if self._training:
            # Inverse-CDF draw: one uniform per action, stable across
            # numpy versions (unlike Generator.choice's internals).
            arm = int(
                np.searchsorted(np.cumsum(probs), self.rng.random(), "right")
            )
            arm = min(arm, self.arms.num_arms - 1)
            self._features.append(features)
            self._probs.append(probs)
            self._arms_taken.append(arm)
        else:
            arm = int(np.argmax(probs))
        return self.arms.weights(arm)

    def observe(self, reward: float) -> None:
        if self._training:
            self._rewards.append(reward * self.spec.reward_scale)

    def end_episode(self) -> None:
        if self._training and self._rewards:
            returns = np.cumsum(self._rewards[::-1])[::-1]
            lr = self.spec.learning_rate
            for features, probs, arm, ret in zip(
                self._features, self._probs, self._arms_taken, returns
            ):
                advantage = ret - self.baseline
                gradient = -np.outer(probs, features)
                gradient[arm] += features
                self.theta += lr * advantage * gradient
            self.baseline += self.spec.baseline_rate * (
                float(returns[0]) - self.baseline
            )
        super().end_episode()

    def state_dict(self) -> dict[str, Any]:
        return {
            **super().state_dict(),
            "theta": self.theta.tolist(),
            "baseline": self.baseline,
            "rng": _rng_state(self.rng),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        super().load_state_dict(state)
        theta = np.asarray(state["theta"], dtype=np.float64)
        if theta.shape != self.theta.shape:
            raise ConfigurationError(
                "checkpoint reinforce state has a different shape; the "
                "agent spec (num_arms / observation size) must match"
            )
        self.theta = theta
        self.baseline = float(state["baseline"])
        _set_rng_state(self.rng, state["rng"])


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentDescription:
    """One registered agent kind."""

    name: str
    factory: Callable[..., Agent]
    #: whether training changes the agent (baselines are static).
    trainable: bool
    summary: str


_AGENTS: dict[str, AgentDescription] = {
    description.name: description
    for description in (
        AgentDescription(
            name="bandit",
            factory=EpsilonGreedyBandit,
            trainable=True,
            summary="epsilon-greedy bandit over seeded weight arms",
        ),
        AgentDescription(
            name="reinforce",
            factory=ReinforceAgent,
            trainable=True,
            summary="softmax policy gradient (REINFORCE) over weight arms",
        ),
        AgentDescription(
            name="random",
            factory=RandomAgent,
            trainable=False,
            summary="fresh random weights every window (baseline to beat)",
        ),
        AgentDescription(
            name="uniform",
            factory=UniformAgent,
            trainable=False,
            summary="static equal split (no-learning control)",
        ),
    )
}


def agent_registry() -> dict[str, AgentDescription]:
    """The registered agent kinds (copy — the registry stays immutable)."""
    return dict(_AGENTS)


def make_agent(
    spec: AgentSpec,
    *,
    num_dips: int,
    observation_size: int,
    seed: int = 0,
) -> Agent:
    """Instantiate the agent an :class:`AgentSpec` describes."""
    description = _AGENTS[spec.name]  # AgentSpec validated membership
    return description.factory(
        num_dips, observation_size, seed=seed, spec=spec
    )
