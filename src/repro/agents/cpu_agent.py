"""Agent-based CPU-utilization baseline (§6.4).

The baseline the paper compares against runs an agent on every DIP that
reports CPU utilization; a controller then iteratively adjusts weights until
utilization is uniform (the algorithm of Cheetah/"[18] §4.1").  The paper's
point is twofold: (a) this needs agents (a privacy non-goal for KnapsackLB)
and (b) it converges over several iterations, whereas KnapsackLB's ILP gets
there in one shot once the curves are known.

The iterative rule implemented here multiplies each DIP's weight by the
ratio of the target (mean) utilization to its observed utilization and
renormalises — a standard proportional-feedback weight update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.types import DipId, normalize_weights
from repro.exceptions import ConfigurationError
from repro.sim.fluid import FluidCluster


@dataclass(frozen=True)
class AgentIteration:
    """One round of the agent-based feedback loop."""

    index: int
    weights: dict[DipId, float]
    utilization: dict[DipId, float]
    spread: float  # max - min utilization across DIPs


@dataclass
class CpuAgentBalancer:
    """Iterative CPU-equalising weight computation using per-DIP agents."""

    cluster: FluidCluster
    #: stop when the max-min utilization spread falls below this value.
    tolerance: float = 0.02
    #: damping of the multiplicative update (1.0 = undamped).
    gain: float = 1.0
    max_iterations: int = 50
    history: list[AgentIteration] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        if not 0 < self.gain <= 1:
            raise ConfigurationError("gain must be in (0, 1]")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")

    def _observe_utilization(self) -> dict[DipId, float]:
        """Read the agents' CPU reports (the cluster's state: the non-goal)."""
        utilization = self.cluster.state().utilization
        return {d: utilization[d] for d in self.cluster.healthy_dip_ids()}

    def run(
        self, initial_weights: Mapping[DipId, float] | None = None
    ) -> list[AgentIteration]:
        """Iterate until utilization is uniform (or the iteration limit)."""
        healthy = self.cluster.healthy_dip_ids()
        if initial_weights is None:
            weights = {d: 1.0 / len(healthy) for d in healthy}
        else:
            weights = normalize_weights({d: initial_weights.get(d, 0.0) for d in healthy})

        self.history.clear()
        for index in range(1, self.max_iterations + 1):
            self.cluster.set_weights(weights)
            utilization = self._observe_utilization()
            values = [utilization[d] for d in healthy]
            spread = max(values) - min(values)
            self.history.append(
                AgentIteration(
                    index=index,
                    weights=dict(weights),
                    utilization=dict(utilization),
                    spread=spread,
                )
            )
            if spread <= self.tolerance:
                break

            mean_util = sum(values) / len(values)
            updated: dict[DipId, float] = {}
            for dip in healthy:
                util = max(utilization[dip], 1e-6)
                factor = (mean_util / util) ** self.gain
                updated[dip] = weights[dip] * factor
            weights = normalize_weights(updated)
        return list(self.history)

    @property
    def iterations_to_converge(self) -> int:
        """Iterations executed by the last :meth:`run` call."""
        return len(self.history)
