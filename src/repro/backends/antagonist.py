"""Noisy-neighbour antagonist model (§2.1).

The paper emulates dynamic capacity loss by running copies of an antagonist
process that thrashes the CPU caches and partially consumes CPU on the DIP's
host.  We model the aggregate effect as a multiplicative capacity factor:
each antagonist copy removes a fraction of the remaining capacity, with
diminishing returns so that stacking copies approaches (but never reaches)
zero capacity — matching the 100 %/90 %/75 %/60 % capacity-ratio sweeps in
Figs. 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError


class PoolWrites:
    """Writes, in this process, to the fields a fleet's per-DIP arrays
    (``sim.fluid.pool_arrays``) are built from, counted by write hooks on
    ``DipServer`` and ``Antagonist`` so that reads cost nothing: a fleet
    that saw the same count need not re-read them.  A field that
    ``pool_arrays`` starts to read must be added here
    (``tests/property/test_fleet_apply_edits.py`` derives them)."""

    count = 0
    #: the ``DipServer`` fields ``pool_arrays`` reads (``antagonist``
    #: through its latency model).
    DIP_FIELDS = frozenset({"failed", "scv_correction", "antagonist"})
    #: the ``Antagonist`` fields its capacity factor is computed from.
    ANTAGONIST_FIELDS = frozenset({"per_copy_loss", "copies", "capacity_override"})


@dataclass
class Antagonist:
    """A configurable capacity-stealing co-located workload.

    ``per_copy_loss`` is the fraction of remaining capacity one antagonist
    copy steals (cache thrash + partial CPU burn).
    """

    per_copy_loss: float = 0.12
    copies: int = 0
    #: explicit override: when set, the capacity factor is exactly this
    #: value regardless of ``copies`` (used to hit the paper's 0.9/0.75/0.6
    #: ratios precisely).
    capacity_override: float | None = None
    #: history of (time, factor) changes, for traceability in experiments.
    history: list[tuple[float, float]] = field(default_factory=list)

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in PoolWrites.ANTAGONIST_FIELDS:
            PoolWrites.count += 1

    def __post_init__(self) -> None:
        if not 0 < self.per_copy_loss < 1:
            raise ConfigurationError("per_copy_loss must be in (0, 1)")
        if self.copies < 0:
            raise ConfigurationError("copies must be >= 0")
        if self.capacity_override is not None and not 0 < self.capacity_override <= 1:
            raise ConfigurationError("capacity_override must be in (0, 1]")

    @property
    def capacity_factor(self) -> float:
        """Multiplier applied to the DIP's base capacity (1.0 = no impact)."""
        if self.capacity_override is not None:
            return self.capacity_override
        return (1.0 - self.per_copy_loss) ** self.copies

    def set_copies(self, copies: int, *, at_time: float = 0.0) -> float:
        """Run ``copies`` antagonist copies; returns the new capacity factor."""
        if copies < 0:
            raise ConfigurationError("copies must be >= 0")
        self.copies = copies
        self.capacity_override = None
        self.history.append((at_time, self.capacity_factor))
        return self.capacity_factor

    def set_capacity_ratio(self, ratio: float, *, at_time: float = 0.0) -> float:
        """Pin the capacity factor to ``ratio`` (paper's 90 %/75 %/60 % sweeps)."""
        if not 0 < ratio <= 1:
            raise ConfigurationError("ratio must be in (0, 1]")
        self.capacity_override = ratio
        self.history.append((at_time, ratio))
        return ratio

    def clear(self, *, at_time: float = 0.0) -> float:
        """Remove all antagonist load."""
        self.copies = 0
        self.capacity_override = None
        self.history.append((at_time, 1.0))
        return 1.0

    def copies_for_ratio(self, ratio: float) -> int:
        """Smallest number of copies achieving a capacity factor <= ratio."""
        if not 0 < ratio <= 1:
            raise ConfigurationError("ratio must be in (0, 1]")
        copies = 0
        factor = 1.0
        while factor > ratio and copies < 1000:
            copies += 1
            factor *= 1.0 - self.per_copy_loss
        return copies
