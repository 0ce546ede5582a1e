"""Scheduling latency measurements (§4.6).

During the measurement phase, the weights Algorithm 1 wants to measure next
cannot all be applied at once: the DIP weights of a VIP must sum to 1, and
different DIPs have different urgency.  The scheduler therefore:

1. orders pending measurement requests by priority class — (a) over-utilized
   DIPs, (b) remaining DIPs under exploration, (c) curve refreshes — FIFO
   within a class;
2. greedily admits requests until either the admitted weights reach 1 or the
   requests are exhausted;
3. distributes the remaining weight ``1 − w_s`` over the *other* DIPs: DIPs
   with a finished exploration get weights from the ILP run with a modified
   total-weight constraint, and if that ILP is unsatisfiable (or no curve is
   available) the remainder is split equally.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from repro.core.config import IlpConfig, SchedulerConfig
from repro.core.curve import CurveBank, WeightLatencyCurve
from repro.core.ilp import build_assignment_problem, solve_assignment
from repro.core.types import DipId, VipId, left_to_right_sum
from repro.exceptions import InfeasibleError, SchedulingError, SolverTimeoutError


class MeasurementPriority(enum.IntEnum):
    """Priority classes of §4.6 (lower value = served first)."""

    OVERUTILIZED = 0
    NORMAL = 1
    REFRESH = 2


@dataclass(frozen=True)
class MeasurementRequest:
    """A request to measure one DIP's latency at a specific weight."""

    dip: DipId
    weight: float
    priority: MeasurementPriority = MeasurementPriority.NORMAL
    sequence: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.weight <= 1:
            raise SchedulingError(
                f"measurement weight for {self.dip} must be in (0, 1], got {self.weight}"
            )


@dataclass(frozen=True)
class RoundPlan:
    """The weights to program for one scheduling round.

    ``measured`` are the DIPs whose latency will be measured this round at
    the scheduled weight; ``filler`` are the weights assigned to the other
    DIPs so the total reaches 1; ``deferred`` are requests that did not fit
    and must wait for a later round.
    """

    vip: VipId
    measured: dict[DipId, float]
    filler: dict[DipId, float]
    deferred: tuple[MeasurementRequest, ...]
    filler_source: str = "none"  # "ilp", "equal" or "none"

    def weights(self) -> dict[DipId, float]:
        combined = dict(self.filler)
        combined.update(self.measured)
        return combined

    @property
    def total_weight(self) -> float:
        return left_to_right_sum(self.weights().values())


class MeasurementScheduler:
    """Builds round plans from pending measurement requests."""

    def __init__(
        self,
        vip: VipId,
        *,
        config: SchedulerConfig | None = None,
        ilp_config: IlpConfig | None = None,
    ) -> None:
        self.vip = vip
        self.config = config or SchedulerConfig()
        self.ilp_config = ilp_config or IlpConfig()
        self._sequence = itertools.count()
        #: the queued request of each DIP (one at most), oldest first.
        self._pending: dict[DipId, MeasurementRequest] = {}

    # -- queueing ------------------------------------------------------------------

    def submit(
        self,
        dip: DipId,
        weight: float,
        *,
        priority: MeasurementPriority = MeasurementPriority.NORMAL,
    ) -> MeasurementRequest:
        """Queue a measurement request (replacing any older one for the DIP)."""
        request = MeasurementRequest(
            dip=dip, weight=weight, priority=priority, sequence=next(self._sequence)
        )
        self._pending.pop(dip, None)
        self._pending[dip] = request
        return request

    def cancel(self, dip: DipId) -> None:
        self._pending.pop(dip, None)

    @property
    def pending(self) -> tuple[MeasurementRequest, ...]:
        return tuple(
            sorted(self._pending.values(), key=lambda r: (r.priority, r.sequence))
        )

    # -- building a round ---------------------------------------------------------

    def plan_round(
        self,
        all_dips: Sequence[DipId],
        curves: Mapping[DipId, WeightLatencyCurve] | None = None,
        *,
        exclude: Collection[DipId] = (),
    ) -> RoundPlan:
        """Greedily admit requests and fill the remaining weight.

        ``all_dips`` is the full healthy DIP set of the VIP; ``curves`` maps
        DIPs whose exploration is finished to their fitted curves (these are
        the DIPs eligible to receive ILP-computed filler weights).

        ``exclude`` lists DIPs that must not be *measured* this round — in a
        multi-VIP fleet a DIP already being measured by another VIP's round
        cannot serve a second measurement weight at the same time.  Excluded
        requests are deferred (they stay queued), and the excluded DIPs may
        still receive filler weight (their share of ordinary traffic).
        """
        curves = curves or {}
        exclude = set(exclude)
        ordered = self.pending
        admitted: dict[DipId, float] = {}
        deferred: list[MeasurementRequest] = []
        budget = 1.0

        for request in ordered:
            if request.dip not in all_dips:
                continue  # DIP left the pool; drop the request silently.
            if request.dip in exclude:
                deferred.append(request)
            elif request.weight <= budget + 1e-9 and request.dip not in admitted:
                admitted[request.dip] = min(request.weight, budget)
                budget -= admitted[request.dip]
            else:
                deferred.append(request)

        # Requests admitted this round are consumed; deferred ones stay queued.
        self._pending = {request.dip: request for request in deferred}

        remaining_dips = [d for d in all_dips if d not in admitted]
        remaining_weight = max(0.0, 1.0 - left_to_right_sum(admitted.values()))

        filler, source = self._fill_remaining(remaining_dips, remaining_weight, curves)
        return RoundPlan(
            vip=self.vip,
            measured=admitted,
            filler=filler,
            deferred=tuple(deferred),
            filler_source=source,
        )

    def _fill_remaining(
        self,
        remaining_dips: Sequence[DipId],
        remaining_weight: float,
        curves: Mapping[DipId, WeightLatencyCurve],
    ) -> tuple[dict[DipId, float], str]:
        if not remaining_dips:
            return {}, "none"
        if remaining_weight <= 0:
            return {dip: 0.0 for dip in remaining_dips}, "none"

        curves = CurveBank.of(curves)
        explored = curves.take([d for d in remaining_dips if d in curves])
        if explored:
            try:
                problem = build_assignment_problem(
                    explored,
                    config=self.ilp_config,
                    total_weight=remaining_weight,
                )
                outcome = solve_assignment(
                    self.vip, problem, config=self.ilp_config, normalize=False
                )
                filler = {d: 0.0 for d in remaining_dips}
                total = left_to_right_sum(outcome.assignment.weights.values())
                if total > 0:
                    scale = remaining_weight / total
                    for dip, weight in outcome.assignment.weights.items():
                        filler[dip] = weight * scale
                    return filler, "ilp"
            except (InfeasibleError, SolverTimeoutError):
                pass

        # Fallback: equal split of the remainder (the paper's last resort).
        share = remaining_weight / len(remaining_dips)
        return {dip: share for dip in remaining_dips}, "equal"
