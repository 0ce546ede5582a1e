"""Detecting and reacting to service dynamics (§4.5).

Three kinds of drift can make a learned weight-latency curve stale:

* **Traffic change** — the aggregate load at the LB changed, so the same
  weight now maps to a different per-DIP request rate; detected when most
  DIPs see a latency shift in the same direction while weights are
  unchanged.  Reaction: rescale every DIP's curve along the weight axis.
* **Capacity change** — one DIP's capacity changed (noisy neighbours,
  vCPU reassignment); detected when that DIP's observed latency deviates
  from the curve's estimate by more than ±20 %.  Reaction: rescale that
  DIP's curve.
* **Failure** — KLM probes to a DIP repeatedly fail.  Reaction: drop the
  DIP and re-run the ILP without it.

The paper's refresh budget (at most 5 % of total capacity under curve
refresh at any time) is not enforced: nothing reads
``DynamicsConfig.max_refresh_fraction``.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.config import DynamicsConfig
from repro.core.curve import CurveBank, WeightLatencyCurve, predict_curves
from repro.core.types import DipId, left_to_right_sum
from repro.exceptions import ConfigurationError


class DynamicsEventKind(enum.Enum):
    TRAFFIC_INCREASE = "traffic_increase"
    TRAFFIC_DECREASE = "traffic_decrease"
    CAPACITY_CHANGE = "capacity_change"
    DIP_FAILURE = "dip_failure"


class DynamicsEvent(NamedTuple):
    """One detected change, with enough context to react."""

    kind: DynamicsEventKind
    dips: tuple[DipId, ...]
    #: mean relative latency deviation of the affected DIPs (signed).
    magnitude: float
    time: float = 0.0


class Observation(NamedTuple):
    """One steady-state latency observation for a DIP at its current weight."""

    dip: DipId
    weight: float
    observed_latency_ms: float


def relative_deviation(observed: float, estimated: float) -> float:
    """Signed relative deviation of an observation from the curve estimate."""
    if estimated <= 0:
        raise ConfigurationError("estimated latency must be positive")
    return (observed - estimated) / estimated


class DynamicsDetector:
    """Classifies latency deviations into traffic/capacity change events."""

    def __init__(self, config: DynamicsConfig | None = None) -> None:
        self.config = config or DynamicsConfig()

    def detect(
        self,
        observations: Sequence[Observation],
        curves: Mapping[DipId, WeightLatencyCurve],
        *,
        now: float = 0.0,
    ) -> list[DynamicsEvent]:
        """Compare observations against curve estimates and classify drift.

        A traffic change is reported when at least ``traffic_change_quorum``
        of the observed DIPs deviate beyond the threshold *in the same
        direction*; otherwise each deviating DIP is reported as a capacity
        change.  The last observation of a DIP counts; the estimates are one
        prediction over the bank (a :class:`CurveBank` is read as kept).
        """
        bank = CurveBank.of(curves)
        by_dip = {obs.dip: obs for obs in observations if obs.dip in bank}
        if not by_dip:
            return []
        # One bank pass: each observed row at its weight (the others at 0).
        rows = bank.rows(by_dip)
        column = [0.0] * len(bank)
        for row, obs in zip(rows, by_dip.values()):
            column[row] = obs.weight
        estimates = predict_curves(bank, np.array(column).reshape(-1, 1)).ravel().tolist()
        deviations = {
            dip: relative_deviation(obs.observed_latency_ms, estimates[row])
            for (dip, obs), row in zip(by_dip.items(), rows)
        }

        threshold = self.config.capacity_change_threshold
        increased = [d for d, dev in deviations.items() if dev > threshold]
        decreased = [d for d, dev in deviations.items() if dev < -threshold]
        total = len(deviations)

        events: list[DynamicsEvent] = []
        quorum = self.config.traffic_change_quorum

        if total > 0 and len(increased) / total >= quorum:
            shift = left_to_right_sum(deviations[d] for d in increased)
            magnitude = shift / len(increased)
            events.append(
                DynamicsEvent(
                    kind=DynamicsEventKind.TRAFFIC_INCREASE,
                    dips=tuple(sorted(increased)),
                    magnitude=magnitude,
                    time=now,
                )
            )
            return events
        if total > 0 and len(decreased) / total >= quorum:
            shift = left_to_right_sum(deviations[d] for d in decreased)
            magnitude = shift / len(decreased)
            events.append(
                DynamicsEvent(
                    kind=DynamicsEventKind.TRAFFIC_DECREASE,
                    dips=tuple(sorted(decreased)),
                    magnitude=magnitude,
                    time=now,
                )
            )
            return events

        for dip in sorted(increased + decreased):
            events.append(
                DynamicsEvent(
                    kind=DynamicsEventKind.CAPACITY_CHANGE,
                    dips=(dip,),
                    magnitude=deviations[dip],
                    time=now,
                )
            )
        return events


def rescale_all_curves(
    curves: Mapping[DipId, WeightLatencyCurve],
    observations: Sequence[Observation],
) -> CurveBank:
    """Shift every observed DIP's curve, as one batched §4.5 rescale
    (:meth:`CurveBank.shifted`); the other curves stay as they are.

    A traffic change rescales every observed DIP, capacity changes the DIPs
    they name; the last observation of a DIP counts.
    """
    bank = CurveBank.of(curves)
    by_dip = {obs.dip: obs for obs in observations}
    # In row order: when every DIP is observed, the rows are the whole bank.
    shifted = [by_dip[dip] for dip in bank if dip in by_dip]
    return bank.shifted(
        [obs.dip for obs in shifted],
        [obs.weight for obs in shifted],
        [obs.observed_latency_ms for obs in shifted],
    )
