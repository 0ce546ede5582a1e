"""What the control ticks of ``fleet_dynamics`` (seed 17) probe and decide.

A control tick probes its VIP's DIPs in one KLM round, checks them for
§4.5 drift and reprograms when it finds some.  The round sizes (one round
per exploration round, bootstrap batch and tick) and the ticks that do
*not* reprogram are pinned here, so a change to how a tick is computed
that moves a decision shows as a changed tick, not only as a changed
artifact.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.api import ExperimentSpec, run
from repro.core.controller import KnapsackLBController

WORKLOAD = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "observatory"
    / "workloads"
    / "fleet_dynamics.json"
)

#: probe rounds by the number of DIPs probed in them.
ROUND_SIZES = {1: 56, 2: 1, 3: 32, 4: 27, 5: 16, 6: 26, 7: 317}
#: of the 200 control ticks, the (VIP, time) of the 23 that kept their weights.
KEPT = [
    ("VIP-1", 640.0), ("VIP-1", 645.0), ("VIP-8", 660.0), ("VIP-7", 675.0),
    ("VIP-8", 675.0), ("VIP-8", 680.0), ("VIP-8", 685.0), ("VIP-7", 695.0),
    ("VIP-8", 700.0), ("VIP-7", 705.0), ("VIP-8", 705.0), ("VIP-7", 710.0),
    ("VIP-8", 710.0), ("VIP-8", 715.0), ("VIP-8", 720.0), ("VIP-8", 725.0),
    ("VIP-8", 735.0), ("VIP-8", 740.0), ("VIP-8", 745.0), ("VIP-2", 750.0),
    ("VIP-8", 750.0), ("VIP-5", 755.0), ("VIP-8", 755.0),
]  # fmt: skip


def test_probe_rounds_and_reprogramming_ticks(monkeypatch):
    rounds: list[int] = []
    ticks: list[tuple[str, float, bool]] = []
    probe, step = KnapsackLBController._probe, KnapsackLBController.control_step

    def counted_probe(self, dips):
        rounds.append(len(dips))
        return probe(self, dips)

    def recorded_step(self, **kwargs):
        report = step(self, **kwargs)
        ticks.append((self.vip, report.time, report.reprogrammed))
        return report

    monkeypatch.setattr(KnapsackLBController, "_probe", counted_probe)
    monkeypatch.setattr(KnapsackLBController, "control_step", recorded_step)
    run(ExperimentSpec.from_file(str(WORKLOAD)).with_overrides({"seed": 17}))

    assert Counter(rounds) == ROUND_SIZES and sum(rounds) == 2717
    assert len(ticks) == 200
    assert [(vip, time) for vip, time, reprogrammed in ticks if not reprogrammed] == KEPT
