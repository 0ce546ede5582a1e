#!/usr/bin/env python3
"""Quickstart: one declarative spec in, one reproducible artifact out.

Runs the registered ``testbed_klb`` spec — the paper's 30-DIP Table 3
testbed at 70 % load, converged by the KnapsackLB controller on the
analytic fluid model — and prints the headline metrics plus the per-DIP-type
weight/utilization/latency table (compare Fig. 11 / Fig. 12).

The same run from the shell:

    python -m repro run testbed_klb -o testbed.json
    python -m repro run testbed_klb --runner request   # request-level engine

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import api
from repro.analysis import format_table


def main() -> None:
    spec = api.get_spec("testbed_klb")
    print(f"Running spec {spec.name!r} on the {spec.runner!r} substrate...")
    result = api.run(spec)

    # The WeightAssignment the controller programmed (a fluid run is a fleet
    # with one VIP, named "vip").
    assignment = result.detail["assignments"]["vip"]
    print(f"\nObjective (estimated): {assignment.objective_ms:.3f}")
    print(f"Wall clock: {result.provenance.wall_clock_s:.2f} s\n")

    # Group the artifact's per-DIP rows by VM core count.
    cores_of = {
        dip: server.vm_type.vcpus
        for dip, server in api.build_cluster(spec).dips.items()
    }
    rows = []
    for cores in (1, 2, 4, 8):
        dips = [d for d, c in cores_of.items() if c == cores]
        summary = [result.dip_summaries[d] for d in dips]
        mean_weight = sum(assignment.weights.get(d, 0.0) for d in dips) / len(dips)
        mean_util = sum(s["utilization"] for s in summary) / len(summary)
        mean_latency = sum(s["mean_latency_ms"] for s in summary) / len(summary)
        rows.append(
            [
                f"{cores}-core",
                len(dips),
                f"{mean_weight:.4f}",
                f"{mean_util * 100:.0f}%",
                f"{mean_latency:.2f}",
            ]
        )
    print(
        format_table(
            ["DIP type", "#DIPs", "mean weight", "CPU util.", "latency (ms)"],
            rows,
            title="KnapsackLB weight assignment (compare Fig. 11 / Fig. 12)",
        )
    )
    print(f"\nOverall mean latency: {result.metrics['mean_latency_ms']:.2f} ms")
    print(
        f"Equal-split mean latency: {result.metrics['equal_split_latency_ms']:.2f} ms"
        f"  ({result.metrics['latency_gain']:.1f}x gain)"
    )

    out = result.save("quickstart_result.json")
    reloaded = api.RunResult.load(out)
    print(f"\nArtifact saved to {out} (reloads identically: "
          f"{reloaded.metrics == result.metrics})")


if __name__ == "__main__":
    main()
