"""Summaries, the printed tables, machine metadata and ``--compare``."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Iterable

from .catalog import END_TO_END, PER_LAYER, WORKLOAD_BY_NAME

REPO_ROOT = Path(__file__).resolve().parents[2]


def midmean(values: Iterable[float]) -> float:
    """Mean of the middle half: the lowest and highest quarters are dropped.

    Repetition times on a shared box carry interference that comes and goes
    within seconds, and instances differ; the midmean ignores the tails like
    a median but averages what is left, so it moves less from run to run.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut : len(ordered) - cut]
    # Equal samples (one seed repeated) must come back bit-for-bit; a mean
    # of n equal floats can round off the last digit.
    return kept[0] if kept[0] == kept[-1] else statistics.fmean(kept)


#: end-to-end metrics with one sample (or more) per repetition: host times,
#: and simulated latencies, which differ between the instances of a run.
MIDMEAN = (
    "run_s", "first_window_s", "tick_ms", "sim_mean_latency_ms", "sim_p99_latency_ms"
)


def summarize(name: str, samples: Iterable[float]) -> dict[str, Any]:
    """The reported value with the quartiles and sample count beside it."""
    values = list(samples)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    center = midmean(values) if name in MIDMEAN else statistics.median(values)
    return {"value": center, "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: dict[str, Any]) -> float:
    """Distance between the quartiles as a share of the reported value."""
    value = summary["value"]
    return abs(summary["q3"] - summary["q1"]) / abs(value) if value else 0.0


def metadata() -> dict[str, Any]:
    """The machine a result came from (written into every ``--out`` file)."""
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the checkout is not a git repository
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


# -- tables ------------------------------------------------------------------------


def end_to_end_table(results: dict[str, dict[str, Any]]) -> str:
    """Every end-to-end metric by name with its unit, one row per workload."""
    lines = [
        f"{'workload':<20} {'metric':<22} {'value':>14} {'unit':<9} "
        f"{'q1':>12} {'q3':>12} {'n':>4}"
    ]
    for workload, result in results.items():
        for metric in END_TO_END:
            row = result["end_to_end"][metric.name]
            lines.append(
                f"{workload:<20} {metric.name:<22} {row['value']:>14.6g} "
                f"{metric.unit:<9} {row['q1']:>12.6g} {row['q3']:>12.6g} {row['n']:>4}"
            )
        ops = result["ops"]
        lines.append(
            f"{workload:<20} checked operations: {ops['attempted']} attempted, "
            f"{ops['failed']} failed"
        )
        lines.extend(f"{'':<20}   FAILED {why}" for why in ops["failures"])
    return "\n".join(lines)


def per_layer_table(results: dict[str, dict[str, Any]]) -> str:
    """Every per-layer metric per workload; ``null`` carries its reason."""
    names = list(results)
    lines = [f"{'metric':<36} {'unit':<9} " + " ".join(f"{n:>18}" for n in names)]
    for metric in PER_LAYER:
        cells = []
        for name in names:
            value = results[name]["per_layer"][metric.name]
            cells.append(f"{'null':>18}" if value is None else f"{value:>18.6g}")
        lines.append(f"{metric.name:<36} {metric.unit:<9} " + " ".join(cells))
    reasons = {
        (metric, why)
        for result in results.values()
        for metric, why in result["reasons"].items()
        if not why.startswith("direct probe, measured on")
    }
    lines.extend(f"null {metric}: {why}" for metric, why in sorted(reasons))
    return "\n".join(lines)


# -- compare -------------------------------------------------------------------------


def _worse_by(metric: Any, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else 0.0 - change


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[str, bool]:
    """Per workload and metric: both values, delta, bound and a verdict.

    ``regressed``: B's value is worse than A's by more than the bound.
    ``unresolved``: the quartile spread of either side exceeds the bound, so
    the two values cannot be told apart at that resolution.  Where a
    workload repeats one seed its ``sim_*`` values repeat bit-for-bit for
    one commit, so any movement between two same-seed files is flagged
    ``changed`` beside the verdict.
    """
    lines = [
        f"{'workload':<20} {'metric':<22} {'A':>12} {'B':>12} {'delta':>9} "
        f"{'bound':>7}  verdict"
    ]
    regressed = False
    same_seeds = a.get("seed") == b.get("seed")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        rows_a = a["workloads"][workload]["end_to_end"]
        rows_b = b["workloads"][workload]["end_to_end"]
        repeats = same_seeds and not WORKLOAD_BY_NAME[workload].vary_seed
        for metric in END_TO_END:
            row_a, row_b = rows_a[metric.name], rows_b[metric.name]
            worse = _worse_by(metric, row_a["value"], row_b["value"])
            if worse > metric.bound:
                verdict = "regressed"
                regressed = True
            elif max(spread(row_a), spread(row_b)) > metric.bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            if (
                metric.name.startswith("sim_")
                and repeats
                and row_a["value"] != row_b["value"]
            ):
                verdict += " (changed: simulated behaviour moved)"
            lines.append(
                f"{workload:<20} {metric.name:<22} {row_a['value']:>12.6g} "
                f"{row_b['value']:>12.6g} {worse * 100:>+8.2f}% "
                f"{metric.bound * 100:>6.1f}%  {verdict}"
            )
    return "\n".join(lines), regressed
