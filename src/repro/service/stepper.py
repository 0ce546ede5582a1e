"""Build a live, resumable substrate for the ``repro serve`` daemon.

The daemon drives the same analytic substrate the batch runner executes — a
:class:`~repro.sim.fleet.Fleet`, whose one-VIP case (the VIP is named
``vip``, built by :func:`~repro.api.runners.build_cluster`) is what
``runner="fluid"`` means — through the shared
:class:`~repro.api.timeline.TimelineStepper`.  This module is the glue: it
converges the fleet exactly the way the batch runner would
(:func:`~repro.api.runners.prepare_fleet`), wraps it in a stepper with an
unbounded horizon, and exposes the per-VIP telemetry closures the REST
endpoints read (rates, shares, analytic latency percentiles).

Percentiles on an analytic substrate are necessarily a model: per-DIP
sojourn times are approximated as exponential with the DIP's M/M/c mean
(exact for M/M/1, close for loaded M/M/c), and a VIP's latency distribution
is the rate-weighted mixture across its DIPs.  ``p50``/``p99`` are the
quantiles of that mixture, solved by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.api.runners import prepare_fleet
from repro.api.spec import ExperimentSpec
from repro.api.timeline import Observer, TimelineStepper, fleet_timeline_stepper
from repro.exceptions import ConfigurationError

#: Substrates the daemon can drive live.
SERVE_RUNNERS = ("fluid", "fleet")


def mixture_percentile(
    shares: Mapping[str, float],
    means_ms: Mapping[str, float],
    quantile: float,
) -> float:
    """The ``quantile`` of an exponential mixture across DIPs, in ms.

    ``shares`` weight each DIP's exponential (mean ``means_ms[dip]``)
    component; zero-share and non-finite-mean DIPs are excluded.  Solved by
    bisection on the mixture CDF to ~1e-6 relative precision.
    """
    live = [
        (share, means_ms[dip])
        for dip, share in shares.items()
        if share > 0 and math.isfinite(means_ms.get(dip, float("inf")))
    ]
    total = sum(share for share, _ in live)
    if total <= 0 or not 0 < quantile < 1:
        return float("nan")
    live = [(share / total, mean) for share, mean in live]

    def cdf(t: float) -> float:
        return sum(
            share * (1.0 - math.exp(-t / mean)) if mean > 0 else share
            for share, mean in live
        )

    hi = max(mean for _, mean in live) or 1.0
    # -ln(1-q) upper-bounds the quantile of the slowest component alone.
    hi *= max(1.0, -math.log1p(-quantile)) * 2.0
    while cdf(hi) < quantile:
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < quantile:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class LiveSubstrate:
    """A converged substrate wrapped for live, window-at-a-time driving."""

    spec: ExperimentSpec
    stepper: TimelineStepper
    #: metrics from the pre-timeline setup (convergence objective etc.).
    setup_metrics: dict[str, float]
    #: DIPs of the built pool, in pool order.
    dip_ids: tuple[str, ...]
    #: VIPs currently live on the substrate.
    vip_ids: Callable[[], tuple[str, ...]]
    #: VIPs currently under KnapsackLB control (== vip_ids when no plane).
    controlled_vip_ids: Callable[[], tuple[str, ...]]
    #: per-VIP stats row at the current instant (see :func:`_vip_row`).
    vip_rows: Callable[[], dict[str, dict[str, float]]]


def _vip_row(
    rates: Mapping[str, float],
    latency_ms: Mapping[str, float],
    *,
    fleet_rate: float,
) -> dict[str, float | dict[str, float]]:
    """One VIP's stats row from its per-DIP rates and the DIP latencies."""
    live = {
        dip: rate
        for dip, rate in rates.items()
        if rate > 0 and math.isfinite(latency_ms.get(dip, float("inf")))
    }
    rate = sum(rates.values())
    live_rate = sum(live.values())
    mean = (
        sum(r * latency_ms[d] for d, r in live.items()) / live_rate
        if live_rate > 0
        else float("nan")
    )
    return {
        "rate_rps": rate,
        "share": rate / fleet_rate if fleet_rate > 0 else 0.0,
        "mean_latency_ms": mean,
        "p50_latency_ms": mixture_percentile(live, latency_ms, 0.50),
        "p99_latency_ms": mixture_percentile(live, latency_ms, 0.99),
        "dip_share": {
            dip: r / rate for dip, r in rates.items() if rate > 0 and r > 0
        },
    }


def build_live_substrate(
    spec: ExperimentSpec, observer: Observer
) -> LiveSubstrate:
    """Converge the spec's substrate and wrap it in an unbounded stepper.

    Only the analytic substrates can serve live traffic (the request
    engine's run is a closed simulation, not a steppable steady state), and
    probe-based health detection precompiles its action schedule from the
    full timeline — incompatible with live injection — so both are rejected
    here with the reason named.
    """
    if spec.runner not in SERVE_RUNNERS:
        kinds = ", ".join(SERVE_RUNNERS)
        raise ConfigurationError(
            f"repro serve drives the analytic substrates (runner must be "
            f"one of: {kinds}); got {spec.runner!r}"
        )
    if spec.health.enabled:
        raise ConfigurationError(
            "repro serve does not support health.enabled: probe-based "
            "detection precompiles its schedule from the full timeline, "
            "which live mutations would invalidate (set health.enabled = "
            "false to serve)"
        )
    fleet, plane, setup_metrics, _ = prepare_fleet(spec)
    stepper = fleet_timeline_stepper(
        fleet, spec.timeline, observer, plane=plane, seed=spec.seed
    )

    def vip_rows() -> dict[str, dict[str, float]]:
        state = fleet.state()
        fleet_rate = sum(
            sum(rates.values()) for rates in state.per_vip_rates.values()
        )
        return {
            vip_id: _vip_row(
                state.per_vip_rates.get(vip_id, {}),
                state.mean_latency_ms,
                fleet_rate=fleet_rate,
            )
            for vip_id in fleet.vips
        }

    return LiveSubstrate(
        spec=spec,
        stepper=stepper,
        setup_metrics=setup_metrics,
        dip_ids=tuple(fleet.dips),
        vip_ids=lambda: tuple(fleet.vips),
        controlled_vip_ids=(
            (lambda: tuple(plane.controllers)) if plane is not None else tuple
        ),
        vip_rows=vip_rows,
    )
