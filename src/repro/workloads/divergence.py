"""Quantify where the analytic M/M/c twin stops being trustworthy.

The fluid substrate's Erlang-C math silently assumes Poisson arrivals
and exponential service.  This module makes that assumption explicit and
measurable: closed-form squared coefficients of variation (SCVs) for
every workload kind, the Allen-Cunneen M/G/c correction factor the fluid
substrate applies to its waiting times, and :func:`assess_divergence` —
the guard that stamps a ``model_divergence`` warning into
``RunResult.provenance`` instead of letting the analytic twin lie.

Two SCVs summarize a workload:

* ``Ca^2`` — the arrival process's asymptotic index of dispersion
  (variance-to-mean ratio of counts over long windows).  1 for Poisson;
  computed exactly for MMPP from the chain's deviation matrix; closed
  form for shot-noise flash crowds; empirical for traces.
* ``Cs^2`` — the service-time SCV.  1 for exponential; closed form for
  the other kinds (infinite for Pareto tail_index <= 2).

The Allen-Cunneen approximation corrects the M/M/c waiting time by
``(Ca^2 + Cs^2) / 2`` — exact at 1.0 for M/M/c, an *approximation*
elsewhere, which is exactly why the divergence guard exists: when either
SCV strays past ``workload.divergence_tolerance`` the provenance says so
and points at the request engine as the authority.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.spec import ArrivalSpec, ServiceSpec, WorkloadSpec

#: Cap on the Allen-Cunneen correction factor.  Pareto tail_index <= 2
#: has infinite SCV; an infinite factor would turn ``0 * inf`` into NaN
#: in the vectorized wait computation, and the fluid model has nothing
#: meaningful to say at that point anyway — the guard has long fired.
MAX_CORRECTION = 100.0


def mmpp_index_of_dispersion(
    rate_rps: float,
    state_rates: tuple[float, ...],
    switch_rates: tuple[float, ...],
) -> float:
    """Exact asymptotic IDC of the cyclic MMPP, via the deviation matrix.

    For an MMPP with generator ``Q`` and intensity vector ``lam``, the
    asymptotic variance rate of the counting process is
    ``mean + 2 * pi diag(lam) D lam`` with ``D`` the deviation matrix
    ``(Pi - Q)^-1 - Pi``; the IDC is that over ``mean``.  The chain here
    is the same cyclic one the generator simulates, with intensities
    normalized so the stationary mean equals ``rate_rps``.
    """
    rates = np.asarray(state_rates, dtype=float)
    switches = np.asarray(switch_rates, dtype=float)
    n = rates.size
    sojourns = 1.0 / switches
    pi = sojourns / sojourns.sum()
    lam = rates * (rate_rps / float(pi @ rates))
    q = np.zeros((n, n))
    for i in range(n):
        q[i, i] = -switches[i]
        q[i, (i + 1) % n] = switches[i]
    ones_pi = np.outer(np.ones(n), pi)
    deviation = np.linalg.inv(ones_pi - q) - ones_pi
    mean = float(pi @ lam)
    variance_rate = mean + 2.0 * float(pi @ (lam * (deviation @ lam)))
    return variance_rate / mean


def arrival_scv(arrival: "ArrivalSpec", rate_rps: float) -> float:
    """``Ca^2``: the arrival kind's asymptotic index of dispersion."""
    kind = arrival.kind
    if kind == "poisson":
        return 1.0
    if kind == "mmpp":
        return mmpp_index_of_dispersion(
            rate_rps, arrival.state_rates, arrival.switch_rates
        )
    if kind == "flash_crowd":
        # Shot-noise Cox process: IDC(inf) = 1 + base * h^2 * nu * tau^2
        # / (1 + h * nu * tau) with base normalized to the mean rate.
        boost = (
            1.0
            + arrival.burst_height
            * arrival.burst_rate_per_s
            * arrival.burst_decay_s
        )
        base = rate_rps / boost
        return 1.0 + (
            base
            * arrival.burst_height**2
            * arrival.burst_rate_per_s
            * arrival.burst_decay_s**2
            / boost
        )
    if kind == "trace":
        from repro.workloads.arrivals import load_trace_timestamps

        gaps = np.diff(
            load_trace_timestamps(
                arrival.trace_path, time_column=arrival.trace_column
            )
        )
        mean = float(gaps.mean())
        if mean <= 0:
            return 1.0
        return float(gaps.var() / mean**2)
    raise ConfigurationError(f"unknown arrival kind {kind!r}")


def service_scv(service: "ServiceSpec") -> float:
    """``Cs^2``: the service kind's squared coefficient of variation."""
    kind = service.kind
    if kind == "exponential":
        return 1.0
    if kind == "lognormal":
        return float(service.scv)
    if kind == "pareto":
        alpha = service.tail_index
        if alpha <= 2.0:
            return math.inf
        return 1.0 / (alpha * (alpha - 2.0))
    if kind == "elephant":
        p = service.elephant_fraction
        m = service.elephant_factor
        scale = 1.0 / ((1.0 - p) + p * m)
        return 2.0 * scale**2 * ((1.0 - p) + p * m**2) - 1.0
    raise ConfigurationError(f"unknown service kind {kind!r}")


def scv_correction(workload: "WorkloadSpec", rate_rps: float) -> float:
    """The Allen-Cunneen M/G/c waiting-time factor ``(Ca^2 + Cs^2) / 2``.

    Exactly 1.0 for the Poisson/exponential baseline (so the fluid math
    is bit-identical to every pre-existing artifact); capped at
    :data:`MAX_CORRECTION` where the SCVs blow up.
    """
    if (
        workload.arrival.kind == "poisson"
        and workload.service.kind == "exponential"
    ):
        return 1.0
    ca2 = arrival_scv(workload.arrival, rate_rps)
    cs2 = service_scv(workload.service)
    return float(min((ca2 + cs2) / 2.0, MAX_CORRECTION))


def assess_divergence(workload: "WorkloadSpec", rate_rps: float) -> str | None:
    """The ``model_divergence`` provenance warning, or ``None`` if silent.

    The score is how far either SCV strays from the M/M/c value of 1;
    past ``workload.divergence_tolerance`` the analytic twin's numbers
    are an extrapolation (Allen-Cunneen), not a model, and the warning
    names the request engine as the authority.
    """
    if (
        workload.arrival.kind == "poisson"
        and workload.service.kind == "exponential"
    ):
        return None
    ca2 = arrival_scv(workload.arrival, rate_rps)
    cs2 = service_scv(workload.service)
    score = max(abs(ca2 - 1.0), abs(cs2 - 1.0))
    if score <= workload.divergence_tolerance:
        return None
    return (
        f"workload (arrival={workload.arrival.kind!r}, "
        f"service={workload.service.kind!r}) breaks the analytic twin's "
        f"M/M/c assumptions: Ca^2={ca2:.3g}, Cs^2={cs2:.3g}, divergence "
        f"score {score:.3g} > tolerance {workload.divergence_tolerance:g}. "
        "Fluid latencies use the Allen-Cunneen M/G/c correction; "
        "request-level results are authoritative for this workload."
    )
