"""The per-server form of ``Fleet.probe_round``.

A server holds no load: a probe batch is served at a rate its caller
names.  :func:`serve_probe_round` is a round over ``(server, rate)`` pairs,
one row per server of :func:`repro.kernels.probe_round` built from the
server alone (its law row, the rate, its jitter and its generator);
:func:`serve_probe_batch` is that round for one server.  The tests hold the
fleet's round to it, and it to the per-request loop a batch used to run.
:class:`ServerDeployment` serves KLM's rounds from it at fixed rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro import kernels
from repro.backends.dip import DipServer


class DipFailureError(Exception):
    """A probe batch sent to a failed DIP."""


@dataclass
class ProbeResult:
    """Outcome of one KLM probe batch against a DIP."""

    dip: str
    mean_latency_ms: float
    dropped: bool
    samples: int
    drop_fraction: float = 0.0


def serve_probe_round(
    pairs: Sequence[tuple[DipServer, float]], num_requests: int
) -> tuple[list[float | None], list[int]]:
    """One probe batch of ``num_requests`` on each server at its rate: per
    server, the batch's mean latency (``None``: down; ``inf``: every request
    dropped) and its drop count."""
    rows = [(*server.law, rate, server.jitter_fraction) for server, rate in pairs]
    generators = [None if server.failed else server._rng for server, _ in pairs]
    params = np.array(rows, dtype=np.float64).reshape(len(rows), kernels.COLUMNS)
    return kernels.probe_round(params, generators, num_requests)


def serve_probe_batch(server: DipServer, rate_rps: float, num_requests: int) -> ProbeResult:
    """Serve a KLM probe batch on ``server`` offered ``rate_rps`` and report
    the averaged latency: a :func:`serve_probe_round` of this DIP alone."""
    if server.failed:
        raise DipFailureError(f"DIP {server.dip_id} is down")
    (mean,), (drops,) = serve_probe_round(((server, rate_rps),), num_requests)
    return ProbeResult(
        dip=server.dip_id,
        mean_latency_ms=mean,
        dropped=drops > 0,
        samples=num_requests - drops,
        drop_fraction=drops / num_requests,
    )


@dataclass
class ServerDeployment:
    """What a KLM probes: ``servers`` offered fixed ``rates``, by DIP id."""

    servers: Mapping[str, DipServer]
    rates: Mapping[str, float]

    def probe_round(
        self, dip_ids: Sequence[str], num_requests: int
    ) -> tuple[list[float | None], list[int]]:
        pairs = [(self.servers[dip], self.rates[dip]) for dip in dip_ids]
        return serve_probe_round(pairs, num_requests)
