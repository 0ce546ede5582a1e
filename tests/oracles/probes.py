"""One DIP's probe batch, the per-DIP form of ``KLM.probe_round``.

:func:`serve_probe_batch` is a :func:`repro.backends.dip.serve_probe_round`
of one DIP; the tests hold it to the per-request loop a batch used to run
and to a round over many DIPs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.dip import DipServer, serve_probe_round


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


def serve_probe_batch(server: DipServer, num_requests: int) -> ProbeResult:
    """Serve a KLM probe batch on ``server`` and report the averaged
    latency: a :func:`serve_probe_round` of this DIP alone."""
    if server.failed:
        raise DipFailureError(f"DIP {server.dip_id} is down")
    (mean,), (drops,) = serve_probe_round((server,), num_requests)
    return ProbeResult(
        dip=server.dip_id,
        mean_latency_ms=mean,
        dropped=drops > 0,
        samples=num_requests - drops,
        drop_fraction=drops / num_requests,
    )
