"""Request and connection records used by the request-level simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.types import DipId
from repro.lb.base import FlowKey


class RequestOutcome(enum.Enum):
    COMPLETED = "completed"
    DROPPED = "dropped"
    FAILED_DIP = "failed_dip"


@dataclass(slots=True)
class Request:
    """One client request-response exchange over a fresh connection.

    The paper's workload is HTTP request/response over HAProxy: one request
    per connection, latency measured end-to-end by the client.  Slotted:
    the request simulator allocates one of these per simulated request, so
    the instance dict would dominate the hot path's memory traffic.

    ``flow`` may be ``None`` when the routing policy declares (via
    ``Policy.uses_flow``) that it never inspects the 5-tuple — building a
    FlowKey per request is then pure overhead.
    """

    request_id: int
    flow: FlowKey | None
    arrival_time: float
    dip: DipId | None = None
    completion_time: float | None = None
    outcome: RequestOutcome | None = None
    # -- resilience fields (only touched on the retry path) --
    #: routing attempts for the logical request this attempt belongs to.
    attempts: int = 1
    #: arrival time of the logical request's first attempt.
    first_arrival: float = 0.0
    #: any attempt of the logical request exceeded the request timeout.
    timed_out: bool = False
    #: the retry layer stopped waiting for this attempt (late completions
    #: of abandoned attempts are discarded, not recorded).
    abandoned: bool = False
    #: generation token: bumped when the attempt finishes, so stale
    #: timeout-wheel entries recognise a recycled Request object.
    token: int = 0

    @property
    def latency_ms(self) -> float | None:
        """End-to-end latency (queueing + service), in milliseconds."""
        if self.completion_time is None:
            return None
        return (self.completion_time - self.arrival_time) * 1000.0

    @property
    def completed(self) -> bool:
        return self.outcome is RequestOutcome.COMPLETED
