"""5-tuple hash load balancing (the Azure L4 LB policy, §2.1).

Azure's public L4 LB only offers IP 5-tuple hashing [1]: each connection is
mapped to a DIP by hashing its 5-tuple, which yields an (approximately)
equal split regardless of DIP capacity.  We hash with a stable digest so
results are reproducible across runs and Python processes.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.lb.base import EQUAL_SPLIT, FlowKey, Policy, register_policy


def stable_hash(flow: FlowKey, *, salt: str = "") -> int:
    """A process-independent hash of the flow 5-tuple."""
    payload = ":".join(map(str, flow.as_tuple())) + salt
    digest = hashlib.sha1(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class FiveTupleHash(Policy):
    """Hash the 5-tuple onto the healthy DIP set (equal-capacity assumption)."""

    name = "hash"
    supports_weights = False
    uses_connection_counts = False
    replayable = True
    fluid_split = EQUAL_SPLIT

    def __init__(self, dips: Iterable[DipId], *, salt: str = "") -> None:
        super().__init__(dips)
        self._salt = salt

    def select(self, flow: FlowKey) -> DipId:
        candidates = self.healthy_dips
        if not candidates:
            raise ConfigurationError("no healthy DIPs available")
        index = stable_hash(flow, salt=self._salt) % len(candidates)
        return candidates[index]


register_policy("hash", FiveTupleHash, weighted=False, summary="IP 5-tuple hash (Azure L4 LB)")
