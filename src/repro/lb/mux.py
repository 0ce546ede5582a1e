"""MUX pool: an L4 LB scaled out over multiple dataplane instances (Fig. 1).

Production LBs (Ananta, Maglev, Duet) run the dataplane on many MUXes, each
making independent per-connection decisions; ECMP spreads incoming flows
across MUXes.  KnapsackLB never talks to MUXes directly — it programs
weights through the LB controller, which then pushes them to every MUX.

:class:`MuxPool` reproduces that structure: ``num_muxes`` policy instances
of the same type, a hash-based ECMP spread of flows onto MUXes, and a
``program_weights`` call that propagates weights to all instances.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.core.types import DipId
from repro.exceptions import ConfigurationError
from repro.lb.base import FlowKey, Policy
from repro.lb.hash_lb import stable_hash


class MuxPool:
    """A set of identical MUXes fronted by ECMP."""

    #: ECMP hashes the flow onto a MUX, so the pool always needs the 5-tuple.
    uses_flow = True

    def __init__(
        self,
        policy_factory: Callable[[], Policy],
        *,
        num_muxes: int = 1,
    ) -> None:
        if num_muxes < 1:
            raise ConfigurationError("num_muxes must be >= 1")
        self._muxes: list[Policy] = [policy_factory() for _ in range(num_muxes)]
        first = self._muxes[0]
        for mux in self._muxes[1:]:
            if mux.dips != first.dips:
                raise ConfigurationError("all MUXes must front the same DIP set")

    @property
    def num_muxes(self) -> int:
        return len(self._muxes)

    @property
    def muxes(self) -> Sequence[Policy]:
        return tuple(self._muxes)

    @property
    def dips(self) -> tuple[DipId, ...]:
        return self._muxes[0].dips

    @property
    def supports_weights(self) -> bool:
        return self._muxes[0].supports_weights

    @property
    def uses_connection_counts(self) -> bool:
        return self._muxes[0].uses_connection_counts

    def mux_for(self, flow: FlowKey) -> Policy:
        """ECMP: hash the flow onto one MUX instance."""
        index = stable_hash(flow, salt="ecmp") % len(self._muxes)
        return self._muxes[index]

    def select(self, flow: FlowKey) -> DipId:
        return self.mux_for(flow).select(flow)

    def on_connection_open(self, flow: FlowKey, dip: DipId) -> None:
        self.mux_for(flow).on_connection_open(dip)

    def on_connection_close(self, flow: FlowKey, dip: DipId) -> None:
        self.mux_for(flow).on_connection_close(dip)

    def program_weights(self, weights: Mapping[DipId, float]) -> None:
        """Push new weights to every MUX (what the LB controller does)."""
        for mux in self._muxes:
            mux.set_weights(weights)

    def observe_utilization(self, utilization: Mapping[DipId, float]) -> None:
        for mux in self._muxes:
            mux.observe_utilization(utilization)

    def set_healthy(self, dip: DipId, healthy: bool) -> None:
        for mux in self._muxes:
            mux.set_healthy(dip, healthy)
