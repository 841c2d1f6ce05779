"""Flow definitions.

A flow is an end-to-end stream with a *desirable rate* ``d(f)`` and a
*weight* ``w(f)`` (paper §2.1).  The network delivers some actual rate
``r(f) <= d(f)``; the *normalized rate* is ``mu(f) = r(f) / w(f)`` —
the quantity global maxmin equalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import FlowError


@dataclass(frozen=True)
class Flow:
    """An end-to-end flow.

    Attributes:
        flow_id: unique identifier.
        source: source node id.
        destination: destination node id.
        weight: maxmin weight ``w(f)``; must be positive.
        desired_rate: desirable rate ``d(f)`` in packets/second.
        packet_bytes: data payload size; the paper uses 1024-byte
            packets throughout.
    """

    flow_id: int
    source: int
    destination: int
    weight: float = 1.0
    desired_rate: float = 800.0
    packet_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise FlowError(f"flow {self.flow_id}: source equals destination")
        if self.weight <= 0:
            raise FlowError(f"flow {self.flow_id}: weight must be positive")
        if self.desired_rate <= 0:
            raise FlowError(f"flow {self.flow_id}: desired rate must be positive")
        if self.packet_bytes <= 0:
            raise FlowError(f"flow {self.flow_id}: packet size must be positive")

    def normalized(self, rate: float) -> float:
        """Normalized rate ``rate / w(f)``."""
        return rate / self.weight


class FlowSet:
    """An ordered, id-indexed collection of flows."""

    def __init__(self, flows: list[Flow] | None = None) -> None:
        self._flows: dict[int, Flow] = {}
        for flow in flows or []:
            self.add(flow)

    def add(self, flow: Flow) -> None:
        """Add a flow.

        Raises:
            FlowError: on duplicate flow ids.
        """
        if flow.flow_id in self._flows:
            raise FlowError(f"duplicate flow id {flow.flow_id}")
        self._flows[flow.flow_id] = flow

    def remove(self, flow_id: int) -> Flow:
        """Remove and return a flow (dynamic-workload departure).

        Raises:
            FlowError: for unknown ids.
        """
        try:
            return self._flows.pop(flow_id)
        except KeyError:
            raise FlowError(f"unknown flow id {flow_id}") from None

    def next_flow_id(self) -> int:
        """Smallest id strictly above every existing flow's (1 when
        empty) — what a churn engine assigns to the next arrival."""
        return max(self._flows, default=0) + 1

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        for flow_id in sorted(self._flows):
            yield self._flows[flow_id]

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._flows

    def get(self, flow_id: int) -> Flow:
        """Look up a flow by id.

        Raises:
            FlowError: for unknown ids.
        """
        try:
            return self._flows[flow_id]
        except KeyError:
            raise FlowError(f"unknown flow id {flow_id}") from None

    def destinations(self) -> list[int]:
        """Distinct destinations, sorted."""
        return sorted({flow.destination for flow in self})
