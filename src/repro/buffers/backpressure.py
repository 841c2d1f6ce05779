"""Buffer-based backpressure gates.

The congestion-avoidance scheme (paper §2.2, after Chen & Yang) lets
node ``i`` send a packet for destination ``t`` to its downstream
neighbor ``j`` only when ``j``'s queue for ``t`` has free space.  The
gate answers exactly that question.

Two implementations:

* :class:`OverhearingGate` — the paper's mechanism: ``j`` piggybacks
  its per-destination buffer-state bits on every frame; ``i`` caches
  what it overhears.  A cache entry older than the stale timeout no
  longer blocks ("i will stop waiting and attempt transmitting if it
  does not overhear j's buffer state for certain time").
* :class:`OracleGate` — reads the downstream queue directly.  Used
  with the fluid MAC, which has no frames to overhear; semantically it
  is the zero-loss, zero-latency limit of the overhearing gate.
  :class:`BufferOracleGate` is the oracle a scenario run builds: it
  asks each neighbour's own buffer.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Mapping

from repro.errors import ConfigError


class BackpressureGate(abc.ABC):
    """Decides whether a packet for ``dest`` may be sent to ``neighbor``."""

    @abc.abstractmethod
    def allows(self, neighbor: int, dest: int, now: float) -> bool:
        """True if transmission toward ``neighbor`` for ``dest`` is
        currently permitted."""

    def update(self, neighbor: int, states: dict[int, bool], now: float) -> None:
        """Feed overheard buffer-state bits (no-op by default)."""


class OverhearingGate(BackpressureGate):
    """Cache of overheard per-destination buffer-state bits.

    Args:
        stale_timeout: seconds after which a cached "full" state stops
            blocking.  Unknown neighbors/destinations never block
            (optimistic start, as in the paper: blocking begins only
            once a full state has been overheard).
    """

    def __init__(self, *, stale_timeout: float = 0.1) -> None:
        if stale_timeout <= 0:
            raise ConfigError(f"stale_timeout must be positive: {stale_timeout}")
        self.stale_timeout = stale_timeout
        self._cache: dict[tuple[int, int], tuple[bool, float]] = {}

    def update(self, neighbor: int, states: dict[int, bool], now: float) -> None:
        for dest, has_free in states.items():
            self._cache[(neighbor, dest)] = (bool(has_free), now)

    def allows(self, neighbor: int, dest: int, now: float) -> bool:
        entry = self._cache.get((neighbor, dest))
        if entry is None:
            return True
        has_free, heard_at = entry
        return has_free or now - heard_at > self.stale_timeout

    def known_state(self, neighbor: int, dest: int) -> bool | None:
        """Last overheard state, or None if never heard."""
        entry = self._cache.get((neighbor, dest))
        return entry[0] if entry is not None else None


class OracleGate(BackpressureGate):
    """Direct-lookup gate for substrates without frames.

    Args:
        lookup: ``lookup(neighbor, dest) -> bool`` returning whether the
            neighbor's queue for ``dest`` has free space.
    """

    def __init__(self, lookup: Callable[[int, int], bool]) -> None:
        self._lookup = lookup

    def allows(self, neighbor: int, dest: int, now: float) -> bool:
        return self._lookup(neighbor, dest)


class BufferOracleGate(BackpressureGate):
    """The oracle over the neighbours' own buffers: a check is the
    neighbour buffer's ``has_free(dest)``, one call into the downstream
    queue.

    Args:
        buffers: node id -> that node's buffer policy, read at each
            check (so it may be filled after the gate is built).
    """

    def __init__(self, buffers: Mapping[int, Any]) -> None:
        self._buffers = buffers

    def allows(self, neighbor: int, dest: int, now: float) -> bool:
        return self._buffers[neighbor].has_free(dest)
