"""Token-bucket rate limiting.

GMP's rate-limit condition is enforced at flow sources by
self-imposed rate limits (paper §4.3/§6.3).  The token bucket is the
enforcement mechanism: the bucket refills at the current limit and a
packet may only be generated when a full token is available.
"""

from __future__ import annotations

from repro.errors import FlowError


class TokenBucket:
    """A continuous-time token bucket.

    Tokens accrue at ``rate`` tokens/second up to ``burst`` tokens.
    The bucket is lazy: the balance is brought up to date whenever it
    is consulted, so no kernel events are needed for refills.

    Args:
        rate: refill rate in tokens/second (one token = one packet).
        burst: bucket depth; defaults to 1 token (smooth CBR shaping).
    """

    def __init__(self, rate: float, *, burst: float = 1.0, start_time: float = 0.0) -> None:
        if rate <= 0:
            raise FlowError(f"token bucket rate must be positive: {rate}")
        if burst <= 0:
            raise FlowError(f"token bucket burst must be positive: {burst}")
        self._rate = float(rate)
        self._burst = float(burst)
        self._tokens = float(burst)
        self._updated_at = float(start_time)

    @property
    def rate(self) -> float:
        """Current refill rate in tokens/second."""
        return self._rate

    @property
    def burst(self) -> float:
        """Bucket depth in tokens."""
        return self._burst

    def set_rate(self, rate: float, now: float) -> None:
        """Change the refill rate, settling accrued tokens first."""
        if rate <= 0:
            raise FlowError(f"token bucket rate must be positive: {rate}")
        self._refill(now)
        self._rate = float(rate)

    def tokens(self, now: float) -> float:
        """Token balance at time ``now``."""
        self._refill(now)
        return self._tokens

    def try_consume(self, now: float, amount: float = 1.0) -> bool:
        """Consume ``amount`` tokens if available; returns success."""
        self._refill(now)
        if self._tokens + 1e-12 >= amount:
            self._tokens -= amount
            return True
        return False

    def take(self, now: float) -> tuple[bool, float]:
        """Consume one token if available, and say when the next one is.

        Returns ``(taken, ready_at)``: exactly ``try_consume(now)``
        followed by ``next_available(now)``, with one refill.  The
        second call's refill at the same ``now`` adds ``0.0`` to a
        balance already at most ``burst``, so it changes nothing.
        """
        self._refill(now)
        tokens = self._tokens
        taken = tokens + 1e-12 >= 1.0
        if taken:
            tokens = self._tokens = tokens - 1.0
        deficit = 1.0 - tokens
        return taken, (now + deficit / self._rate if deficit > 0 else now)

    def next_available(self, now: float, amount: float = 1.0) -> float:
        """Earliest time at which ``amount`` tokens will be available.

        Returns ``now`` when they already are.
        """
        self._refill(now)
        deficit = amount - self._tokens
        if deficit <= 0:
            return now
        return now + deficit / self._rate

    def _refill(self, now: float) -> None:
        if now < self._updated_at:
            raise FlowError(
                f"token bucket consulted at t={now} before last update "
                f"t={self._updated_at}"
            )
        self._tokens = min(
            self._burst, self._tokens + (now - self._updated_at) * self._rate
        )
        self._updated_at = now
