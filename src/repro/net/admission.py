"""Admission control for the network gateway: rate limits and shedding.

The gateway's structural backpressure (bounded per-connection send
queues, one socket burst at a time) protects *memory*, but nothing
protects *compute*: a single hammering client can keep the backend's
executor saturated and starve every other connection, and an operator
has no lever to cap a node's total load. This module is that lever —
a pure-policy layer with no asyncio and no sockets, driven by the
caller's clock so tests control time exactly:

* :class:`TokenBucket` — the classic refill-on-demand limiter. Each
  client identity gets ``rate`` requests/second with bursts up to
  ``burst``; a refused take returns precisely how long until the next
  token lands, which travels to the client as the RETRY frame's
  retry-after hint.
* :class:`AdmissionControl` — the gateway-facing policy object: per
  client token buckets, a node-wide queue-depth shed threshold (refuse
  new queries while the backlog of queued + in-flight requests is past
  the bound), and a connection cap. Every refusal is typed — the
  caller emits a RETRY frame with the hint, never a silent drop or a
  hung socket.

Shedding applies to *query* frames only (PREDICT / PREDICT_BATCH /
QUERY_INFO). Bootstrap and subscription traffic (ATLAS_FETCH,
SUBSCRIBE) is never shed: refusing those would strand a client with no
atlas at all, which is strictly worse for the fleet than one more
bootstrap transfer.
"""

from __future__ import annotations

__all__ = ["TokenBucket", "AdmissionControl"]

#: buckets tracked before idle ones are pruned (memory bound, not policy)
MAX_TRACKED_CLIENTS = 4096


class TokenBucket:
    """Refill-on-demand token bucket; time is supplied by the caller."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        if rate <= 0.0:
            raise ValueError("rate must be > 0")
        if burst < 1.0:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = self.burst
        self.stamp = float(now)

    def _refill(self, now: float) -> None:
        if now > self.stamp:
            self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = max(self.stamp, now)

    def take(self, now: float, n: float = 1.0) -> float | None:
        """Consume ``n`` tokens; ``None`` on success, else the seconds
        until enough tokens will have refilled (the retry-after hint).
        A refused take consumes nothing."""
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return None
        return (n - self.tokens) / self.rate

    def idle_for(self, now: float) -> float:
        """Seconds since this bucket last saw a take (for pruning)."""
        return now - self.stamp


class AdmissionControl:
    """Gateway admission policy: rate limits, queue shed, connection cap.

    All limits default to *off* (``None``), so an
    ``AdmissionControl()`` with no arguments admits everything — the
    gateway constructs one unconditionally and the configuration
    decides how much teeth it has.
    """

    def __init__(
        self,
        *,
        rate: float | None = None,
        burst: float | None = None,
        max_queue_depth: int | None = None,
        max_connections: int | None = None,
    ) -> None:
        self.rate = float(rate) if rate is not None else None
        if self.rate is not None and self.rate <= 0.0:
            raise ValueError("rate must be > 0")
        # default burst: 2 seconds of rate, at least one request
        if burst is None and self.rate is not None:
            burst = max(1.0, 2.0 * self.rate)
        self.burst = float(burst) if burst is not None else None
        self.max_queue_depth = (
            int(max_queue_depth) if max_queue_depth is not None else None
        )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_connections = (
            int(max_connections) if max_connections is not None else None
        )
        if self.max_connections is not None and self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self._buckets: dict[str, TokenBucket] = {}
        self.stats = {
            "admitted": 0,
            "shed_rate": 0,
            "shed_queue": 0,
            "connections_rejected": 0,
        }

    @property
    def enabled(self) -> bool:
        return (
            self.rate is not None
            or self.max_queue_depth is not None
            or self.max_connections is not None
        )

    def admit_connection(self, open_count: int) -> bool:
        """May a new connection join, given ``open_count`` already open?"""
        if self.max_connections is not None and open_count >= self.max_connections:
            self.stats["connections_rejected"] += 1
            return False
        return True

    def admit_request(
        self, client: str, now: float, queue_depth: int = 0
    ) -> tuple[float, str] | None:
        """Admit one query frame from ``client`` at time ``now``.

        Returns ``None`` to admit, or ``(retry_after_s, reason)`` to
        shed. Queue depth is checked first — when the whole node is
        drowning, per-client fairness is moot and the hint should
        reflect drain time, not bucket refill.
        """
        if (
            self.max_queue_depth is not None
            and queue_depth >= self.max_queue_depth
        ):
            self.stats["shed_queue"] += 1
            # No drain-rate estimate is worth its complexity here: hint
            # one "typical backlog" beat, scaled by how far past the
            # bound the node is, capped so clients re-probe promptly.
            over = queue_depth / self.max_queue_depth
            return min(1.0, 0.05 * over), (
                f"queue depth {queue_depth} >= shed threshold "
                f"{self.max_queue_depth}"
            )
        if self.rate is not None:
            bucket = self._buckets.get(client)
            if bucket is None:
                self._prune(now)
                bucket = self._buckets[client] = TokenBucket(
                    self.rate, self.burst, now
                )
            wait = bucket.take(now)
            if wait is not None:
                self.stats["shed_rate"] += 1
                return wait, (
                    f"client rate limit {self.rate:g}/s exceeded"
                )
        self.stats["admitted"] += 1
        return None

    def _prune(self, now: float) -> None:
        if len(self._buckets) < MAX_TRACKED_CLIENTS:
            return
        # Drop the most-idle half; an evicted client merely restarts
        # with a full burst, so eviction can only ever be generous.
        by_idle = sorted(
            self._buckets.items(), key=lambda kv: kv[1].idle_for(now)
        )
        self._buckets = dict(by_idle[: MAX_TRACKED_CLIENTS // 2])

    def snapshot(self) -> dict[str, int]:
        out = dict(self.stats)
        out["tracked_clients"] = len(self._buckets)
        return out
