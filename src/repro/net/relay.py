"""Relay tiers: gateways that re-serve an upstream gateway.

The paper ships one daily delta to "millions of users"; a single origin
cannot drain that fan-out alone. :class:`RelayGateway` is the
distribution-tree node — origin → region relays → clients — built
entirely from the two existing wire roles:

* **upstream**, it is a :class:`~repro.net.client.NetworkClient`: it
  fetches the origin's anchor payload (verbatim bytes, no re-encode),
  subscribes to delta pushes, and applies each pushed ``INDB`` payload
  to its own :class:`~repro.runtime.runtime.AtlasRuntime`;
* **downstream**, it is a full :class:`~repro.net.gateway.NetworkGateway`
  over that runtime, through the same in-process runtime adapter an
  ``AtlasServer`` gateway uses (named ``"relay"`` in WELCOME, anchored
  on an exact encode of its current day): it answers PREDICT /
  QUERY_INFO / ATLAS_FETCH and re-broadcasts every upstream push
  **bit-for-bit** — the same anchor bytes seed its bootstrap replies
  and the same delta payloads fan out to its subscribers, so a client
  behind any number of relay tiers lands on exactly the origin
  backend's atlas (the equivalence suite pins a 2-deep chain against
  the co-located oracle).

Convergence needs no relay-specific protocol: the upstream subscription
opens *before* the anchor fetch (no missed-push window), buffered
catch-up pushes roll the relay to the origin's current day before it
starts serving, and from then on one poller thread applies + re-fans
each push in upstream order. Compaction works unchanged — the relay's
runtime atlas *is* the origin's client-visible atlas, so an exact
re-encode of it is a valid fresh anchor for the tier below.
"""

from __future__ import annotations

import asyncio
import threading

from repro.atlas.serialization import decode_atlas, decode_delta
from repro.errors import NetworkError, ProtocolError
from repro.net.client import NetworkClient
from repro.net.gateway import NetworkGateway, _RuntimeBackend
from repro.runtime import AtlasRuntime

__all__ = ["RelayGateway"]


class RelayGateway(NetworkGateway):
    """A gateway bootstrapped from — and kept current by — an upstream
    gateway. Construct with the upstream address plus this tier's own
    listen endpoints; :meth:`start` begins serving downstream and
    relaying pushes. See the module docstring for the convergence
    argument."""

    def __init__(
        self,
        *,
        upstream_tcp: tuple[str, int] | None = None,
        upstream_uds: str | None = None,
        upstream_timeout: float = 30.0,
        tcp: tuple[str, int] | None = None,
        uds: str | None = None,
        **kwargs,
    ) -> None:
        if (upstream_tcp is None) == (upstream_uds is None):
            raise ValueError(
                "relay needs exactly one upstream address "
                "(upstream_tcp or upstream_uds)"
            )
        #: raw push payloads buffered by the client's push hook; only
        #: the thread currently driving the client socket appends
        #: (constructor here, then the poller thread exclusively)
        self._pending: list[bytes] = []
        if upstream_tcp is not None:
            self._upstream = NetworkClient.connect_tcp(
                upstream_tcp[0],
                upstream_tcp[1],
                timeout=upstream_timeout,
                subscribe=True,
                push_hook=self._pending.append,
            )
        else:
            self._upstream = NetworkClient.connect_uds(
                upstream_uds,
                timeout=upstream_timeout,
                subscribe=True,
                push_hook=self._pending.append,
            )
        try:
            # subscribe-before-fetch, exactly like a bootstrapping
            # client: no push can fall between the anchor and the
            # subscription, and the closing SUBSCRIBE round trip is an
            # ordered fence past the catch-up replay
            anchor_blob = self._upstream.fetch_atlas_bytes()
            self._upstream.subscribe(True)
            atlas = decode_atlas(anchor_blob)
            anchor_day = atlas.day
            runtime = AtlasRuntime(atlas)
            log: list[tuple[int, bytes]] = []
            for payload in self._pending:
                delta = decode_delta(payload)
                if delta.new_day <= runtime.atlas.day:
                    continue  # the anchor already includes it
                runtime.apply_delta(delta)
                log.append((delta.new_day, payload))
            self._pending.clear()
        except BaseException:
            self._upstream.close()
            raise
        # the relay's serving state: its private runtime, anchored on an
        # exact encode of the current day (it holds no published history)
        super().__init__(
            _RuntimeBackend("relay", lambda: runtime), tcp=tcp, uds=uds, **kwargs
        )
        # seed the serving state with the upstream bytes verbatim: the
        # tier below anchors on the origin's exact payload and replays
        # the exact pushed suffix — nothing is re-encoded on this path
        self._anchor = (anchor_day, anchor_blob)
        self._log_floor = anchor_day
        self._delta_log = log
        self._log_bytes = sum(len(p) for _, p in log)
        self.stats["anchor_day"] = anchor_day
        self.stats["delta_log_bytes"] = self._log_bytes
        self.stats["delta_log_days"] = len(log)
        #: 1 once the upstream feed is gone (connection lost or the
        #: origin dropped our subscription) — the relay keeps serving
        #: its last day but will not advance
        self.stats["upstream_lost"] = 0
        self.upstream_endpoint = self._upstream.endpoint
        self._poller: threading.Thread | None = None

    def start(self) -> "RelayGateway":
        super().start()
        self._poller = threading.Thread(
            target=self._poll_upstream, name="inano-relay-poll", daemon=True
        )
        self._poller.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._upstream.close()
        if self._poller is not None:
            self._poller.join(timeout=10.0)

    def _poll_upstream(self) -> None:
        """Poller thread: drain upstream pushes and re-broadcast each
        one, in upstream order, through the normal push path (apply on
        the bridge thread, zero-copy fan-out to downstream
        subscribers)."""
        client = self._upstream
        while not self._closed:
            try:
                client.poll_updates(max_wait=0.25)
            except (NetworkError, ProtocolError, OSError):
                if not self._closed:
                    self.stats["upstream_lost"] = 1
                return
            while self._pending:
                payload = self._pending.pop(0)
                try:
                    self._relay_push(payload)
                except Exception:
                    if not self._closed:
                        self.stats["upstream_lost"] = 1
                    return
            if not client.subscribed and not self._closed:
                # the origin dropped us (we drained too slowly); the
                # missed days make resubscribing unsound — stop here
                self.stats["upstream_lost"] = 1
                return

    def _relay_push(self, payload: bytes) -> None:
        delta = decode_delta(payload)
        if delta.new_day <= self.backend.day:
            return  # raced the bootstrap catch-up
        future = asyncio.run_coroutine_threadsafe(
            self._push_delta(delta, payload=payload), self._loop
        )
        future.result()
