"""The networked iNano client: bootstrap or delegate over one socket.

Section 5's future work — "support remote queries so that only one
local host need download the atlas" — gave us :class:`QueryAgent`
(in-process delegation). :class:`NetworkClient` takes the same two
deployment modes across a real transport, speaking
:mod:`repro.net.protocol` frames to a
:class:`~repro.net.gateway.NetworkGateway` over TCP or a unix-domain
socket:

* **delegate mode** (the default after :meth:`connect_tcp` /
  :meth:`connect_uds`): the client holds no atlas; ``predict`` /
  ``query_batch`` ship PREDICT/QUERY_INFO frames and the gateway
  answers from its backend — exactly what a ``QueryAgent`` caller gets
  locally, for hosts that are not even on the agent's node.
* **bootstrap mode** (:meth:`bootstrap`): the client fetches the full
  encoded atlas over ``ATLAS_FETCH``, decodes it into a private
  :class:`~repro.runtime.runtime.AtlasRuntime`, subscribes to delta
  pushes, and from then on answers every query locally from its own
  compiled core. Daily ``DELTA_PUSH`` frames (the ``INDB`` broadcast
  codec) are applied through ``runtime.apply_delta`` — the same
  in-place CSR patch + prewarm a co-located consumer runs —
  so a bootstrapped remote client stays bit-for-bit identical to a
  client sitting next to the server, across daily deltas and monthly
  recompiles alike.

Replies are matched to pipelined requests by id; ``DELTA_PUSH`` frames
may interleave with replies at any frame boundary and are applied (or
counted stale) on arrival. :meth:`pipeline_predict` exposes raw
pipelining — send N requests, then drain N replies — which is where
the wire amortizes its round trip (the bench's pipelined-QPS sweep).
A ``SUB_DROPPED`` frame — the gateway unsubscribed this connection
because it stopped draining pushes — flips ``subscribed`` off and is
counted in ``sub_dropped`` (the connection keeps answering queries).
By default a bootstrapped client that wants pushes again must
re-bootstrap, since days were missed; constructing with
``auto_resubscribe=True`` instead triggers :meth:`resubscribe` at the
next idle point — re-subscribe, re-anchor the local runtime on a
fresh ``ATLAS_FETCH``, and carry on bit-for-bit.

A gateway running admission control answers over-rate or shed queries
with a typed ``RETRY`` frame (retry-after hint). The client honors it
transparently: the request is re-sent after a capped exponential
backoff that never waits less than the gateway's hint (``retries``
counts the waits; ``max_retries`` consecutive sheds of one request
raise :class:`~repro.errors.NetworkError`). Connecting to a TLS+auth
gateway takes ``ssl_context=`` on the connect classmethods and
``auth_token=`` (sent in the HELLO under ``FLAG_AUTH``).

A ``push_hook`` callable diverts raw ``DELTA_PUSH`` payloads instead
of applying them locally — the relay tier
(:class:`~repro.net.relay.RelayGateway`) uses this to re-broadcast the
exact upstream bytes downstream.

Constructing with ``stats=True`` negotiates the ``FLAG_STATS``
capability: the gateway trails every successful delegate-mode query
reply with a typed STATS frame (backend wall time, the search-kernel
counter deltas the request caused, and the search-cache counts of the
last applied day); the latest decoded frame is kept on
``client.last_stats``.

Constructing with ``trace=True`` negotiates ``FLAG_TRACE`` instead:
the client mints a ``(trace_id, root_span_id)`` context per sampled
delegate-mode query (``trace_sample`` sets the rate; ``trace_seed``
makes the sampling deterministic), appends it to the request payload,
and records a ``client.request`` root span around the round trip.
:meth:`fetch_trace` pulls the gateway-side spans (decode, admission,
dispatch, routing, worker, kernel) over ``TRACE_FETCH`` and merges
them with the local root; :meth:`span_tree` assembles the
parent-linked tree.
"""

from __future__ import annotations

import random
import socket
import ssl
import time

from repro.atlas.serialization import decode_atlas, decode_delta
from repro.client.query import PathInfo, combine_batches
from repro.core.predictor import PredictedPath, PredictorConfig
from repro.errors import (
    ClientError,
    NetworkError,
    ProtocolError,
    RemoteError,
)
from repro.net import protocol as P
from repro.obs.trace import Span, TraceCollector, Tracer, build_tree
from repro.runtime import AtlasRuntime

__all__ = ["NetworkClient"]

_RECV_CHUNK = 64 * 1024

#: reply types the gateway trails with a STATS frame when negotiated
_STATS_REPLIES = frozenset({P.PREDICT_OK, P.PREDICT_BATCH_OK, P.QUERY_INFO_OK})

#: exponential-backoff floor and ceiling for RETRY re-sends (seconds);
#: the gateway's retry-after hint raises the floor per attempt
_RETRY_BASE = 0.05
_RETRY_CAP = 2.0


class _Retry(Exception):
    """Internal: the gateway shed this request with a RETRY frame."""

    def __init__(self, retry_after_s: float, reason: str) -> None:
        super().__init__(reason)
        self.retry_after_s = retry_after_s
        self.reason = reason


class NetworkClient:
    """A remote host talking to a :class:`NetworkGateway`; see module
    docstring for the delegate / bootstrap split."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        endpoint: str,
        timeout: float = 30.0,
        max_frame: int = P.DEFAULT_MAX_FRAME,
        config: PredictorConfig | None = None,
        subscribe: bool = False,
        stats: bool = False,
        trace: bool = False,
        trace_sample: float = 1.0,
        trace_seed: int | None = None,
        push_hook=None,
        auth_token: str | None = None,
        auto_resubscribe: bool = False,
        max_retries: int = 6,
    ) -> None:
        self._sock = sock
        self.endpoint = endpoint
        self.timeout = timeout
        self.default_config = config or PredictorConfig.inano()
        self._decoder = P.FrameDecoder(max_frame=max_frame)
        self._frames: list[tuple[int, int, bytes]] = []
        self._last_id = 0
        self._closed = False
        self.runtime: AtlasRuntime | None = None
        self.subscribed = False
        self.server_day: int | None = None
        self.backend_name: str | None = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.deltas_applied = 0
        self.pushes_stale = 0
        #: gateway unsubscribed us (send queue over budget); the last
        #: SUB_DROPPED reason string is kept for diagnostics
        self.sub_dropped = 0
        self.drop_reason: str | None = None
        #: opt-in: recover from SUB_DROPPED at the next idle point by
        #: re-subscribing and re-anchoring (see :meth:`resubscribe`)
        self.auto_resubscribe = bool(auto_resubscribe)
        self._resubscribe_pending = False
        self.resubscribes = 0
        #: shared secret for a gateway running with ``auth_token=``
        self._auth_token = auth_token
        #: RETRY handling: consecutive sheds of one request before the
        #: client gives up, and how many backoff waits it has taken
        self.max_retries = int(max_retries)
        self.retries = 0
        #: when set, raw DELTA_PUSH payloads go to this callable instead
        #: of the local runtime (relay mode)
        self._push_hook = push_hook
        #: FLAG_STATS negotiated: the gateway follows every successful
        #: delegate-mode query reply with a typed STATS frame; the
        #: latest decoded one is kept here
        self.stats_enabled = bool(stats)
        self.last_stats: dict | None = None
        self.stats_frames = 0
        #: FLAG_TRACE negotiated: sampled delegate-mode queries carry a
        #: trace context; ``server_caps`` echoes what the gateway
        #: confirmed in its WELCOME caps byte
        self.trace_enabled = bool(trace)
        self.server_caps = 0
        self.trace_collector = TraceCollector()
        self.tracer = Tracer(
            collector=self.trace_collector,
            sample_rate=float(trace_sample),
            rng=random.Random(trace_seed) if trace_seed is not None else None,
        )
        #: trace id of the most recent sampled request (None until one
        #: is minted) — the default argument of :meth:`fetch_trace`
        self.last_trace_id: int | None = None
        try:
            self._hello(subscribe)
        except BaseException:
            # a failed handshake must not leak the connected socket —
            # the caller never receives an object to close
            self.close()
            raise

    # -- connecting --------------------------------------------------------

    @classmethod
    def connect_tcp(
        cls,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        ssl_context=None,
        server_hostname: str | None = None,
        **kwargs,
    ) -> "NetworkClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if ssl_context is not None:
            sock = ssl_context.wrap_socket(
                sock, server_hostname=server_hostname or host
            )
        return cls(
            sock, endpoint=f"tcp://{host}:{port}", timeout=timeout, **kwargs
        )

    @classmethod
    def connect_uds(
        cls, path: str, *, timeout: float = 30.0, ssl_context=None, **kwargs
    ) -> "NetworkClient":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(path)
        if ssl_context is not None:
            sock = ssl_context.wrap_socket(sock)
        return cls(sock, endpoint=f"uds://{path}", timeout=timeout, **kwargs)

    def _hello(self, subscribe: bool) -> None:
        flags = P.FLAG_SUBSCRIBE if subscribe else 0
        if self.stats_enabled:
            flags |= P.FLAG_STATS
        if self.trace_enabled:
            flags |= P.FLAG_TRACE
        payload = self._request(
            P.HELLO, P.encode_hello(flags, self._auth_token), P.WELCOME
        )
        if self.trace_enabled:
            # caps-aware read: an old gateway answers the classic
            # 3-field WELCOME (caps 0) and this client simply keeps
            # its requests untraced
            day, subscribed, backend, caps = P.decode_welcome_caps(payload)
            self.server_caps = caps
        else:
            day, subscribed, backend = P.decode_welcome(payload)
        self.server_day = day
        self.subscribed = subscribed
        self.backend_name = backend

    @property
    def mode(self) -> str:
        """``"local"`` once bootstrapped, ``"delegate"`` before."""
        return "local" if self.runtime is not None else "delegate"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NetworkClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire plumbing -----------------------------------------------------

    def _send_frame(self, ftype: int, request_id: int, payload: bytes) -> None:
        self._send(P.encode_frame(ftype, request_id, payload))

    def _send(self, data: bytes) -> None:
        """One ``sendall`` of encoded frames."""
        if self._closed:
            raise NetworkError("client is closed")
        # reset the timeout: a prior poll_updates may have left a
        # zero one, and a timeout mid-sendall would desync the wire
        self._sock.settimeout(self.timeout)
        try:
            self._sock.sendall(data)
        except (socket.timeout, TimeoutError) as exc:
            raise NetworkError(
                f"send to {self.endpoint} timed out after {self.timeout}s"
            ) from exc
        self.bytes_sent += len(data)

    def _next_frame(self, deadline: float | None):
        """One frame off the wire (buffered frames first); ``None`` on
        deadline expiry, raises on EOF. An expired deadline still reads
        what the socket already holds, without blocking."""
        while not self._frames:
            if deadline is None:
                self._sock.settimeout(self.timeout)
            else:
                # timeout 0 puts the socket in non-blocking mode
                self._sock.settimeout(max(0.0, deadline - time.monotonic()))
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except (TimeoutError, BlockingIOError, ssl.SSLWantReadError):
                if deadline is None:
                    raise NetworkError(
                        f"no reply from {self.endpoint} within {self.timeout}s"
                    ) from None
                return None
            if not chunk:
                raise NetworkError(f"{self.endpoint} closed the connection")
            self.bytes_received += len(chunk)
            self._frames.extend(self._decoder.feed(chunk))
        return self._frames.pop(0)

    def _collect(self, request_id: int, expect: int) -> bytes:
        """Read until ``request_id``'s reply arrives, applying any
        interleaved delta pushes and discarding replies to abandoned
        earlier requests on the way (a pipeline that raised mid-drain
        leaves its tail replies in flight; ids are monotonic, so
        anything below ``request_id`` is stale, not desync)."""
        while True:
            frame = self._next_frame(None)
            ftype, got_id, payload = frame
            if ftype == P.DELTA_PUSH:
                self._on_push(payload)
                continue
            if ftype == P.SUB_DROPPED:
                self._on_sub_dropped(payload)
                continue
            if ftype == P.STATS and got_id < request_id:
                continue  # stale stats for an abandoned request
            if got_id and got_id < request_id:
                continue  # stale reply/error for an abandoned request
            if ftype == P.RETRY and got_id == request_id:
                retry_after_s, reason = P.decode_retry(payload)
                raise _Retry(retry_after_s, reason)
            if ftype == P.ERROR:
                code, message = P.decode_error(payload)
                raise RemoteError(code, message)
            if ftype == expect and got_id == request_id:
                if self.stats_enabled and expect in _STATS_REPLIES:
                    self._read_stats(request_id)
                return payload
            raise ProtocolError(
                f"expected {P.frame_name(expect)}#{request_id}, got "
                f"{P.frame_name(ftype)}#{got_id}"
            )

    def _read_stats(self, request_id: int) -> None:
        """Consume the STATS frame trailing a successful query reply
        (already in flight — the gateway writes it right behind the
        reply), applying any delta pushes interleaved at a frame
        boundary on the way."""
        while True:
            ftype, got_id, payload = self._next_frame(None)
            if ftype == P.DELTA_PUSH:
                self._on_push(payload)
                continue
            if ftype == P.SUB_DROPPED:
                self._on_sub_dropped(payload)
                continue
            if ftype == P.STATS:
                self.last_stats = P.decode_stats(payload)
                self.stats_frames += 1
                if got_id == request_id:
                    return
                continue  # stale stats for an abandoned request
            raise ProtocolError(
                f"expected STATS#{request_id}, got "
                f"{P.frame_name(ftype)}#{got_id}"
            )

    def _take_id(self) -> int:
        self._last_id += 1
        return self._last_id

    def _request(self, ftype: int, payload: bytes, expect: int) -> bytes:
        """One request/reply round trip. A RETRY reply (admission shed)
        re-sends with a fresh id after a capped exponential backoff
        that never undercuts the gateway's retry-after hint."""
        attempt = 0
        while True:
            request_id = self._take_id()
            self._send_frame(ftype, request_id, payload)
            try:
                return self._collect(request_id, expect)
            except _Retry as shed:
                attempt += 1
                if attempt > self.max_retries:
                    raise NetworkError(
                        f"{P.frame_name(ftype)} shed {attempt} times by "
                        f"{self.endpoint}: {shed.reason}"
                    ) from None
                self._backoff(attempt, shed.retry_after_s)

    def _backoff(self, attempt: int, hint_s: float) -> None:
        delay = min(
            _RETRY_CAP,
            max(hint_s, _RETRY_BASE * (2 ** (attempt - 1))),
        )
        self.retries += 1
        time.sleep(delay)

    # -- tracing -----------------------------------------------------------

    def _start_trace(self) -> tuple[int, int] | None:
        """A fresh ``(trace_id, root_span_id)`` for this request, or
        None when tracing is off, the gateway didn't confirm the
        capability, or the sampler skipped this request. A RETRY
        re-send reuses the same payload, so the context survives
        admission sheds."""
        if not (self.trace_enabled and self.server_caps & P.FLAG_TRACE):
            return None
        ctx = self.tracer.start_trace()
        if ctx is not None:
            self.last_trace_id = ctx[0]
        return ctx

    def _record_root(
        self, ctx: tuple[int, int], name: str, start_us: float, t0: float, **tags
    ) -> None:
        self.tracer.record(
            (ctx[0], 0),
            name,
            start_us,
            (time.perf_counter() - t0) * 1e6,
            span_id=ctx[1],
            **tags,
        )

    def fetch_trace(self, trace_id: int | None = None) -> list[Span]:
        """Every span of one trace: the gateway's (and its backend's)
        spans pulled over ``TRACE_FETCH``/``TRACE_DUMP``, merged with
        the spans this client recorded locally. Defaults to the most
        recent sampled request."""
        if trace_id is None:
            trace_id = self.last_trace_id
        if trace_id is None:
            raise ClientError("no traced request yet")
        if not (self.trace_enabled and self.server_caps & P.FLAG_TRACE):
            raise ClientError("tracing was not negotiated with the gateway")
        payload = self._request(
            P.TRACE_FETCH, P.encode_trace_fetch(trace_id), P.TRACE_DUMP
        )
        spans = {
            s.span_id: s
            for s in self.trace_collector.spans_of(trace_id)
        }
        for fields in P.decode_trace_dump(payload):
            spans.setdefault(fields["span_id"], Span(**fields))
        return sorted(spans.values(), key=lambda s: s.start_us)

    def span_tree(self, trace_id: int | None = None) -> list[dict]:
        """:meth:`fetch_trace` assembled into a parent-linked forest
        (see :func:`repro.obs.trace.build_tree`)."""
        return build_tree(self.fetch_trace(trace_id))

    # -- bootstrap + updates -----------------------------------------------

    def bootstrap(self, day: int | None = None, subscribe: bool = True):
        """Fetch the full atlas over the wire and go local: decode into
        a private runtime (own compiled core, own predictor pool) and —
        by default — subscribe to the gateway's delta pushes. Returns
        the decoded :class:`~repro.atlas.model.Atlas`.

        Subscribing happens *before* the fetch, so no delta can fall
        into the gap between them: a push arriving pre-runtime is
        dropped as stale (the fetched atlas already includes it). The
        gateway may answer the fetch with an older *anchor* payload
        followed by catch-up delta pushes (the anchor codec quantizes;
        the delta codec does not) — the closing SUBSCRIBE round trip
        below is an ordered fence past those, so this returns with the
        runtime already on the gateway's current day."""
        if self.runtime is not None:
            raise ClientError("client already bootstrapped")
        if subscribe and not self.subscribed:
            self.subscribe(True)
        blob = self._request(P.ATLAS_FETCH, P.encode_atlas_fetch(day), P.ATLAS)
        self.runtime = AtlasRuntime(decode_atlas(blob))
        # fence: any catch-up pushes precede this reply on the wire and
        # are applied while collecting it
        self.subscribe(self.subscribed)
        return self.runtime.atlas

    def subscribe(self, on: bool = True) -> int:
        """Toggle delta pushes for this connection; returns the
        gateway's current day."""
        payload = self._request(
            P.SUBSCRIBE, P.encode_subscribe(on), P.SUBSCRIBE_OK
        )
        day, subscribed = P.decode_subscribe_ok(payload)
        self.server_day = day
        self.subscribed = subscribed
        return day

    def fetch_atlas_bytes(self, day: int | None = None) -> bytes:
        """The raw encoded atlas anchor, verbatim off the wire — no
        decode, no runtime. Relay gateways re-serve these exact bytes
        downstream so every tier anchors on the same payload."""
        return self._request(P.ATLAS_FETCH, P.encode_atlas_fetch(day), P.ATLAS)

    def _on_sub_dropped(self, payload: bytes) -> None:
        day, reason = P.decode_sub_dropped(payload)
        self.subscribed = False
        self.server_day = day
        self.sub_dropped += 1
        self.drop_reason = reason
        if self.auto_resubscribe:
            # SUB_DROPPED can arrive mid-request (interleaved with a
            # reply drain), where issuing nested requests would tangle
            # the wire; act at the next idle point instead.
            self._resubscribe_pending = True

    def _maybe_resubscribe(self) -> None:
        if not self._resubscribe_pending or self._closed:
            return
        self._resubscribe_pending = False
        self.resubscribe()

    def resubscribe(self) -> int | None:
        """Recover push delivery after a SUB_DROPPED: re-subscribe and —
        in bootstrap mode — re-anchor the local runtime with a fresh
        ``ATLAS_FETCH`` (days were missed while unsubscribed; the push
        chain cannot bridge the gap). Bit-for-bit safe: the fresh
        anchor plus the gateway's catch-up replay is exactly the
        bootstrap contract. Returns the local day (or the gateway's, in
        delegate mode)."""
        old_runtime = self.runtime
        # Pushes interleaved before the new anchor arrives are already
        # folded into it (the gateway applies, then broadcasts); with
        # no runtime installed they count stale instead of tripping the
        # gap check against the stale pre-drop day.
        self.runtime = None
        try:
            self.subscribe(True)
            if old_runtime is not None:
                blob = self._request(
                    P.ATLAS_FETCH, P.encode_atlas_fetch(None), P.ATLAS
                )
                self.runtime = AtlasRuntime(decode_atlas(blob))
                # fence: catch-up replay frames precede this reply and
                # apply onto the fresh runtime while collecting it
                self.subscribe(True)
        except BaseException:
            if self.runtime is None:
                self.runtime = old_runtime
            raise
        self.resubscribes += 1
        return self.day

    def _on_push(self, payload: bytes) -> None:
        if self._push_hook is not None:
            self._push_hook(payload)
            return
        if self.runtime is None:
            self.pushes_stale += 1  # nothing to apply it to
            return
        delta = decode_delta(payload)
        current = self.runtime.atlas.day
        if delta.new_day <= current:
            self.pushes_stale += 1  # raced a fetch that already includes it
            return
        if delta.base_day != current:
            raise ClientError(
                f"delta push {delta.base_day}->{delta.new_day} does not "
                f"extend local day {current}; re-bootstrap required"
            )
        self.runtime.apply_delta(delta)
        self.deltas_applied += 1
        self.server_day = delta.new_day

    def poll_updates(self, max_wait: float = 0.0) -> int:
        """Drain pending frames for up to ``max_wait`` seconds, applying
        delta pushes; returns how many were applied. The default
        ``max_wait=0`` never blocks: it drains what already arrived.
        Only pushes are legal here (no request is outstanding) — which
        also makes this the safe point where a pending auto-resubscribe
        runs."""
        self._maybe_resubscribe()
        deadline = time.monotonic() + max_wait
        applied = 0
        while True:
            try:
                frame = self._next_frame(deadline)
            except NetworkError:
                if self._closed:
                    return applied
                raise
            if frame is None:
                return applied
            ftype, got_id, payload = frame
            if ftype == P.SUB_DROPPED:
                self._on_sub_dropped(payload)
                self._maybe_resubscribe()
                continue
            if ftype != P.DELTA_PUSH:
                if got_id and got_id <= self._last_id:
                    continue  # stale reply for an abandoned request
                raise ProtocolError(
                    f"unexpected {P.frame_name(ftype)} while idle"
                )
            before = self.deltas_applied
            self._on_push(payload)
            applied += self.deltas_applied - before

    def wait_for_day(self, day: int, timeout: float = 10.0) -> int:
        """Poll pushes until the local runtime reaches ``day``."""
        if self.runtime is None:
            raise ClientError("bootstrap() before waiting on pushed days")
        deadline = time.monotonic() + timeout
        while self.runtime.atlas.day < day:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NetworkError(
                    f"day {day} not pushed within {timeout}s "
                    f"(local day {self.runtime.atlas.day})"
                )
            self.poll_updates(max_wait=min(0.2, remaining))
        return self.runtime.atlas.day

    @property
    def day(self) -> int | None:
        """The atlas day queries answer from (local runtime once
        bootstrapped, else the gateway's last reported day)."""
        if self.runtime is not None:
            return self.runtime.atlas.day
        return self.server_day

    # -- queries -----------------------------------------------------------

    def _predictor(self, config: PredictorConfig | None):
        return self.runtime.pool.predictor(config or self.default_config)

    def predict(
        self, src: int, dst: int, config: PredictorConfig | None = None
    ) -> PredictedPath | None:
        """One-way prediction (local in bootstrap mode, one frame
        round trip in delegate mode)."""
        if self.runtime is not None:
            return self._predictor(config).predict_batch([(src, dst)])[0]
        ctx = self._start_trace()
        start_us, t0 = Tracer.now_us(), time.perf_counter()
        payload = self._request(
            P.PREDICT,
            P.encode_predict_request(src, dst, config, trace=ctx),
            P.PREDICT_OK,
        )
        if ctx is not None:
            self._record_root(
                ctx, "client.request", start_us, t0, frame="PREDICT"
            )
        return P.decode_predict_reply(payload)

    def predict_batch(
        self,
        pairs,
        config: PredictorConfig | None = None,
        client: str | None = None,
    ) -> list[PredictedPath | None]:
        pairs = list(pairs)
        if self.runtime is not None:
            if client is not None:
                raise ClientError(
                    "client-scoped queries are delegate-mode only"
                )
            return self._predictor(config).predict_batch(pairs)
        ctx = self._start_trace()
        start_us, t0 = Tracer.now_us(), time.perf_counter()
        payload = self._request(
            P.PREDICT_BATCH,
            P.encode_batch_request(pairs, config, client, trace=ctx),
            P.PREDICT_BATCH_OK,
        )
        if ctx is not None:
            self._record_root(
                ctx,
                "client.request",
                start_us,
                t0,
                frame="PREDICT_BATCH",
                pairs=len(pairs),
            )
        paths = P.decode_batch_reply(payload)
        if len(paths) != len(pairs):
            raise ProtocolError(
                f"{len(paths)} paths answered for {len(pairs)} pairs"
            )
        return paths

    def query_batch(
        self,
        pairs,
        config: PredictorConfig | None = None,
        client: str | None = None,
    ) -> list[PathInfo | None]:
        """Two-way queries; shares ``combine_batches``'s contract with
        every other query surface, so results are bit-for-bit a
        co-located client's."""
        pairs = list(pairs)
        if self.runtime is not None:
            if client is not None:
                raise ClientError(
                    "client-scoped queries are delegate-mode only"
                )
            return combine_batches(
                pairs,
                self._predictor(config).predict_batch,
                self.runtime.atlas.day,
            )
        ctx = self._start_trace()
        start_us, t0 = Tracer.now_us(), time.perf_counter()
        payload = self._request(
            P.QUERY_INFO,
            P.encode_query_request(pairs, config, client, trace=ctx),
            P.QUERY_INFO_OK,
        )
        if ctx is not None:
            self._record_root(
                ctx,
                "client.request",
                start_us,
                t0,
                frame="QUERY_INFO",
                pairs=len(pairs),
            )
        infos = P.decode_query_reply(payload)
        if len(infos) != len(pairs):
            raise ProtocolError(
                f"{len(infos)} infos answered for {len(pairs)} pairs"
            )
        return infos

    def query(
        self, src: int, dst: int, config: PredictorConfig | None = None
    ) -> PathInfo | None:
        return self.query_batch([(src, dst)], config)[0]

    query_or_none = query

    def pipeline_predict(
        self, pairs, config: PredictorConfig | None = None
    ) -> list[PredictedPath | None]:
        """Raw wire pipelining: ship one PREDICT frame per pair, all in
        one send, then drain the replies in order. Delegate mode only —
        this is the transport-level throughput primitive the bench
        sweeps."""
        if self.runtime is not None:
            raise ClientError("pipeline_predict is delegate-mode only")
        pairs = list(pairs)
        ids = []
        ctxs = []
        sent_at = []
        frames = []
        for src, dst in pairs:
            ctx = self._start_trace()
            request_id = self._take_id()
            frames.append(
                P.encode_frame(
                    P.PREDICT,
                    request_id,
                    P.encode_predict_request(src, dst, config, trace=ctx),
                )
            )
            ids.append(request_id)
            ctxs.append(ctx)
            sent_at.append(
                None if ctx is None else (Tracer.now_us(), time.perf_counter())
            )
        # the whole window in one send: the gateway reads it as one
        # burst and answers it with one backend call
        self._send(b"".join(frames))
        # Drain every original id first, marking shed slots; re-sending
        # mid-drain would mint ids above the still-pending tail and the
        # monotonic stale-discard would throw those replies away.
        out: list = [None] * len(pairs)
        shed: list[tuple[int, float]] = []
        for i, request_id in enumerate(ids):
            try:
                out[i] = P.decode_predict_reply(
                    self._collect(request_id, P.PREDICT_OK)
                )
                if ctxs[i] is not None:
                    start_us, t0 = sent_at[i]
                    self._record_root(
                        ctxs[i],
                        "client.request",
                        start_us,
                        t0,
                        frame="PREDICT",
                        pipelined=True,
                    )
            except _Retry as retry:
                shed.append((i, retry.retry_after_s))
        for attempt, (i, hint_s) in enumerate(shed, start=1):
            # sequential re-requests; _request layers its own backoff on
            # any further sheds (the trace context, if any, rides along)
            self._backoff(min(attempt, 4), hint_s)
            src, dst = pairs[i]
            out[i] = P.decode_predict_reply(
                self._request(
                    P.PREDICT,
                    P.encode_predict_request(src, dst, config, trace=ctxs[i]),
                    P.PREDICT_OK,
                )
            )
        return out
