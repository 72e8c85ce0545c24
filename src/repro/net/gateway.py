"""The network gateway: asyncio front-end over the prediction backends.

The paper's deployment model is a *service*: remote hosts that hold no
atlas send path queries over the network, and one daily delta ships to
every full client. Everything below this module answers queries only
in-process (``repro.runtime``) or over ``multiprocessing`` pipes
(``repro.serve``); :class:`NetworkGateway` is the node boundary —

* it listens on **TCP and unix-domain sockets** simultaneously (one
  gateway, both transports, same protocol bytes);
* each connection speaks the length-prefixed binary frames of
  :mod:`repro.net.protocol`, **pipelined**: a client may send any
  number of requests before reading replies, and the gateway answers
  in arrival order with matching request ids;
* requests fan out to a backend through a **single-thread executor
  bridge**: the asyncio loop never blocks on a prediction, and the
  backends (whose pipe protocol and predictor pool are not
  thread-safe) see exactly one caller thread. There are two backend
  adapters: one over a sharded
  :class:`~repro.serve.service.PredictionService`, and one over an
  in-process :class:`~repro.runtime.runtime.AtlasRuntime` — a
  single-process :class:`~repro.client.server.AtlasServer`'s shared
  runtime, or a relay's private one (they differ only in where the
  bootstrap anchor comes from and in the WELCOME backend name);
* **burst dispatch**: the frames decoded from one socket read form a
  burst. Its query frames (PREDICT, PREDICT_BATCH, QUERY_INFO) pass
  admission and decode one at a time, in arrival order, and
  consecutive admitted frames that share a backend call and
  ``(config, client)`` form one *group*: their pairs go to the backend
  as one ``predict_batch``/``query_batch`` on one bridge hop (so a
  sharded service sends each shard at most one message per group), and
  the answers split back per frame. A group ends at any non-query
  frame, RETRY, ERROR or change of key, and at the end of the burst.
  A frame carrying a sampled trace context is a group of its own (its
  span tree stays exact), and so is every frame of a ``FLAG_STATS``
  connection (each reply keeps its own STATS frame). A single frame is
  simply a burst of one; there is no second path. Replies queue on the
  connection's writer, which joins everything queued into one socket
  write;
* **answer cache**: an answer is a pure function of the atlas day, the
  predictor config and the pair, so a service-backed gateway keeps the
  packed reply bytes of every pair it answered, keyed ``(method,
  config, src, dst)`` under the backend's ``answer_version`` (the
  service's day). A group reads its pairs from the cache on the event
  loop, and only the missing pairs cross the bridge, as one call. The
  cache is dropped whole whenever the version changes — a push through
  :meth:`push_delta`, or a direct ``apply_delta`` / ``sync_from`` on
  the service. A push drops it before its bridge hop, and until the
  apply returns every query reaches the backend and nothing is stored.
  A miss's answers are stored only if no push began and the version did
  not move while its call ran, and at most ``_ANSWER_CAP`` entries are
  stored per version. Sampled traced groups, every group of a
  ``FLAG_STATS`` connection and client-scoped groups bypass the cache,
  so span trees, STATS frames and registered client planes keep their
  meaning. The in-process runtime backend is never cached: an
  ``AtlasServer``'s runtime rolls itself forward on ``publish``, which
  the gateway does not see. ``net.gateway.answer_hits`` /
  ``answer_misses`` count cacheable pairs;
* **backpressure** is structural: the socket is only read once a
  burst's replies are queued, and not at all while the connection's
  unsent replies exceed ``reply_buffer``, so a client that pipelines
  faster than the backend answers fills the kernel's TCP window
  instead of gateway memory. Frame sizes are capped by ``max_frame``
  and a decoder violation closes the connection;
* **admission control** (:mod:`repro.net.admission`): per-client
  token-bucket rate limits and node-wide queue-depth shedding refuse
  *query* frames with a typed ``RETRY`` (retry-after hint, same
  request id) instead of hanging or silently dropping them, and a
  connection cap refuses new sockets with a typed ``E_OVERLOADED``.
  Bootstrap and subscription frames are never shed. For the open
  internet, ``ssl_context=`` wraps both listeners in TLS and
  ``auth_token=`` demands a shared secret in every HELLO
  (``FLAG_AUTH``) — a bad token gets a typed ``E_UNAUTHORIZED`` and
  the connection closes;
* **delta broadcast**: :meth:`push_delta` applies one day's
  :class:`~repro.atlas.delta.AtlasDelta` to the backend, encodes the
  ``INDB`` payload **once**, and hands the single shared ``DELTA_PUSH``
  frame to every subscribed connection's bounded send queue. One writer
  task per connection drains its queue concurrently, so a slow or
  stalled subscriber delays only itself — never the broadcast. A
  subscriber whose queue exceeds ``subscriber_buffer`` has stopped
  reading: it is unsubscribed with a typed ``SUB_DROPPED`` frame
  (counted in ``stats["push_drops"]``) instead of buffering gateway
  memory without bound, and a peer whose socket dies mid-drain is
  counted in ``stats["push_errors"]`` and dropped from the broadcast
  set entirely;
* **log compaction**: the pushed-delta log would otherwise grow with
  gateway uptime, and every bootstrap replays it past the anchor. On a
  cadence (``compact_days`` days or ``log_max_bytes`` retained bytes)
  the gateway folds the log into a fresh anchor — an **exact**
  (format-2, lossless, order-preserving) encode of the backend's
  current atlas — and drops the covered prefix, so a week-offline
  bootstrap costs one anchor plus a short suffix while the
  anchor+``INDB`` bit-for-bit convergence contract holds unchanged.

For planetary fan-out, :class:`~repro.net.relay.RelayGateway` chains
gateways into distribution tiers: a relay bootstraps from an upstream
gateway over the same wire protocol, applies upstream pushes to its own
runtime, and re-serves bootstrap + broadcast downstream — same frames,
same bytes, bit-for-bit.

Run it synchronously from tests and applications: :meth:`start` spawns
a daemon thread owning the event loop and returns once the listeners
are bound; :meth:`close` tears everything down. The gateway is
observation-equivalent to its backend — a networked client's answers
are bit-for-bit the co-located answers (``tests/test_net_equivalence.py``
drives TCP and UDS clients through the full churn chain against a
co-located oracle).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.atlas.serialization import encode_atlas, encode_delta
from repro.client.query import combine_batches
from repro.errors import AtlasError, CodecError, NetworkError, ProtocolError
from repro.net import protocol as P
from repro.net.admission import AdmissionControl
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceCollector, Tracer

__all__ = ["NetworkGateway"]

_READ_CHUNK = 64 * 1024

#: the most answers the cache stores per answer version; once full,
#: nothing new is stored until the version changes
_ANSWER_CAP = 16_384

#: query frame type -> (backend method, reply type, per-answer packer,
#: reply payload over the frame's packed answers) — byte for byte the
#: protocol's ``encode_*_reply`` of the same answers
_QUERIES = {
    P.PREDICT: ("predict_batch", P.PREDICT_OK, P.pack_path, b"".join),
    P.PREDICT_BATCH: (
        "predict_batch",
        P.PREDICT_BATCH_OK,
        P.pack_path,
        P.encode_packed_reply,
    ),
    P.QUERY_INFO: (
        "query_batch",
        P.QUERY_INFO_OK,
        P.pack_path_info,
        P.encode_packed_reply,
    ),
}


def _decode_query(ftype: int, payload: bytes, traced: bool):
    """``(pairs, config, client, trace)`` of one query frame. FLAG_TRACE
    connections use the traced readers (which accept — and strip — the
    optional trailing trace context); classic connections keep the
    strict classic decoders, so a trace field from a peer that never
    negotiated it still gets a typed error."""
    if ftype == P.PREDICT:
        if traced:
            src, dst, config, trace = P.decode_predict_request_traced(payload)
        else:
            (src, dst, config), trace = P.decode_predict_request(payload), None
        return [(src, dst)], config, None, trace
    # QUERY_INFO shares the batch-request packing
    if traced:
        return P.decode_batch_request_traced(payload)
    return (*P.decode_batch_request(payload), None)


def _error_reply(exc: Exception) -> tuple[int, str]:
    """The typed ERROR ``(code, message)`` a failed request gets."""
    if isinstance(exc, (ProtocolError, CodecError)):
        return P.E_MALFORMED, str(exc)
    if isinstance(exc, AtlasError):
        return P.E_UNAVAILABLE, str(exc)
    return P.E_BACKEND, repr(exc)


# -- backend adapters ------------------------------------------------------


class _ServiceBackend:
    """Bridge to a sharded :class:`~repro.serve.service.PredictionService`."""

    name = "service"
    #: accepts a trace context as a fourth call argument; the service
    #: records routing/worker/kernel spans in its own collector, which
    #: :meth:`trace_spans` exposes to the gateway's TRACE_FETCH path
    supports_trace = True
    tracer = None  # set by the gateway; unused here

    def __init__(self, service) -> None:
        self.service = service
        #: the day the service held at gateway construction — as long
        #: as no delta has been applied since, the quantized format-1
        #: encode round-trips to exactly the shard atlases (they were
        #: decoded from such an encode); past it only the exact
        #: format-2 encode anchors without forking the client
        self._pristine_day = service.day

    @property
    def day(self) -> int:
        return self.service.day

    @property
    def answer_version(self) -> int:
        """Every client-less answer is fixed within one service day."""
        return self.service.day

    def predict_batch(self, pairs, config, client, trace=None):
        return self.service.predict_batch(pairs, config, client, trace=trace)

    def query_batch(self, pairs, config, client, trace=None):
        return self.service.query_batch(pairs, config, client, trace=trace)

    def trace_spans(self, trace_id: int) -> list:
        return self.service.trace_spans(trace_id)

    def atlas_bytes(self, day: int | None) -> tuple[int, bytes]:
        """The bootstrap anchor ``(day, payload)``; the gateway caches
        it and replays newer pushed deltas on top so the client lands
        on the current day."""
        current = self.service.day
        if day is not None and day != current:
            raise AtlasError(
                f"service serves day {current}, cannot bootstrap day {day}"
            )
        return current, encode_atlas(
            self.service.atlas, exact=current != self._pristine_day
        )

    def reanchor_bytes(self) -> tuple[int, bytes]:
        """Fold the delta log away: an exact (lossless, order-preserving)
        encode of the current atlas is a valid fresh anchor, because the
        service's atlas *is* the client-visible atlas — same anchor
        bytes, same lossless deltas."""
        return self.service.day, encode_atlas(self.service.atlas, exact=True)

    def apply_delta(self, delta, payload: bytes) -> int:
        # the push payload doubles as the shard broadcast payload
        self.service.apply_delta(delta, payload=payload)
        return self.service.day

    def kernel_sample(self):
        """The kernels live in the shard worker processes; sampling them
        per request would cost a pipe round-trip per query, so STATS
        frames from a service backend carry wall time only (the worker
        ``stats`` op exposes the per-shard kernel counters offline)."""
        return None

    def load_sample(self) -> dict:
        """The service's front-end load telemetry (no worker round
        trips) for the STATS frame: in-flight messages and request
        round-trip percentiles. Runs on the bridge thread. The frame's
        ``queue_depth`` field encodes 0: the service keeps no queue
        below the gateway's burst dispatch."""
        sample = self.service.load_stats()
        return {
            "inflight": sample["inflight"],
            "req_p50_us": sample["req_p50_us"],
            "req_p99_us": sample["req_p99_us"],
        }


class _RuntimeBackend:
    """Bridge to one in-process :class:`~repro.runtime.runtime.AtlasRuntime`:
    an :class:`~repro.client.server.AtlasServer`'s shared runtime, or a
    relay's private one rolled forward by upstream pushes.

    Queries answer through the runtime's own predictor pool (one
    compiled graph + one pooled search cache with every co-located
    consumer — which is what makes the remote/co-located equivalence
    bit-for-bit trivial to audit). ``runtime`` is a zero-argument
    accessor (``AtlasServer.runtime`` rolls itself through the
    server's published delta chain on each call); ``anchor`` is the
    bootstrap-anchor policy ``day -> (day, payload)`` — None anchors on
    an exact encode of the current day, the only day a relay can serve;
    ``name`` is the backend name sent in WELCOME."""

    #: accepts a trace context as a fourth call argument and records a
    #: ``kernel.search`` span (kernel-counter deltas, cache-hit vs
    #: cold split) through the gateway-assigned tracer —
    #: the kernel lives in this very process, so the span is exact
    supports_trace = True
    tracer = None  # set by the gateway

    def __init__(self, name: str, runtime, anchor=None) -> None:
        self.name = name
        self._runtime_of = runtime
        self._anchor = anchor

    @property
    def _runtime(self):
        return self._runtime_of()

    @property
    def day(self) -> int:
        return self._runtime.atlas.day

    def _traced_run(self, fn, trace):
        """Run ``fn`` under a ``kernel.search`` span attributing the
        shared pool's counter deltas to this request. Bridge-thread
        only, like every backend call, so the before/after sampling
        sees exactly one caller."""
        pool = self._runtime.pool
        k0 = pool.kernel_stats()
        start_us = Tracer.now_us()
        result = fn()
        k1 = pool.kernel_stats()
        searches = k1["searches"] - k0["searches"]
        self.tracer.record(
            trace,
            "kernel.search",
            start_us,
            k1["search_us"] - k0["search_us"],
            searches=searches,
            hits=k1["hits"] - k0["hits"],
            cache="cold" if searches else "hit",
        )
        return result

    def _run(self, fn, client, trace):
        if client is not None:
            raise ProtocolError(
                "client-scoped queries need a sharded service backend"
            )
        if trace is None or self.tracer is None:
            return fn()
        return self._traced_run(fn, trace)

    def predict_batch(self, pairs, config, client, trace=None):
        runtime = self._runtime
        return self._run(
            lambda: runtime.pool.predictor(config).predict_batch(list(pairs)),
            client,
            trace,
        )

    def query_batch(self, pairs, config, client, trace=None):
        runtime = self._runtime
        return self._run(
            lambda: combine_batches(
                pairs,
                runtime.pool.predictor(config).predict_batch,
                runtime.atlas.day,
            ),
            client,
            trace,
        )

    def atlas_bytes(self, day: int | None) -> tuple[int, bytes]:
        """The bootstrap anchor ``(day, payload)``. With an ``anchor``
        policy (an ``AtlasServer``'s published payloads), pushes that
        advanced the runtime past the latest *published* day are
        carried by the gateway's delta-log replay (the INNA codec
        quantizes, so only anchor + lossless INDB deltas reproduces the
        runtime's exact atlas). Without one, only the current day is
        servable, and its exact encode is always a valid anchor."""
        if self._anchor is not None:
            return self._anchor(day)
        current = self.day
        if day is not None and day != current:
            raise AtlasError(
                f"{self.name} serves day {current}, cannot bootstrap day {day}"
            )
        return self.reanchor_bytes()

    def reanchor_bytes(self) -> tuple[int, bytes]:
        """Exact encode of the runtime's current atlas — the very state
        a bootstrapped client must land on, so it anchors bit-for-bit
        with an empty replay suffix."""
        runtime = self._runtime
        return runtime.atlas.day, encode_atlas(runtime.atlas, exact=True)

    def apply_delta(self, delta, payload: bytes) -> int:
        # server.runtime() rolls itself through the server's published
        # delta chain, so a delta that was published before being pushed
        # is already applied by the time we get here — push-only then
        runtime = self._runtime
        if runtime.atlas.day < delta.new_day:
            runtime.apply_delta(delta)
        return runtime.atlas.day

    def kernel_sample(self):
        """A snapshot of the shared pool's kernel counters plus the
        search-cache counts of the last applied delta; the gateway
        differences two snapshots to attribute kernel work per request.
        Runs on the bridge thread, like every backend call."""
        pool = self._runtime.pool
        return pool.kernel_stats(), dict(pool.last_repair)


def _published_anchor(server):
    """An ``AtlasServer``'s anchor policy: the published payload of the
    requested (default: latest) day."""

    def anchor(day: int | None) -> tuple[int, bytes]:
        if day is None:
            day = server.latest_day()
        return day, server.full_atlas_bytes(day)

    return anchor


def _resolve_backend(backend):
    if hasattr(backend, "shard_snapshots"):  # PredictionService
        return _ServiceBackend(backend)
    if hasattr(backend, "full_atlas_bytes"):  # AtlasServer
        return _RuntimeBackend(
            "server", backend.runtime, anchor=_published_anchor(backend)
        )
    if hasattr(backend, "atlas_bytes") and hasattr(backend, "predict_batch"):
        return backend  # pre-built adapter (tests)
    raise TypeError(
        f"cannot serve {type(backend).__name__}: expected a "
        "PredictionService or AtlasServer"
    )


# -- connection state ------------------------------------------------------


class _PushTracker:
    """Per-broadcast drain meter: each subscriber's writer task calls
    :meth:`done` once the shared push frame has drained to its socket;
    the slowest drain of the broadcast lands in
    ``stats["push_drain_slowest_us"]`` (and rides the STATS wire
    frame as ``push_drain_us``)."""

    __slots__ = ("stats", "t0")

    def __init__(self, stats: dict, t0: float) -> None:
        self.stats = stats
        self.t0 = t0

    def done(self) -> None:
        elapsed_us = (time.perf_counter() - self.t0) * 1e6
        if elapsed_us > self.stats["push_drain_slowest_us"]:
            self.stats["push_drain_slowest_us"] = elapsed_us


class _Conn:
    """Per-connection state. Every outgoing frame goes through
    ``queue`` — drained by one writer task per connection — so a
    broadcast enqueues a single shared frame object to every subscriber
    (zero copy) and a slow peer blocks only its own writer task."""

    __slots__ = (
        "writer",
        "peer",
        "subscribed",
        "stats",
        "trace",
        "hello_done",
        "queue",
        "queued_bytes",
        "task",
        "wake",
        "space",
        "drained",
        "closing",
    )

    def __init__(self, writer, peer: str) -> None:
        self.writer = writer
        self.peer = peer
        self.subscribed = False
        #: FLAG_STATS negotiated: every successful query reply is
        #: followed by a STATS frame with the same request id
        self.stats = False
        #: FLAG_TRACE negotiated: query payloads may carry a trailing
        #: trace context and TRACE_FETCH is answered
        self.trace = False
        self.hello_done = False
        #: pending ``(frame, tracker)`` writes; tracker is non-None
        #: only for broadcast push frames. ``frame is None`` is a drain
        #: sentinel: the broadcast fast path already wrote the bytes
        #: into the transport and only needs the writer task to await
        #: the flush so the tracker times it
        self.queue: deque[tuple[bytes | None, _PushTracker | None]] = deque()
        self.queued_bytes = 0
        self.task: asyncio.Task | None = None
        self.wake = asyncio.Event()
        self.space = asyncio.Event()
        self.space.set()
        self.drained = asyncio.Event()
        self.drained.set()
        self.closing = False

    def enqueue(
        self, frame: bytes | None, tracker: _PushTracker | None = None
    ) -> bool:
        if self.closing:
            return False
        self.queue.append((frame, tracker))
        if frame is not None:
            self.queued_bytes += len(frame)
        self.drained.clear()
        self.wake.set()
        return True


class _Group:
    """Consecutive admitted query frames of one burst that share a
    backend call and ``(config, client)`` — ``key`` is ``(method,
    config, client)``. Their pairs concatenate into one backend call;
    ``frames`` holds ``(ftype, request_id, pair count)`` per frame, in
    arrival order, to split the answers back."""

    __slots__ = ("key", "trace", "frames", "pairs")

    def __init__(self, key: tuple, trace: tuple[int, int] | None) -> None:
        self.key = key
        #: the sampled trace context of a traced frame's group of one
        self.trace = trace
        self.frames: list[tuple[int, int, int]] = []
        self.pairs: list[tuple[int, int]] = []

    def add(self, ftype: int, request_id: int, pairs) -> None:
        self.frames.append((ftype, request_id, len(pairs)))
        self.pairs.extend(pairs)


class _AnswerCache:
    """The packed answers of one answer version: ``tables`` maps
    ``(method, config)`` to ``{(src, dst): packed answer}``."""

    __slots__ = ("version", "tables", "entries")

    def __init__(self, version) -> None:
        self.version = version
        self.tables: dict[tuple, dict[tuple[int, int], bytes]] = {}
        self.entries = 0

    def store(self, key: tuple, answers: dict) -> None:
        table = self.tables.setdefault(key, {})
        for pair, packed in answers.items():
            if self.entries >= _ANSWER_CAP:
                return
            if pair not in table:
                table[pair] = packed
                self.entries += 1


class NetworkGateway:
    """Serves the wire protocol on TCP and/or unix-domain sockets."""

    def __init__(
        self,
        backend,
        *,
        tcp: tuple[str, int] | None = None,
        uds: str | None = None,
        max_frame: int = P.DEFAULT_MAX_FRAME,
        hello_timeout: float = 10.0,
        subscriber_buffer: int = 4 * 1024 * 1024,
        reply_buffer: int = 4 * 1024 * 1024,
        compact_days: int | None = 7,
        log_max_bytes: int | None = 64 * 1024 * 1024,
        admission: AdmissionControl | None = None,
        ssl_context=None,
        auth_token: str | None = None,
    ) -> None:
        if tcp is None and uds is None:
            raise ValueError("gateway needs a TCP address and/or a UDS path")
        self.backend = _resolve_backend(backend)
        #: admission policy (rate limits / queue shed / connection cap);
        #: the default object admits everything
        self.admission = admission if admission is not None else AdmissionControl()
        #: optional ``ssl.SSLContext`` applied to both listeners
        self.ssl_context = ssl_context
        #: optional shared secret every HELLO must carry (FLAG_AUTH);
        #: a missing or wrong token gets a typed E_UNAUTHORIZED + close
        self.auth_token = auth_token
        self._tcp_request = tcp
        self._uds_request = uds
        self.max_frame = int(max_frame)
        self.hello_timeout = hello_timeout
        #: a subscriber whose unsent queue exceeds this is unsubscribed
        #: with a SUB_DROPPED frame instead of buffering more pushes
        self.subscriber_buffer = int(subscriber_buffer)
        #: request handlers pause reading new requests while a
        #: connection's unsent replies exceed this (structural
        #: backpressure, now measured at the send queue)
        self.reply_buffer = int(reply_buffer)
        #: compaction cadence: fold the delta log into a fresh exact
        #: anchor every ``compact_days`` days and/or whenever the log
        #: retains more than ``log_max_bytes``; None disables that axis
        self.compact_days = compact_days
        self.log_max_bytes = log_max_bytes
        self.tcp_address: tuple[str, int] | None = None
        self.uds_path: str | None = None
        # one bridge thread: the backends assume a single caller thread
        self._bridge = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="inano-gateway"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._servers: list = []
        self._conns: set[_Conn] = set()
        #: one serving task per accepted connection (teardown cancels them)
        self._conn_tasks: set[asyncio.Task] = set()
        #: deltas pushed through this gateway since the last
        #: compaction, in order ``(new_day, encoded payload)`` —
        #: replayed after an ATLAS reply so a bootstrap anchored on an
        #: older payload still lands, losslessly, on the current day
        self._delta_log: list[tuple[int, bytes]] = []
        self._log_bytes = 0
        #: ``(day, payload)`` bootstrap anchor: captured lazily from the
        #: backend at first fetch, replaced by an exact re-encode at
        #: every compaction. Loop-thread state, like the log.
        self._anchor: tuple[int, bytes] | None = None
        #: oldest day still bootstrappable after compaction dropped the
        #: log prefix (None until the first compaction)
        self._log_floor: int | None = None
        self._closed = False
        #: the gateway's metrics registry; :attr:`stats` is a
        #: dict-shaped view over it (``net.gateway.*`` gauges), so the
        #: registry holds the only copy of every counter below
        self.obs = MetricsRegistry()
        self.stats = self.obs.view(
            "net.gateway",
            (
                "connections_total",
                "connections_open",
                "frames_in",
                "frames_out",
                "requests",
                "errors_sent",
                "bytes_in",
                "bytes_out",
                "deltas_pushed",
                "push_frames",
                "push_errors",
                "push_drops",
                "push_encode_us",
                "push_enqueue_us",
                "push_drain_slowest_us",
                "stats_frames",
                "atlas_bytes_served",
                "delta_log_bytes",
                "delta_log_days",
                "compactions",
                "anchor_day",
                "retries_sent",
                "auth_failures",
                "connections_rejected",
                "answer_entries",
            ),
        )
        self.stats["anchor_day"] = -1
        self._answer_hits = self.obs.get_counter("net.gateway.answer_hits")
        self._answer_misses = self.obs.get_counter("net.gateway.answer_misses")
        #: the answer cache (module docstring): None until a cacheable
        #: group runs, and whenever a push dropped it. Loop-thread state
        self._answers: _AnswerCache | None = None
        #: backends without an ``answer_version`` are never cached
        self._cacheable = hasattr(self.backend, "answer_version")
        #: spans the gateway records loop-side (decode / admission /
        #: dispatch) for FLAG_TRACE clients; TRACE_FETCH reads it
        self.trace = TraceCollector()
        self.tracer = Tracer(collector=self.trace)
        # server/relay backends record kernel.search spans themselves
        # (on the bridge thread) through the same tracer
        if getattr(self.backend, "supports_trace", False):
            self.backend.tracer = self.tracer
        #: query frames currently queued on (or running through) the
        #: single-thread bridge — the node's backlog signal for
        #: queue-depth shedding
        self._inflight_queries = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "NetworkGateway":
        """Bind the listeners on a background event-loop thread; returns
        once both endpoints are accepting (or raises what binding
        raised)."""
        if self._thread is not None:
            raise NetworkError("gateway already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="inano-gateway-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise self._startup_error
        if not self._started.is_set():
            raise NetworkError("gateway failed to start in time")
        return self

    def __enter__(self) -> "NetworkGateway":
        return self.start() if self._thread is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._bind())
        except BaseException as exc:
            self._startup_error = exc
            # a partial bind (TCP up, UDS failed) must not leak the
            # listeners that did bind
            with contextlib.suppress(Exception):
                loop.run_until_complete(self._teardown())
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._teardown())
            loop.close()

    async def _bind(self) -> None:
        if self._tcp_request is not None:
            host, port = self._tcp_request
            server = await asyncio.start_server(
                self._accept, host, port, ssl=self.ssl_context
            )
            self.tcp_address = server.sockets[0].getsockname()[:2]
            self._servers.append(server)
        if self._uds_request is not None:
            server = await asyncio.start_unix_server(
                self._accept, path=self._uds_request, ssl=self.ssl_context
            )
            self.uds_path = self._uds_request
            self._servers.append(server)

    async def _teardown(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        for conn in list(self._conns):
            with contextlib.suppress(Exception):
                conn.writer.close()
        self._conns.clear()
        tasks = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def close(self) -> None:
        """Stop the listeners, close every connection, join the loop
        thread, and remove the UDS socket file. Idempotent."""
        if self._closed:
            return
        self._closed = True
        # _loop may already be closed when start() failed to bind
        if (
            self._loop is not None
            and self._thread is not None
            and not self._loop.is_closed()
        ):
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self._bridge.shutdown(wait=False)
        if self.uds_path:
            with contextlib.suppress(OSError):
                os.unlink(self.uds_path)

    # -- delta broadcast ---------------------------------------------------

    def push_delta(self, delta) -> dict:
        """Apply one daily delta to the backend, then push the encoded
        broadcast to every subscribed connection. Thread-safe (callable
        from any thread while the loop runs). Returns ``{"day",
        "wire_bytes", "subscribers"}``."""
        if self._loop is None or self._closed:
            raise NetworkError("gateway is not running")
        future = asyncio.run_coroutine_threadsafe(
            self._push_delta(delta), self._loop
        )
        return future.result()

    async def _push_delta(self, delta, payload: bytes | None = None) -> dict:
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        if payload is None:
            payload = encode_delta(delta)  # one encode: shard fan-out + pushes
        self.stats["push_encode_us"] = (time.perf_counter() - t0) * 1e6
        # Dropped before the hop: until the apply returns, a lookup
        # finds an empty cache, and every miss runs behind the apply on
        # the bridge, so it reads the new version and stores nothing.
        self._answers = None
        self.stats["answer_entries"] = 0
        day = await loop.run_in_executor(
            self._bridge, self.backend.apply_delta, delta, payload
        )
        self._delta_log.append((delta.new_day, payload))
        self._log_bytes += len(payload)
        if self._compaction_due(day):
            await self._compact()
        self.stats["delta_log_bytes"] = self._log_bytes
        self.stats["delta_log_days"] = len(self._delta_log)
        # one frame object for every subscriber. Fast path: a subscriber
        # whose writer is idle (empty queue) gets the frame written
        # straight into its transport here — a buffered non-blocking
        # write, no writer-task wakeup — which is what keeps the
        # 200-subscriber fan-out within ~2x of a single subscriber. A
        # subscriber with traffic in flight takes the queue path so its
        # writer task preserves frame order at the peer's own pace.
        frame = P.encode_frame(P.DELTA_PUSH, 0, payload)
        t1 = time.perf_counter()
        self.stats["push_drain_slowest_us"] = 0.0
        tracker = _PushTracker(self.stats, t1)
        delivered = 0
        for conn in list(self._conns):
            if not conn.subscribed:
                continue
            transport = conn.writer.transport
            # unsent = our queue + what the transport already buffered
            unsent = conn.queued_bytes + transport.get_write_buffer_size()
            if unsent > self.subscriber_buffer:
                self._drop_subscriber(conn, day)
                continue
            if conn.queue or conn.closing or transport.is_closing():
                if conn.enqueue(frame, tracker):
                    delivered += 1
                continue
            try:
                conn.writer.write(frame)
            except Exception:
                self._writer_failed(conn, tracker)
                continue
            self.stats["frames_out"] += 1
            self.stats["bytes_out"] += len(frame)
            delivered += 1
            if transport.get_write_buffer_size() == 0:
                tracker.done()  # flushed to the kernel synchronously
            else:
                # the transport buffered: a zero-frame sentinel makes
                # the writer task await drain and time the flush
                conn.enqueue(None, tracker)
        self.stats["push_enqueue_us"] = (time.perf_counter() - t1) * 1e6
        self.stats["deltas_pushed"] += 1
        self.stats["push_frames"] += delivered
        return {
            "day": day,
            "wire_bytes": len(payload),
            "subscribers": delivered,
        }

    def _drop_subscriber(self, conn: _Conn, day: int) -> None:
        """This subscriber's queue is over budget — it stopped reading.
        Unsubscribe it (the connection stays usable for request/reply)
        and queue a typed notice behind its backlog so a peer that
        resumes reading learns why the pushes stopped."""
        conn.subscribed = False
        self.stats["push_drops"] += 1
        conn.enqueue(
            P.encode_frame(
                P.SUB_DROPPED,
                0,
                P.encode_sub_dropped(day, "subscriber send queue over budget"),
            )
        )

    def _compaction_due(self, day: int) -> bool:
        if not hasattr(self.backend, "reanchor_bytes"):
            return False  # pre-built adapter without exact re-encode
        if self.compact_days is not None:
            base = self._anchor[0] if self._anchor is not None else None
            if base is None and self._delta_log:
                # no anchor captured yet: age against the log's start
                base = self._delta_log[0][0] - 1
            if base is not None and day - base >= self.compact_days:
                return True
        return (
            self.log_max_bytes is not None
            and self._log_bytes > self.log_max_bytes
        )

    async def _compact(self) -> None:
        """Fold the delta log into a fresh anchor: an exact encode of
        the backend's current atlas (format 2 — lossless, insertion
        order preserved) replaces anchor + covered log prefix, so the
        bit-for-bit convergence contract survives re-anchoring. Days at
        or below the new anchor are no longer bootstrappable
        (``_log_floor``)."""
        anchor_day, blob = await self._call(self.backend.reanchor_bytes)
        self._anchor = (anchor_day, blob)
        self._log_floor = anchor_day
        self._delta_log = [
            (d, p) for d, p in self._delta_log if d > anchor_day
        ]
        self._log_bytes = sum(len(p) for _, p in self._delta_log)
        self.stats["compactions"] += 1
        self.stats["anchor_day"] = anchor_day

    async def _ensure_anchor(self) -> tuple[int, bytes]:
        """The current-day bootstrap anchor, captured from the backend
        lazily and re-captured only when the backend advanced past what
        anchor + delta-log replay covers (e.g. a day published
        out-of-band rather than pushed). Compaction replaces it with an
        exact re-encode; in between, every bootstrap reuses the cached
        payload."""
        current = await self._call(lambda: self.backend.day)
        covered = -1 if self._anchor is None else self._anchor[0]
        if self._delta_log:
            covered = max(covered, self._delta_log[-1][0])
        if self._anchor is None or current > covered:
            self._anchor = await self._call(self.backend.atlas_bytes, None)
            self.stats["anchor_day"] = self._anchor[0]
        return self._anchor

    # -- connection handling -----------------------------------------------

    def _accept(self, reader, writer) -> None:
        """Start a new connection's task. It is created here rather than
        handed to asyncio's stream protocol as a coroutine, whose
        done-callback logs a traceback for a task that teardown
        cancelled."""
        task = asyncio.get_running_loop().create_task(
            self._serve_conn(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_conn(self, reader, writer) -> None:
        peername = writer.get_extra_info("peername")
        if not self.admission.admit_connection(self.stats["connections_open"]):
            # refuse with a typed notice, never a silent RST: the peer
            # learns it hit the cap, not a mystery network failure
            self.stats["connections_rejected"] += 1
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.write(
                    P.encode_frame(
                        P.ERROR,
                        0,
                        P.encode_error(
                            P.E_OVERLOADED, "gateway connection limit reached"
                        ),
                    )
                )
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            return
        conn = _Conn(writer, peer=repr(peername))
        conn.task = asyncio.get_running_loop().create_task(
            self._conn_writer(conn)
        )
        self._conns.add(conn)
        self.stats["connections_total"] += 1
        self.stats["connections_open"] += 1
        decoder = P.FrameDecoder(max_frame=self.max_frame)
        try:
            pending: list[tuple[int, int, bytes]] = []
            deadline = asyncio.get_running_loop().time() + self.hello_timeout
            while True:
                while not pending:
                    if conn.hello_done:
                        timeout = None
                    else:
                        # hard deadline: trickling bytes must not extend it
                        timeout = deadline - asyncio.get_running_loop().time()
                        if timeout <= 0:
                            raise asyncio.TimeoutError
                    chunk = await asyncio.wait_for(
                        reader.read(_READ_CHUNK), timeout=timeout
                    )
                    if not chunk:
                        return  # clean EOF
                    self.stats["bytes_in"] += len(chunk)
                    pending.extend(decoder.feed(chunk))
                # Burst dispatch (module docstring): the frames of this
                # read pass admission and decode one at a time, in
                # arrival order; consecutive admitted query frames with
                # one backend call and (config, client) form a group
                # that runs as one call when the group ends — at a
                # non-query frame, a RETRY or ERROR, a change of key, a
                # traced frame or FLAG_STATS connection (groups of one),
                # or the end of the burst. Replies queue in arrival
                # order, and the socket is not read again until the
                # whole burst is answered (per-connection backpressure).
                self.stats["frames_in"] += len(pending)
                group = None
                for ftype, request_id, payload in pending:
                    group = await self._handle_frame(
                        conn, group, ftype, request_id, payload
                    )
                await self._run_group(conn, group)
                pending.clear()
        except (asyncio.TimeoutError, TimeoutError):
            # best effort: the peer may already be gone
            with contextlib.suppress(Exception):
                await self._send_error(
                    conn, 0, P.E_MALFORMED, "no HELLO before timeout"
                )
        except ProtocolError as exc:
            # framing is unrecoverable: report and drop the connection
            with contextlib.suppress(Exception):
                await self._send_error(conn, 0, P.E_MALFORMED, str(exc))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conns.discard(conn)
            self.stats["connections_open"] -= 1
            # asyncio.CancelledError: loop teardown cancels us mid-wait
            with contextlib.suppress(Exception, asyncio.CancelledError):
                # flush queued replies (bounded) before closing
                await asyncio.wait_for(conn.drained.wait(), timeout=5.0)
            conn.closing = True
            if conn.task is not None:
                conn.task.cancel()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _conn_writer(self, conn: _Conn) -> None:
        """One per connection: drains its send queue to the socket.
        Frames enqueue without awaiting, so the broadcast path never
        blocks on a peer; this task alone absorbs the peer's pace.
        Every reply frame queued by the time it wakes goes out joined
        in one write and one drain; a broadcast push frame carrying a
        :class:`_PushTracker` is written and drained on its own, so
        the tracker times exactly its flush."""
        queue = conn.queue
        while True:
            if not queue:
                conn.space.set()
                conn.drained.set()
                conn.wake.clear()
                await conn.wake.wait()
                continue
            frame, tracker = queue[0]
            if tracker is not None:
                queue.popleft()
                frames = [] if frame is None else [frame]
            else:
                frames = []
                while queue and queue[0][1] is None:
                    frames.append(queue.popleft()[0])
            data = b"".join(frames)
            conn.queued_bytes -= len(data)
            # count before the write so a request handler's reply
            # accounting is visible by the time the peer reads it
            self.stats["frames_out"] += len(frames)
            self.stats["bytes_out"] += len(data)
            try:
                if data:
                    conn.writer.write(data)
                await conn.writer.drain()
            except asyncio.CancelledError:
                raise
            except Exception:
                self.stats["frames_out"] -= len(frames)
                self.stats["bytes_out"] -= len(data)
                self._writer_failed(conn, tracker)
                return
            if conn.queued_bytes <= self.reply_buffer:
                conn.space.set()
            if tracker is not None:
                tracker.done()

    def _writer_failed(self, conn: _Conn, tracker: _PushTracker | None) -> None:
        """A write to this peer failed mid-drain: the connection is
        dead. Count every broadcast frame that will never arrive in
        ``push_errors``, drop the peer from the broadcast set, and abort
        the transport so the reader task unblocks too."""
        conn.closing = True
        conn.subscribed = False
        undelivered = [tracker] + [t for _, t in conn.queue]
        self.stats["push_errors"] += sum(
            1 for t in undelivered if t is not None
        )
        conn.queue.clear()
        conn.queued_bytes = 0
        conn.space.set()  # wakes any handler parked in _wait_space
        conn.drained.set()
        self._conns.discard(conn)
        with contextlib.suppress(Exception):
            conn.writer.close()

    async def _send(self, conn: _Conn, *frames: bytes) -> None:
        """Queue ``frames`` back to back (no suspension point between
        them), then wait for send-queue space."""
        for frame in frames:
            if not conn.enqueue(frame):
                raise ConnectionError(f"connection {conn.peer} is closing")
        await self._wait_space(conn)

    async def _wait_space(self, conn: _Conn) -> None:
        """Structural backpressure at the send queue: the request
        handler (which alone reads the socket) parks here while the
        connection's unsent bytes exceed ``reply_buffer``, so a client
        that pipelines faster than it reads fills its own TCP window,
        not gateway memory. Single-threaded loop: no suspension point
        between the check and ``clear()``, so the writer task cannot
        slip a ``set()`` in between and deadlock."""
        while conn.queued_bytes > self.reply_buffer and not conn.closing:
            conn.space.clear()
            await conn.space.wait()
        if conn.closing:
            raise ConnectionError(f"connection {conn.peer} is closing")

    async def _send_error(
        self, conn: _Conn, request_id: int, code: int, message: str
    ) -> None:
        self.stats["errors_sent"] += 1
        await self._send(
            conn, P.encode_frame(P.ERROR, request_id, P.encode_error(code, message))
        )

    async def _call(self, fn, *args):
        """Run one backend call on the bridge thread."""
        return await asyncio.get_running_loop().run_in_executor(
            self._bridge, fn, *args
        )

    async def _timed_call(self, conn: _Conn, fn, *args):
        """One backend query on the bridge thread, returning ``(result,
        stats)``. ``stats`` is None unless the connection negotiated
        ``FLAG_STATS``; then it holds the request's wall time plus —
        when the backend exposes :meth:`kernel_sample` counters — the
        search-kernel deltas this request caused and the search-cache
        counts of the last applied day. Sampling happens on the bridge
        thread around the call itself, so the counters (which are not
        thread-safe) see exactly one reader and the deltas attribute
        cleanly to this request (the bridge serializes requests)."""
        if not conn.stats:
            return await self._call(fn, *args), None
        sample = getattr(self.backend, "kernel_sample", None)
        load_sample = getattr(self.backend, "load_sample", None)
        # last-broadcast timings, captured loop-side before the hop
        push_timings = (
            self.stats["push_encode_us"],
            self.stats["push_enqueue_us"],
            self.stats["push_drain_slowest_us"],
        )

        def run():
            before = sample() if sample is not None else None
            t0 = time.perf_counter()
            result = fn(*args)
            stats = {"elapsed_us": (time.perf_counter() - t0) * 1e6}
            if before is not None:
                counters0, _ = before
                counters1, repair = sample()
                stats["searches"] = counters1["searches"] - counters0["searches"]
                stats["cache_hits"] = counters1["hits"] - counters0["hits"]
                stats["search_us"] = (
                    counters1["search_us"] - counters0["search_us"]
                )
                for key in ("reused", "repaired", "replayed", "dirty"):
                    stats[key] = repair.get(key, 0)
            (
                stats["push_encode_us"],
                stats["push_enqueue_us"],
                stats["push_drain_us"],
            ) = push_timings
            if load_sample is not None:
                # backend load telemetry (queue depth / inflight /
                # request percentiles) rides the same frame — what an
                # autoscaler reads remotely
                stats.update(load_sample())
            return result, stats

        return await asyncio.get_running_loop().run_in_executor(
            self._bridge, run
        )

    async def _handle_frame(
        self,
        conn: _Conn,
        group: _Group | None,
        ftype: int,
        request_id: int,
        payload: bytes,
    ) -> _Group | None:
        """Handle one frame of a burst; returns the query group still
        open after it. Query frames go to :meth:`_admit_query`; any
        other frame ends the open group first, so replies stay in
        arrival order."""
        if conn.hello_done and ftype in _QUERIES:
            self.stats["requests"] += 1
            return await self._admit_query(
                conn, group, ftype, request_id, payload
            )
        await self._run_group(conn, group)
        if not conn.hello_done:
            if ftype != P.HELLO:
                raise ProtocolError(
                    f"first frame must be HELLO, got {P.frame_name(ftype)}"
                )
            version, flags, token = P.decode_hello(payload)
            if version != P.PROTOCOL_VERSION:
                raise ProtocolError(f"client speaks protocol {version}")
            if self.auth_token is not None and token != self.auth_token:
                # typed refusal, then close: _serve_conn's teardown
                # flushes the queued ERROR before the socket drops
                self.stats["auth_failures"] += 1
                await self._send_error(
                    conn,
                    request_id,
                    P.E_UNAUTHORIZED,
                    "bad or missing auth token in HELLO",
                )
                raise ConnectionError("unauthorized HELLO")
            conn.hello_done = True
            conn.subscribed = bool(flags & P.FLAG_SUBSCRIBE)
            conn.stats = bool(flags & P.FLAG_STATS)
            conn.trace = bool(flags & P.FLAG_TRACE)
            day = await self._call(lambda: self.backend.day)
            # the caps byte confirms tracing back to the client; it is
            # appended only for FLAG_TRACE peers, so pre-trace clients
            # see the byte-identical classic WELCOME
            await self._send(
                conn,
                P.encode_frame(
                    P.WELCOME,
                    request_id,
                    P.encode_welcome(
                        day,
                        conn.subscribed,
                        self.backend.name,
                        caps=P.FLAG_TRACE if conn.trace else 0,
                    ),
                ),
            )
            return None
        self.stats["requests"] += 1
        try:
            await self._dispatch(conn, ftype, request_id, payload)
        except Exception as exc:  # keep the connection serving
            await self._send_error(conn, request_id, *_error_reply(exc))
        return None

    async def _admit_query(
        self,
        conn: _Conn,
        group: _Group | None,
        ftype: int,
        request_id: int,
        payload: bytes,
    ) -> _Group | None:
        """Admission and decode of one query frame, then its place in a
        group: the open one when the key matches, else a fresh one.
        Returns the group still open after this frame."""
        # Admission guards *query* frames only: refusing bootstrap or
        # subscription traffic would strand a client with no atlas at
        # all. A refusal is a typed RETRY with the same request id —
        # never a silent drop or a hung socket.
        adm0 = time.perf_counter()
        refusal = self.admission.admit_request(
            conn.peer,
            asyncio.get_running_loop().time(),
            self._inflight_queries,
        )
        adm_us = (time.perf_counter() - adm0) * 1e6
        # admission runs before payload decode, so the trace context
        # (if any) is sniffed off the payload tail
        trace = P.peek_trace(payload) if conn.trace else None
        if trace is not None:
            self.tracer.record(
                trace,
                "gw.admission",
                Tracer.now_us() - adm_us,
                adm_us,
                verdict="refused" if refusal is not None else "admitted",
                **({"reason": refusal[1]} if refusal is not None else {}),
            )
        if refusal is not None:
            await self._run_group(conn, group)
            retry_after, reason = refusal
            self.stats["retries_sent"] += 1
            await self._send(
                conn,
                P.encode_frame(
                    P.RETRY, request_id, P.encode_retry(retry_after, reason)
                ),
            )
            return None
        dec0 = time.perf_counter()
        try:
            pairs, config, client, trace = _decode_query(
                ftype, payload, conn.trace
            )
        except Exception as exc:
            await self._run_group(conn, group)
            await self._send_error(conn, request_id, *_error_reply(exc))
            return None
        if trace is not None:
            dec_us = (time.perf_counter() - dec0) * 1e6
            self.tracer.record(
                trace,
                "gw.decode",
                Tracer.now_us() - dec_us,
                dec_us,
                frame=P.frame_name(ftype),
                pairs=len(pairs),
            )
        key = (_QUERIES[ftype][0], config, client)
        if group is not None and (trace is not None or group.key != key):
            await self._run_group(conn, group)
            group = None
        if group is None:
            group = _Group(key, trace)
        group.add(ftype, request_id, pairs)
        if trace is not None or conn.stats:
            # a traced frame keeps an exact span tree, a FLAG_STATS
            # reply its own STATS frame: both are groups of one
            await self._run_group(conn, group)
            return None
        return group

    async def _run_group(self, conn: _Conn, group: _Group | None) -> None:
        """Answer the group's concatenated pairs — from the answer cache
        where it holds them, the rest in one backend call on one bridge
        hop — and give each frame its slice of the packed answers, in
        arrival order. A failed call (or an answer that does not pack)
        gets each frame its own typed ERROR. The frames count as
        in-flight queries (queue-depth shedding) while the group runs."""
        if group is None:
            return
        method, config, client = group.key
        pack = _QUERIES[group.frames[0][0]][2]
        cache = None
        # a sampled trace keeps its span tree, a STATS frame its kernel
        # deltas and a client-scoped query its plane only if the backend
        # answers them
        if group.trace is None and not conn.stats and client is None:
            cache = self._answer_cache()
        n_frames = len(group.frames)
        self._inflight_queries += n_frames
        stats = None
        try:
            if cache is None:
                result, stats = await self._backend_call(conn, group)
                packed = [pack(answer) for answer in result]
            else:
                packed = await self._cached_answers(
                    cache, method, config, group.pairs, pack
                )
            replies = []
            start = 0
            for ftype, request_id, count in group.frames:
                _, ok_type, _, encode_reply = _QUERIES[ftype]
                reply = encode_reply(packed[start : start + count])
                start += count
                replies.append(P.encode_frame(ok_type, request_id, reply))
                if stats is not None:  # FLAG_STATS: a group of one
                    stats_reply = P.encode_stats(stats)
                    replies.append(P.encode_frame(P.STATS, request_id, stats_reply))
        except Exception as exc:
            code, message = _error_reply(exc)
            for _, request_id, _ in group.frames:
                await self._send_error(conn, request_id, code, message)
            return
        finally:
            self._inflight_queries -= n_frames
        if stats is not None:
            self.stats["stats_frames"] += n_frames
        await self._send(conn, *replies)

    async def _backend_call(self, conn: _Conn, group: _Group):
        """The group's pairs as one backend call, returning ``(answers,
        stats)`` (see :meth:`_timed_call`). A sampled traced group's
        ``gw.dispatch`` span times the call."""
        method, config, client = group.key
        args = (group.pairs, config, client)
        trace, dispatch_span = group.trace, None
        if trace is not None and getattr(self.backend, "supports_trace", False):
            # mint the dispatch span id up front so the backend's spans
            # (serve.route / shard.batch / kernel.search) parent on it;
            # the span itself is recorded after the call, duration known
            dispatch_span = self.tracer.mint_id()
            args += ((trace[0], dispatch_span),)
        disp0 = time.perf_counter()
        start_us = Tracer.now_us() if trace is not None else 0.0
        out = await self._timed_call(conn, getattr(self.backend, method), *args)
        if trace is not None:
            self.tracer.record(
                trace,
                "gw.dispatch",
                start_us,
                (time.perf_counter() - disp0) * 1e6,
                span_id=dispatch_span,
                backend=self.backend.name,
            )
        return out

    def _answer_cache(self) -> _AnswerCache | None:
        """The cache of the backend's current answer version (a new,
        empty one when the version moved or a push dropped it), or None
        for a backend that is never cached."""
        if not self._cacheable:
            return None
        version = self.backend.answer_version
        if self._answers is None or self._answers.version != version:
            self._answers = _AnswerCache(version)
            self.stats["answer_entries"] = 0
        return self._answers

    async def _cached_answers(
        self, cache: _AnswerCache, method: str, config, pairs: list, pack
    ) -> list[bytes]:
        """Packed answers of ``pairs``: the cache's, and for the missing
        pairs (each asked once) one backend call whose answer version
        is read on the bridge right after it. Its answers are stored
        only if that version is the cache's and no push dropped the
        cache meanwhile."""
        key = (method, config)
        table = cache.tables.get(key, {})
        packed = [table.get(pair) for pair in pairs]
        todo = [pair for pair, hit in zip(pairs, packed) if hit is None]
        self._answer_hits.increase(len(pairs) - len(todo))
        if not todo:
            return packed
        self._answer_misses.increase(len(todo))
        todo = list(dict.fromkeys(todo))
        call = getattr(self.backend, method)

        def run():
            return call(todo, config, None), self.backend.answer_version

        result, version = await self._call(run)
        fresh = dict(zip(todo, map(pack, result)))
        if version == cache.version and cache is self._answers:
            cache.store(key, fresh)
            self.stats["answer_entries"] = cache.entries
        return [
            hit if hit is not None else fresh[pair]
            for pair, hit in zip(pairs, packed)
        ]

    async def _dispatch(
        self, conn: _Conn, ftype: int, request_id: int, payload: bytes
    ) -> None:
        """Every frame after HELLO that is not a query."""
        if ftype == P.ATLAS_FETCH:
            await self._dispatch_fetch(conn, request_id, payload)
        elif ftype == P.SUBSCRIBE:
            conn.subscribed = P.decode_subscribe(payload)
            day = await self._call(lambda: self.backend.day)
            await self._send(
                conn,
                P.encode_frame(
                    P.SUBSCRIBE_OK,
                    request_id,
                    P.encode_subscribe_ok(day, conn.subscribed),
                ),
            )
        elif ftype == P.TRACE_FETCH:
            if not conn.trace:
                await self._send_error(
                    conn,
                    request_id,
                    P.E_UNSUPPORTED,
                    "TRACE_FETCH requires FLAG_TRACE in HELLO",
                )
                return
            trace_id = P.decode_trace_fetch(payload)
            spans = list(self.trace.spans_of(trace_id))
            backend_spans = getattr(self.backend, "trace_spans", None)
            if backend_spans is not None:
                spans.extend(await self._call(backend_spans, trace_id))
            await self._send(
                conn,
                P.encode_frame(
                    P.TRACE_DUMP, request_id, P.encode_trace_dump(spans)
                ),
            )
        elif ftype == P.HELLO:
            raise ProtocolError("duplicate HELLO")
        else:
            await self._send_error(
                conn,
                request_id,
                P.E_UNSUPPORTED,
                f"unsupported frame {P.frame_name(ftype)}",
            )

    async def _dispatch_fetch(
        self, conn: _Conn, request_id: int, payload: bytes
    ) -> None:
        day = P.decode_atlas_fetch(payload)
        if day is None or day == self.stats["anchor_day"]:
            served_day, blob = await self._ensure_anchor()
        else:
            if self._log_floor is not None and day < self._log_floor:
                raise AtlasError(
                    f"day {day} was compacted away (anchor floor "
                    f"{self._log_floor}); bootstrap the current day"
                )
            served_day, blob = await self._call(
                self.backend.atlas_bytes, day
            )
        self.stats["atlas_bytes_served"] += len(blob)
        # catch-up replay: deltas pushed after the served anchor
        # follow the reply immediately, so the bootstrap lands on
        # the backend's current day bit for bit (the anchor codec
        # may quantize; the delta codec does not). Anchor and
        # suffix enqueue with no suspension point in between, so a
        # concurrent push cannot interleave mid-replay — it lands
        # after the suffix, strictly newer, and applies on top.
        frames = [P.encode_frame(P.ATLAS, request_id, blob)]
        for new_day, delta_payload in self._delta_log:
            if new_day > served_day:
                frames.append(
                    P.encode_frame(P.DELTA_PUSH, 0, delta_payload)
                )
        await self._send(conn, *frames)
