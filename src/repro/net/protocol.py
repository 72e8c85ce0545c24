"""The gateway wire protocol: length-prefixed binary frames.

One frame format carries every message between a
:class:`~repro.net.client.NetworkClient` and the
:class:`~repro.net.gateway.NetworkGateway`::

    +--------+---------+--------+------------+-------------+----------+
    | magic  | version | type   | request_id | payload_len | payload  |
    | "INWP" | u8      | u8     | u32        | u32         | bytes    |
    +--------+---------+--------+------------+-------------+----------+

``request_id`` pairs replies with pipelined requests (the gateway
answers a connection's requests in order, but clients verify the id
anyway); server-initiated pushes use id 0. ``payload_len`` is bounded
by a negotiated ``max_frame`` so a corrupt or hostile length prefix
cannot balloon a peer's buffer — an oversized or malformed frame raises
:class:`~repro.errors.ProtocolError` from :class:`FrameDecoder`.

Frame payloads are pure-``struct`` packings shared by both ends of the
wire (this module has no asyncio, no sockets — both the asyncio server
and the blocking client build on it):

* ``HELLO`` / ``WELCOME`` — version + capability handshake; a client
  may request the delta subscription in the HELLO flags.
* ``PREDICT`` / ``PREDICT_BATCH`` — one-way predictions; payloads carry
  the :class:`~repro.core.predictor.PredictorConfig` ablation flags, an
  optional registered-client token, and ``(src, dst)`` prefix pairs.
  Replies encode :class:`~repro.core.predictor.PredictedPath` rows with
  **lossless float64** latency/loss so a remote caller sees bit-for-bit
  what a co-located one computes.
* ``QUERY_INFO`` — two-way queries; replies encode full
  :class:`~repro.client.query.PathInfo` payloads (both directions plus
  atlas-day provenance).
* ``ATLAS_FETCH`` / ``ATLAS`` — bootstrap: the reply payload is the
  ``INNA`` atlas encoding (:func:`repro.atlas.serialization.encode_atlas`),
  which the client decodes into its own
  :class:`~repro.runtime.runtime.AtlasRuntime`.
* ``SUBSCRIBE`` / ``DELTA_PUSH`` — daily updates: a push payload is the
  ``INDB`` broadcast codec (:func:`repro.atlas.serialization.encode_delta`),
  exactly the bytes the sharded service fans to its workers, applied
  client-side through the same in-place patch + prewarm path.
* ``SUB_DROPPED`` — server-initiated notice (id 0) that the gateway
  unsubscribed this connection because its send queue exceeded the
  per-subscriber budget (it stopped reading pushes); the payload
  carries the atlas day the drop happened on plus a reason string, so
  the client knows to re-bootstrap instead of waiting for pushes that
  will never come.
* ``STATS`` — per-request kernel telemetry: a client that set
  ``FLAG_STATS`` in its HELLO receives one typed STATS frame after
  every successful PREDICT / PREDICT_BATCH / QUERY_INFO reply (same
  ``request_id``) carrying the backend wall time, the search-kernel
  counter deltas the request caused (cold searches, cache hits, kernel
  microseconds), and the search-cache counts of the backend's last
  applied delta (reused / repaired / replayed / dirty; every stale
  search is dirty, so the first three always read 0 and stay only to
  keep the layout fixed) — the first metrics hook an autoscaler needs,
  behind the capability bit.
* ``RETRY`` — a typed shed reply (same ``request_id`` as the refused
  query) from the gateway's admission layer: the client exceeded its
  token-bucket rate or the node's queue depth crossed the shed
  threshold. Carries a float64 retry-after hint (seconds) plus a
  reason string, so an over-rate client backs off instead of hanging
  on a silently dropped query. :class:`~repro.net.client.NetworkClient`
  honors it with capped exponential backoff.
* ``ERROR`` — a typed failure reply (code + message); decode failures
  of untrusted bytes (:class:`~repro.errors.CodecError`) and backend
  errors travel as these instead of killing the connection. A gateway
  configured with a shared-secret auth token answers a HELLO with a
  missing/wrong token (``FLAG_AUTH`` + token string in the HELLO
  payload) with ``E_UNAUTHORIZED`` and closes.
"""

from __future__ import annotations

import struct

from repro.core.predictor import PredictedPath, PredictorConfig
from repro.errors import ProtocolError

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "encode_frame",
    "frame_name",
]

MAGIC = b"INWP"  # iNano wire protocol
PROTOCOL_VERSION = 1

#: frame header: magic, protocol version, frame type, request id, payload length
_HEADER = struct.Struct("<4sBBII")
HEADER_SIZE = _HEADER.size

#: default cap on one frame's payload (atlas payloads are the largest
#: legitimate frames; the default scenario encodes to well under this)
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

# -- frame types -----------------------------------------------------------

HELLO = 1
WELCOME = 2
PREDICT = 3
PREDICT_OK = 4
PREDICT_BATCH = 5
PREDICT_BATCH_OK = 6
QUERY_INFO = 7
QUERY_INFO_OK = 8
ATLAS_FETCH = 9
ATLAS = 10
SUBSCRIBE = 11
SUBSCRIBE_OK = 12
DELTA_PUSH = 13
STATS = 14
SUB_DROPPED = 15
RETRY = 16
TRACE_FETCH = 17
TRACE_DUMP = 18
ERROR = 127

_FRAME_NAMES = {
    HELLO: "HELLO",
    WELCOME: "WELCOME",
    PREDICT: "PREDICT",
    PREDICT_OK: "PREDICT_OK",
    PREDICT_BATCH: "PREDICT_BATCH",
    PREDICT_BATCH_OK: "PREDICT_BATCH_OK",
    QUERY_INFO: "QUERY_INFO",
    QUERY_INFO_OK: "QUERY_INFO_OK",
    ATLAS_FETCH: "ATLAS_FETCH",
    ATLAS: "ATLAS",
    SUBSCRIBE: "SUBSCRIBE",
    SUBSCRIBE_OK: "SUBSCRIBE_OK",
    DELTA_PUSH: "DELTA_PUSH",
    STATS: "STATS",
    SUB_DROPPED: "SUB_DROPPED",
    RETRY: "RETRY",
    TRACE_FETCH: "TRACE_FETCH",
    TRACE_DUMP: "TRACE_DUMP",
    ERROR: "ERROR",
}

#: HELLO capability flags
FLAG_SUBSCRIBE = 1
FLAG_STATS = 2
FLAG_AUTH = 4
FLAG_TRACE = 8

# -- wire error codes ------------------------------------------------------

E_MALFORMED = 1      # payload failed to parse (ProtocolError / CodecError)
E_UNSUPPORTED = 2    # frame type or feature the backend cannot serve
E_BACKEND = 3        # the prediction backend raised
E_UNAVAILABLE = 4    # requested data not servable (e.g. unknown atlas day)
E_TOO_LARGE = 5      # frame exceeded the negotiated max_frame
E_UNAUTHORIZED = 6   # HELLO auth token missing or wrong (gateway closes)
E_OVERLOADED = 7     # admission refused and no RETRY could be computed


def frame_name(ftype: int) -> str:
    return _FRAME_NAMES.get(ftype, f"type{ftype}")


# -- framing ---------------------------------------------------------------


def encode_frame(ftype: int, request_id: int, payload: bytes = b"") -> bytes:
    """One complete frame as a single ``bytes`` (writers emit a frame in
    one ``write()`` call, so concurrent pushes never interleave
    mid-frame)."""
    return _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, ftype, request_id, len(payload)
    ) + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    ``feed(chunk)`` returns every complete ``(type, request_id,
    payload)`` frame the buffer now holds; partial frames wait for more
    bytes. Violations — wrong magic, unsupported version, a payload
    length past ``max_frame`` — raise
    :class:`~repro.errors.ProtocolError` immediately (the stream is
    unrecoverable past a framing error, so callers close the
    connection).
    """

    __slots__ = ("max_frame", "_buf")

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = int(max_frame)
        self._buf = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes waiting for the rest of their frame."""
        return len(self._buf)

    def feed(self, chunk: bytes) -> list[tuple[int, int, bytes]]:
        self._buf += chunk
        frames: list[tuple[int, int, bytes]] = []
        while True:
            if len(self._buf) < HEADER_SIZE:
                return frames
            magic, version, ftype, request_id, length = _HEADER.unpack_from(
                self._buf
            )
            if magic != MAGIC:
                raise ProtocolError(f"bad frame magic {bytes(magic)!r}")
            if version != PROTOCOL_VERSION:
                raise ProtocolError(f"unsupported protocol version {version}")
            if length > self.max_frame:
                raise ProtocolError(
                    f"{frame_name(ftype)} frame of {length} bytes exceeds "
                    f"max_frame {self.max_frame}"
                )
            end = HEADER_SIZE + length
            if len(self._buf) < end:
                return frames
            payload = bytes(self._buf[HEADER_SIZE:end])
            del self._buf[:end]
            frames.append((ftype, request_id, payload))


# -- payload primitives ----------------------------------------------------

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_PAIR = struct.Struct("<qq")
_PATH_FIXED = struct.Struct("<ddqB")  # latency_ms, loss, as_hops, used_from_src
_CONFIG = struct.Struct("<BBBBi")


class _Reader:
    """Bounds-checked cursor over one frame payload; every short read
    raises :class:`~repro.errors.ProtocolError` instead of
    ``struct.error``."""

    __slots__ = ("data", "off")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.off = 0

    def take(self, packer: struct.Struct) -> tuple:
        end = self.off + packer.size
        if end > len(self.data):
            raise ProtocolError("truncated payload")
        values = packer.unpack_from(self.data, self.off)
        self.off = end
        return values

    def take_bytes(self, n: int) -> bytes:
        end = self.off + n
        if n < 0 or end > len(self.data):
            raise ProtocolError("truncated payload")
        chunk = self.data[self.off : end]
        self.off = end
        return chunk

    @property
    def remaining(self) -> int:
        return len(self.data) - self.off

    def finish(self) -> None:
        if self.off != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.off} trailing bytes in payload"
            )


def _pack_str(text: str | None) -> bytes:
    if text is None:
        return _U16.pack(0xFFFF)
    raw = text.encode("utf-8")
    if len(raw) >= 0xFFFF:
        raise ProtocolError("string field too long")
    return _U16.pack(len(raw)) + raw


def _read_str(r: _Reader) -> str | None:
    (n,) = r.take(_U16)
    if n == 0xFFFF:
        return None
    try:
        return r.take_bytes(n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable string field: {exc}") from exc


def _pack_id_tuple(ids: tuple[int, ...]) -> bytes:
    # int() coercion: the vectorized batch paths return numpy scalars,
    # which struct refuses for some format codes
    return _U32.pack(len(ids)) + b"".join(_I64.pack(int(i)) for i in ids)


def _read_id_tuple(r: _Reader) -> tuple[int, ...]:
    (n,) = r.take(_U32)
    return tuple(r.take(_I64)[0] for _ in range(n))


# -- PredictorConfig -------------------------------------------------------


def pack_config(config: PredictorConfig | None) -> bytes:
    """Optional ablation config (None = the backend's shared default)."""
    if config is None:
        return _U8.pack(0)
    return _U8.pack(1) + _CONFIG.pack(
        config.use_from_src,
        config.use_three_tuples,
        config.use_preferences,
        config.use_providers,
        config.tuple_degree_threshold,
    )


def _read_config(r: _Reader) -> PredictorConfig | None:
    (present,) = r.take(_U8)
    if not present:
        return None
    from_src, tuples_, prefs, providers, threshold = r.take(_CONFIG)
    return PredictorConfig(
        use_from_src=bool(from_src),
        use_three_tuples=bool(tuples_),
        use_preferences=bool(prefs),
        use_providers=bool(providers),
        tuple_degree_threshold=threshold,
    )


# -- PredictedPath / PathInfo ----------------------------------------------


def pack_path(path: PredictedPath | None) -> bytes:
    """One optional path; floats travel as raw float64 (lossless — the
    bit-for-bit remote/co-located equivalence depends on it)."""
    if path is None:
        return _U8.pack(0)
    # float()/int()/bool() coercions are exact (float64 -> float keeps
    # every bit) and make numpy-scalar fields from the vectorized batch
    # paths packable
    return (
        _U8.pack(1)
        + _PATH_FIXED.pack(
            float(path.latency_ms),
            float(path.loss),
            int(path.as_hops),
            bool(path.used_from_src),
        )
        + _pack_id_tuple(path.clusters)
        + _pack_id_tuple(path.as_path)
    )


def _read_path(r: _Reader) -> PredictedPath | None:
    (present,) = r.take(_U8)
    if not present:
        return None
    latency_ms, loss, as_hops, used_from_src = r.take(_PATH_FIXED)
    clusters = _read_id_tuple(r)
    as_path = _read_id_tuple(r)
    return PredictedPath(
        clusters=clusters,
        as_path=as_path,
        latency_ms=latency_ms,
        loss=loss,
        as_hops=int(as_hops),
        used_from_src=bool(used_from_src),
    )


def pack_path_info(info) -> bytes:
    """One optional :class:`~repro.client.query.PathInfo`."""
    if info is None:
        return _U8.pack(0)
    day = info.atlas_day
    return (
        _U8.pack(1)
        + _PAIR.pack(int(info.src_prefix_index), int(info.dst_prefix_index))
        + _U8.pack(day is not None)
        + _I64.pack(int(day) if day is not None else 0)
        + pack_path(info.forward)
        + pack_path(info.reverse)
    )


def _read_path_info(r: _Reader):
    from repro.client.query import PathInfo

    (present,) = r.take(_U8)
    if not present:
        return None
    src, dst = r.take(_PAIR)
    (has_day,) = r.take(_U8)
    (day,) = r.take(_I64)
    forward = _read_path(r)
    reverse = _read_path(r)
    if forward is None or reverse is None:
        raise ProtocolError("PathInfo frame missing a direction")
    return PathInfo(
        src_prefix_index=src,
        dst_prefix_index=dst,
        forward=forward,
        reverse=reverse,
        atlas_day=day if has_day else None,
    )


# -- trace context ---------------------------------------------------------

#: the optional trailing TRACE field on query requests: one tag byte
#: (so trailing garbage still raises a typed error instead of parsing
#: as ids) plus the u64 trace id and u64 parent span id
_TRACE_TAG = 0x54  # ASCII 'T'
_TRACE = struct.Struct("<BQQ")


def pack_trace(trace) -> bytes:
    """The optional trailing TRACE field: empty for ``None`` (the
    payload stays byte-identical to a pre-trace peer's), else the
    tagged ``(trace_id, parent_span_id)`` pair. Only clients that
    negotiated ``FLAG_TRACE`` may append it — an old gateway's strict
    ``finish()`` rejects trailing bytes."""
    if trace is None:
        return b""
    trace_id, span_id = trace
    return _TRACE.pack(_TRACE_TAG, trace_id, span_id)


def _read_trace(r: _Reader) -> tuple[int, int] | None:
    """The trailing TRACE field, if any bytes remain past the base
    payload; wrong size or tag raises :class:`ProtocolError`."""
    if r.remaining == 0:
        return None
    tag, trace_id, span_id = r.take(_TRACE)
    if tag != _TRACE_TAG:
        raise ProtocolError(f"bad trace field tag 0x{tag:02x}")
    return trace_id, span_id


def peek_trace(payload: bytes) -> tuple[int, int] | None:
    """Best-effort tail sniff of a trace context without decoding the
    payload — for paths that must stay O(1) in payload size, like the
    gateway's pre-decode admission refusal (which still wants the
    refusal to appear in the trace). A payload whose last 17 bytes
    happen to look like a trace field can fool this; full decodes use
    the strict ``decode_*_traced`` readers instead."""
    if len(payload) < _TRACE.size or payload[-_TRACE.size] != _TRACE_TAG:
        return None
    _, trace_id, span_id = _TRACE.unpack(payload[-_TRACE.size:])
    return trace_id, span_id


# -- HELLO / WELCOME -------------------------------------------------------


def encode_hello(flags: int = 0, token: str | None = None) -> bytes:
    """Version + capability flags, plus an optional shared-secret auth
    token. Passing a token sets ``FLAG_AUTH`` and appends the string
    field; without one the payload is the classic fixed 3 bytes."""
    if token is not None:
        flags |= FLAG_AUTH
        return struct.pack("<HB", PROTOCOL_VERSION, flags) + _pack_str(token)
    return struct.pack("<HB", PROTOCOL_VERSION, flags)


def decode_hello(payload: bytes) -> tuple[int, int, str | None]:
    r = _Reader(payload)
    version, flags = r.take(struct.Struct("<HB"))
    token = _read_str(r) if flags & FLAG_AUTH else None
    r.finish()
    return version, flags, token


def encode_welcome(
    day: int, subscribed: bool, backend: str, caps: int = 0
) -> bytes:
    """``caps`` advertises the gateway's optional capabilities
    (``FLAG_TRACE``) as a trailing byte — appended only when non-zero,
    and the gateway sets it only for clients whose HELLO carried
    ``FLAG_TRACE``, so a pre-trace client's WELCOME stays the classic
    bytes its strict decoder expects."""
    base = _I64.pack(day) + _U8.pack(subscribed) + _pack_str(backend)
    if caps:
        return base + _U8.pack(caps)
    return base


def decode_welcome(payload: bytes) -> tuple[int, bool, str]:
    r = _Reader(payload)
    (day,) = r.take(_I64)
    (subscribed,) = r.take(_U8)
    backend = _read_str(r) or ""
    r.finish()
    return day, bool(subscribed), backend


def decode_welcome_caps(payload: bytes) -> tuple[int, bool, str, int]:
    """The trace-capable client's WELCOME decode: same fields plus the
    optional trailing capability byte (0 when absent — an old gateway
    that never appends one)."""
    r = _Reader(payload)
    (day,) = r.take(_I64)
    (subscribed,) = r.take(_U8)
    backend = _read_str(r) or ""
    caps = r.take(_U8)[0] if r.remaining else 0
    r.finish()
    return day, bool(subscribed), backend, caps


# -- PREDICT / PREDICT_BATCH -----------------------------------------------


def encode_predict_request(
    src: int, dst: int, config: PredictorConfig | None = None, trace=None
) -> bytes:
    return pack_config(config) + _PAIR.pack(src, dst) + pack_trace(trace)


def decode_predict_request(payload: bytes):
    """The classic (pre-``FLAG_TRACE``) decode: rejects a trailing
    TRACE field like any other trailing bytes — exactly what an old
    peer does, which is why the client only appends one after
    negotiating the capability."""
    src, dst, config, trace = decode_predict_request_traced(payload)
    if trace is not None:
        raise ProtocolError("unexpected trace field (FLAG_TRACE not negotiated)")
    return src, dst, config


def decode_predict_request_traced(payload: bytes):
    r = _Reader(payload)
    config = _read_config(r)
    src, dst = r.take(_PAIR)
    trace = _read_trace(r)
    r.finish()
    return src, dst, config, trace


def encode_predict_reply(path: PredictedPath | None) -> bytes:
    return pack_path(path)


def decode_predict_reply(payload: bytes) -> PredictedPath | None:
    r = _Reader(payload)
    path = _read_path(r)
    r.finish()
    return path


def encode_batch_request(
    pairs,
    config: PredictorConfig | None = None,
    client: str | None = None,
    trace=None,
) -> bytes:
    pairs = list(pairs)
    return (
        pack_config(config)
        + _pack_str(client)
        + _U32.pack(len(pairs))
        + b"".join(_PAIR.pack(s, d) for s, d in pairs)
        + pack_trace(trace)
    )


def decode_batch_request(payload: bytes):
    """Classic decode; a trailing TRACE field is a protocol error here
    (see :func:`decode_predict_request`)."""
    pairs, config, client, trace = decode_batch_request_traced(payload)
    if trace is not None:
        raise ProtocolError("unexpected trace field (FLAG_TRACE not negotiated)")
    return pairs, config, client


def decode_batch_request_traced(payload: bytes):
    r = _Reader(payload)
    config = _read_config(r)
    client = _read_str(r)
    (n,) = r.take(_U32)
    pairs = [r.take(_PAIR) for _ in range(n)]
    trace = _read_trace(r)
    r.finish()
    return pairs, config, client, trace


def encode_packed_reply(packed: list[bytes]) -> bytes:
    """A batch reply payload (PREDICT_BATCH_OK, QUERY_INFO_OK) from its
    answers, each already packed (:func:`pack_path` /
    :func:`pack_path_info`)."""
    return _U32.pack(len(packed)) + b"".join(packed)


def encode_batch_reply(paths) -> bytes:
    return encode_packed_reply([pack_path(p) for p in paths])


def decode_batch_reply(payload: bytes) -> list[PredictedPath | None]:
    r = _Reader(payload)
    (n,) = r.take(_U32)
    paths = [_read_path(r) for _ in range(n)]
    r.finish()
    return paths


# -- QUERY_INFO ------------------------------------------------------------

# request payload shares the batch-request packing
encode_query_request = encode_batch_request
decode_query_request = decode_batch_request
decode_query_request_traced = decode_batch_request_traced


def encode_query_reply(infos) -> bytes:
    return encode_packed_reply([pack_path_info(i) for i in infos])


def decode_query_reply(payload: bytes) -> list:
    r = _Reader(payload)
    (n,) = r.take(_U32)
    infos = [_read_path_info(r) for _ in range(n)]
    r.finish()
    return infos


# -- ATLAS_FETCH / SUBSCRIBE -----------------------------------------------


def encode_atlas_fetch(day: int | None = None) -> bytes:
    return _I64.pack(-1 if day is None else day)


def decode_atlas_fetch(payload: bytes) -> int | None:
    r = _Reader(payload)
    (day,) = r.take(_I64)
    r.finish()
    return None if day == -1 else day


def encode_subscribe(on: bool = True) -> bytes:
    return _U8.pack(on)


def decode_subscribe(payload: bytes) -> bool:
    r = _Reader(payload)
    (on,) = r.take(_U8)
    r.finish()
    return bool(on)


def encode_subscribe_ok(day: int, subscribed: bool) -> bytes:
    return _I64.pack(day) + _U8.pack(subscribed)


def decode_subscribe_ok(payload: bytes) -> tuple[int, bool]:
    r = _Reader(payload)
    (day,) = r.take(_I64)
    (subscribed,) = r.take(_U8)
    r.finish()
    return day, bool(subscribed)


def encode_sub_dropped(day: int, reason: str) -> bytes:
    return _I64.pack(day) + _pack_str(reason[:2000])


def decode_sub_dropped(payload: bytes) -> tuple[int, str]:
    r = _Reader(payload)
    (day,) = r.take(_I64)
    reason = _read_str(r) or ""
    r.finish()
    return day, reason


# -- RETRY -----------------------------------------------------------------


def encode_retry(retry_after_s: float, reason: str) -> bytes:
    """An admission shed notice: try again after ``retry_after_s``
    seconds. Same ``request_id`` as the refused query frame."""
    return _F64.pack(float(retry_after_s)) + _pack_str(reason[:2000])


def decode_retry(payload: bytes) -> tuple[float, str]:
    r = _Reader(payload)
    (retry_after_s,) = r.take(_F64)
    reason = _read_str(r) or ""
    r.finish()
    return retry_after_s, reason


# -- TRACE_FETCH / TRACE_DUMP ----------------------------------------------

_U64 = struct.Struct("<Q")
_SPAN_IDS = struct.Struct("<QQQ")  # trace_id, span_id, parent_id
_SPAN_TIMES = struct.Struct("<dd")  # start_us, duration_us


def encode_trace_fetch(trace_id: int) -> bytes:
    """Ask the gateway for every span it (and its backend) recorded
    for one trace id — the STATS_DUMP-style retrieval behind
    ``NetworkClient.fetch_trace``."""
    return _U64.pack(trace_id)


def decode_trace_fetch(payload: bytes) -> int:
    r = _Reader(payload)
    (trace_id,) = r.take(_U64)
    r.finish()
    return trace_id


def encode_trace_dump(spans) -> bytes:
    """A span list reply: ids + times + name + string tags per span.
    Accepts any objects with the :class:`repro.obs.trace.Span` fields
    (this module stays import-light: no obs dependency)."""
    spans = list(spans)
    parts = [_U32.pack(len(spans))]
    for span in spans:
        tags = span.tags
        if len(tags) > 255:
            raise ProtocolError("too many span tags")
        parts.append(
            _SPAN_IDS.pack(span.trace_id, span.span_id, span.parent_id)
        )
        parts.append(_pack_str(span.name))
        parts.append(
            _SPAN_TIMES.pack(float(span.start_us), float(span.duration_us))
        )
        parts.append(_U8.pack(len(tags)))
        for key, value in tags.items():
            parts.append(_pack_str(str(key)))
            parts.append(_pack_str(str(value)))
    return b"".join(parts)


def decode_trace_dump(payload: bytes) -> list[dict]:
    """Span dicts (``trace_id``/``span_id``/``parent_id``/``name``/
    ``start_us``/``duration_us``/``tags``); the client rebuilds
    :class:`repro.obs.trace.Span` objects from them."""
    r = _Reader(payload)
    (n,) = r.take(_U32)
    spans = []
    for _ in range(n):
        trace_id, span_id, parent_id = r.take(_SPAN_IDS)
        name = _read_str(r) or ""
        start_us, duration_us = r.take(_SPAN_TIMES)
        (ntags,) = r.take(_U8)
        tags = {}
        for _ in range(ntags):
            key = _read_str(r) or ""
            tags[key] = _read_str(r) or ""
        spans.append(
            {
                "trace_id": trace_id,
                "span_id": span_id,
                "parent_id": parent_id,
                "name": name,
                "start_us": start_us,
                "duration_us": duration_us,
                "tags": tags,
            }
        )
    r.finish()
    return spans


# -- STATS -----------------------------------------------------------------

#: elapsed_us, searches, cache_hits, search_us, reused, repaired,
#: replayed, dirty, push_encode_us, push_enqueue_us, push_drain_us,
#: queue_depth, inflight, req_p50_us, req_p99_us — fixed layout so the
#: frame stays cheap to emit on every request. ``reused``, ``repaired``
#: and ``replayed`` always read 0 (every stale search is ``dirty``);
#: they keep their slots so the layout never changes. The three ``push_*``
#: floats mirror the gateway's last delta broadcast (encode once /
#: enqueue fan-out / slowest subscriber drain), zero until the gateway
#: has pushed a delta. The final four are the load telemetry an
#: autoscaler reads: queued + in-flight work at the backend and the
#: rolling request-latency percentiles (zero for backends that don't
#: track them).
_STATS = struct.Struct("<dqqdqqqqdddqqdd")

#: key order of the STATS payload (shared by encode and decode)
STATS_FIELDS = (
    "elapsed_us",
    "searches",
    "cache_hits",
    "search_us",
    "reused",
    "repaired",
    "replayed",
    "dirty",
    "push_encode_us",
    "push_enqueue_us",
    "push_drain_us",
    "queue_depth",
    "inflight",
    "req_p50_us",
    "req_p99_us",
)


def encode_stats(stats: dict) -> bytes:
    """One per-request kernel-telemetry payload; missing keys encode as
    zero so a backend without a given counter still emits a well-formed
    frame."""
    return _STATS.pack(
        float(stats.get("elapsed_us", 0.0)),
        int(stats.get("searches", 0)),
        int(stats.get("cache_hits", 0)),
        float(stats.get("search_us", 0.0)),
        int(stats.get("reused", 0)),
        int(stats.get("repaired", 0)),
        int(stats.get("replayed", 0)),
        int(stats.get("dirty", 0)),
        float(stats.get("push_encode_us", 0.0)),
        float(stats.get("push_enqueue_us", 0.0)),
        float(stats.get("push_drain_us", 0.0)),
        int(stats.get("queue_depth", 0)),
        int(stats.get("inflight", 0)),
        float(stats.get("req_p50_us", 0.0)),
        float(stats.get("req_p99_us", 0.0)),
    )


def decode_stats(payload: bytes) -> dict:
    r = _Reader(payload)
    values = r.take(_STATS)
    r.finish()
    return dict(zip(STATS_FIELDS, values))


# -- ERROR -----------------------------------------------------------------


def encode_error(code: int, message: str) -> bytes:
    return _U16.pack(code) + _pack_str(message[:2000])


def decode_error(payload: bytes) -> tuple[int, str]:
    r = _Reader(payload)
    (code,) = r.take(_U16)
    message = _read_str(r) or ""
    r.finish()
    return code, message
