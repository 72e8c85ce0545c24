"""End-to-end request tracing: compact contexts, spans, collectors.

One traced query threads a ``(trace_id, parent_span_id)`` pair of
u64s through every layer it crosses — minted by
:class:`~repro.net.client.NetworkClient`, carried on the INWP wire
(the optional TRACE field behind ``FLAG_TRACE``,
:mod:`repro.net.protocol`) and through the shard batch IPC — and each
layer records :class:`Span`\\ s against it:

* ``client.request`` — the root, around the whole round trip;
* ``gw.decode`` / ``gw.admission`` / ``gw.dispatch`` — the gateway's
  payload decode, the admission verdict (including refusals), and the
  bridge-thread backend call;
* ``serve.route`` — the service front-end's shard choice, tagged with
  the destination-owning shard and its pair count;
* ``shard.batch`` — the worker's batch handling;
* ``kernel.search`` — the search kernel itself, tagged with the
  cache-hit / cold-search split and kernel microseconds.

Spans are plain picklable objects (workers return them over the stats
pipe), collected per-trace in a bounded LRU
(:class:`TraceCollector`), shipped over the wire by the
``TRACE_FETCH`` / ``TRACE_DUMP`` frames, and assembled into a
parent-linked tree by :func:`build_tree`.

Sampling is the client's decision and is deterministic under a seeded
RNG (``Tracer(sample_rate=r, rng=random.Random(seed))`` accepts the
same request sequence identically everywhere) — the gateway records
whatever arrives with a context and pays nothing for the rest.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "TraceCollector", "build_tree", "render_tree"]


@dataclass
class Span:
    """One timed, tagged operation within a trace. ``parent_id`` 0
    means the root. Tag values are strings (they ride the wire)."""

    trace_id: int
    span_id: int
    parent_id: int
    name: str
    start_us: float
    duration_us: float
    tags: dict = field(default_factory=dict)


class TraceCollector:
    """Per-trace span lists in a bounded LRU — the process keeps the
    most recent ``max_traces`` traces and forgets the rest, so a
    sampled firehose cannot grow gateway memory without bound."""

    def __init__(self, max_traces: int = 256) -> None:
        self.max_traces = int(max_traces)
        self._traces: OrderedDict[int, list[Span]] = OrderedDict()

    def record(self, span: Span) -> None:
        spans = self._traces.get(span.trace_id)
        if spans is None:
            spans = self._traces[span.trace_id] = []
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
        else:
            self._traces.move_to_end(span.trace_id)
        spans.append(span)

    def extend(self, spans) -> None:
        for span in spans:
            self.record(span)

    def spans_of(self, trace_id: int) -> list[Span]:
        return list(self._traces.get(trace_id, ()))

    def __len__(self) -> int:
        return len(self._traces)


#: one id sequence per *process*, shared by every Tracer instance:
#: pid bits separate ids minted by different processes (shard
#: workers), the shared counter separates co-resident tracers (a
#: client, a gateway and a service front-end all live in one process
#: in the embedded topologies). ``next()`` on a count is atomic under
#: the GIL, so no lock is needed.
_SEQ = itertools.count(1)


class Tracer:
    """Mints ids, makes the sampling decision, records spans.

    Span ids mix the process id into the high bits of a process-global
    counter, so ids minted concurrently by the client, the gateway
    loop and N shard workers never collide within one trace.
    """

    def __init__(
        self,
        collector: TraceCollector | None = None,
        *,
        sample_rate: float = 1.0,
        rng: random.Random | None = None,
    ) -> None:
        self.collector = collector if collector is not None else TraceCollector()
        self.sample_rate = float(sample_rate)
        self.rng = rng if rng is not None else random.Random()
        self._pid_bits = (os.getpid() & 0xFFFF) << 40

    def mint_id(self) -> int:
        return self._pid_bits | next(_SEQ)

    def sample(self) -> bool:
        """The deterministic per-request sampling decision: one RNG
        draw per call when the rate is fractional, none at 0 or 1."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self.rng.random() < self.sample_rate

    def start_trace(self) -> tuple[int, int] | None:
        """Mint a ``(trace_id, root_span_id)`` context, or None when
        the sampler says this request rides untraced."""
        if not self.sample():
            return None
        trace_id = 0
        while not trace_id:
            trace_id = self.rng.getrandbits(64)
        return trace_id, self.mint_id()

    def record(
        self,
        trace,
        name: str,
        start_us: float,
        duration_us: float,
        *,
        span_id: int | None = None,
        **tags,
    ) -> int:
        """Record one span under ``trace = (trace_id,
        parent_span_id)``; returns the span's id so callers can parent
        children on it (mint with :meth:`mint_id` *before* timing the
        child work when the parent span is recorded afterwards)."""
        if span_id is None:
            span_id = self.mint_id()
        self.collector.record(
            Span(
                trace_id=trace[0],
                span_id=span_id,
                parent_id=trace[1],
                name=name,
                start_us=start_us,
                duration_us=duration_us,
                tags={k: str(v) for k, v in tags.items()},
            )
        )
        return span_id

    @staticmethod
    def now_us() -> float:
        """Epoch microseconds — span starts use wall time so spans
        from different processes land in one roughly-ordered tree."""
        return time.time() * 1e6


def build_tree(spans) -> list[dict]:
    """Parent-linked span forest: ``[{"span": Span, "children":
    [...]}, ...]`` roots (parent absent or 0), children ordered by
    start time. Orphans (parent span lost to sampling or LRU
    eviction) surface as roots rather than vanishing."""
    nodes = {s.span_id: {"span": s, "children": []} for s in spans}
    roots = []
    for span in sorted(spans, key=lambda s: s.start_us):
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id)
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def render_tree(spans, indent: str = "  ") -> str:
    """Text rendering of :func:`build_tree` — one line per span with
    duration and tags, nested by parent."""
    lines: list[str] = []

    def walk(node, depth):
        span = node["span"]
        tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
        lines.append(
            f"{indent * depth}{span.name}  {span.duration_us:.0f}us"
            + (f"  [{tags}]" if tags else "")
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in build_tree(spans):
        walk(root, 0)
    return "\n".join(lines)
