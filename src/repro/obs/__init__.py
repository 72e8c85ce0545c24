"""Unified observability: one metrics registry + request tracing.

Every tier of the system — search kernel, predictor pool, shard
workers, the sharded service front-end, the network gateway and its
relay tiers — used to keep telemetry in its own dialect (``stats``
dicts, ``kernel_stats()`` counters, per-field STATS wire frames).
:mod:`repro.obs` is the one substrate they all share now:

* :mod:`repro.obs.registry` — process-local counters, gauges, timers
  and fixed-bucket histograms under hierarchical dotted names
  (``kernel.search_us``, ``serve.shard3.queue_depth``,
  ``net.gateway.push_drain_slowest_us``), with a snapshot/merge API so
  shard workers export deltas over the existing ``stats`` pipe op and
  the front-end folds them into one fleet-wide view, plus a
  Prometheus-text exposition (``registry.expose_text()``).
* :mod:`repro.obs.trace` — compact end-to-end request tracing: a
  ``(trace_id, span_id)`` context minted by the client, carried on the
  INWP wire (optional TRACE field behind ``FLAG_TRACE``) and through
  shard IPC, with spans recorded at gateway decode/admission/dispatch,
  service routing (the destination's shard), worker batch handling
  and the kernel search itself.
* :mod:`repro.obs.dashboard` — a ``repro-top`` style text dashboard
  over any snapshot.

Existing surfaces (``gateway.stats``, ``service.load_stats()``, the
FLAG_STATS wire frames) are thin views over this registry — one
source of truth, no counter can drift from its view.
"""

from repro.obs.registry import (
    DEFAULT_US_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsView,
    Timer,
    histogram_percentile,
    prefix_snapshot,
)
from repro.obs.trace import (
    Span,
    TraceCollector,
    Tracer,
    build_tree,
    render_tree,
)

__all__ = [
    "DEFAULT_US_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StatsView",
    "Timer",
    "histogram_percentile",
    "prefix_snapshot",
    "Span",
    "TraceCollector",
    "Tracer",
    "build_tree",
    "render_tree",
]
