"""The process-local metrics registry: counters, gauges, timers and
fixed-bucket histograms under hierarchical dotted names.

Design rules:

* **Logical-clock friendly.** Nothing here reads a wall clock on its
  own; counters and gauges advance only when told to, and histograms
  observe whatever the caller measured. The only wall-clock use is the
  explicit :class:`Timer` context manager.
* **Lock-free snapshot/merge.** All mutation is single-small-op Python
  (one ``+=``, one ``deque.append``) under the GIL, and
  :meth:`MetricsRegistry.snapshot` reads plain attributes — no locks
  anywhere, so a shard worker can export its registry over the
  existing ``stats`` pipe op and the front-end merges the plain-dict
  snapshots with :meth:`MetricsRegistry.merge_snapshots` (an
  associative fold: ``merge(merge(a, b), c) == merge(a, merge(b, c))``).
* **Exact local percentiles, mergeable remote ones.** A histogram
  keeps fixed bucket counts (mergeable across processes) *and* a
  bounded raw-sample window, so in-process reads get the exact
  nearest-rank p50/p99 (:func:`repro.util.stats.nearest_rank` — the
  one percentile implementation repo-wide) while merged fleet
  snapshots interpolate within buckets
  (:func:`histogram_percentile`).

:meth:`MetricsRegistry.view` returns a :class:`StatsView` — a
``MutableMapping`` facade over registry gauges that lets the existing
``stats["requests"] += 1`` call sites keep their shape while the
registry becomes the single source of truth underneath.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import MutableMapping

from repro.util.stats import nearest_rank

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "StatsView",
    "DEFAULT_US_BUCKETS",
    "histogram_percentile",
    "prefix_snapshot",
]


class Counter:
    """A named monotonically-increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increase(self, amount: int = 1) -> None:
        self.value += amount

    def get(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named value that can move both ways (queue depths, open
    connections, last-broadcast timings)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value=0) -> None:
        self.name = name
        self.value = value

    def set(self, value) -> None:
        self.value = value

    def add(self, amount) -> None:
        self.value += amount

    def get(self):
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


class Timer:
    """A named accumulator of elapsed seconds."""

    __slots__ = ("name", "seconds", "_started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self._started: float | None = None

    def add(self, seconds: float) -> None:
        self.seconds += float(seconds)

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None

    def get(self) -> float:
        return self.seconds

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timer({self.name}={self.seconds:.6f}s)"


#: default bucket upper bounds for microsecond-scale latencies
#: (roughly 1-2-5 per decade, 1us .. 2.5s; one overflow bucket above)
DEFAULT_US_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
    100_000.0, 250_000.0, 500_000.0, 1_000_000.0, 2_500_000.0,
)

#: raw samples a histogram retains for exact in-process percentiles
#: (matches the 512-sample deques the serving layers used before)
DEFAULT_WINDOW = 512


class Histogram:
    """Fixed upper-bound buckets plus a bounded raw-sample window.

    ``observe(v)`` counts ``v`` into the first bucket whose bound is
    ``>= v`` (one extra overflow bucket catches the tail) and appends
    it to the window. :meth:`percentile` is *exact* over the window;
    :meth:`state` exports the mergeable bucket counts (count / sum /
    min / max, never the window), and merged states answer percentiles
    through :func:`histogram_percentile` at bucket resolution.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "vmin", "vmax", "window")

    def __init__(
        self,
        name: str,
        bounds: tuple = DEFAULT_US_BUCKETS,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.window: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.bounds)  # bisect over the bounds
        while lo < hi:
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        self.window.append(value)

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile over the retained window
        (the most recent ``window`` observations)."""
        return nearest_rank(self.window, q)

    def get(self) -> dict:
        return self.state()

    def state(self) -> dict:
        """The mergeable export: bucket counts only, no raw window —
        which is what keeps :meth:`MetricsRegistry.merge_snapshots`
        associative (a bounded window concatenation would not be)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "bounds": self.bounds,
            "counts": list(self.counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}: n={self.count})"


def _is_histogram_state(value) -> bool:
    return isinstance(value, dict) and "counts" in value and "bounds" in value


def histogram_percentile(state: dict, q: float) -> float:
    """Nearest-rank percentile from a (possibly merged) histogram
    *state*, interpolated linearly inside the landing bucket. Exact
    window data is process-local; this is the fleet-wide answer."""
    total = state["count"]
    if not total:
        return 0.0
    rank = min(total - 1, max(0, int(q * total)))
    bounds = state["bounds"]
    vmin = state["min"] if state["min"] is not None else 0.0
    vmax = state["max"] if state["max"] is not None else bounds[-1]
    cum = 0
    lower = vmin
    for i, n in enumerate(state["counts"]):
        upper = bounds[i] if i < len(bounds) else vmax
        if n and rank < cum + n:
            upper = min(upper, vmax)
            lower = max(min(lower, upper), vmin)
            frac = (rank - cum + 0.5) / n
            return lower + (upper - lower) * frac
        cum += n
        lower = upper
    return vmax


def prefix_snapshot(snapshot: dict, prefix: str) -> dict:
    """Re-key a snapshot under ``prefix.`` — how a worker's registry
    lands in the fleet view as ``serve.shard3.<name>``."""
    return {f"{prefix}.{name}": value for name, value in snapshot.items()}


class MetricsRegistry:
    """Named metrics with one-shot snapshots; ``get_*`` returns the
    same object for the same name, so independent components share
    tallies without passing them around explicitly."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(name)
            return metric
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def get_counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def get_gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def get_timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def get_histogram(
        self,
        name: str,
        bounds: tuple = DEFAULT_US_BUCKETS,
        window: int = DEFAULT_WINDOW,
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, bounds, window)
            return metric
        if not isinstance(metric, Histogram):
            raise ValueError(
                f"metric {name!r} is a {type(metric).__name__}, "
                "not a Histogram"
            )
        return metric

    def view(self, prefix: str, keys: tuple = ()) -> "StatsView":
        """A ``MutableMapping`` facade over gauges named
        ``prefix.<key>`` — the adapter that lets ``gateway.stats`` /
        ``service.stats`` keep their dict shape while this registry
        holds the only copy of every number."""
        return StatsView(self, prefix, keys)

    def snapshot(self) -> dict:
        """All metrics as one flat ``name -> value`` dict (histograms
        export their mergeable :meth:`Histogram.state`)."""
        out: dict = {}
        for name, metric in self._metrics.items():
            out[name] = metric.get()
        return out

    @staticmethod
    def merge_snapshots(*snapshots: dict) -> dict:
        """Associative fold of snapshots: numbers add, histogram
        states merge bucket-wise (same bounds required). The shard
        front-end uses this to fold every worker's exported registry
        into one fleet-wide view."""
        out: dict = {}
        for snap in snapshots:
            for name, value in snap.items():
                cur = out.get(name)
                if cur is None:
                    if _is_histogram_state(value):
                        value = dict(value, counts=list(value["counts"]))
                    out[name] = value
                elif _is_histogram_state(value):
                    if tuple(cur["bounds"]) != tuple(value["bounds"]):
                        raise ValueError(
                            f"cannot merge histogram {name!r}: "
                            "bucket bounds differ"
                        )
                    cur["count"] += value["count"]
                    cur["sum"] += value["sum"]
                    for side, pick in (("min", min), ("max", max)):
                        a, b = cur[side], value[side]
                        cur[side] = (
                            b if a is None else a if b is None else pick(a, b)
                        )
                    cur["counts"] = [
                        a + b for a, b in zip(cur["counts"], value["counts"])
                    ]
                else:
                    out[name] = cur + value
        return out

    def expose_text(self, snapshot: dict | None = None) -> str:
        """Prometheus text exposition of ``snapshot`` (default: this
        registry's own). Dots become underscores; histograms emit the
        standard ``_bucket{le=...}`` / ``_sum`` / ``_count`` series."""
        if snapshot is None:
            snapshot = self.snapshot()
        lines: list[str] = []
        for name, value in snapshot.items():
            flat = name.replace(".", "_").replace("-", "_")
            if _is_histogram_state(value):
                lines.append(f"# TYPE {flat} histogram")
                cum = 0
                for i, n in enumerate(value["counts"]):
                    cum += n
                    le = (
                        f"{value['bounds'][i]:g}"
                        if i < len(value["bounds"])
                        else "+Inf"
                    )
                    lines.append(f'{flat}_bucket{{le="{le}"}} {cum}')
                lines.append(f"{flat}_sum {value['sum']:g}")
                lines.append(f"{flat}_count {value['count']}")
            else:
                kind = self._metrics.get(name)
                mtype = "counter" if isinstance(kind, Counter) else "gauge"
                lines.append(f"# TYPE {flat} {mtype}")
                lines.append(f"{flat} {value:g}")
        return "\n".join(lines) + "\n"


class StatsView(MutableMapping):
    """Dict-shaped window onto registry gauges.

    ``view["requests"] += 1`` reads and writes the gauge named
    ``<prefix>.requests``; new keys create gauges on first assignment
    (the relay tier adds ``upstream_lost`` to an inherited view), and
    ``dict(view)`` / iteration walk the declared-then-discovered keys
    in order, so test code that copies the stats dict keeps working.
    Deleting keys is not supported — telemetry only grows.

    The view sits on the gateway's per-frame hot path, so each key's
    gauge is resolved once and cached: a read or write is one dict
    lookup plus one attribute access — the same order of work as the
    plain dicts these views replaced (the bench floor gates hold the
    difference to noise).
    """

    __slots__ = ("_registry", "_prefix", "_gauges")

    def __init__(self, registry: MetricsRegistry, prefix: str, keys=()) -> None:
        self._registry = registry
        self._prefix = prefix
        #: key -> Gauge, in declared-then-discovered order
        self._gauges: dict[str, Gauge] = {}
        for key in keys:
            self._gauges[key] = registry.get_gauge(f"{prefix}.{key}")

    def __getitem__(self, key: str):
        gauge = self._gauges.get(key)
        if gauge is None:
            raise KeyError(key)
        return gauge.value

    def __setitem__(self, key: str, value) -> None:
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = self._registry.get_gauge(
                f"{self._prefix}.{key}"
            )
        gauge.value = value

    def __delitem__(self, key: str) -> None:
        raise TypeError("stats views do not drop keys")

    def __iter__(self):
        return iter(list(self._gauges))

    def __len__(self) -> int:
        return len(self._gauges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatsView({self._prefix}, {dict(self)})"
