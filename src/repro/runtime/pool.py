"""Shared predictor pool, keyed by atlas version and client identity.

The seed design gave every :class:`~repro.client.library.INanoClient`,
remote agent and server path its own ``INanoPredictor`` — and therefore
its own compiled graph and LRU search cache. The pool inverts that: a
predictor is resolved per ``(config, client)`` key against the owning
:class:`~repro.runtime.runtime.AtlasRuntime`, so

* all callers without a private FROM_SRC plane share **one** predictor
  (one compiled graph, one search cache) per config;
* a client with its own measured FROM_SRC plane gets a dedicated entry
  whose primary graph is the incrementally merged view — but still
  shares the runtime's closed fallback graph;
* after a daily update, entries refresh in place: the graphs were
  patched under the predictor, the atlas mutated in place, and the
  bumped graph versions retire stale search-cache keys without any
  rebuild;
* the update hook (:meth:`PredictorPool.after_update`) retires every
  cached per-destination search keyed on a pre-delta graph version
  (each is *dirty*: no search is carried across a delta as-is) and
  re-runs the hottest destinations through the search kernel
  immediately (pool prewarming), so the first post-delta query hits a
  warm cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.predictor import INanoPredictor, PredictorConfig


@dataclass
class _PoolEntry:
    predictor: INanoPredictor
    version: int
    rev: int


#: default per-(predictor, graph) cap on post-delta prewarm searches
_PREWARM_MAX = 4

#: per-entry cap on remembered hot destinations (warm-start records)
_WARM_RECORDS_MAX = 32


class PredictorPool:
    """Resolves shared predictors for one :class:`AtlasRuntime`."""

    def __init__(self, runtime) -> None:
        self._runtime = runtime
        self._entries: dict[tuple, _PoolEntry] = {}
        #: per-entry warm-start records: recently hot ``(graph name,
        #: destination, provider gate)`` searches, recency-ordered.
        #: They outlive the LRU search cache, so a destination whose
        #: cached search aged out (or went dirty past the prewarm
        #: budget on a recompile day) is still re-seeded by the next
        #: update's prewarm pass. Dropped with the entry on release —
        #: a released client must not pin prewarm work.
        self._warm: dict[tuple, OrderedDict] = {}
        self.hits = 0
        self.refreshes = 0
        #: hottest (most recently used) dirty destinations re-searched
        #: per predictor after each update; 0 disables
        self.prewarm_max = _PREWARM_MAX
        #: cache outcome of the most recent :meth:`after_update` (what
        #: the serving layer reports per request). ``reused``,
        #: ``repaired`` and ``replayed`` stay in the STATS wire layout
        #: and always read 0: every stale search is ``dirty``
        self.last_repair = {
            "reused": 0,
            "repaired": 0,
            "replayed": 0,
            "dirty": 0,
            "prewarmed": 0,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def predictor(
        self,
        config: PredictorConfig | None = None,
        *,
        client_key: object = None,
        from_src_links: dict | None = None,
        from_src_prefixes: set[int] | None = None,
        client_cluster_as: dict[int, int] | None = None,
        from_src_rev: int = 0,
    ) -> INanoPredictor:
        """The shared predictor for ``config`` (and, if ``client_key``
        names a client with FROM_SRC measurements, that client's merged
        view). Never compiles when a fresh entry exists.
        """
        config = config or PredictorConfig.inano()
        runtime = self._runtime
        key = (config, client_key)
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry.version == runtime.version
            and entry.rev == from_src_rev
        ):
            self.hits += 1
            return entry.predictor
        if config.use_from_src and from_src_links:
            primary = runtime.merged_graph(
                client_key, from_src_links, client_cluster_as, from_src_rev
            )
        elif config.use_from_src:
            primary = runtime.directed_graph()
        else:
            primary = runtime.closed_graph()
        if entry is None:
            entry = _PoolEntry(
                predictor=INanoPredictor(
                    runtime.atlas,
                    config,
                    from_src_prefixes=from_src_prefixes,
                    client_cluster_as=client_cluster_as,
                    primary_graph=primary,
                    fallback_factory=runtime.closed_graph,
                ),
                version=runtime.version,
                rev=from_src_rev,
            )
            self._entries[key] = entry
        else:
            # Refresh in place: graph objects were patched/adopted under
            # us and the atlas mutated in place, so only the bindings
            # and freshness markers need updating.
            self.refreshes += 1
            pred = entry.predictor
            pred.graph = primary
            pred.atlas = runtime.atlas
            pred.from_src_prefixes = from_src_prefixes
            entry.version = runtime.version
            entry.rev = from_src_rev
        return entry.predictor

    def after_update(self, updates: list[tuple]) -> dict:
        """Retire pooled search caches after one applied delta and
        prewarm the hottest searches against the new graph versions.

        ``updates`` holds ``(name, graph, old_version, new_version)``
        per materialized base graph. For every pooled predictor, every
        cached search keyed on a retired version counts as dirty; the
        hottest destinations re-run through the kernel so the first
        post-delta query is a cache hit. Client-merged primary graphs
        re-derive lazily and are not prewarmed; their shared closed
        fallback is.
        """
        stats = {
            "reused": 0,
            "repaired": 0,
            "replayed": 0,
            "dirty": 0,
            "prewarmed": 0,
        }
        graphs_by_old_version = {
            old_version: graph
            for _, graph, old_version, new_version in updates
            if old_version != new_version
        }
        name_of_version = {
            old_version: name
            for name, _, old_version, new_version in updates
            if old_version != new_version
        }
        graph_of_name = {name: graph for name, graph, _, _ in updates}
        for pool_key, entry in self._entries.items():
            predictor = entry.predictor
            self._record_warm(pool_key, predictor, name_of_version)
            stats["dirty"] += sum(
                key[0] in graphs_by_old_version
                for key in predictor._search_cache
            )
            ran = prewarm(predictor, graphs_by_old_version, self.prewarm_max)
            ran += self._prewarm_from_records(
                pool_key, predictor, graph_of_name, self.prewarm_max - ran
            )
            stats["prewarmed"] += ran
        self.last_repair = dict(stats)
        return stats

    def kernel_stats(self) -> dict:
        """Pooled search-kernel counters, summed over every entry:
        ``searches`` (cold kernel runs), ``hits`` (search-cache hits),
        ``evictions`` (LRU drops: the working set outgrew the cache) and
        ``search_us`` (cumulative cold-search microseconds). The serving
        layer samples this before/after a request to attribute kernel
        work per query."""
        totals = {"searches": 0, "hits": 0, "evictions": 0, "search_us": 0.0}
        for entry in self._entries.values():
            counters = entry.predictor.kernel_stats
            for key in totals:
                totals[key] += counters[key]
        return totals

    def export_metrics(self, registry, prefix: str = "runtime.pool") -> None:
        """Publish the pool's counters into an obs
        :class:`~repro.obs.registry.MetricsRegistry` as ``prefix.*``
        gauges — the shard worker calls this on every stats export so
        the fleet snapshot carries pool/kernel/cache state without a
        second bookkeeping path."""
        registry.get_gauge(f"{prefix}.entries").set(len(self._entries))
        registry.get_gauge(f"{prefix}.hits").set(self.hits)
        registry.get_gauge(f"{prefix}.refreshes").set(self.refreshes)
        registry.get_gauge(f"{prefix}.prewarm_max").set(self.prewarm_max)
        for key, value in self.kernel_stats().items():
            registry.get_gauge(f"{prefix}.kernel.{key}").set(value)
        for key, value in self.last_repair.items():
            registry.get_gauge(f"{prefix}.repair.{key}").set(value)

    def _record_warm(
        self, pool_key: tuple, predictor, name_of_version: dict
    ) -> None:
        """Note the entry's hot destinations on the graphs this update
        touched, before prewarm churns the LRU. Cache iteration is
        oldest-first, so the hottest record lands last."""
        records = self._warm.setdefault(pool_key, OrderedDict())
        for version, dst, providers in predictor._search_cache:
            name = name_of_version.get(version)
            if name is not None:
                rec = (name, dst, providers)
                records[rec] = None
                records.move_to_end(rec)
        while len(records) > _WARM_RECORDS_MAX:
            records.popitem(last=False)

    def _prewarm_from_records(
        self, pool_key: tuple, predictor, graph_of_name: dict, budget: int
    ) -> int:
        """Top up the prewarm budget from warm-start records: hot
        destinations whose cached search aged out of the LRU before
        this update (so the stale-key prewarmer can't see them)."""
        records = self._warm.get(pool_key)
        if not records or budget <= 0:
            return 0
        cache = predictor._search_cache
        ran = 0
        for name, dst, providers in reversed(records):  # hottest first
            if ran >= budget:
                break
            graph = graph_of_name.get(name)
            if graph is None or (graph.version, dst, providers) in cache:
                continue
            predictor.search_for(graph, dst, providers)
            ran += 1
        return ran

    def release(self, client_key: object) -> None:
        """Drop every entry belonging to one client — including its
        warm-start records, so a released client's destinations stop
        drawing prewarm searches on every subsequent update — and free
        each dropped predictor's search-state arrays and pooled state
        bundles (the state-pool lifecycle contract: a released client
        must not pin per-search memory)."""
        for key in [k for k in self._entries if k[1] == client_key]:
            entry = self._entries.pop(key)
            entry.predictor.release_search_state()
        for key in [k for k in self._warm if k[1] == client_key]:
            del self._warm[key]


def prewarm(predictor, graphs_by_old_version: dict, limit: int) -> int:
    """Re-run the hottest still-stale searches through the kernel so the
    first post-delta query hits a warm cache; returns how many ran.

    ``graphs_by_old_version`` maps each patched graph's pre-patch
    version to the (now current) graph object. The budget is per
    predictor across all its graphs: the LRU's recency order decides
    which destinations count as hot, so a rarely-queried fallback plane
    cannot starve the primary's hot set.
    """
    if not graphs_by_old_version:
        return 0
    cache = predictor._search_cache
    stale = [key for key in cache if key[0] in graphs_by_old_version]
    ran = 0
    for key in reversed(stale):  # most recently used first
        # every stale key leaves the LRU here: the hottest re-run warm,
        # the rest are unreachable under their retired version and
        # would only crowd live entries toward eviction
        del cache[key]
        if ran < limit:
            predictor.search_for(
                graphs_by_old_version[key[0]], key[1], key[2]
            )
            ran += 1
    return ran
