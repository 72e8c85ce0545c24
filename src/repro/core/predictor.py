"""The iNano route predictor (Section 4 in full).

One backtracking Dijkstra per destination computes best routes from *every*
node to that destination, so batched queries against a common destination
are nearly free (the per-destination search is cached, LRU).

Graph planes follow the paper's ablation structure:

* with ``use_from_src`` off (plain GRAPH), the search runs over the
  Section 4.2 graph — observed adjacencies closed in both directions with
  relationship-imposed edge directions;
* with ``use_from_src`` on, the primary search uses the *directed*
  TO_DST plane plus the client's directed FROM_SRC plane (Section 4.3.1),
  which suppresses non-existent routes; if that search cannot reach the
  source, the engine falls back to the closed graph (built lazily, on
  first need) so arbitrary-pair queries keep their coverage.

The search state per node holds the GRAPH cost tuple plus two pieces of
path context the corrective checks need:

* ``next_asn`` — the first AS on the node's forward path that differs from
  the node's own AS (None while still inside the destination AS). The
  3-tuple check validates ``(AS(v), AS(u), next_asn(u))`` on every AS
  crossing, and the provider check fires exactly when ``next_asn(u)`` is
  None (the edge enters the destination prefix's origin AS).
* ``phase`` — local-preference tier (customer=1 < peer=2 < provider=3),
  dominating the cost comparison, which realizes Section 4.2.4's phased
  computation in a single pass.

AS preferences (Section 4.3.3) tie-break candidates with equal
(phase, AS hops), overriding the intra-AS exit-cost comparison. Because
plain Dijkstra would finalize a node before an equally-short-but-preferred
parent pops, every node re-evaluates its finalized out-neighbors at pop
time and keeps the preferred parent.

Two interchangeable engines implement the search:

* ``engine="compiled"`` (the default) runs over the flat CSR arrays of
  :class:`repro.core.compiled.CompiledGraph`: dense int node ids,
  preallocated per-node state arrays (phase / effective hops / exit cost
  / parent edge / next ASN, with ``-1`` as the "no next AS" sentinel),
  and integer heap entries. Only the *effective* hop count is tracked —
  the (as_hops, pending) split of :class:`~repro.core.costs.PathCost`
  is a homomorphism onto it under every ⊕ flavour, so nothing else of
  the cost tuple is observable. Cold searches run through the
  vectorized phase-major bucket-queue kernel (:mod:`repro.core.search`)
  by default; ``kernel="scalar"`` pins the scalar heap loop
  (:meth:`INanoPredictor._search_compiled`), which stays as the
  kernel's executable spec.
* ``engine="legacy"`` is the original dict-of-dataclass search, kept as
  the executable specification; the equivalence suite asserts both
  engines return identical :class:`PredictedPath`s under every ablation.

Both engines share graph construction semantics (and therefore the
emission-order tie-breaking contract), the per-destination LRU search
cache, and the destination-grouped :meth:`INanoPredictor.predict_batch`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.search import run_kernel
from repro.core.sssp import lazy_heap_loop

from repro.atlas.model import Atlas, LinkRecord
from repro.atlas.tuples import tuple_check
from repro.core.compiled import (
    OP_INTRA,
    OP_LATE_EXIT,
    OP_SIBLING,
    CompiledGraph,
)
from repro.core.costs import ZERO_COST, PathCost
from repro.core.graph import (
    DOWN,
    FROM_SRC,
    TO_DST,
    UP,
    Edge,
    EdgeKind,
    Node,
    PredictionGraph,
)
from repro.errors import NoPredictedRouteError, UnknownEndpointError

_SEARCH_CACHE_MAX = 256


@dataclass(frozen=True)
class PredictorConfig:
    """Feature flags matching Figure 5's ablation ladder."""

    use_from_src: bool = True       # Section 4.3.1 (asymmetry)
    use_three_tuples: bool = True   # Section 4.3.2 (export policies)
    use_preferences: bool = True    # Section 4.3.3 (local preferences)
    use_providers: bool = True      # Section 4.3.4 (traffic engineering)
    tuple_degree_threshold: int = 5

    @classmethod
    def graph_baseline(cls) -> "PredictorConfig":
        """Plain GRAPH (Section 4.2): no corrective components."""
        return cls(
            use_from_src=False,
            use_three_tuples=False,
            use_preferences=False,
            use_providers=False,
        )

    @classmethod
    def inano(cls) -> "PredictorConfig":
        """Full iNano: all components on."""
        return cls()

    def ablation_name(self) -> str:
        flags = (
            self.use_from_src,
            self.use_three_tuples,
            self.use_preferences,
            self.use_providers,
        )
        if not any(flags):
            return "GRAPH"
        if all(flags):
            return "iNano"
        parts = []
        if self.use_from_src:
            parts.append("asym")
        if self.use_three_tuples:
            parts.append("tuples")
        if self.use_preferences:
            parts.append("prefs")
        if self.use_providers:
            parts.append("providers")
        return "GRAPH+" + "+".join(parts)


@dataclass(frozen=True, slots=True)
class PredictedPath:
    """A predicted one-way route with composed annotations."""

    clusters: tuple[int, ...]
    as_path: tuple[int, ...]
    latency_ms: float
    loss: float
    as_hops: int
    used_from_src: bool

    @property
    def n_cluster_hops(self) -> int:
        return max(0, len(self.clusters) - 1)


@dataclass
class _NodeState:
    phase: int
    cost: PathCost
    parent_edge: Edge | None
    next_asn: int | None

    def key(self) -> tuple[int, int]:
        return (self.phase, self.cost.effective_hops)


#: per-search cap on memoized extracted paths (bounds worst-case memory
#: at _SEARCH_CACHE_MAX * _PATH_MEMO_MAX small objects)
_PATH_MEMO_MAX = 4096

#: minimum number of uncached start nodes in a destination group before
#: predict_batch switches from the scalar parent-chain walk to the
#: vectorized extraction (numpy per-hop overhead beats the scalar walk
#: only once enough paths share it)
_BATCH_EXTRACT_MIN = 8


@dataclass
class _CompiledStates:
    """Per-destination search result of the compiled engine.

    ``root_id`` is None when the destination node is absent from the
    graph entirely (then only the trivial src==dst query can answer).
    The five state fields are flat numpy arrays (int64, except the
    float64 exit cost) sized to the graph; ``phase[v] == 0`` marks an
    unreached node. ``paths`` memoizes extracted
    :class:`PredictedPath`s by start node id — extraction is a pure
    function of the finished search, so repeated queries against a
    cached destination skip the parent-chain walk entirely.

    ``pool`` points at the :class:`~repro.core.search.SearchStatePool`
    the arrays came from so eviction can recycle them; recycled arrays
    may be handed to the next search, so holders of a states object
    must drop it once its cache entry is gone.
    """

    root_id: int | None
    phase: object
    eff: object
    exitc: object
    parent: object
    nxt: object
    paths: dict[int, PredictedPath]
    pool: object = None

    def recycle(self) -> None:
        """Return the state arrays to their pool (caller must own the
        states — i.e. just evicted/replaced their cache entry)."""
        if self.pool is not None and isinstance(self.phase, np.ndarray):
            self.pool.recycle(
                (self.phase, self.eff, self.exitc, self.parent, self.nxt)
            )
            self.pool = None


def _empty_states() -> _CompiledStates:
    """States for a destination absent from the graph."""
    z = np.zeros(0, dtype=np.int64)
    return _CompiledStates(
        None, z, z, np.zeros(0, dtype=np.float64), z, z, {}
    )


class INanoPredictor:
    """Predicts PoP-level routes between arbitrary prefixes from an atlas."""

    def __init__(
        self,
        atlas: Atlas,
        config: PredictorConfig | None = None,
        from_src_links: dict[tuple[int, int], LinkRecord] | None = None,
        from_src_prefixes: set[int] | None = None,
        client_cluster_as: dict[int, int] | None = None,
        engine: str = "compiled",
        kernel: str = "vector",
        primary_graph: CompiledGraph | None = None,
        fallback_factory=None,
    ) -> None:
        if engine not in ("compiled", "legacy"):
            raise ValueError(f"unknown predictor engine {engine!r}")
        if kernel not in ("vector", "scalar"):
            raise ValueError(f"unknown search kernel {kernel!r}")
        if primary_graph is not None and engine != "compiled":
            raise ValueError("externally-supplied graphs require the compiled engine")
        self.atlas = atlas
        self.config = config or PredictorConfig.inano()
        self.engine = engine
        #: "vector" (default) runs cold searches through the bucket-queue
        #: kernel (repro.core.search); "scalar" pins the spec loop
        self.kernel = kernel
        #: lightweight kernel counters the serving layer surfaces:
        #: cache hits/misses and cumulative cold-search microseconds
        self.kernel_stats = {
            "searches": 0,
            "hits": 0,
            "search_us": 0.0,
            "last_search_us": 0.0,
        }
        self._extra_cluster_as = dict(client_cluster_as or {})
        if primary_graph is not None:
            # Runtime-backed mode: the graph (and the lazy closed
            # fallback, via ``fallback_factory``) is owned and kept
            # current by an AtlasRuntime; the predictor never compiles.
            self.graph = primary_graph
        elif self.config.use_from_src:
            self.graph = self._build_graph(from_src_links, closed=False)
        else:
            self.graph = self._build_graph(None, closed=True)
        #: the closed fallback graph, built lazily via :attr:`fallback_graph`
        self._fallback_graph: PredictionGraph | CompiledGraph | None = None
        self._fallback_factory = fallback_factory
        #: prefixes whose queries may start in the FROM_SRC plane (the
        #: client's own); None means any source may use it.
        self.from_src_prefixes = from_src_prefixes
        #: per-(graph version, destination, providers) search results,
        #: true LRU: hits refresh recency, eviction drops the least
        #: recently used. Version keys (not ``id(graph)``, which the
        #: allocator can reuse after GC) can never alias a dead or
        #: since-patched graph.
        self._search_cache: OrderedDict = OrderedDict()
        self._cache_max = _SEARCH_CACHE_MAX

    def _build_graph(
        self,
        from_src_links: dict[tuple[int, int], LinkRecord] | None,
        closed: bool,
    ) -> PredictionGraph | CompiledGraph:
        if self.engine == "legacy":
            return PredictionGraph(
                atlas=self.atlas,
                from_src_links=from_src_links,
                extra_cluster_as=self._extra_cluster_as,
                closed=closed,
            ).build()
        return CompiledGraph.from_atlas(
            self.atlas,
            from_src_links=from_src_links,
            extra_cluster_as=self._extra_cluster_as,
            closed=closed,
        )

    @property
    def fallback_graph(self) -> PredictionGraph | CompiledGraph | None:
        """The closed (Section 4.2) graph backing arbitrary-pair coverage.

        Only exists when ``use_from_src`` is on; built on first access so
        queries the directed planes can answer never pay for it.
        """
        if not self.config.use_from_src:
            return None
        if self._fallback_graph is None:
            if self._fallback_factory is not None:
                self._fallback_graph = self._fallback_factory()
            else:
                self._fallback_graph = self._build_graph(None, closed=True)
        return self._fallback_graph

    def _query_graphs(self):
        yield self.graph
        if self.config.use_from_src:
            yield self.fallback_graph

    # -- public API ----------------------------------------------------------

    def predict(self, src_prefix_index: int, dst_prefix_index: int) -> PredictedPath:
        """Predict the forward route ``src -> dst`` between two prefixes.

        Raises :class:`UnknownEndpointError` if either prefix is not in the
        atlas, :class:`NoPredictedRouteError` if the search fails.
        """
        src_cluster = self.atlas.cluster_of_prefix(src_prefix_index)
        dst_cluster = self.atlas.cluster_of_prefix(dst_prefix_index)
        if src_cluster is None:
            raise UnknownEndpointError(src_prefix_index)
        if dst_cluster is None:
            raise UnknownEndpointError(dst_prefix_index)

        for graph in self._query_graphs():
            states = self._search(graph, dst_cluster, dst_prefix_index)
            path = self._lookup(
                graph, states, src_prefix_index, src_cluster, dst_cluster
            )
            if path is not None:
                return path
        raise NoPredictedRouteError(src_prefix_index, dst_prefix_index)

    def predict_or_none(
        self, src_prefix_index: int, dst_prefix_index: int
    ) -> PredictedPath | None:
        try:
            return self.predict(src_prefix_index, dst_prefix_index)
        except (UnknownEndpointError, NoPredictedRouteError):
            return None

    def predict_batch(
        self, pairs: list[tuple[int, int]]
    ) -> list[PredictedPath | None]:
        """Batched queries (the library API serves these locally).

        Pairs are grouped by destination so every pair sharing a
        destination reuses one backtracking search, endpoints are
        resolved once, and no per-pair exceptions are raised. Results
        align with ``pairs`` and match per-pair :meth:`predict_or_none`.
        """
        out: list[PredictedPath | None] = [None] * len(pairs)
        if not pairs:
            return out
        first_dst = pairs[0][1]
        if all(dst == first_dst for _, dst in pairs):
            # Server fan-in fast path: every pair already shares one
            # destination, so skip the group-by regrouping entirely and
            # run the single group straight through one shared search.
            self._predict_group(first_dst, range(len(pairs)), pairs, out)
            return out
        groups: dict[int, list[int]] = {}
        for i, (_, dst) in enumerate(pairs):
            groups.setdefault(dst, []).append(i)
        for dst, idxs in groups.items():
            self._predict_group(dst, idxs, pairs, out)
        return out

    def _predict_group(self, dst, idxs, pairs, out) -> None:
        """Resolve one destination group of a batch against one search."""
        cluster_of = self.atlas.cluster_of_prefix
        dst_cluster = cluster_of(dst)
        if dst_cluster is None:
            return
        pending = []
        for i in idxs:
            src = pairs[i][0]
            src_cluster = cluster_of(src)
            if src_cluster is not None:
                pending.append((i, src, src_cluster))
        if not pending:
            return
        for graph in self._query_graphs():
            states = self._search(graph, dst_cluster, dst)
            still = []
            if self.engine == "compiled" and states.root_id is not None:
                # Resolve every pending source to its start node
                # first, then extract all uncached paths in one
                # vectorized pass over the CSR parent arrays.
                starts = []
                for item in pending:
                    i, src, src_cluster = item
                    nid = self._start_node(graph, states, src, src_cluster)
                    if nid is None:
                        still.append(item)
                    else:
                        starts.append((i, nid))
                memo = states.paths
                todo = {nid for _, nid in starts if nid not in memo}
                if len(todo) >= _BATCH_EXTRACT_MIN:
                    self._extract_compiled_batch(graph, states, sorted(todo))
                for i, nid in starts:
                    out[i] = self._memoized_extract(graph, states, nid)
            else:
                for item in pending:
                    i, src, src_cluster = item
                    path = self._lookup(
                        graph, states, src, src_cluster, dst_cluster
                    )
                    if path is not None:
                        out[i] = path
                    else:
                        still.append(item)
            pending = still
            if not pending:
                # Don't resume _query_graphs: that would build the
                # lazy fallback graph with nothing left to resolve.
                break

    # -- search ---------------------------------------------------------------

    def _target_priority(
        self, graph: PredictionGraph | CompiledGraph, src_prefix_index: int
    ) -> list[tuple[int, int]]:
        """Planes/sides to try for the source node, in order (Section 4.3.1)."""
        targets: list[tuple[int, int]] = []
        if graph.has_from_src and (
            self.from_src_prefixes is None
            or src_prefix_index in self.from_src_prefixes
        ):
            targets.append((FROM_SRC, UP))
        targets.append((TO_DST, UP))
        targets.append((TO_DST, DOWN))
        return targets

    def _provider_gate(self, dst_prefix_index: int) -> frozenset[int] | None:
        if not self.config.use_providers:
            return None
        return self.atlas.providers_for_prefix(dst_prefix_index)

    def _search(
        self,
        graph: PredictionGraph | CompiledGraph,
        dst_cluster: int,
        dst_prefix_index: int,
    ):
        return self.search_for(
            graph, dst_cluster, self._provider_gate(dst_prefix_index)
        )

    def search_for(
        self,
        graph: PredictionGraph | CompiledGraph,
        dst_cluster: int,
        providers: frozenset[int] | None,
    ):
        """The (cached) per-destination search for an explicit provider
        gate — the providers are part of the cache key, so the runtime's
        pool prewarming can re-run a cached search without resolving a
        destination prefix."""
        cache_key = (graph.version, dst_cluster, providers)
        cache = self._search_cache
        cached = cache.get(cache_key)
        stats = self.kernel_stats
        if cached is not None:
            cache.move_to_end(cache_key)
            stats["hits"] += 1
            return cached
        from time import perf_counter

        t0 = perf_counter()
        states = self._run_search(graph, dst_cluster, providers)
        us = (perf_counter() - t0) * 1e6
        stats["searches"] += 1
        stats["search_us"] += us
        stats["last_search_us"] = us
        if len(cache) >= self._cache_max:
            _, evicted = cache.popitem(last=False)
            if isinstance(evicted, _CompiledStates):
                evicted.recycle()
        cache[cache_key] = states
        return states

    def release_search_state(self) -> None:
        """Free every cached search's state arrays and the per-graph
        state-pool freelists this predictor has touched (pool release /
        teardown path)."""
        for st in self._search_cache.values():
            if isinstance(st, _CompiledStates):
                st.pool = None
        self._search_cache.clear()
        for graph in (self.graph, self._fallback_graph):
            if isinstance(graph, CompiledGraph):
                graph.search_pool().clear()

    def _run_search(
        self,
        graph: PredictionGraph | CompiledGraph,
        dst_cluster: int,
        providers: frozenset[int] | None,
    ):
        """One uncached search (engine + kernel dispatch, no LRU)."""
        if self.engine == "legacy":
            return self._search_legacy(graph, dst_cluster, providers)
        if self.kernel == "vector":
            root = graph.node_id(TO_DST, DOWN, dst_cluster)
            if root is None:
                return _empty_states()
            pool = graph.search_pool()
            result = run_kernel(
                graph, self.atlas, self.config, providers, root, pool=pool
            )
            if result is not None:
                return _CompiledStates(root, *result, {}, pool=pool)
            # ASNs too large to pack: fall through to the spec loop
        return self._search_compiled(graph, dst_cluster, providers)

    def _lookup(
        self,
        graph: PredictionGraph | CompiledGraph,
        states,
        src_prefix_index: int,
        src_cluster: int,
        dst_cluster: int,
    ) -> PredictedPath | None:
        """Resolve one source against a finished search, or None."""
        if self.engine == "legacy":
            for plane, side in self._target_priority(graph, src_prefix_index):
                node = (plane, side, src_cluster)
                if node in states:
                    return self._extract(graph, node, states)
            return None
        if states.root_id is None:
            # Destination node absent from the graph: only the trivial
            # src==dst query has an answer (mirroring the legacy
            # root-only states dict, whose sole entry is (TO_DST, DOWN)).
            if src_cluster == dst_cluster:
                return self._trivial_path(graph, dst_cluster)
            return None
        nid = self._start_node(graph, states, src_prefix_index, src_cluster)
        if nid is None:
            return None
        return self._memoized_extract(graph, states, nid)

    def _start_node(
        self,
        graph: CompiledGraph,
        states: _CompiledStates,
        src_prefix_index: int,
        src_cluster: int,
    ) -> int | None:
        """Best reached start node for a source, or None (compiled engine).

        Inlined _target_priority over packed node keys: FROM_SRC/UP
        when permitted, then TO_DST/UP, then TO_DST/DOWN.
        """
        nid_of = graph._id_of.get
        phase = states.phase
        key = src_cluster << 2
        if graph.has_from_src and (
            self.from_src_prefixes is None
            or src_prefix_index in self.from_src_prefixes
        ):
            nid = nid_of(key | (FROM_SRC << 1) | UP)
            if nid is not None and phase[nid]:
                return nid
        nid = nid_of(key | (TO_DST << 1) | UP)
        if nid is not None and phase[nid]:
            return nid
        nid = nid_of(key | (TO_DST << 1) | DOWN)
        if nid is not None and phase[nid]:
            return nid
        return None

    def _memoized_extract(
        self, graph: CompiledGraph, states: _CompiledStates, nid: int
    ) -> PredictedPath:
        memo = states.paths
        path = memo.get(nid)
        if path is None:
            path = self._extract_compiled(graph, states, nid)
            if len(memo) < _PATH_MEMO_MAX:
                memo[nid] = path
        return path

    # -- legacy engine (the executable specification) -------------------------

    def _candidate(
        self,
        edge: Edge,
        su: _NodeState,
        providers: frozenset[int] | None,
    ) -> _NodeState | None:
        """State for reaching ``edge.src`` via ``edge`` then ``su``, or None."""
        cfg = self.config
        crossing = edge.src_asn != edge.dst_asn
        if crossing:
            if cfg.use_three_tuples and su.next_asn is not None:
                if not tuple_check(
                    self.atlas.three_tuples,
                    self.atlas.as_degrees,
                    edge.src_asn,
                    edge.dst_asn,
                    su.next_asn,
                    cfg.tuple_degree_threshold,
                ):
                    return None
            if providers is not None and su.next_asn is None:
                if edge.src_asn not in providers:
                    return None
        phase, cost = self._compose(edge, su)
        if phase is None:
            return None
        next_asn = edge.dst_asn if crossing else su.next_asn
        return _NodeState(phase=phase, cost=cost, parent_edge=edge, next_asn=next_asn)

    def _search_legacy(
        self,
        graph: PredictionGraph,
        dst_cluster: int,
        providers: frozenset[int] | None,
    ) -> dict[Node, _NodeState]:
        prefers = self.atlas.prefers
        best: dict[Node, _NodeState] = {}
        finalized: set[Node] = set()
        counter = itertools.count()
        heap: list[tuple[int, int, float, int, Node]] = []

        root: Node = (TO_DST, DOWN, dst_cluster)
        best[root] = _NodeState(
            phase=1, cost=ZERO_COST, parent_edge=None, next_asn=None
        )
        heapq.heappush(heap, (1, 0, 0.0, next(counter), root))

        def settle(entry) -> None:
            u = entry[-1]
            if u != root:
                # Pop-time re-evaluation: among *finalized* out-neighbors,
                # keep the best parent under the full comparator (this is
                # where equal-length AS preferences actually bite).
                for edge in graph.outgoing(u):
                    if edge.dst not in finalized:
                        continue
                    candidate = self._candidate(edge, best[edge.dst], providers)
                    if candidate is not None and self._improves(
                        candidate, best.get(u), edge.src_asn, prefers
                    ):
                        best[u] = candidate
            finalized.add(u)
            su = best[u]
            for edge in graph.incoming(u):
                v = edge.src
                if v in finalized:
                    continue
                candidate = self._candidate(edge, su, providers)
                if candidate is None:
                    continue
                if self._improves(candidate, best.get(v), edge.src_asn, prefers):
                    best[v] = candidate
                    cost = candidate.cost
                    heapq.heappush(
                        heap,
                        (
                            candidate.phase,
                            cost.effective_hops,
                            cost.exit_cost_ms,
                            next(counter),
                            v,
                        ),
                    )

        lazy_heap_loop(heap, finalized.__contains__, settle)
        return best

    @staticmethod
    def _compose(edge: Edge, su: _NodeState) -> tuple[int | None, PathCost | None]:
        """Phase and cost of reaching ``edge.src`` via ``edge`` then ``su``."""
        kind = edge.kind
        if kind is EdgeKind.INTRA:
            return su.phase, su.cost.extend_intra(edge.latency_ms)
        if kind in (EdgeKind.SELF_DOWN, EdgeKind.PLANE_CROSS):
            return su.phase, su.cost.extend_intra(0.0)
        if kind is EdgeKind.LATE_EXIT:
            return su.phase, su.cost.extend_late_exit(edge.latency_ms)
        if kind is EdgeKind.SIBLING:
            return su.phase, su.cost.extend_inter()
        if kind is EdgeKind.DOWN_EDGE:
            return 1, su.cost.extend_inter()
        if kind is EdgeKind.PEER:
            return 2, su.cost.extend_inter()
        if kind is EdgeKind.UP_EDGE:
            return 3, su.cost.extend_inter()
        return None, None

    def _improves(
        self,
        candidate: _NodeState,
        incumbent: _NodeState | None,
        chooser_asn: int,
        prefers,
    ) -> bool:
        if incumbent is None:
            return True
        ck, ik = candidate.key(), incumbent.key()
        if ck != ik:
            return ck < ik
        if self.config.use_preferences:
            cand_next = self._choice_asn(candidate, chooser_asn)
            inc_next = self._choice_asn(incumbent, chooser_asn)
            if cand_next is not None and inc_next is not None and cand_next != inc_next:
                if prefers(chooser_asn, cand_next, inc_next):
                    return True
                if prefers(chooser_asn, inc_next, cand_next):
                    return False
        return candidate.cost.exit_cost_ms < incumbent.cost.exit_cost_ms

    @staticmethod
    def _choice_asn(state: _NodeState, chooser_asn: int) -> int | None:
        """The next-hop AS this state routes through, from the chooser's view."""
        edge = state.parent_edge
        if edge is None:
            return None
        if edge.dst_asn != chooser_asn:
            return edge.dst_asn
        return state.next_asn

    # -- compiled engine -------------------------------------------------------

    def _search_compiled(
        self,
        cg: CompiledGraph,
        dst_cluster: int,
        providers: frozenset[int] | None,
    ) -> _CompiledStates:
        """Array-native backtracking Dijkstra over the CSR core.

        Semantically identical to :meth:`_search_legacy` — same candidate
        checks, same comparator, same tie-breaking (heap counters advance
        in the same order because CSR edge lists preserve emission order).
        The ``(as_hops, pending)`` split collapses to effective hops,
        which is the only component the comparator and the public
        ``as_hops`` ever observe.
        """
        root = cg.node_id(TO_DST, DOWN, dst_cluster)
        if root is None:
            return _empty_states()
        cfg = self.config
        use_tuples = cfg.use_three_tuples
        use_prefs = cfg.use_preferences
        thresh = cfg.tuple_degree_threshold
        tuples = self.atlas.three_tuples
        dget = self.atlas.as_degrees.get
        prefs = self.atlas.preferences
        e_src = cg.e_src
        e_dst = cg.e_dst
        e_lat = cg.e_lat
        e_sa = cg.e_src_asn
        e_da = cg.e_dst_asn
        e_op = cg.e_op
        e_ph = cg.e_phase
        rev_off = cg.rev_off
        rev_lst = cg.rev_lst
        fwd_off = cg.fwd_off
        fwd_lst = cg.fwd_lst
        n = cg.n_nodes
        phase = [0] * n
        eff = [0] * n
        exitc = [0.0] * n
        parent = [-1] * n
        nxt = [-1] * n
        finalized = bytearray(n)
        heappush = heapq.heappush
        heappop = heapq.heappop
        phase[root] = 1
        heap: list[tuple[int, int, float, int, int]] = [(1, 0, 0.0, 0, root)]
        count = 1

        while heap:
            u = heappop(heap)[4]
            if finalized[u]:
                continue
            if u != root:
                # Pop-time re-evaluation over finalized out-neighbors.
                for ei in fwd_lst[fwd_off[u]:fwd_off[u + 1]]:
                    w = e_dst[ei]
                    if not finalized[w]:
                        continue
                    a = e_sa[ei]
                    b = e_da[ei]
                    sn = nxt[w]
                    if a != b:
                        if (
                            use_tuples
                            and sn != -1
                            and b != sn
                            and dget(b, 0) > thresh
                            and (a, b, sn) not in tuples
                        ):
                            continue
                        if providers is not None and sn == -1 and a not in providers:
                            continue
                        nn = b
                    else:
                        nn = sn
                    op = e_op[ei]
                    if op == OP_INTRA:
                        np_ = phase[w]
                        ne = eff[w]
                        nx = exitc[w] + e_lat[ei]
                    elif op == OP_LATE_EXIT:
                        np_ = phase[w]
                        ne = eff[w] + 1
                        nx = exitc[w] + e_lat[ei]
                    elif op == OP_SIBLING:
                        np_ = phase[w]
                        ne = eff[w] + 1
                        nx = 0.0
                    else:
                        np_ = e_ph[ei]
                        ne = eff[w] + 1
                        nx = 0.0
                    ip = phase[u]
                    ie = eff[u]
                    if np_ != ip or ne != ie:
                        if np_ > ip or (np_ == ip and ne > ie):
                            continue
                    else:
                        if use_prefs:
                            cc = b if b != a else nn
                            pi = parent[u]
                            if pi >= 0:
                                pd = e_da[pi]
                                ic = pd if pd != a else nxt[u]
                            else:
                                ic = -1
                            if cc != -1 and ic != -1 and cc != ic:
                                if (a, cc, ic) in prefs:
                                    pass
                                elif (a, ic, cc) in prefs:
                                    continue
                                elif nx >= exitc[u]:
                                    continue
                            elif nx >= exitc[u]:
                                continue
                        elif nx >= exitc[u]:
                            continue
                    phase[u] = np_
                    eff[u] = ne
                    exitc[u] = nx
                    parent[u] = ei
                    nxt[u] = nn
            finalized[u] = 1
            sp = phase[u]
            se = eff[u]
            sx = exitc[u]
            sn = nxt[u]
            for ei in rev_lst[rev_off[u]:rev_off[u + 1]]:
                v = e_src[ei]
                if finalized[v]:
                    continue
                a = e_sa[ei]
                b = e_da[ei]
                if a != b:
                    if (
                        use_tuples
                        and sn != -1
                        and b != sn
                        and dget(b, 0) > thresh
                        and (a, b, sn) not in tuples
                    ):
                        continue
                    if providers is not None and sn == -1 and a not in providers:
                        continue
                    nn = b
                else:
                    nn = sn
                op = e_op[ei]
                if op == OP_INTRA:
                    np_ = sp
                    ne = se
                    nx = sx + e_lat[ei]
                elif op == OP_LATE_EXIT:
                    np_ = sp
                    ne = se + 1
                    nx = sx + e_lat[ei]
                elif op == OP_SIBLING:
                    np_ = sp
                    ne = se + 1
                    nx = 0.0
                else:
                    np_ = e_ph[ei]
                    ne = se + 1
                    nx = 0.0
                ip = phase[v]
                if ip:
                    ie = eff[v]
                    if np_ != ip or ne != ie:
                        if np_ > ip or (np_ == ip and ne > ie):
                            continue
                    else:
                        if use_prefs:
                            cc = b if b != a else nn
                            pi = parent[v]
                            if pi >= 0:
                                pd = e_da[pi]
                                ic = pd if pd != a else nxt[v]
                            else:
                                ic = -1
                            if cc != -1 and ic != -1 and cc != ic:
                                if (a, cc, ic) in prefs:
                                    pass
                                elif (a, ic, cc) in prefs:
                                    continue
                                elif nx >= exitc[v]:
                                    continue
                            elif nx >= exitc[v]:
                                continue
                        elif nx >= exitc[v]:
                            continue
                phase[v] = np_
                eff[v] = ne
                exitc[v] = nx
                parent[v] = ei
                nxt[v] = nn
                heappush(heap, (np_, ne, nx, count, v))
                count += 1

        # Wrap the spec loop's python lists into the same array-native
        # representation the kernel produces (bit-exact: python floats
        # are IEEE doubles).
        return _CompiledStates(
            root,
            np.array(phase, dtype=np.int64),
            np.array(eff, dtype=np.int64),
            np.array(exitc, dtype=np.float64),
            np.array(parent, dtype=np.int64),
            np.array(nxt, dtype=np.int64),
            {},
        )

    # -- extraction -------------------------------------------------------------

    def _extract(
        self, graph: PredictionGraph, start: Node, states: dict[Node, _NodeState]
    ) -> PredictedPath:
        clusters: list[int] = []
        as_path: list[int] = []
        latency = 0.0
        success = 1.0
        used_from_src = start[0] == FROM_SRC

        node = start
        while True:
            cluster = node[2]
            if not clusters or clusters[-1] != cluster:
                clusters.append(cluster)
            asn = graph.asn_of(cluster)
            if asn is not None and (not as_path or as_path[-1] != asn):
                as_path.append(asn)
            state = states[node]
            edge = state.parent_edge
            if edge is None:
                break
            latency += edge.latency_ms
            success *= 1.0 - edge.loss
            node = edge.dst

        final_state = states[start]
        return PredictedPath(
            clusters=tuple(clusters),
            as_path=tuple(as_path),
            latency_ms=latency,
            loss=1.0 - success,
            as_hops=final_state.cost.effective_hops,
            used_from_src=used_from_src,
        )

    def _extract_compiled(
        self, cg: CompiledGraph, states: _CompiledStates, start: int
    ) -> PredictedPath:
        clusters: list[int] = []
        as_path: list[int] = []
        latency = 0.0
        success = 1.0
        node_cluster = cg.node_cluster
        node_asn = cg.node_asn
        e_dst = cg.e_dst
        e_lat = cg.e_lat
        e_loss = cg.e_loss
        parent = states.parent
        used_from_src = cg.node_plane[start] == FROM_SRC

        u = start
        while True:
            cluster = node_cluster[u]
            if not clusters or clusters[-1] != cluster:
                clusters.append(cluster)
            asn = node_asn[u]
            if not as_path or as_path[-1] != asn:
                as_path.append(asn)
            ei = int(parent[u])
            if ei < 0:
                break
            latency += e_lat[ei]
            success *= 1.0 - e_loss[ei]
            u = e_dst[ei]

        return PredictedPath(
            clusters=tuple(clusters),
            as_path=tuple(as_path),
            latency_ms=latency,
            loss=1.0 - success,
            as_hops=int(states.eff[start]),
            used_from_src=used_from_src,
        )

    def _extract_compiled_batch(
        self, cg: CompiledGraph, states: _CompiledStates, nids: list[int]
    ) -> None:
        """Extract many paths in one pass over the CSR parent arrays.

        Vectorized counterpart of :meth:`_extract_compiled`: all parent
        chains advance one hop per numpy step, accumulating latency and
        success in the same per-hop order as the scalar walk (so floats
        are bit-identical), then the cluster/AS sequences are assembled
        from the collected node matrix. Results land in the per-search
        path memo, subject to the same ``_PATH_MEMO_MAX`` cap.
        """
        import numpy as np

        e_dst, e_lat, e_loss, node_cluster, node_asn, node_plane = cg.np_views()
        parent = states.parent
        n = len(nids)
        cur = np.array(nids, dtype=np.int64)
        lat = np.zeros(n)
        succ = np.ones(n)
        rows = [cur]
        while True:
            pe = np.where(cur >= 0, parent[np.maximum(cur, 0)], -1)
            act = pe >= 0
            if not act.any():
                break
            pe_safe = np.maximum(pe, 0)
            lat = lat + np.where(act, e_lat[pe_safe], 0.0)
            succ = succ * np.where(act, 1.0 - e_loss[pe_safe], 1.0)
            cur = np.where(act, e_dst[pe_safe], np.int64(-1))
            rows.append(cur)
        mat = np.vstack(rows)
        safe = np.maximum(mat, 0)
        cluster_cols = node_cluster[safe].T.tolist()
        asn_cols = node_asn[safe].T.tolist()
        valid_cols = (mat >= 0).T.tolist()
        lat_list = lat.tolist()
        loss_list = (1.0 - succ).tolist()
        from_src_flags = (node_plane[np.array(nids)] == FROM_SRC).tolist()
        eff = states.eff
        memo = states.paths
        for k, nid in enumerate(nids):
            if len(memo) >= _PATH_MEMO_MAX:
                break
            clusters: list[int] = []
            as_path: list[int] = []
            c_col = cluster_cols[k]
            a_col = asn_cols[k]
            for t, ok in enumerate(valid_cols[k]):
                if not ok:
                    break
                c = c_col[t]
                if not clusters or clusters[-1] != c:
                    clusters.append(c)
                a = a_col[t]
                if not as_path or as_path[-1] != a:
                    as_path.append(a)
            memo[nid] = PredictedPath(
                clusters=tuple(clusters),
                as_path=tuple(as_path),
                latency_ms=lat_list[k],
                loss=loss_list[k],
                as_hops=int(eff[nid]),
                used_from_src=from_src_flags[k],
            )

    @staticmethod
    def _trivial_path(cg: CompiledGraph, dst_cluster: int) -> PredictedPath:
        asn = cg.asn_of(dst_cluster)
        return PredictedPath(
            clusters=(dst_cluster,),
            as_path=(asn,) if asn is not None else (),
            latency_ms=0.0,
            loss=0.0,
            as_hops=0,
            used_from_src=False,
        )
