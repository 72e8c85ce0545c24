"""The shared atlas runtime: one compiled query core per atlas lineage.

An :class:`AtlasRuntime` owns a (mutable) :class:`~repro.atlas.model.Atlas`
and every compiled graph derived from it:

* the **directed** graph (Section 4.3.1 planes, ``closed=False``) — the
  primary graph for ``use_from_src`` configs and the base that client
  FROM_SRC planes merge onto;
* the **closed** graph (Section 4.2, ``closed=True``) — primary for
  GRAPH-style configs and the shared lazy fallback for everything else;
* per-client **merged** views — the directed base plus one client's
  FROM_SRC traceroute plane, derived incrementally
  (:meth:`~repro.core.compiled.CompiledGraph.from_base_with_from_src`)
  rather than recompiled.

:meth:`AtlasRuntime.apply_delta` advances the whole lineage one day:
the atlas mutates in place (``apply_delta_inplace``), each materialized
base graph is patched in place by its
:class:`~repro.runtime.patch.CompiledGraphPatcher` (bit-for-bit equal
to a full recompile), merged views re-derive lazily, and every graph
draws a fresh version so version-keyed search caches retire stale
entries automatically. Monthly-refresh deltas (which replace the
classification datasets) recompile instead — the paper's own
daily-delta / monthly-refresh split.

Predictors are resolved through the runtime's
:class:`~repro.runtime.pool.PredictorPool`, so N co-located clients,
remote query agents, and the server-side query path all share one
compiled graph and one LRU search cache per (config, client) key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atlas.delta import AtlasDelta, apply_delta_inplace
from repro.atlas.model import Atlas
from repro.core.compiled import CompiledGraph
from repro.core.versioning import next_graph_version
from repro.runtime.patch import (
    CompiledGraphPatcher,
    PatchConsistencyError,
    shared_delta_context,
)
from repro.runtime.pool import PredictorPool


@dataclass
class RuntimeUpdateReport:
    """What one :meth:`AtlasRuntime.apply_delta` did."""

    day: int
    mode: str  # "patch" | "recompile"
    #: per-graph patch stats (graph name -> stats dict)
    graphs: dict[str, dict] = field(default_factory=dict)
    #: pooled search-cache outcome (see
    #: :meth:`~repro.runtime.pool.PredictorPool.after_update`): stale
    #: searches left ``dirty`` and hot ones ``prewarmed``; ``reused``,
    #: ``repaired`` and ``replayed`` always read 0 (kept for readers of
    #: the STATS wire layout)
    cache: dict[str, int] = field(default_factory=dict)


@dataclass
class _MergedView:
    graph: CompiledGraph
    rev: int
    version: int


class AtlasRuntime:
    """Owns the compiled query core for one atlas lineage.

    The runtime takes ownership of ``atlas`` and mutates it in place on
    updates — pass a private copy (e.g. a freshly decoded download), not
    a shared reference.
    """

    def __init__(self, atlas: Atlas) -> None:
        self.atlas = atlas
        #: bumped on every update; pool entries and PathInfo provenance
        #: key on it
        self.version = next_graph_version()
        self._graphs: dict[str, CompiledGraph] = {}
        self._patchers: dict[str, CompiledGraphPatcher] = {}
        self._merged: dict[object, _MergedView] = {}
        self.pool = PredictorPool(self)
        self.updates_applied = 0
        self.updates_patched = 0
        self.updates_recompiled = 0

    @property
    def day(self) -> int:
        return self.atlas.day

    # -- compiled graphs ---------------------------------------------------

    def directed_graph(self) -> CompiledGraph:
        """The directed-planes graph (primary for from_src configs)."""
        return self._base_graph("directed", closed=False)

    def closed_graph(self) -> CompiledGraph:
        """The closed Section 4.2 graph (GRAPH primary / shared fallback)."""
        return self._base_graph("closed", closed=True)

    def _base_graph(self, name: str, closed: bool) -> CompiledGraph:
        cg = self._graphs.get(name)
        if cg is None:
            cg = CompiledGraph.from_atlas(self.atlas, closed=closed)
            self._graphs[name] = cg
            self._patchers[name] = CompiledGraphPatcher(cg, closed=closed)
        return cg

    def install_graph(
        self, name: str, graph: CompiledGraph, closed: bool
    ) -> CompiledGraph:
        """Adopt an externally compiled graph as a materialized base.

        The shard-worker path (:mod:`repro.serve`): a worker maps the
        service's compiled CSR from shared memory
        (:meth:`~repro.core.compiled.CompiledGraph.from_shared`) and
        installs it under the canonical name (``"directed"`` /
        ``"closed"``) instead of paying a private ``from_atlas``
        compile. ``graph.atlas`` must be this runtime's atlas (same
        links order as the exporter's); the patcher attached here keeps
        the installed graph rolling through ``apply_delta`` like any
        locally built base.
        """
        if graph.atlas is not self.atlas:
            raise ValueError("installed graph must be compiled over the runtime's atlas")
        self._graphs[name] = graph
        self._patchers[name] = CompiledGraphPatcher(graph, closed=closed)
        return graph

    def merged_graph(
        self,
        token: object,
        from_src_links: dict,
        extra_cluster_as: dict[int, int] | None,
        rev: int,
    ) -> CompiledGraph:
        """A client's FROM_SRC-merged view, re-derived from the patched
        base when stale (atlas updated, or the client re-measured).

        The returned object keeps its identity across refreshes (arrays
        are adopted in place), so held references never go stale.
        """
        view = self._merged.get(token)
        if view is not None and view.rev == rev and view.version == self.version:
            return view.graph
        fresh = CompiledGraph.from_base_with_from_src(
            self.directed_graph(), from_src_links, extra_cluster_as
        )
        if view is None:
            view = _MergedView(graph=fresh, rev=rev, version=self.version)
            self._merged[token] = view
        else:
            view.graph.adopt(fresh)
            view.rev = rev
            view.version = self.version
        return view.graph

    def release(self, token: object) -> None:
        """Drop a client's merged view and pooled predictors."""
        self._merged.pop(token, None)
        self.pool.release(token)

    # -- updates -----------------------------------------------------------

    def apply_delta(self, delta: AtlasDelta, mode: str = "patch") -> RuntimeUpdateReport:
        """Advance the lineage one day; returns what was done per graph.

        ``mode="patch"`` (default) edits compiled arrays in place;
        ``mode="recompile"`` rebuilds every materialized graph from the
        updated atlas — the executable specification the equivalence
        suite and the update benchmark compare the patch path against.
        Monthly-refresh deltas always recompile.
        """
        if mode not in ("patch", "recompile"):
            raise ValueError(f"unknown update mode {mode!r}")
        apply_delta_inplace(self.atlas, delta)
        self.version = next_graph_version()
        self.updates_applied += 1
        patch = mode == "patch" and not delta.monthly_refresh
        report = RuntimeUpdateReport(
            day=self.atlas.day, mode="patch" if patch else "recompile"
        )
        context = (
            shared_delta_context(
                self.atlas, delta, self.atlas.cluster_to_as.get
            )
            if patch and self._graphs
            else None
        )
        updates: list[tuple] = []
        for name, cg in self._graphs.items():
            closed = name == "closed"
            old_version = cg.version
            if patch:
                try:
                    stats = self._patchers[name].apply(delta, context)
                    report.graphs[name] = stats
                    updates.append((name, cg, old_version, cg.version))
                    continue
                except PatchConsistencyError:
                    report.mode = "recompile"
            self._recompile(name, cg, closed)
            report.graphs[name] = {"mode": "recompile"}
            updates.append((name, cg, old_version, cg.version))
        if patch and report.mode == "patch":
            self.updates_patched += 1
        else:
            self.updates_recompiled += 1
        # Merged views go stale via the version check and re-derive
        # lazily from the (now current) directed base on next access.
        # Pooled searches on the retired versions go dirty; the hottest
        # re-run through the kernel.
        report.cache = self.pool.after_update(updates)
        return report

    def reset(self, atlas: Atlas) -> None:
        """Replace the lineage wholesale (e.g. after a gap in the delta
        chain): adopt the new atlas and recompile every materialized
        graph **in place**, so consumers holding this runtime — or any
        of its graphs or pooled predictors — stay current instead of
        being silently orphaned on a stale object.
        """
        self.atlas = atlas
        self.version = next_graph_version()
        self.updates_recompiled += 1
        for name, cg in self._graphs.items():
            self._recompile(name, cg, name == "closed")
        # Merged views and pool entries refresh lazily via the version
        # check on next access (predictors re-bind runtime.atlas there).

    def _recompile(self, name: str, cg: CompiledGraph, closed: bool) -> None:
        cg.adopt(CompiledGraph.from_atlas(self.atlas, closed=closed))
        self._patchers[name] = CompiledGraphPatcher(cg, closed=closed)
