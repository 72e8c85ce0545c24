"""Flat CSR lowering of the prediction graph (the compiled query core).

The object-level :class:`~repro.core.graph.PredictionGraph` is the
reference representation: nodes are ``(plane, side, cluster)`` tuples and
edges are frozen dataclasses, which is convenient to inspect but costly
to traverse — a cold query allocates tens of thousands of objects and
chases a dict per hop. :class:`CompiledGraph` lowers the same graph to a
struct-of-arrays form the predictor's array-native Dijkstra runs over:

* **Node interning.** Every distinct node is assigned a dense ``int`` id
  in first-appearance (emission) order. Per-node arrays ``node_plane``,
  ``node_side``, ``node_cluster`` and ``node_asn`` replace tuple fields;
  ``node_id(plane, side, cluster)`` resolves a tuple to its id via a
  packed-integer dict (``cluster << 2 | plane << 1 | side``).

* **Edge arrays.** Edges keep their global emission order as their ids.
  Parallel arrays hold ``e_src``/``e_dst`` (node ids), ``e_kind``,
  ``e_lat``/``e_loss``, and the precomputed per-edge ASN endpoints
  ``e_src_asn``/``e_dst_asn``. Two derived arrays pre-resolve the cost
  algebra so the search never touches :class:`EdgeKind` at pop time:
  ``e_op`` (0 = intra-like: inherit phase, exit cost accumulates;
  1 = late-exit: one pending hop, exit cost accumulates; 2 = sibling
  crossing: inherit phase, ordinary hop; 3 = inter-AS with a fixed
  phase) and ``e_phase`` (the phase for op 3: customer=1, peer=2,
  provider=3).

* **CSR adjacency.** ``rev_off``/``rev_lst`` index incoming edges per
  node (the backtracking successor lists) and ``fwd_off``/``fwd_lst``
  outgoing edges (for pop-time parent re-evaluation). Both are built by
  a stable counting sort over the emission order, so a node's incoming
  list enumerates exactly the edges — in exactly the order — that the
  object graph's ``reverse_adjacency`` would. That ordering is
  load-bearing: the search breaks exact cost ties by heap insertion
  order, and preserving it makes the compiled engine's output
  bit-for-bit identical to the legacy dict-based search.

Three builders produce a :class:`CompiledGraph`:

* :meth:`CompiledGraph.from_prediction_graph` lowers an already-built
  object graph by replaying its ``edge_log`` — the canonical lowering.
* :meth:`CompiledGraph.from_atlas` compiles straight from the atlas,
  skipping Edge/tuple object creation entirely (the predictor's fast
  path for cold queries). It mirrors ``PredictionGraph.build()`` step
  for step and shares its per-link classifier
  (:func:`~repro.core.graph.link_edge_specs`); the equivalence suite
  asserts the two builders produce identical arrays.
* :meth:`CompiledGraph.from_base_with_from_src` appends a client's
  FROM_SRC plane onto an already-compiled TO_DST base without redoing
  the base compilation. The emission order of ``from_atlas`` puts every
  FROM_SRC section strictly after the TO_DST sections, so copying the
  base arrays and continuing the compilation yields arrays identical to
  a full ``from_atlas`` with the same inputs — the runtime's
  incremental merge path for daily client traceroutes.

For multi-process serving (:mod:`repro.serve`), a compiled graph can be
exported once to a ``multiprocessing.shared_memory`` block
(:meth:`CompiledGraph.to_shared`) and mapped **zero-copy** by any number
of shard workers (:meth:`CompiledGraph.from_shared`): the array fields
become read-only numpy views over the shared buffer, so N workers serve
from one physical copy of the CSR without recompiling or deserializing.
The views are copy-on-write at the semantic level: the first in-place
mutation (a daily delta patch, or a FROM_SRC merge copying the base)
materializes plain Python lists via :meth:`ensure_mutable` and detaches
the mapping — after which the worker's graph behaves exactly like a
locally compiled one. Every consumer of the arrays (the scalar search
loops, the vectorized kernel, batch extraction) indexes lists and numpy
views identically, so serving from a view is bit-for-bit equivalent to
serving from lists.

Every compiled graph carries a process-unique ``version`` (see
:mod:`repro.core.versioning`), refreshed whenever the arrays are
mutated in place; search caches key on it instead of ``id(graph)``.

ASNs and cluster ids must be non-negative: the search encodes "no next
AS yet" as ``-1`` in its state arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atlas.model import Atlas, LinkRecord
from repro.core.graph import (
    DOWN,
    FROM_SRC,
    TO_DST,
    UP,
    EdgeKind,
    PredictionGraph,
    link_edge_specs,
)
from repro.core.versioning import next_graph_version

#: edge-op codes (see module docstring)
OP_INTRA = 0
OP_LATE_EXIT = 1
OP_SIBLING = 2
OP_INTER = 3

_KIND_TO_OP = {
    EdgeKind.INTRA: OP_INTRA,
    EdgeKind.SELF_DOWN: OP_INTRA,
    EdgeKind.PLANE_CROSS: OP_INTRA,
    EdgeKind.LATE_EXIT: OP_LATE_EXIT,
    EdgeKind.SIBLING: OP_SIBLING,
    EdgeKind.DOWN_EDGE: OP_INTER,
    EdgeKind.PEER: OP_INTER,
    EdgeKind.UP_EDGE: OP_INTER,
}

_KIND_TO_PHASE = {
    EdgeKind.DOWN_EDGE: 1,
    EdgeKind.PEER: 2,
    EdgeKind.UP_EDGE: 3,
}


@dataclass
class CompiledGraph:
    """CSR form of a prediction graph; see the module docstring."""

    atlas: Atlas
    extra_cluster_as: dict[int, int]
    has_from_src: bool

    # node arrays (indexed by dense node id)
    node_plane: list[int] = field(default_factory=list, repr=False)
    node_side: list[int] = field(default_factory=list, repr=False)
    node_cluster: list[int] = field(default_factory=list, repr=False)
    node_asn: list[int] = field(default_factory=list, repr=False)

    # edge arrays (indexed by emission-order edge id)
    e_src: list[int] = field(default_factory=list, repr=False)
    e_dst: list[int] = field(default_factory=list, repr=False)
    e_kind: list[int] = field(default_factory=list, repr=False)
    e_lat: list[float] = field(default_factory=list, repr=False)
    e_loss: list[float] = field(default_factory=list, repr=False)
    e_src_asn: list[int] = field(default_factory=list, repr=False)
    e_dst_asn: list[int] = field(default_factory=list, repr=False)
    e_op: list[int] = field(default_factory=list, repr=False)
    e_phase: list[int] = field(default_factory=list, repr=False)

    # CSR offsets + edge-id lists
    rev_off: list[int] = field(default_factory=list, repr=False)
    rev_lst: list[int] = field(default_factory=list, repr=False)
    fwd_off: list[int] = field(default_factory=list, repr=False)
    fwd_lst: list[int] = field(default_factory=list, repr=False)

    #: packed (cluster << 2 | plane << 1 | side) -> dense node id
    _id_of: dict[int, int] = field(default_factory=dict, repr=False)

    #: process-unique version; refreshed on every in-place mutation so
    #: version-keyed search caches can never alias a stale graph
    version: int = field(default_factory=next_graph_version)

    #: lazily-built numpy mirrors of the hot arrays, keyed by version
    #: (see :meth:`np_views`); invalidated automatically on mutation
    _np_views: tuple | None = field(default=None, repr=False)

    #: kernel-facing views for the vectorized frontier search
    #: (:mod:`repro.core.search`): numpy edge mirrors, the op-split
    #: reverse CSR, packed membership keys. Cached as
    #: ``((version, tuple_threshold), KernelViews)`` and rebuilt lazily
    #: after any in-place mutation, like :attr:`_np_views`.
    _kernel_views: tuple | None = field(default=None, repr=False)

    #: the SharedMemory mapping backing the array views when this graph
    #: was built by :meth:`from_shared`; held so the buffer outlives the
    #: views, released by :meth:`ensure_mutable` / :meth:`release_shared`
    _shm: object = field(default=None, repr=False)

    #: lazily-built :class:`~repro.core.search.SearchStatePool` (see
    #: :meth:`search_pool`): the spare per-search state-array bundle sized
    #: to this graph, shared by every predictor searching it
    _search_pool: object = field(default=None, repr=False)

    # -- queries -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_cluster)

    @property
    def n_edges(self) -> int:
        return len(self.e_src)

    def node_id(self, plane: int, side: int, cluster: int) -> int | None:
        """Dense id of ``(plane, side, cluster)``, or None if absent."""
        return self._id_of.get((cluster << 2) | (plane << 1) | side)

    def asn_of(self, cluster: int) -> int | None:
        asn = self.atlas.cluster_to_as.get(cluster)
        if asn is None:
            asn = self.extra_cluster_as.get(cluster)
        return asn

    def arrays(self) -> dict[str, list]:
        """All array fields, for builder-identity assertions in tests."""
        return {
            "node_plane": self.node_plane,
            "node_side": self.node_side,
            "node_cluster": self.node_cluster,
            "node_asn": self.node_asn,
            "e_src": self.e_src,
            "e_dst": self.e_dst,
            "e_kind": self.e_kind,
            "e_lat": self.e_lat,
            "e_loss": self.e_loss,
            "e_src_asn": self.e_src_asn,
            "e_dst_asn": self.e_dst_asn,
            "e_op": self.e_op,
            "e_phase": self.e_phase,
            "rev_off": self.rev_off,
            "rev_lst": self.rev_lst,
            "fwd_off": self.fwd_off,
            "fwd_lst": self.fwd_lst,
        }

    def np_views(self):
        """Numpy mirrors of the extraction-path arrays, cached per version.

        Returns ``(e_dst, e_lat, e_loss, node_cluster, node_asn,
        node_plane)`` as numpy arrays. The cache is keyed on
        :attr:`version`, so in-place patching (which calls
        :meth:`touch`) invalidates it automatically.
        """
        import numpy as np

        cached = self._np_views
        if cached is not None and cached[0] == self.version:
            return cached[1]
        # asarray: list fields copy into fresh arrays as before; shared
        # memory views (already int64/float64) pass through zero-copy
        views = (
            np.asarray(self.e_dst, dtype=np.int64),
            np.asarray(self.e_lat, dtype=np.float64),
            np.asarray(self.e_loss, dtype=np.float64),
            np.asarray(self.node_cluster, dtype=np.int64),
            np.asarray(self.node_asn, dtype=np.int64),
            np.asarray(self.node_plane, dtype=np.int64),
        )
        self._np_views = (self.version, views)
        return views

    def search_pool(self):
        """The per-graph :class:`~repro.core.search.SearchStatePool`.

        One spare search-state array bundle per graph, shared by every
        predictor over it (searches are single-threaded per process, so
        sharing the spare is safe). Sized lazily to
        the current node count; a renumbering day or recompile that
        changes ``n_nodes`` drops a stale-sized spare on next access.
        """
        pool = self._search_pool
        if pool is None:
            from repro.core.search import SearchStatePool

            pool = self._search_pool = SearchStatePool(self.n_nodes)
        else:
            pool.resize(self.n_nodes)
        return pool

    # -- mutation ----------------------------------------------------------

    def touch(self) -> int:
        """Record an in-place mutation: bump the version, drop np views."""
        self.version = next_graph_version()
        self._np_views = None
        self._kernel_views = None
        return self.version

    def ensure_mutable(self) -> None:
        """Materialize numpy-view arrays (shared-memory mappings) into
        plain Python lists, in place.

        A graph mapped by :meth:`from_shared` serves queries straight
        off its read-only views; the first in-place mutation (a delta
        patch, an :meth:`adopt`) must own ordinary lists. ``tolist()``
        yields plain ints/floats, so a materialized graph is
        indistinguishable from a locally compiled one. No-op for
        list-backed graphs.
        """
        if isinstance(self.e_src, list) and isinstance(self.node_plane, list):
            return
        for name, values in self.arrays().items():
            if not isinstance(values, list):
                setattr(self, name, values.tolist())
        self._np_views = None
        self._kernel_views = None
        self.release_shared()

    def release_shared(self) -> None:
        """Close this process's mapping of the shared-memory block (the
        exporting owner still controls the block's lifetime)."""
        shm = self._shm
        if shm is not None:
            self._shm = None
            shm.close()

    def adopt(self, other: "CompiledGraph") -> None:
        """Replace this graph's contents with ``other``'s, in place.

        Used when the runtime must fall back to a full recompile (e.g. a
        monthly refresh): predictors keep their object reference while
        the arrays are swapped underneath, and the version bump retires
        any cached search keyed on the old state.
        """
        self.release_shared()
        self.atlas = other.atlas
        self.extra_cluster_as = other.extra_cluster_as
        self.has_from_src = other.has_from_src
        for name in self.arrays():
            setattr(self, name, getattr(other, name))
        self._id_of = other._id_of
        self.touch()

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_prediction_graph(cls, graph: PredictionGraph) -> "CompiledGraph":
        """Lower a built object graph by replaying its emission log."""
        out = cls(
            atlas=graph.atlas,
            extra_cluster_as=graph.extra_cluster_as,
            has_from_src=graph.has_from_src,
        )
        intern = out._intern
        for edge in graph.edge_log:
            sp, ss, sc = edge.src
            dp, ds, dc = edge.dst
            out._append_edge(
                intern(sp, ss, sc, edge.src_asn),
                intern(dp, ds, dc, edge.dst_asn),
                edge.kind,
                edge.latency_ms,
                edge.loss,
                edge.src_asn,
                edge.dst_asn,
            )
        out._index()
        return out

    @classmethod
    def from_atlas(
        cls,
        atlas: Atlas,
        from_src_links: dict[tuple[int, int], LinkRecord] | None = None,
        extra_cluster_as: dict[int, int] | None = None,
        closed: bool = True,
    ) -> "CompiledGraph":
        """Compile straight from the atlas, without building the object
        graph. Mirrors ``PredictionGraph.build()`` exactly — same link
        iteration order, same per-link edge specs, same self-edge and
        plane-crossing sets — so the arrays match the canonical lowering.
        """
        out = cls(
            atlas=atlas,
            extra_cluster_as=extra_cluster_as or {},
            has_from_src=bool(from_src_links),
        )
        links = atlas.links
        to_dst_links = (
            PredictionGraph._closed_adjacency(links) if closed else links
        )
        out._compile_link_plane(TO_DST, to_dst_links)
        clusters_to_dst = {c for (a, b) in links for c in (a, b)}
        out._compile_self_edges(TO_DST, clusters_to_dst)
        if from_src_links:
            out._compile_link_plane(FROM_SRC, from_src_links)
            clusters_from_src = {
                c for (a, b) in from_src_links for c in (a, b)
            }
            out._compile_self_edges(FROM_SRC, clusters_from_src)
            out._compile_plane_crossings(clusters_from_src & clusters_to_dst)
        out._index()
        return out

    @classmethod
    def from_base_with_from_src(
        cls,
        base: "CompiledGraph",
        from_src_links: dict[tuple[int, int], LinkRecord],
        extra_cluster_as: dict[int, int] | None = None,
    ) -> "CompiledGraph":
        """Merge a client FROM_SRC plane onto a compiled TO_DST base.

        ``base`` must be a directed (``closed=False``) graph compiled
        without a FROM_SRC plane. Because ``from_atlas`` emits every
        FROM_SRC section strictly after the TO_DST sections, copying the
        base arrays and continuing the compilation reproduces
        ``from_atlas(atlas, from_src_links, extra_cluster_as,
        closed=False)`` bit for bit — without re-classifying a single
        atlas link.

        The one case where the composition would diverge is an
        ``extra_cluster_as`` entry that names a cluster the *atlas
        links* reference but ``cluster_to_as`` cannot map (the base
        skipped those links; a full build would keep them). That is
        detected and handed to the full builder.
        """
        extra = extra_cluster_as or {}
        atlas = base.atlas
        if extra and not base.has_from_src:
            c2a = atlas.cluster_to_as
            for link in atlas.links:
                for c in link:
                    if c in extra and c not in c2a:
                        return cls.from_atlas(
                            atlas,
                            from_src_links=from_src_links,
                            extra_cluster_as=extra,
                            closed=False,
                        )
        if base.has_from_src or not from_src_links:
            # No incremental path: the base already diverged (or there is
            # nothing to merge); compile canonically.
            return cls.from_atlas(
                atlas,
                from_src_links=from_src_links,
                extra_cluster_as=extra,
                closed=False,
            )
        out = cls(
            atlas=atlas,
            extra_cluster_as=extra,
            has_from_src=True,
            node_plane=_mutable_copy(base.node_plane),
            node_side=_mutable_copy(base.node_side),
            node_cluster=_mutable_copy(base.node_cluster),
            node_asn=_mutable_copy(base.node_asn),
            e_src=_mutable_copy(base.e_src),
            e_dst=_mutable_copy(base.e_dst),
            e_kind=_mutable_copy(base.e_kind),
            e_lat=_mutable_copy(base.e_lat),
            e_loss=_mutable_copy(base.e_loss),
            e_src_asn=_mutable_copy(base.e_src_asn),
            e_dst_asn=_mutable_copy(base.e_dst_asn),
            e_op=_mutable_copy(base.e_op),
            e_phase=_mutable_copy(base.e_phase),
        )
        out._id_of = dict(base._id_of)
        out._compile_link_plane(FROM_SRC, from_src_links)
        clusters_from_src = {c for (a, b) in from_src_links for c in (a, b)}
        out._compile_self_edges(FROM_SRC, clusters_from_src)
        clusters_to_dst = {c for (a, b) in atlas.links for c in (a, b)}
        out._compile_plane_crossings(clusters_from_src & clusters_to_dst)
        out._index_fast()
        return out

    # -- shared-memory export (multi-process serving) ----------------------

    #: float-valued array fields; every other array field is int64
    _FLOAT_FIELDS = ("e_lat", "e_loss")

    def to_shared(self, name: str | None = None) -> "SharedGraphHandle":
        """Export the arrays into one ``multiprocessing.shared_memory``
        block, so shard workers can map the graph with
        :meth:`from_shared` instead of recompiling it.

        Returns a :class:`SharedGraphHandle`; the caller owns the block
        and must eventually :meth:`~SharedGraphHandle.unlink` it. The
        exported snapshot is decoupled from this graph — later in-place
        patches here do not move the shared bytes (workers converge
        through the delta broadcast instead).
        """
        import numpy as np
        from multiprocessing import shared_memory

        packed: list[tuple[int, object]] = []
        fields: dict[str, tuple[str, int, int]] = {}
        offset = 0
        for fname, values in self.arrays().items():
            dtype = np.float64 if fname in self._FLOAT_FIELDS else np.int64
            arr = np.asarray(values, dtype=dtype)
            fields[fname] = (arr.dtype.str, offset, len(arr))
            packed.append((offset, arr))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, offset), name=name
        )
        for off, arr in packed:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            dst[:] = arr
        meta = {
            "name": shm.name,
            "has_from_src": self.has_from_src,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "fields": fields,
        }
        return SharedGraphHandle(shm=shm, meta=meta)

    @classmethod
    def from_shared(
        cls,
        meta: dict,
        atlas: Atlas,
        extra_cluster_as: dict[int, int] | None = None,
    ) -> "CompiledGraph":
        """Map an exported graph zero-copy from shared memory.

        ``atlas`` must be *the same logical atlas* the exporter compiled
        from (same ``links`` dict order — e.g. decoded from the same
        encoded payload), since the arrays embed its emission order.
        Array fields become read-only numpy views over the shared
        buffer; the first mutation goes through :meth:`ensure_mutable`.
        """
        import numpy as np
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=meta["name"])
        out = cls(
            atlas=atlas,
            extra_cluster_as=extra_cluster_as or {},
            has_from_src=meta["has_from_src"],
        )
        for fname, (dtype, offset, count) in meta["fields"].items():
            view = np.ndarray(
                (count,), dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
            view.flags.writeable = False
            setattr(out, fname, view)
        # _id_of rebuilds from the node arrays: interning assigned dense
        # ids in emission order, so enumeration reproduces it exactly.
        out._id_of = {
            (c << 2) | (p << 1) | s: i
            for i, (p, s, c) in enumerate(
                zip(
                    out.node_plane.tolist(),
                    out.node_side.tolist(),
                    out.node_cluster.tolist(),
                )
            )
        }
        out._shm = shm
        return out

    # -- construction internals --------------------------------------------

    def _intern(self, plane: int, side: int, cluster: int, asn: int) -> int:
        key = (cluster << 2) | (plane << 1) | side
        nid = self._id_of.get(key)
        if nid is None:
            nid = len(self.node_cluster)
            self._id_of[key] = nid
            self.node_plane.append(plane)
            self.node_side.append(side)
            self.node_cluster.append(cluster)
            self.node_asn.append(asn)
        return nid

    def _append_edge(
        self,
        src_id: int,
        dst_id: int,
        kind: EdgeKind,
        latency_ms: float,
        loss: float,
        src_asn: int,
        dst_asn: int,
    ) -> None:
        self.e_src.append(src_id)
        self.e_dst.append(dst_id)
        self.e_kind.append(int(kind))
        self.e_lat.append(latency_ms)
        self.e_loss.append(loss)
        self.e_src_asn.append(src_asn)
        self.e_dst_asn.append(dst_asn)
        self.e_op.append(_KIND_TO_OP[kind])
        self.e_phase.append(_KIND_TO_PHASE.get(kind, 0))

    def _compile_link_plane(
        self, plane: int, links: dict[tuple[int, int], LinkRecord]
    ) -> None:
        atlas = self.atlas
        c2a = atlas.cluster_to_as
        extra = self.extra_cluster_as
        rels = atlas.relationship_codes
        late_exit = atlas.late_exit_pairs
        loss_map = atlas.link_loss
        intern = self._intern
        for link, record in links.items():
            ci, cj = link
            as_i = c2a.get(ci)
            if as_i is None:
                as_i = extra.get(ci)
                if as_i is None:
                    continue
            as_j = c2a.get(cj)
            if as_j is None:
                as_j = extra.get(cj)
                if as_j is None:
                    continue
            latency = record.latency_ms
            loss = loss_map.get(link, 0.0)
            same_as = as_i == as_j
            specs = link_edge_specs(
                same_as,
                None if same_as else rels.get((as_i, as_j)),
                not same_as and frozenset((as_i, as_j)) in late_exit,
            )
            for side_i, side_j, kind in specs:
                self._append_edge(
                    intern(plane, side_i, ci, as_i),
                    intern(plane, side_j, cj, as_j),
                    kind,
                    latency,
                    loss,
                    as_i,
                    as_j,
                )

    def _compile_self_edges(self, plane: int, clusters: set[int]) -> None:
        for cluster in clusters:
            asn = self.asn_of(cluster)
            if asn is None:
                continue
            self._append_edge(
                self._intern(plane, UP, cluster, asn),
                self._intern(plane, DOWN, cluster, asn),
                EdgeKind.SELF_DOWN,
                0.0,
                0.0,
                asn,
                asn,
            )

    def _compile_plane_crossings(self, shared_clusters: set[int]) -> None:
        for cluster in shared_clusters:
            asn = self.asn_of(cluster)
            if asn is None:
                continue
            for side in (UP, DOWN):
                self._append_edge(
                    self._intern(FROM_SRC, side, cluster, asn),
                    self._intern(TO_DST, side, cluster, asn),
                    EdgeKind.PLANE_CROSS,
                    0.0,
                    0.0,
                    asn,
                    asn,
                )

    def _index(self) -> None:
        """Build both CSR indexes with a stable counting sort, so each
        node's edge list preserves global emission order."""
        n = len(self.node_cluster)
        self.rev_off, self.rev_lst = _csr(n, self.e_dst)
        self.fwd_off, self.fwd_lst = _csr(n, self.e_src)

    def _index_fast(self) -> None:
        """Numpy-vectorized :meth:`_index` (bit-identical output via
        :func:`csr_numpy`). Used on hot incremental paths (runtime
        merges and patches); the pure-Python ``_csr`` stays the spec."""
        import numpy as np

        n = len(self.node_cluster)
        self.rev_off, self.rev_lst = csr_numpy(
            n, np.array(self.e_dst, dtype=np.int64)
        )
        self.fwd_off, self.fwd_lst = csr_numpy(
            n, np.array(self.e_src, dtype=np.int64)
        )


@dataclass
class SharedGraphHandle:
    """Owner-side handle for a graph exported to shared memory.

    ``meta`` is the (picklable) mapping recipe workers feed to
    :meth:`CompiledGraph.from_shared`. The exporter keeps the handle
    alive for the serving lifetime, then :meth:`unlink`\\ s the block.
    """

    shm: object
    meta: dict

    @property
    def nbytes(self) -> int:
        return self.shm.size

    def close(self) -> None:
        self.shm.close()

    def unlink(self) -> None:
        """Destroy the shared block (call once, from the owner, after
        every worker has detached or exited)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:  # already unlinked
            pass


def _mutable_copy(values) -> list:
    """A plain-list copy of an array field (list or numpy view)."""
    return values.tolist() if hasattr(values, "tolist") else values.copy()


def _csr(n_nodes: int, bucket_of: list[int]) -> tuple[list[int], list[int]]:
    counts = [0] * (n_nodes + 1)
    for b in bucket_of:
        counts[b + 1] += 1
    for i in range(1, n_nodes + 1):
        counts[i] += counts[i - 1]
    pos = counts[:-1]
    lst = [0] * len(bucket_of)
    for ei, b in enumerate(bucket_of):
        lst[pos[b]] = ei
        pos[b] += 1
    return counts, lst


def csr_numpy(n_nodes: int, bucket_of) -> tuple[list[int], list[int]]:
    """Vectorized equivalent of :func:`_csr` (the spec): a stable
    argsort groups edge ids per bucket in emission order, exactly like
    the counting sort. ``bucket_of`` must be an int64 numpy array."""
    import numpy as np

    counts = np.bincount(bucket_of, minlength=n_nodes)
    off = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    lst = np.argsort(bucket_of, kind="stable")
    return off.tolist(), lst.tolist()
