"""In-place delta patching of a compiled graph's CSR arrays.

A daily :class:`~repro.atlas.delta.AtlasDelta` touches a small slice of
the atlas — some links appear or vanish, many links change latency or
loss, tuples churn — yet the seed design recompiled every
:class:`~repro.core.compiled.CompiledGraph` from scratch after every
update. :class:`CompiledGraphPatcher` instead edits the arrays in place
so that after a patch they are **bit-for-bit identical** to what
``CompiledGraph.from_atlas`` would produce for the post-delta atlas
(the equivalence suite asserts exactly that, over multi-day chains).

The patch exploits the compiled emission-order contract:

* The edge array is a sequence of per-link spans in compiled link
  order: the atlas ``links`` dict order (the **main** section),
  followed — for closed graphs — by the synthesized reverse links in
  forward-link order, followed by the self-edge block in cluster-set
  iteration order. ``apply_delta_inplace`` preserves survivors'
  relative dict order and appends new links at the tail, so the main
  section's edit script is fully determined by the delta: span
  deletions at known positions, appends at the end, and in-place value
  writes — all resolved through vectorized position arithmetic, no
  per-link walk. The (much smaller) synth and self sections go through
  a generic two-pointer splice.
* **Value-only days** (latency/loss changes, tuple churn) rewrite
  floats inside existing spans; node ids, edge ids and both CSR
  indexes are untouched.
* **Structural days** splice the edge arrays from large copied runs
  plus freshly classified edges for added links (new nodes intern at
  the tail), then rebuild both CSR indexes with the vectorized
  equivalent of the compiler's counting sort (``csr_numpy``). When an
  edit changes the first-appearance order of nodes (or orphans one) —
  on real days it always does — a vectorized first-appearance scan
  detects it and the nodes renumber before the rebuild.

Monthly refreshes replace the relationship/clustering datasets that
edge classification depends on, so the runtime recompiles on those
boundaries instead of patching — mirroring the paper's own
daily-delta / monthly-full-refresh split.

The patcher assumes the atlas is mutated only through
``apply_delta_inplace`` between patches; cheap structural invariants
(section lengths, tail order, spot-checked survivor alignment, full
splices of the synth/self sections) raise
:class:`PatchConsistencyError` when the assumption breaks, and the
runtime falls back to a full recompile for that day.
"""

from __future__ import annotations

import numpy as np

from repro.atlas.delta import AtlasDelta
from repro.core.compiled import (
    _KIND_TO_OP,
    _KIND_TO_PHASE,
    CompiledGraph,
    csr_numpy,
)
from repro.core.graph import DOWN, TO_DST, UP, EdgeKind, link_edge_specs

_SELF_KIND = int(EdgeKind.SELF_DOWN)
_SELF_OP = _KIND_TO_OP[EdgeKind.SELF_DOWN]
_SELF_PHASE = _KIND_TO_PHASE.get(EdgeKind.SELF_DOWN, 0)


class DeltaContext:
    """Per-delta work shared by every base graph of one runtime.

    Both the directed and the closed graph share the atlas ``links``
    dict, the self-edge cluster order, and the changed-value map — so
    the runtime computes them once per update instead of per graph.
    """

    __slots__ = ("new_main", "new_selfe", "changed")

    def __init__(self, new_main, new_selfe, changed):
        self.new_main = new_main
        self.new_selfe = new_selfe
        self.changed = changed


def shared_delta_context(atlas, delta: AtlasDelta, asn_of) -> DeltaContext:
    """Build the :class:`DeltaContext` for one applied delta."""
    links = atlas.links
    new_main = list(links)
    clusters = {c for (a, b) in links for c in (a, b)}
    new_selfe = [c for c in clusters if asn_of(c) is not None]
    changed: dict[tuple[int, int], tuple[float | None, float | None]] = {}
    for link, rec in delta.links_updated.items():
        changed[link] = (rec.latency_ms, None)
    for link in delta.loss_removed:
        pair = changed.get(link)
        changed[link] = (pair[0] if pair else None, 0.0)
    for link, loss in delta.loss_updated.items():
        pair = changed.get(link)
        changed[link] = (pair[0] if pair else None, loss)
    return DeltaContext(new_main, new_selfe, changed)


class PatchConsistencyError(RuntimeError):
    """The cached compiled-order bookkeeping disagrees with the atlas.

    Raised when the splice cannot reconcile the old and new compiled
    link orders (survivors reordered — something outside the delta
    mutated the atlas, or a set resize shuffled the self-edge order).
    The runtime responds by falling back to a full recompile, which
    re-attaches the patcher.
    """


class CompiledGraphPatcher:
    """Applies daily deltas to one base compiled graph, in place.

    Only base graphs (no FROM_SRC plane) are patchable; client-merged
    graphs are cheaply re-derived from their patched base instead
    (:meth:`CompiledGraph.from_base_with_from_src`).
    """

    def __init__(self, cg: CompiledGraph, closed: bool) -> None:
        if cg.has_from_src:
            raise ValueError("patch base graphs; re-merge FROM_SRC views instead")
        self.cg = cg
        self.closed = closed
        self._attach()

    # -- bookkeeping -------------------------------------------------------

    def _attach(self) -> None:
        """(Re)build the compiled-order bookkeeping from the current atlas."""
        links = self.cg.atlas.links
        self._main = list(links)
        self._main_pos = dict(zip(self._main, range(len(self._main))))
        self._nedges_main = np.array(
            [self._count_edges(l) for l in self._main], dtype=np.int64
        )
        self._starts_main = np.concatenate(
            ([0], np.cumsum(self._nedges_main, dtype=np.int64))
        )
        self._synth = self._synth_links(links) if self.closed else []
        self._nedges_synth = [self._count_edges(l) for l in self._synth]
        self._selfe = self._emitted_self_clusters(links)
        expected = (
            int(self._starts_main[-1])
            + sum(self._nedges_synth)
            + len(self._selfe)
        )
        if expected != self.cg.n_edges:
            raise PatchConsistencyError(
                f"compiled order accounts for {expected} edges, "
                f"graph holds {self.cg.n_edges}"
            )

    @staticmethod
    def _synth_links(links: dict) -> list[tuple[int, int]]:
        """Synthesized reverse links, in ``_closed_adjacency`` emission
        order (forward-link order; each reverse has a unique source)."""
        out = []
        for (i, j) in links:
            if (j, i) not in links:
                out.append((j, i))
        return out

    def _asn_of(self, cluster: int) -> int | None:
        asn = self.cg.atlas.cluster_to_as.get(cluster)
        if asn is None:
            asn = self.cg.extra_cluster_as.get(cluster)
        return asn

    def _emitted_self_clusters(self, links: dict) -> list[int]:
        # Build the cluster set with the same expression (over the same
        # dict) as the compiler, so the set iterates identically.
        clusters = {c for (a, b) in links for c in (a, b)}
        return [c for c in clusters if self._asn_of(c) is not None]

    def _count_edges(self, link: tuple[int, int]) -> int:
        """Edge count the compiler would emit for ``link`` (0 if skipped)."""
        spec = self._classify(link)
        return 0 if spec is None else len(spec[2])

    def _classify(self, link: tuple[int, int]):
        """``(as_i, as_j, specs)`` for a link, or None when skipped."""
        atlas = self.cg.atlas
        c2a = atlas.cluster_to_as
        extra = self.cg.extra_cluster_as
        ci, cj = link
        as_i = c2a.get(ci)
        if as_i is None:
            as_i = extra.get(ci)
            if as_i is None:
                return None
        as_j = c2a.get(cj)
        if as_j is None:
            as_j = extra.get(cj)
            if as_j is None:
                return None
        same_as = as_i == as_j
        specs = link_edge_specs(
            same_as,
            None if same_as else atlas.relationship_codes.get((as_i, as_j)),
            not same_as and frozenset((as_i, as_j)) in atlas.late_exit_pairs,
        )
        return as_i, as_j, specs

    # -- applying a delta --------------------------------------------------

    def apply(self, delta: AtlasDelta, context: DeltaContext | None = None) -> dict:
        """Patch the arrays for an already-applied (in-place) delta.

        Call after ``apply_delta_inplace`` has mutated ``cg.atlas``.
        ``context`` (see :func:`shared_delta_context`) carries the
        per-delta work both base graphs share, so the runtime computes
        it once. Returns a stats dict (patch mode, rewritten value
        spans, CSR mode: ``kept`` or ``rebuilt``).
        """
        if delta.monthly_refresh:
            raise PatchConsistencyError(
                "monthly refresh changes classification inputs; recompile"
            )
        cg = self.cg
        # Shared-memory mapped graphs (repro.serve workers) serve off
        # read-only views; the first patch materializes plain lists.
        cg.ensure_mutable()
        links = cg.atlas.links
        if context is None or cg.extra_cluster_as:
            context = shared_delta_context(cg.atlas, delta, self._asn_of)
        new_main = context.new_main
        new_selfe = context.new_selfe
        if self.closed:
            new_synth = self._synth_links(links)
            # A synthesized reverse mirrors its forward link's latency;
            # augment a copy of the shared changed map with the mirrors.
            changed = dict(context.changed)
            for link, rec in delta.links_updated.items():
                reverse = (link[1], link[0])
                if reverse not in links:
                    changed[reverse] = (rec.latency_ms, None)
        else:
            new_synth = []
            changed = context.changed

        structural = (
            len(new_main) != len(self._main)
            or delta.links_removed
            or new_synth != self._synth
            or new_selfe != self._selfe
            or any(l not in self._main_pos for l in delta.links_updated)
        )
        if not structural:
            n_values = self._patch_values(changed)
            cached_views = cg._kernel_views
            cg.touch()
            if cached_views is not None:
                # values moved but no structure: refresh the kernel
                # views in place instead of an O(E) rebuild next search
                from repro.core.search import refresh_views_after_values

                refresh_views_after_values(cg, cached_views)
            return {"mode": "values", "value_spans": n_values, "csr": "kept"}
        stats = self._patch_structural(
            delta, new_main, new_synth, new_selfe, changed
        )
        cg.touch()
        return stats

    # -- value application (vectorized over the main section) ---------------

    def _collect_main_values(self, changed: dict, skip: set | None):
        """Positions + values of changed surviving main links, split by
        field. Returns ``(lat_pos, lat_val, loss_pos, loss_val)`` lists
        of (main position, value)."""
        main_pos_get = self._main_pos.get
        lat_pos: list[int] = []
        lat_val: list[float] = []
        loss_pos: list[int] = []
        loss_val: list[float] = []
        for link, (lat, loss) in changed.items():
            pos = main_pos_get(link)
            if pos is None or (skip is not None and link in skip):
                continue
            if lat is not None:
                lat_pos.append(pos)
                lat_val.append(lat)
            if loss is not None:
                loss_pos.append(pos)
                loss_val.append(loss)
        return lat_pos, lat_val, loss_pos, loss_val

    @staticmethod
    def _span_ids(offs, counts) -> np.ndarray:
        """Edge ids covered by aligned ``(span start, span length)``."""
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        starts = np.repeat(np.asarray(offs, dtype=np.int64), counts)
        group = np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        return starts + (np.arange(total, dtype=np.int64) - group)

    @classmethod
    def _write_spans(cls, target: list, offs, counts, values) -> list:
        """Scatter per-span values into ``target`` via a numpy mirror.

        ``offs``/``counts``/``values`` are aligned arrays (span start,
        span length, value). Returns the new list.
        """
        idx = cls._span_ids(offs, counts)
        if len(idx) == 0:
            return target
        mirror = np.array(target, dtype=np.float64)
        mirror[idx] = np.repeat(
            np.asarray(values, dtype=np.float64),
            np.asarray(counts, dtype=np.int64),
        )
        return mirror.tolist()

    def _patch_values(self, changed: dict) -> int:
        """Rewrite latency/loss floats inside existing spans; no CSR
        work. Returns the number of rewritten spans."""
        if not changed:
            return 0
        cg = self.cg
        lat_pos, lat_val, loss_pos, loss_val = self._collect_main_values(
            changed, skip=None
        )
        starts = self._starts_main
        nedges = self._nedges_main
        touched = 0
        if lat_pos:
            pos = np.array(lat_pos, dtype=np.int64)
            cg.e_lat = self._write_spans(
                cg.e_lat, starts[pos], nedges[pos], lat_val
            )
            touched += len(lat_pos)
        if loss_pos:
            pos = np.array(loss_pos, dtype=np.int64)
            cg.e_loss = self._write_spans(
                cg.e_loss, starts[pos], nedges[pos], loss_val
            )
            touched += len(loss_pos)
        # Synth spans (closed graphs): small section, scalar writes.
        if self._synth:
            changed_get = changed.get
            e_lat = cg.e_lat
            e_loss = cg.e_loss
            off = int(starts[-1])
            for link, n in zip(self._synth, self._nedges_synth):
                if n:
                    pair = changed_get(link)
                    if pair is not None:
                        lat, loss = pair
                        for k in range(off, off + n):
                            if lat is not None:
                                e_lat[k] = lat
                            if loss is not None:
                                e_loss[k] = loss
                        touched += 1
                off += n
        return touched

    # -- structural splice ---------------------------------------------------

    def _patch_structural(
        self,
        delta: AtlasDelta,
        new_main: list,
        new_synth: list,
        new_selfe: list,
        changed: dict,
    ) -> dict:
        cg = self.cg
        atlas = cg.atlas
        links = atlas.links
        loss_map = atlas.link_loss

        old_arrays = (
            cg.e_src,
            cg.e_dst,
            cg.e_kind,
            cg.e_lat,
            cg.e_loss,
            cg.e_src_asn,
            cg.e_dst_asn,
            cg.e_op,
            cg.e_phase,
        )
        staged = tuple([] for _ in range(9))
        # (new offset, span length, latency, loss) per changed survivor
        # of the synth section, written once the arrays are final
        value_writes: list[tuple[int, int, float | None, float | None]] = []

        s_src, s_dst = staged[0], staged[1]

        def emit(link: tuple[int, int], latency: float, loss: float) -> int:
            spec = self._classify(link)
            if spec is None:
                return 0
            as_i, as_j, specs = spec
            ci, cj = link
            intern = cg._intern
            kind_op = _KIND_TO_OP
            kind_phase = _KIND_TO_PHASE
            for side_i, side_j, kind in specs:
                src = intern(TO_DST, side_i, ci, as_i)
                dst = intern(TO_DST, side_j, cj, as_j)
                s_src.append(src)
                s_dst.append(dst)
                staged[2].append(int(kind))
                staged[3].append(latency)
                staged[4].append(loss)
                staged[5].append(as_i)
                staged[6].append(as_j)
                staged[7].append(kind_op[kind])
                staged[8].append(kind_phase.get(kind, 0))
            return len(specs)

        # ---- main section: vectorized splice ----
        # apply_delta_inplace guarantees survivors keep their relative
        # dict order and new links append at the tail; verify the
        # contract cheaply before relying on it.
        main_pos = self._main_pos
        old_main = self._main
        n_old = len(old_main)
        nedges = self._nedges_main
        starts = self._starts_main

        removed_links = [l for l in delta.links_removed if l in main_pos]
        added_links = [l for l in delta.links_updated if l not in main_pos]
        if len(new_main) != n_old - len(removed_links) + len(added_links):
            raise PatchConsistencyError("main section length drift")
        if added_links and new_main[-len(added_links) :] != added_links:
            raise PatchConsistencyError("appended links out of order")
        removed_set = set(removed_links)
        removed_pos = np.array(
            sorted(main_pos[l] for l in removed_links), dtype=np.int64
        )
        if n_old:
            step = max(1, n_old // 8)
            for old_idx in range(0, n_old, step):
                link = old_main[old_idx]
                if link in removed_set:
                    continue
                new_idx = old_idx - int(np.searchsorted(removed_pos, old_idx))
                if new_main[new_idx] != link:
                    raise PatchConsistencyError(
                        f"survivor {link!r} misaligned in main section"
                    )

        prev = 0
        for pos in removed_pos.tolist() + [n_old]:
            lo = int(starts[prev])
            hi = int(starts[pos])
            if hi > lo:
                for old_list, new_list in zip(old_arrays, staged):
                    new_list.extend(old_list[lo:hi])
            prev = pos + 1

        added_nedges = [
            emit(link, links[link].latency_ms, loss_map.get(link, 0.0))
            for link in added_links
        ]
        new_nedges_main = np.concatenate(
            (
                np.delete(nedges, removed_pos) if len(removed_pos) else nedges,
                np.array(added_nedges, dtype=np.int64),
            )
        )
        new_starts_main = np.concatenate(
            ([0], np.cumsum(new_nedges_main, dtype=np.int64))
        )

        # Main value updates: positions resolve against the *old* layout,
        # offsets shift left past removed spans; writes are deferred
        # until the arrays are final (the main section stays a prefix).
        lat_pos, lat_val, loss_pos, loss_val = self._collect_main_values(
            changed, skip=removed_set
        )
        rem_edge_prefix = np.concatenate(
            ([0], np.cumsum(nedges[removed_pos], dtype=np.int64))
        )

        def _main_offsets(positions):
            pos = np.array(positions, dtype=np.int64)
            offs = starts[pos] - rem_edge_prefix[
                np.searchsorted(removed_pos, pos)
            ]
            return offs, nedges[pos]

        # ---- synth + self sections: generic two-pointer splice ----
        state = {"old_off": int(starts[-1]), "run_lo": None, "run_new_lo": 0}

        def close_run() -> None:
            run_lo = state["run_lo"]
            if run_lo is None:
                return
            run_hi = state["old_off"]
            if run_hi > run_lo:
                for old_list, new_list in zip(old_arrays, staged):
                    new_list.extend(old_list[run_lo:run_hi])
            state["run_lo"] = None

        changed_get = changed.get

        def splice_section(
            old_list: list,
            old_nedges: list[int],
            new_list: list,
            latency_of,
        ) -> list[int]:
            old_set = set(old_list)
            removed = old_set - set(new_list)
            i = 0
            section_n_old = len(old_list)
            new_nedges: list[int] = []
            for link in new_list:
                while i < section_n_old and old_list[i] in removed:
                    close_run()
                    state["old_off"] += old_nedges[i]
                    i += 1
                if i < section_n_old and old_list[i] == link:
                    n = old_nedges[i]
                    if n:
                        if state["run_lo"] is None:
                            state["run_lo"] = state["old_off"]
                            state["run_new_lo"] = len(s_src)
                        pair = changed_get(link)
                        if pair is not None:
                            value_writes.append(
                                (
                                    state["run_new_lo"]
                                    + state["old_off"]
                                    - state["run_lo"],
                                    n,
                                    pair[0],
                                    pair[1],
                                )
                            )
                    state["old_off"] += n
                    i += 1
                elif link not in old_set:
                    close_run()
                    n = emit(link, latency_of(link), loss_map.get(link, 0.0))
                else:
                    raise PatchConsistencyError(
                        f"survivor {link!r} out of order in compiled links"
                    )
                new_nedges.append(n)
            while i < section_n_old:
                if old_list[i] not in removed:
                    raise PatchConsistencyError(
                        f"trailing survivor {old_list[i]!r} unmatched"
                    )
                close_run()
                state["old_off"] += old_nedges[i]
                i += 1
            return new_nedges

        new_nedges_synth = splice_section(
            self._synth,
            self._nedges_synth,
            new_synth,
            lambda l: links[(l[1], l[0])].latency_ms,
        )

        # Self-edge block: spliced the same way when set iteration kept
        # the surviving clusters' relative order (the common case for
        # small membership churn under open addressing). When the new
        # set's layout shuffled survivors wholesale, drop the old block
        # and re-emit the (cheap) new one instead of recompiling the
        # whole graph — the first-appearance scan then renumbers.
        def emit_self(cluster: int) -> int:
            asn = self._asn_of(cluster)
            src = intern_self(TO_DST, UP, cluster, asn)
            dst = intern_self(TO_DST, DOWN, cluster, asn)
            s_src.append(src)
            s_dst.append(dst)
            staged[2].append(_SELF_KIND)
            staged[3].append(0.0)
            staged[4].append(0.0)
            staged[5].append(asn)
            staged[6].append(asn)
            staged[7].append(_SELF_OP)
            staged[8].append(_SELF_PHASE)
            return 1

        intern_self = cg._intern
        old_set_self = set(self._selfe)
        new_set_self = set(new_selfe)
        ordered = [c for c in self._selfe if c in new_set_self] == [
            c for c in new_selfe if c in old_set_self
        ]
        if ordered:
            removed_self = old_set_self - new_set_self
            i = 0
            n_old_self = len(self._selfe)
            for cluster in new_selfe:
                while i < n_old_self and self._selfe[i] in removed_self:
                    close_run()
                    state["old_off"] += 1
                    i += 1
                if i < n_old_self and self._selfe[i] == cluster:
                    if state["run_lo"] is None:
                        state["run_lo"] = state["old_off"]
                        state["run_new_lo"] = len(s_src)
                    state["old_off"] += 1
                    i += 1
                else:
                    close_run()
                    emit_self(cluster)
            while i < n_old_self:
                close_run()
                state["old_off"] += 1
                i += 1
            close_run()
        else:
            close_run()
            state["old_off"] += len(self._selfe)
            for cluster in new_selfe:
                emit_self(cluster)

        old_n_edges = len(old_arrays[0])
        if state["old_off"] != old_n_edges:
            raise PatchConsistencyError(
                f"splice consumed {state['old_off']} of {old_n_edges} old edges"
            )

        (
            cg.e_src,
            cg.e_dst,
            cg.e_kind,
            cg.e_lat,
            cg.e_loss,
            cg.e_src_asn,
            cg.e_dst_asn,
            cg.e_op,
            cg.e_phase,
        ) = staged

        # Apply the deferred value writes: vectorized for the main
        # section, scalar for the (small) synth spans.
        if lat_pos:
            offs, counts = _main_offsets(lat_pos)
            cg.e_lat = self._write_spans(cg.e_lat, offs, counts, lat_val)
        if loss_pos:
            offs, counts = _main_offsets(loss_pos)
            cg.e_loss = self._write_spans(cg.e_loss, offs, counts, loss_val)
        e_lat = cg.e_lat
        e_loss = cg.e_loss
        for off, n, lat, loss in value_writes:
            for k in range(off, off + n):
                if lat is not None:
                    e_lat[k] = lat
                if loss is not None:
                    e_loss[k] = loss

        self._renumber_and_rebuild_csr()

        self._main = new_main
        self._main_pos = dict(zip(new_main, range(len(new_main))))
        self._nedges_main = new_nedges_main
        self._starts_main = new_starts_main
        self._synth = new_synth
        self._nedges_synth = new_nedges_synth
        self._selfe = new_selfe
        return {
            "mode": "structural",
            "value_spans": len(lat_pos) + len(loss_pos) + len(value_writes),
            "csr": "rebuilt",
        }

    # -- node numbering & CSR rebuild ---------------------------------------

    def _renumber_and_rebuild_csr(self) -> None:
        """Bring node ids and both CSR indexes in line with the spliced
        edge arrays, exactly as the full compiler would number them."""
        cg = self.cg
        e_src_np = np.array(cg.e_src, dtype=np.int64)
        e_dst_np = np.array(cg.e_dst, dtype=np.int64)
        n_nodes = len(cg.node_cluster)

        # First-appearance scan: the full compiler interns nodes in
        # emission order (src before dst per edge); splicing keeps old
        # ids and appends new nodes, which matches iff the appearance
        # order is still the identity.
        combined = np.empty(2 * len(e_src_np), dtype=np.int64)
        combined[0::2] = e_src_np
        combined[1::2] = e_dst_np
        uniq, first = np.unique(combined, return_index=True)
        order = uniq[np.argsort(first, kind="stable")]
        if len(order) != n_nodes or not np.array_equal(
            order, np.arange(n_nodes, dtype=np.int64)
        ):
            e_src_np, e_dst_np = self._renumber_nodes(order, e_src_np, e_dst_np)
            n_nodes = len(cg.node_cluster)
        cg.rev_off, cg.rev_lst = csr_numpy(n_nodes, e_dst_np)
        cg.fwd_off, cg.fwd_lst = csr_numpy(n_nodes, e_src_np)

    def _renumber_nodes(self, order, e_src_np, e_dst_np):
        """Renumber nodes to first-appearance order (drops orphans).

        Returns the remapped ``(e_src, e_dst)`` numpy arrays so the
        caller can feed the CSR rebuild without another conversion.
        """
        cg = self.cg
        n_provisional = len(cg.node_cluster)
        remap = np.full(n_provisional, -1, dtype=np.int64)
        remap[order] = np.arange(len(order), dtype=np.int64)
        e_src_np = remap[e_src_np]
        e_dst_np = remap[e_dst_np]
        cg.e_src = e_src_np.tolist()
        cg.e_dst = e_dst_np.tolist()
        plane = np.array(cg.node_plane, dtype=np.int64)[order]
        side = np.array(cg.node_side, dtype=np.int64)[order]
        cluster = np.array(cg.node_cluster, dtype=np.int64)[order]
        cg.node_plane = plane.tolist()
        cg.node_side = side.tolist()
        cg.node_cluster = cluster.tolist()
        cg.node_asn = np.array(cg.node_asn, dtype=np.int64)[order].tolist()
        packed = (cluster << 2) | (plane << 1) | side
        cg._id_of = dict(zip(packed.tolist(), range(len(order))))
        return e_src_np, e_dst_np
