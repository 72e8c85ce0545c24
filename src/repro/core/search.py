"""Vectorized frontier search kernel over the compiled CSR core.

The predictor's per-destination backtracking search orders work by the
lexicographic priority ``(phase, hops, cost, counter)``. Two structural
facts make that priority batchable:

* **Phase/hops monotonicity.** Every relaxed candidate's ``(phase,
  hops)`` is >= the settled node's: intra-like edges (op ``OP_INTRA``)
  keep both, every other op increments hops, and an inter-AS edge's
  fixed phase can never undercut the settled state's phase (a DOWN-side
  node's phase is always 1 by the valley-free side construction). The
  search therefore settles whole ``(phase, hops)`` **buckets** in
  lexicographic order — phase-major, then hop-major.
* **Intra edges are check-free.** The only edges that keep a candidate
  inside the current bucket are ``OP_INTRA`` ones, which are always
  same-AS — no three-tuple or provider checks apply to them.

The kernel exploits both: within a bucket, nodes settle through the
same scalar pop discipline as the spec loop (``(cost, counter)``
ordering, immediate relaxation of intra edges); every **non-intra**
relaxation is deferred and, when the bucket completes, composed for the
whole frontier at once with numpy — candidate phase/hops/cost from
``e_op``/``e_phase``/``e_lat``, validity from packed-integer membership
tests against the three-tuple and provider sets, a vectorized ``(phase,
hops)`` prefilter against the targets' current states, and per-target
winner selection via ``np.minimum.reduceat`` over packed keys with
generation-order (emission-order) tie-breaking. Only *contested*
targets — where an AS preference could overrule the packed-key winner —
fall back to a scalar fold.

Mutable search state is **array-native**: phase / effective hops / exit
cost / parent edge / next ASN live in flat int64/float64 arrays sized
to the graph (plus a boolean finalized array), written by vectorized
scatter stores on the winner path and by scalar stores on the contested
fold and in-bucket intra paths. There are no python-list twins and no
mirror syncing — the vectorized flush reads the same arrays the scalar
paths write. The arrays come from a :class:`SearchStatePool` freelist
(one per compiled graph, shared by every predictor over that graph), so
the warm path performs zero per-query state allocation. Bucket pending
entries are stored per ``(phase, hops)`` key as ``(cost, counter,
node)`` **column-array chunks** appended whole by the vectorized flush
(small winner sets and scalar relaxations stage as plain tuples); a
bucket pop concatenates its chunks and orders them with one
``np.lexsort`` instead of per-entry heap traffic.

Two exact shortcut theorems make the spec's pop-time parent
re-evaluation cheap:

* **Refold candidates are known at relax time.** Every candidate the
  spec's re-evaluation would consider was already composed during
  relaxation against the *same* (final) neighbor state, so a strictly
  better key can never surface at pop time, and only candidates whose
  ``(phase, hops)`` equals the node's final key can change the outcome.
  The kernel records exactly those (the per-node *contest list*) as
  relaxation evaluates them, and refolds just that list — in edge-id
  (= forward-CSR emission) order — at pop.
* **Preferences name the chooser.** Every outgoing edge of a node has
  the node's own ASN as its source ASN, so a refold can only change the
  state when that ASN appears as a chooser in the preference set; for
  every other node (and whenever preferences are disabled) the refold
  is a provable no-op — equal-key candidates lose the ``>=`` exit-cost
  tie — and is skipped entirely.

Tie-breaking contract (bit-for-bit vs the scalar spec loop)
-----------------------------------------------------------

The kernel's output arrays are **bit-for-bit identical** to
``INanoPredictor._search_compiled`` (and therefore to the legacy dict
engine). That holds because:

* Deferred candidates are applied in *generation order* — settle order
  within the bucket, CSR (emission) order within a settle — which is
  exactly the order the scalar loop evaluates them in. Counter values
  are reserved per candidate in that order, so exact-priority ties
  across heap entries resolve identically.
* A deferred candidate's ``(phase, hops)`` is strictly greater than its
  source bucket's, so deferring it past the bucket's in-bucket (intra)
  updates cannot change any improvement outcome: an in-bucket update at
  the bucket key beats it regardless, and transient improvements at
  keys above a node's final key are always erased before the node
  settles (their heap entries pop after the node's minimal entry and
  are skipped as stale).
* Per target, only the *minimal* ``(phase, hops, cost, counter)`` entry
  ever decides the node's settle position; the kernel pushes exactly
  that entry.

The scalar loop stays available as the kernel's executable spec behind
``INanoPredictor(..., kernel="scalar")``; the randomized property suite
(``tests/test_search_kernel_property.py``) asserts equality over random
atlases, ablation configs, provider gates, FROM_SRC merges and delta
days.

The kernel needs every ASN packable into a fixed radix (three ASNs per
membership key in one int64); :func:`kernel_views` reports ``ok=False``
when the graph's ASNs are too large, and the predictor silently runs
the scalar spec loop instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.compiled import (
    OP_INTER,
    OP_INTRA,
    OP_LATE_EXIT,
    CompiledGraph,
)

#: below this many deferred candidates a bucket flush runs the scalar
#: relaxation directly — numpy per-call overhead beats the win on tiny
#: frontiers (late phases, sparse buckets)
_VECTOR_MIN = 96

#: below this many deferrable (non-intra) edges in the whole graph the
#: kernel skips the bucket/batch machinery entirely and runs the
#: immediate-relaxation loop (``_run_small``) — re-measured for the
#: array-native engine: column-chunk buckets and scatter winner writes
#: pull the crossover down to roughly 16k deferrable edges
_VECTOR_GRAPH_MIN = 16384

#: packed (phase, hops) keys: phase << _K2_SHIFT | hops. Hop counts are
#: bounded by the longest simple path, far below 2**40.
_K2_SHIFT = 40
_K2_MASK = (1 << _K2_SHIFT) - 1

#: below this many winners a flush stages bucket entries as plain
#: tuples instead of column chunks (tiny-array overhead)
_CHUNK_MIN = 24

#: optional per-phase profile sink: set to a dict to accumulate
#: ``alloc_s`` (state acquisition) and ``search_s`` (total kernel)
#: wall seconds; benchmarks read it for the schema-2 phase breakdown
PROFILE: dict | None = None


def profile_into(registry, prefix: str = "kernel.profile"):
    """Point the module profile sink at an obs registry: ``PROFILE``
    becomes a live :class:`~repro.obs.registry.StatsView` over
    ``prefix.alloc_s`` / ``prefix.search_s`` gauges, so kernel phase
    timings land in the same snapshot as every other metric. Returns
    the view; pass ``None`` to turn profiling back off."""
    global PROFILE
    if registry is None:
        PROFILE = None
        return None
    PROFILE = registry.view(prefix, ["alloc_s", "search_s"])
    return PROFILE


class SearchStatePool:
    """Freelist of per-search state-array bundles for one graph size.

    A bundle is ``(phase, eff, exitc, parent, nxt)`` — int64 except the
    float64 exit cost — sized to the graph's node count. One pool hangs
    off each :class:`CompiledGraph` (``cg.search_pool()``), shared by
    every predictor searching that graph, so the warm path allocates no
    per-query state: evicted and retired searches recycle their
    bundles here. A node-count change (renumbering day, recompile)
    drops the freelist via :meth:`resize`.

    Recycled bundles may be handed to the next search, so callers must
    not retain a search's state arrays after explicitly recycling them.
    """

    __slots__ = ("n", "cap", "_free", "_fin")

    def __init__(self, n: int = 0, cap: int = 8) -> None:
        self.n = int(n)
        self.cap = cap
        self._free: list[tuple] = []
        self._fin = None

    def resize(self, n: int) -> None:
        """Pin the pool to ``n`` nodes, dropping stale-sized arrays."""
        if n != self.n:
            self.n = int(n)
            self._free.clear()
            self._fin = None

    def acquire(self, n: int, reset: bool = True):
        """A ``(phase, eff, exitc, parent, nxt)`` bundle of length
        ``n`` — recycled when available, freshly allocated otherwise.
        ``reset=False`` skips the zero/-1 fill for callers that
        overwrite every element."""
        self.resize(n)
        if self._free:
            phase, eff, exitc, parent, nxt = self._free.pop()
            if reset:
                phase.fill(0)
                eff.fill(0)
                exitc.fill(0.0)
                parent.fill(-1)
                nxt.fill(-1)
            return phase, eff, exitc, parent, nxt
        if reset:
            return (
                np.zeros(n, np.int64),
                np.zeros(n, np.int64),
                np.zeros(n, np.float64),
                np.full(n, -1, np.int64),
                np.full(n, -1, np.int64),
            )
        return (
            np.empty(n, np.int64),
            np.empty(n, np.int64),
            np.empty(n, np.float64),
            np.empty(n, np.int64),
            np.empty(n, np.int64),
        )

    def recycle(self, arrays) -> None:
        """Return a bundle to the freelist (dropped on size mismatch or
        when the freelist is full)."""
        if len(arrays[0]) == self.n and len(self._free) < self.cap:
            self._free.append(tuple(arrays))

    def fin_scratch(self, n: int) -> np.ndarray:
        """The pool's reusable finalized-flags array, reset to False."""
        self.resize(n)
        f = self._fin
        if f is None or len(f) != n:
            f = self._fin = np.zeros(n, dtype=bool)
        else:
            f.fill(False)
        return f

    def clear(self) -> None:
        self._free.clear()
        self._fin = None

    @property
    def free_bundles(self) -> int:
        return len(self._free)

    def nbytes(self) -> int:
        total = sum(a.nbytes for b in self._free for a in b)
        if self._fin is not None:
            total += self._fin.nbytes
        return total


def _acquire_state(pool: SearchStatePool | None, n: int, reset: bool):
    if PROFILE is None:
        if pool is not None:
            return pool.acquire(n, reset=reset)
        return SearchStatePool(n).acquire(n, reset=reset)
    from time import perf_counter

    t0 = perf_counter()
    out = (
        pool.acquire(n, reset=reset)
        if pool is not None
        else SearchStatePool(n).acquire(n, reset=reset)
    )
    PROFILE["alloc_s"] = PROFILE.get("alloc_s", 0.0) + perf_counter() - t0
    return out


@dataclass
class KernelViews:
    """Kernel-facing immutable views of one compiled graph version.

    Cached on the graph (``CompiledGraph._kernel_views``) keyed by
    ``(version, tuple_degree_threshold)``; any in-place patch bumps the
    version and the views rebuild lazily on the next cold search.
    """

    ok: bool
    # numpy mirrors of the edge arrays (absent when not ok)
    e_src: np.ndarray = None
    e_dst: np.ndarray = None
    e_lat: np.ndarray = None
    e_sa: np.ndarray = None
    e_da: np.ndarray = None
    e_op: np.ndarray = None
    e_ph: np.ndarray = None
    # reverse CSR split by op, both preserving emission order per node:
    # intra (python lists, walked by the scalar in-bucket loop) and
    # rest (python lists for the scalar small-flush path, numpy twins
    # for the vectorized bucket gather)
    intra_off: list = None
    intra_lst: list = None
    rest_off: list = None
    rest_lst: list = None
    rest_off_np: np.ndarray = None
    rest_lst_np: np.ndarray = None
    #: per-edge packed ``(src_asn * B + dst_asn) * B`` — adding a
    #: next-ASN in ``[0, B)`` completes a three-tuple membership key
    ab2: np.ndarray = None
    #: per-edge: destination ASN's degree exceeds the tuple threshold
    bdeg: np.ndarray = None
    #: sorted packed three-tuple keys (tuples with any component
    #: outside ``[0, B)`` can never match a graph edge and are dropped)
    tuple_keys: np.ndarray = None
    #: per-node: the node's ASN appears as a chooser in the preference
    #: set — pop-time re-evaluation is a provable no-op for every other
    #: node (see the module docstring), so the kernel skips it there
    needs_reeval: list = None
    needs_reeval_np: np.ndarray = None
    #: per-node: the node has intra in-edges (a bucket with no such
    #: member settles in one vectorized pass, no local heap)
    has_intra: np.ndarray = None
    base: int = 0


def kernel_views(
    cg: CompiledGraph, atlas, tuple_degree_threshold: int
) -> KernelViews:
    """The (cached) kernel views for one graph version + tuple threshold."""
    key = (cg.version, tuple_degree_threshold)
    cached = cg._kernel_views
    if cached is not None and cached[0] == key:
        return cached[1]
    views = _build_views(cg, atlas, tuple_degree_threshold)
    cg._kernel_views = (key, views)
    return views


def refresh_views_after_values(cg: CompiledGraph, cached) -> None:
    """Carry kernel views across a value-only patch instead of a rebuild.

    A value-only patch rewrites latency/loss floats (and may churn the
    three-tuple set) but moves no edges, nodes or CSR structure — so of
    the O(E) views only the ``e_lat`` mirror and the packed tuple keys
    go stale. Called by the patcher with the pre-touch cache tuple;
    re-keys it to the already-bumped graph version.
    """
    (_, thresh), views = cached
    if not views.ok:
        return
    views.e_lat = np.array(cg.e_lat, dtype=np.float64)
    views.tuple_keys = _packed_tuple_keys(cg.atlas.three_tuples, views.base)
    cg._kernel_views = ((cg.version, thresh), views)


def _packed_tuple_keys(three_tuples, base: int) -> np.ndarray:
    """Sorted ``(a*B + b)*B + c`` membership keys; tuples with any
    component outside ``[0, B)`` can never match a graph edge."""
    return np.array(
        sorted(
            (a * base + b) * base + c
            for (a, b, c) in three_tuples
            if 0 <= a < base and 0 <= b < base and 0 <= c < base
        ),
        dtype=np.int64,
    )


def _build_views(cg: CompiledGraph, atlas, thresh: int) -> KernelViews:
    e_sa = np.array(cg.e_src_asn, dtype=np.int64)
    e_da = np.array(cg.e_dst_asn, dtype=np.int64)
    max_asn = int(max(e_sa.max(), e_da.max())) if len(e_sa) else 0
    base = max_asn + 1
    # three packed components must fit one signed 64-bit key
    if base ** 3 >= 2 ** 62:
        return KernelViews(ok=False)
    e_src = np.array(cg.e_src, dtype=np.int64)
    e_dst = np.array(cg.e_dst, dtype=np.int64)
    e_op = np.array(cg.e_op, dtype=np.int64)

    # Split the reverse CSR by op, preserving per-node emission order.
    n = cg.n_nodes
    rev_lst = np.array(cg.rev_lst, dtype=np.int64)
    is_intra = e_op[rev_lst] == OP_INTRA if len(rev_lst) else np.zeros(0, bool)
    intra_ids = rev_lst[is_intra]
    rest_ids = rev_lst[~is_intra]
    intra_counts = np.bincount(e_dst[intra_ids], minlength=n)
    rest_counts = np.bincount(e_dst[rest_ids], minlength=n)
    intra_off = np.concatenate(([0], np.cumsum(intra_counts, dtype=np.int64)))
    rest_off = np.concatenate(([0], np.cumsum(rest_counts, dtype=np.int64)))

    degrees = atlas.as_degrees
    bdeg = np.fromiter(
        (degrees.get(asn, 0) > thresh for asn in cg.e_dst_asn),
        dtype=bool,
        count=len(cg.e_dst_asn),
    )
    tuple_keys = _packed_tuple_keys(atlas.three_tuples, base)
    pref_choosers = {a for (a, _, _) in atlas.preferences}
    needs_reeval = [asn in pref_choosers for asn in cg.node_asn]
    return KernelViews(
        ok=True,
        e_src=e_src,
        e_dst=e_dst,
        e_lat=np.array(cg.e_lat, dtype=np.float64),
        e_sa=e_sa,
        e_da=e_da,
        e_op=e_op,
        e_ph=np.array(cg.e_phase, dtype=np.int64),
        intra_off=intra_off.tolist(),
        intra_lst=intra_ids.tolist(),
        rest_off=rest_off.tolist(),
        rest_lst=rest_ids.tolist(),
        rest_off_np=rest_off,
        rest_lst_np=rest_ids,
        has_intra=intra_counts > 0,
        ab2=(e_sa * base + e_da) * base,
        bdeg=bdeg,
        tuple_keys=tuple_keys,
        needs_reeval=needs_reeval,
        needs_reeval_np=np.array(needs_reeval, dtype=bool),
        base=base,
    )


def run_kernel(
    cg: CompiledGraph,
    atlas,
    config,
    providers: frozenset | None,
    root: int,
    pool: SearchStatePool | None = None,
):
    """Run the search kernel; returns ``(phase, eff, exitc, parent,
    nxt)`` — five numpy state arrays bit-identical to the scalar spec
    loop — or None when the graph's ASNs don't pack (caller falls
    back).

    Dispatches on graph scale: below ``_VECTOR_GRAPH_MIN`` deferrable
    (non-intra) edges the bucket/batch machinery costs more than it
    saves, so small graphs run :func:`_run_small` — the spec loop with
    the kernel's exact shortcuts (contest-list re-evaluation, hoisted
    phase/hops prefilter, op-split compose) but immediate scalar
    relaxation. Large graphs run the phase-major bucket queue
    (:func:`_run_buckets`) with vectorized frontier flushes.
    """
    views = kernel_views(cg, atlas, config.tuple_degree_threshold)
    if not views.ok:
        return None
    if PROFILE is None:
        if len(views.rest_lst) < _VECTOR_GRAPH_MIN:
            return _run_small(cg, atlas, config, providers, root, views, pool)
        return _run_buckets(cg, atlas, config, providers, root, views, pool)
    from time import perf_counter

    t0 = perf_counter()
    if len(views.rest_lst) < _VECTOR_GRAPH_MIN:
        out = _run_small(cg, atlas, config, providers, root, views, pool)
    else:
        out = _run_buckets(cg, atlas, config, providers, root, views, pool)
    PROFILE["search_s"] = PROFILE.get("search_s", 0.0) + perf_counter() - t0
    return out


def _refold_contest(u, lst, parent, nxt, exitc, e_sa, e_da, e_dst, prefs):
    """Pop-time refold of a node's contest list (see module docstring).

    ``lst`` holds ``(edge_id, exit_cost)`` for every validity-passing
    candidate whose (phase, hops) equals the node's final key; folding
    them in edge-id order from the current incumbent replays the spec's
    pop-time re-evaluation exactly (all other fwd candidates are
    provable no-ops there). The candidate's next ASN equals its choice
    ASN: the crossing target's ASN, or the settled neighbor's inherited
    next ASN for intra edges.
    """
    for ei, nx in sorted(lst):
        a = e_sa[ei]
        b = e_da[ei]
        nn = b if b != a else nxt[e_dst[ei]]
        pi = parent[u]
        if pi >= 0:
            pd = e_da[pi]
            ic = pd if pd != a else nxt[u]
        else:
            ic = -1
        if nn != -1 and ic != -1 and nn != ic:
            if (a, nn, ic) in prefs:
                pass
            elif (a, ic, nn) in prefs:
                continue
            elif nx >= exitc[u]:
                continue
        elif nx >= exitc[u]:
            continue
        exitc[u] = nx
        parent[u] = ei
        nxt[u] = nn


def _run_small(
    cg: CompiledGraph,
    atlas,
    config,
    providers: frozenset | None,
    root: int,
    views: KernelViews,
    pool: SearchStatePool | None = None,
):
    """The spec loop with the kernel's exact shortcuts, for graphs too
    small to amortize per-bucket numpy calls. Bit-for-bit identical to
    ``_search_compiled``: relaxation is immediate and walks the unsplit
    reverse CSR, so heap counters advance exactly like the spec's; the
    contest-list re-evaluation and the hoisted ``(phase, hops)``
    prefilter are outcome-preserving (module docstring). State runs in
    python lists (faster for scalar access) and lands in pooled arrays
    at the end."""
    use_tuples = config.use_three_tuples
    use_prefs = config.use_preferences
    thresh = config.tuple_degree_threshold
    tuples = atlas.three_tuples
    dget = atlas.as_degrees.get
    prefs = atlas.preferences
    e_src = cg.e_src
    e_dst = cg.e_dst
    e_lat = cg.e_lat
    e_sa = cg.e_src_asn
    e_da = cg.e_dst_asn
    e_op = cg.e_op
    e_ph = cg.e_phase
    rev_off = cg.rev_off
    rev_lst = cg.rev_lst
    needs_reeval = views.needs_reeval

    n = cg.n_nodes
    phase = [0] * n
    eff = [0] * n
    exitc = [0.0] * n
    parent = [-1] * n
    nxt = [-1] * n
    contest: list = [None] * n
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
        if use_prefs and u != root:
            lst = contest[u]
            if lst is not None and len(lst) > 1:
                _refold_contest(
                    u, lst, parent, nxt, exitc, e_sa, e_da, e_dst, prefs
                )
        finalized[u] = 1
        sp = phase[u]
        se = eff[u]
        sx = exitc[u]
        sn = nxt[u]
        se1 = se + 1
        for ei in rev_lst[rev_off[u]:rev_off[u + 1]]:
            v = e_src[ei]
            if finalized[v]:
                continue
            op = e_op[ei]
            if op == OP_INTRA:
                np_ = sp
                ne = se
            elif op == OP_INTER:
                np_ = e_ph[ei]
                ne = se1
            else:
                np_ = sp
                ne = se1
            ip = phase[v]
            if ip and (np_ > ip or (np_ == ip and ne > eff[v])):
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
            nx = sx + e_lat[ei] if op <= OP_LATE_EXIT else 0.0
            tie = ip and np_ == ip and ne == eff[v]
            if tie:
                if use_prefs:
                    if needs_reeval[v]:
                        contest[v].append((ei, nx))
                    cc = nn
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
            elif use_prefs and needs_reeval[v]:
                contest[v] = [(ei, nx)]
            phase[v] = np_
            eff[v] = ne
            exitc[v] = nx
            parent[v] = ei
            nxt[v] = nn
            heappush(heap, (np_, ne, nx, count, v))
            count += 1

    out = _acquire_state(pool, n, reset=False)
    out[0][:] = phase
    out[1][:] = eff
    out[2][:] = exitc
    out[3][:] = parent
    out[4][:] = nxt
    return out


def _run_buckets(
    cg: CompiledGraph,
    atlas,
    config,
    providers: frozenset | None,
    root: int,
    views: KernelViews,
    pool: SearchStatePool | None = None,
):
    """A cold search through the phase-major bucket queue with
    vectorized frontier flushes over flat array state (see the module
    docstring for the equivalence argument). Pending entries live in
    per-key buckets (column chunks + scalar staging) under a heap of
    bucket keys."""
    n = cg.n_nodes
    phase, eff, exitc, parent, nxt = _acquire_state(pool, n, reset=True)
    fin = (
        pool.fin_scratch(n) if pool is not None else np.zeros(n, dtype=bool)
    )
    contest: list = [None] * n
    phase[root] = 1
    buckets: dict = {}
    bucket_sc: dict = {(1, 0): [(0.0, 0, root)]}
    bucket_keys: list = [(1, 0)]
    count = 1
    use_tuples = config.use_three_tuples
    use_prefs = config.use_preferences
    thresh = config.tuple_degree_threshold
    tuples = atlas.three_tuples
    dget = atlas.as_degrees.get
    prefs = atlas.preferences
    # scalar-path locals (python lists)
    e_src = cg.e_src
    e_dst = cg.e_dst
    e_lat = cg.e_lat
    e_sa = cg.e_src_asn
    e_da = cg.e_dst_asn
    e_op = cg.e_op
    e_ph = cg.e_phase
    intra_off = views.intra_off
    intra_lst = views.intra_lst
    rest_off = views.rest_off
    rest_lst = views.rest_lst
    needs_reeval = views.needs_reeval
    # vector-path locals
    rest_off_np = views.rest_off_np
    rest_lst_np = views.rest_lst_np
    e_src_np = views.e_src
    e_lat_np = views.e_lat
    e_sa_np = views.e_sa
    e_da_np = views.e_da
    e_op_np = views.e_op
    e_ph_np = views.e_ph
    ab2_np = views.ab2
    bdeg_np = views.bdeg
    tuple_keys = views.tuple_keys
    n_tuple_keys = len(tuple_keys)
    needs_reeval_np = views.needs_reeval_np
    node_has_intra = views.has_intra
    providers_arr = (
        np.fromiter(sorted(providers), dtype=np.int64, count=len(providers))
        if providers is not None
        else None
    )
    heappush = heapq.heappush
    heappop = heapq.heappop

    def push_entry(p, h, x, c, v):
        key = (p, h)
        lst = bucket_sc.get(key)
        if lst is None:
            bucket_sc[key] = [(x, c, v)]
            if key not in buckets:
                heappush(bucket_keys, key)
        else:
            lst.append((x, c, v))

    def relax_rest_scalar(u, sp, se, sx, sn, base_counter):
        """Scalar deferred relaxation for one settled node (small-flush
        path); the rest-edge branch of ``_run_small`` verbatim, with
        counters pre-reserved in generation order."""
        ne = se + 1
        c = base_counter
        for ei in rest_lst[rest_off[u]:rest_off[u + 1]]:
            c += 1
            v = e_src[ei]
            if fin[v]:
                continue
            op = e_op[ei]
            np_ = e_ph[ei] if op == OP_INTER else sp
            ip = phase[v]
            if ip and (np_ > ip or (np_ == ip and ne > eff[v])):
                continue
            a = e_sa[ei]
            b = e_da[ei]
            # all non-intra edges cross AS boundaries (a != b)
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
            nx = sx + e_lat[ei] if op == OP_LATE_EXIT else 0.0
            tie = ip and np_ == ip and ne == eff[v]
            if tie:
                if use_prefs:
                    if needs_reeval[v]:
                        contest[v].append((ei, nx))
                    pi = parent[v]
                    if pi >= 0:
                        pd = e_da[pi]
                        ic = pd if pd != a else nxt[v]
                    else:
                        ic = -1
                    if b != -1 and ic != -1 and b != ic:
                        if (a, b, ic) in prefs:
                            pass
                        elif (a, ic, b) in prefs:
                            continue
                        elif nx >= exitc[v]:
                            continue
                    elif nx >= exitc[v]:
                        continue
                elif nx >= exitc[v]:
                    continue
            elif use_prefs and needs_reeval[v]:
                contest[v] = [(ei, nx)]
            phase[v] = np_
            eff[v] = ne
            exitc[v] = nx
            parent[v] = ei
            nxt[v] = b
            push_entry(np_, ne, nx, c - 1, v)

    def fold_group(rows, v_l, ei_l, p_l, h_l, x_l, a_l, b_l, c_l):
        """Scalar winner fold for one contested target group, candidate
        rows in generation order; pushes the minimal improving entry."""
        vtx = v_l[rows[0]]
        best_entry = None
        for j in rows:
            cpj = p_l[j]
            chj = h_l[j]
            cxj = x_l[j]
            ip = phase[vtx]
            tie = False
            if ip:
                ie = eff[vtx]
                if cpj != ip or chj != ie:
                    if cpj > ip or (cpj == ip and chj > ie):
                        continue
                else:
                    tie = True
                    aa = a_l[j]
                    cc = b_l[j]
                    if use_prefs:
                        if needs_reeval[vtx]:
                            contest[vtx].append((ei_l[j], cxj))
                        pi = parent[vtx]
                        if pi >= 0:
                            pd = e_da[pi]
                            ic = pd if pd != aa else nxt[vtx]
                        else:
                            ic = -1
                        if cc != -1 and ic != -1 and cc != ic:
                            if (aa, cc, ic) in prefs:
                                pass
                            elif (aa, ic, cc) in prefs:
                                continue
                            elif cxj >= exitc[vtx]:
                                continue
                        elif cxj >= exitc[vtx]:
                            continue
                    elif cxj >= exitc[vtx]:
                        continue
            if not tie and use_prefs and needs_reeval[vtx]:
                contest[vtx] = [(ei_l[j], cxj)]
            phase[vtx] = cpj
            eff[vtx] = chj
            exitc[vtx] = cxj
            parent[vtx] = ei_l[j]
            nxt[vtx] = b_l[j]
            entry = (cpj, chj, cxj, c_l[j])
            if best_entry is None or entry < best_entry:
                best_entry = entry
        if best_entry is not None:
            push_entry(*best_entry, vtx)

    def flush(s):
        """Batch-relax all deferred (non-intra) edges of a finished
        bucket (``s``: settled node ids, int64 array in settle order):
        vectorized composition + validity + prefilter over the state
        arrays, packed ``minimum.reduceat`` winner selection per target
        with scatter winner writes, scalar folds only for contested
        targets — all in generation order."""
        nonlocal count
        cnt = rest_off_np[s + 1] - rest_off_np[s]
        tot = int(cnt.sum())
        if tot == 0:
            return
        base = count
        count += tot
        if tot < _VECTOR_MIN:
            c = base
            for u in s.tolist():
                relax_rest_scalar(
                    u, int(phase[u]), int(eff[u]), float(exitc[u]),
                    int(nxt[u]), c,
                )
                c += rest_off[u + 1] - rest_off[u]
            return
        startpos = np.repeat(rest_off_np[s], cnt)
        within = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        eids = rest_lst_np[startpos + within]
        sp = np.repeat(phase[s], cnt)
        se = np.repeat(eff[s], cnt)
        sx = np.repeat(exitc[s], cnt)
        sn = np.repeat(nxt[s], cnt)
        v = e_src_np[eids]
        b = e_da_np[eids]
        pv = phase[v]
        ev = eff[v]
        valid = ~fin[v]
        if use_tuples:
            chk = (sn >= 0) & (b != sn) & bdeg_np[eids]
            if n_tuple_keys:
                keys = ab2_np[eids] + sn
                pos = np.searchsorted(tuple_keys, keys)
                hit = tuple_keys[np.minimum(pos, n_tuple_keys - 1)] == keys
                valid &= ~chk | hit
            else:
                valid &= ~chk
        if providers_arr is not None:
            a_np = e_sa_np[eids]
            valid &= (sn != -1) | np.isin(a_np, providers_arr)
        op = e_op_np[eids]
        cp = np.where(op == OP_INTER, e_ph_np[eids], sp)
        ch = se + 1
        cx = np.where(op == OP_LATE_EXIT, sx + e_lat_np[eids], 0.0)
        keep = valid & ((pv == 0) | (cp < pv) | ((cp == pv) & (ch <= ev)))
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return
        # group by target; stable sort keeps generation order per group
        vk = v[idx]
        order = np.argsort(vk, kind="stable")
        sel = idx[order]
        v_sorted = vk[order]
        heads = np.concatenate(
            ([0], np.flatnonzero(v_sorted[1:] != v_sorted[:-1]) + 1)
        )
        group_sizes = np.diff(np.concatenate((heads, [len(sel)])))
        k2 = (cp[sel] << _K2_SHIFT) | ch[sel]
        gmin = np.minimum.reduceat(k2, heads)
        at_min = k2 == np.repeat(gmin, group_sizes)
        min_counts = np.add.reduceat(at_min.astype(np.int64), heads)
        # incumbent packed key per group (unreached -> +inf sentinel)
        hv = v_sorted[heads]
        pv_h = phase[hv]
        inc_k2 = np.where(
            pv_h == 0,
            np.int64(2 ** 62),
            (pv_h << _K2_SHIFT) | eff[hv],
        )
        if use_prefs:
            # fast path: unique winner key strictly below the incumbent —
            # no preference can fire, the packed-key winner is the fold
            fast_group = (min_counts == 1) & (gmin < inc_k2)
            slow_heads = heads[~fast_group]
            frows = np.flatnonzero(at_min & np.repeat(fast_group, group_sizes))
        else:
            # without preferences ties resolve by strict exit-cost, so
            # the full lexicographic (key, cost, order) minimum is the
            # fold for any group; only incumbent ties need the cost check
            o2 = np.lexsort((cx[sel], k2, v_sorted))
            first = np.searchsorted(v_sorted[o2], hv)
            frows_all = o2[first]
            fsel = gmin <= inc_k2
            eq = gmin == inc_k2
            if eq.any():
                fsel &= (~eq) | (cx[sel][frows_all] < exitc[hv])
            frows = frows_all[fsel]
            # the prefilter caps every candidate key at the incumbent's,
            # so a rejected group is all exact ties losing the strict
            # exit-cost test: no improving fold exists, drop it outright
            slow_heads = np.zeros(0, dtype=np.int64)
        if len(frows):
            w_sel = sel[frows]
            w_v = v_sorted[frows]
            w_p = cp[w_sel]
            w_h = ch[w_sel]
            w_x = cx[w_sel]
            w_ei = eids[w_sel]
            w_b = b[w_sel]
            w_c = base + w_sel
            phase[w_v] = w_p
            eff[w_v] = w_h
            exitc[w_v] = w_x
            parent[w_v] = w_ei
            nxt[w_v] = w_b
            if use_prefs:
                m = needs_reeval_np[w_v]
                if m.any():
                    rv = w_v[m].tolist()
                    rei = w_ei[m].tolist()
                    rx = w_x[m].tolist()
                    for t in range(len(rv)):
                        contest[rv[t]] = [(rei[t], rx[t])]
            nw = len(w_v)
            if nw < _CHUNK_MIN:
                w_p_l = w_p.tolist()
                w_h_l = w_h.tolist()
                w_x_l = w_x.tolist()
                w_c_l = w_c.tolist()
                w_v_l = w_v.tolist()
                for t in range(nw):
                    push_entry(
                        w_p_l[t], w_h_l[t], w_x_l[t], w_c_l[t], w_v_l[t]
                    )
            else:
                kk = (w_p << _K2_SHIFT) | w_h
                ko = np.argsort(kk, kind="stable")
                kks = kk[ko]
                kheads = np.concatenate(
                    ([0], np.flatnonzero(kks[1:] != kks[:-1]) + 1)
                )
                bounds = np.append(kheads, nw)
                for t in range(len(kheads)):
                    seg = ko[kheads[t]:bounds[t + 1]]
                    kv = int(kks[kheads[t]])
                    key = (kv >> _K2_SHIFT, kv & _K2_MASK)
                    chunk = (w_x[seg], w_c[seg], w_v[seg])
                    lst = buckets.get(key)
                    if lst is None:
                        buckets[key] = [chunk]
                        if key not in bucket_sc:
                            heappush(bucket_keys, key)
                    else:
                        lst.append(chunk)
        if len(slow_heads):
            sizes = group_sizes[np.searchsorted(heads, slow_heads)]
            v_l = v_sorted.tolist()
            ei_l = eids[sel].tolist()
            p_l = cp[sel].tolist()
            h_l = ch[sel].tolist()
            x_l = cx[sel].tolist()
            a_l = e_sa_np[eids][sel].tolist()
            b_l = b[sel].tolist()
            c_l = (base + sel).tolist()
            for h0, size in zip(slow_heads.tolist(), sizes.tolist()):
                fold_group(
                    range(h0, h0 + size), v_l, ei_l, p_l, h_l, x_l,
                    a_l, b_l, c_l,
                )

    settled_batch: list[int] = []

    def settle_serial(local_heap):
        """In-bucket serial loop for buckets with live intra edges:
        settle by (cost, counter), relaxing intra (same-AS) edges
        immediately — they stay inside the bucket."""
        nonlocal count
        while local_heap:
            entry = heappop(local_heap)
            u = entry[2]
            if fin[u]:
                continue
            if use_prefs:
                lst = contest[u]
                if lst is not None and len(lst) > 1:
                    _refold_contest(
                        u, lst, parent, nxt, exitc, e_sa, e_da, e_dst, prefs
                    )
            fin[u] = True
            settled_batch.append(u)
            sp = phase[u]
            se = eff[u]
            sx = exitc[u]
            sn = nxt[u]
            for ei in intra_lst[intra_off[u]:intra_off[u + 1]]:
                v = e_src[ei]
                if fin[v]:
                    continue
                nx = sx + e_lat[ei]
                ip = phase[v]
                if ip and (sp > ip or (sp == ip and se > eff[v])):
                    continue
                tie = ip and sp == ip and se == eff[v]
                if tie:
                    if use_prefs:
                        if needs_reeval[v]:
                            contest[v].append((ei, nx))
                        # intra edges never cross: the candidate next
                        # hop is the inherited next ASN
                        aa = e_sa[ei]
                        pi = parent[v]
                        if pi >= 0:
                            pd = e_da[pi]
                            ic = pd if pd != aa else nxt[v]
                        else:
                            ic = -1
                        if sn != -1 and ic != -1 and sn != ic:
                            if (aa, sn, ic) in prefs:
                                pass
                            elif (aa, ic, sn) in prefs:
                                continue
                            elif nx >= exitc[v]:
                                continue
                        elif nx >= exitc[v]:
                            continue
                    elif nx >= exitc[v]:
                        continue
                elif use_prefs and needs_reeval[v]:
                    contest[v] = [(ei, nx)]
                phase[v] = sp
                eff[v] = se
                exitc[v] = nx
                parent[v] = ei
                nxt[v] = sn
                heappush(local_heap, (nx, count, v))
                count += 1

    while bucket_keys:
        key = heappop(bucket_keys)
        chunks = buckets.pop(key, None)
        sc = bucket_sc.pop(key, None)
        if chunks is None:
            # scalar-only bucket: python tuple sort beats tiny arrays
            sc.sort()
            live = [e for e in sc if not fin[e[2]]]
            if not live:
                continue
            if node_has_intra[[e[2] for e in live]].any():
                # a sorted list already satisfies the heap invariant
                settle_serial(live)
            else:
                for e in live:
                    u = e[2]
                    if fin[u]:
                        continue
                    if use_prefs:
                        lst = contest[u]
                        if lst is not None and len(lst) > 1:
                            _refold_contest(
                                u, lst, parent, nxt, exitc, e_sa, e_da,
                                e_dst, prefs,
                            )
                    fin[u] = True
                    settled_batch.append(u)
        else:
            if sc:
                chunks.append((
                    np.array([e[0] for e in sc], np.float64),
                    np.array([e[1] for e in sc], np.int64),
                    np.array([e[2] for e in sc], np.int64),
                ))
            if len(chunks) == 1:
                x_b, c_b, v_b = chunks[0]
            else:
                x_b = np.concatenate([ck[0] for ck in chunks])
                c_b = np.concatenate([ck[1] for ck in chunks])
                v_b = np.concatenate([ck[2] for ck in chunks])
            order = np.lexsort((c_b, x_b))
            v_ord = v_b[order]
            uniq, first_idx = np.unique(v_ord, return_index=True)
            live_first = first_idx[~fin[uniq]]
            if live_first.size == 0:
                continue
            live_first.sort()
            live_v = v_ord[live_first]
            if node_has_intra[live_v].any():
                x_l = x_b[order].tolist()
                c_l = c_b[order].tolist()
                v_l = v_ord.tolist()
                # all (possibly stale/duplicate) entries feed the local
                # heap; staleness resolves via the finalized check, and
                # a sorted list already satisfies the heap invariant
                settle_serial(list(zip(x_l, c_l, v_l)))
            else:
                if use_prefs:
                    for u in live_v.tolist():
                        lst = contest[u]
                        if lst is not None and len(lst) > 1:
                            _refold_contest(
                                u, lst, parent, nxt, exitc, e_sa, e_da,
                                e_dst, prefs,
                            )
                fin[live_v] = True
                flush(live_v)
                continue
        if settled_batch:
            flush(
                np.fromiter(
                    settled_batch, dtype=np.int64, count=len(settled_batch)
                )
            )
            settled_batch = []

    return phase, eff, exitc, parent, nxt
