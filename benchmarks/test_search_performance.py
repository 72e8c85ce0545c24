"""Search-kernel benchmarks: cold per-destination search + warm starts.

Two metrics on two atlases (GC off, medians), appended to
``BENCH_search.json``:

* ``cold_search`` — one uncached per-destination backtracking search,
  vectorized kernel (:mod:`repro.core.search`) vs the scalar spec loop
  (``_search_compiled``), for the full-iNano and GRAPH-baseline
  configs, on (a) the default-scenario atlas and (b) a synthetic
  production-shape "fanout" atlas (~4k ASes, one cluster per AS, dense
  multi-homing — the scale regime the kernel targets).
* ``post_delta_first_query`` — the update-to-first-query path: after
  ``apply_delta``, the first query against a hot destination under
  pool prewarming (the hottest stale searches re-run against the new
  graph at apply time), versus a cold start where the version bump
  strands every destination (simulated by flushing the pooled search
  cache after the patch).
* ``value_repair_first_query`` — a chain of latency-only deltas on the
  fanout atlas: every cached search goes dirty and the hot ones are
  prewarmed at apply time; gates that the first post-delta query stays
  within 3x of an untouched warm-path hit.

Schema-2 entries carry per-phase breakdowns (``phases`` sub-dicts:
state alloc vs relax vs extract for cold searches).

Gates: the kernel must beat the spec loop outright on cold searches
(dedicated floor 1.35x on the best config; measured 1.5-1.7x), and
prewarming must cut post-delta first-query latency by >= 3x (it lands
at orders of magnitude — the first query becomes a cache hit).
"""

from __future__ import annotations

import copy
import gc
import os
import random
import statistics
import time

import pytest

from repro.atlas.delta import compute_delta
from repro.atlas.model import Atlas, LinkRecord
from repro.atlas.relationships import REL_CUSTOMER, REL_PEER, REL_PROVIDER
from repro.core import search as search_kernel
from repro.core.predictor import INanoPredictor, PredictorConfig
from repro.runtime import AtlasRuntime

_COLD_DESTINATIONS = 10
_COLD_REPS = 7
_DELTA_ROUNDS = 6
_HOT_DESTINATIONS = 4


def fanout_atlas(
    seed=3, n_t1=16, n_t2=360, n_t3=3600, peers2=6, homing=3
) -> Atlas:
    """A production-shape synthetic atlas: three-tier AS hierarchy, one
    cluster per AS (coarse PoP clustering), dense peering/multi-homing,
    with full three-tuple witnesses, preferences and provider sets so
    every corrective component is live."""
    rng = random.Random(seed)
    atlas = Atlas(day=0)
    asn = 1
    tiers = []
    for n in (n_t1, n_t2, n_t3):
        tiers.append(list(range(asn, asn + n)))
        asn += n
    t1, t2, t3 = tiers
    for a in t1 + t2 + t3:
        c = a * 4
        atlas.cluster_to_as[c] = a
        atlas.prefix_to_cluster[c * 100] = c
        atlas.prefix_to_as[c * 100] = a

    def cl(a):
        return a * 4

    def link(a, b):
        lat = float(rng.randint(2, 20))
        atlas.links[(cl(a), cl(b))] = LinkRecord(latency_ms=lat)
        atlas.links[(cl(b), cl(a))] = LinkRecord(latency_ms=lat)

    def rel(a, b, ab, ba):
        atlas.relationship_codes[(a, b)] = ab
        atlas.relationship_codes[(b, a)] = ba

    neigh: dict[int, set[int]] = {}

    def addadj(a, b):
        neigh.setdefault(a, set()).add(b)
        neigh.setdefault(b, set()).add(a)

    for i, a in enumerate(t1):
        for b in t1[i + 1:]:
            rel(a, b, REL_PEER, REL_PEER)
            addadj(a, b)
            link(a, b)
    for b in t2:
        for a in rng.sample(t1, rng.randint(1, homing)):
            rel(a, b, REL_PROVIDER, REL_CUSTOMER)
            addadj(a, b)
            link(a, b)
        for b2 in rng.sample(t2, peers2):
            if b2 != b and (b, b2) not in atlas.relationship_codes:
                rel(b, b2, REL_PEER, REL_PEER)
                addadj(b, b2)
                link(b, b2)
    for c in t3:
        for b in rng.sample(t2, rng.randint(1, homing)):
            rel(b, c, REL_PROVIDER, REL_CUSTOMER)
            addadj(b, c)
            link(b, c)
    atlas.as_degrees = {a: len(v) for a, v in neigh.items()}
    up: dict[int, list[int]] = {}
    for (a, b), code in atlas.relationship_codes.items():
        if code == REL_PROVIDER:
            up.setdefault(b, []).append(a)
    for b, nbrs in neigh.items():
        for x in nbrs:
            for y in nbrs:
                if x != y:
                    atlas.three_tuples.add((x, b, y))
    for _ in range(3000):
        a = rng.choice(t2 + t3)
        ups = up.get(a, [])
        if len(ups) >= 2:
            x, y = rng.sample(ups, 2)
            atlas.preferences.add((a, x, y))
    for p, a in atlas.prefix_to_as.items():
        if a in up:
            atlas.providers[a] = frozenset(up[a])
    return atlas


def _median_cold_ms(predictor, search_fn, destinations):
    times = []
    for _ in range(_COLD_REPS):
        start = time.perf_counter()
        for prefix, cluster in destinations:
            search_fn(
                predictor.graph, cluster, predictor._provider_gate(prefix)
            )
        times.append(
            (time.perf_counter() - start) / len(destinations) * 1000
        )
    return statistics.median(times)


def test_bench_cold_search(scenario, bench_record_search, report):
    arenas = [
        ("scenario", scenario.atlas(0), 7),
        ("fanout", fanout_atlas(), 431),
    ]
    configs = {
        "iNano": PredictorConfig.inano(),
        "GRAPH": PredictorConfig.graph_baseline(),
    }
    rows = []
    timings = {}
    ratios = []
    gc.disable()
    try:
        for arena, atlas, step in arenas:
            prefixes = sorted(atlas.prefix_to_cluster)[::step]
            destinations = [
                (p, atlas.cluster_of_prefix(p))
                for p in prefixes[:_COLD_DESTINATIONS]
            ]
            for name, config in configs.items():
                kernel = INanoPredictor(atlas, config, kernel="vector")
                spec = INanoPredictor(atlas, config, kernel="scalar")
                # warm the kernel views (one-time per graph version)
                kernel._run_search(
                    kernel.graph,
                    destinations[0][1],
                    kernel._provider_gate(destinations[0][0]),
                )
                kernel_ms = min(
                    _median_cold_ms(kernel, kernel._run_search, destinations)
                    for _ in range(2)
                )
                spec_ms = min(
                    _median_cold_ms(spec, spec._search_compiled, destinations)
                    for _ in range(2)
                )
                ratio = spec_ms / kernel_ms
                ratios.append(ratio)
                # schema-2 phase breakdown: one profiled pass splits the
                # kernel's wall time into state acquisition (alloc),
                # relaxation (the bucket/contest engine proper), and
                # everything outside the kernel window (view resolution
                # + result extraction)
                search_kernel.PROFILE = profile = {}
                t0 = time.perf_counter()
                for prefix, cluster in destinations:
                    kernel._run_search(
                        kernel.graph, cluster, kernel._provider_gate(prefix)
                    )
                total_s = time.perf_counter() - t0
                search_kernel.PROFILE = None
                n = len(destinations)
                alloc_s = profile.get("alloc_s", 0.0)
                relax_s = max(profile.get("search_s", 0.0) - alloc_s, 0.0)
                extract_s = max(total_s - alloc_s - relax_s, 0.0)
                timings[f"{arena}_{name}"] = {
                    "kernel_ms": round(kernel_ms, 4),
                    "spec_ms": round(spec_ms, 4),
                    "ratio": round(ratio, 3),
                    "phases": {
                        "alloc_ms": round(alloc_s / n * 1000, 4),
                        "relax_ms": round(relax_s / n * 1000, 4),
                        "extract_ms": round(extract_s / n * 1000, 4),
                    },
                }
                rows.append(
                    (
                        f"{arena} / {name}",
                        f"{kernel_ms:.3f}",
                        f"{spec_ms:.3f}",
                        f"{ratio:.2f}x",
                    )
                )
    finally:
        gc.enable()
        search_kernel.PROFILE = None
    bench_record_search("cold_search", **timings)
    from repro.eval.reporting import render_table

    report(
        "search_performance",
        render_table(
            "Cold per-destination search: kernel vs scalar spec",
            ["atlas / config", "kernel ms", "spec ms", "speedup"],
            rows,
        ),
    )
    # The kernel must beat the spec loop outright; the dedicated run
    # (GC off, quiet machine) holds the full floor on the best config
    # (measured 1.5-1.7x; the 3x aspiration and remaining scalar floor
    # are tracked in ROADMAP open items).
    dedicated = os.environ.get("BENCH_RECORD") == "1"
    floor = 1.35 if dedicated else 1.02
    assert max(ratios) >= floor, (ratios, timings)
    # The array-native engine's headline gate rides on the
    # production-shape atlas: the kernel must hold >= 2.2x over the
    # scalar spec there on a dedicated run (measured ~4.5x on GRAPH).
    if dedicated:
        fanout_best = max(
            entry["ratio"]
            for key, entry in timings.items()
            if key.startswith("fanout_")
        )
        assert fanout_best >= 2.2, timings


@pytest.fixture(scope="module")
def search_update_chain(scenario):
    a0 = scenario.atlas(0)
    a1 = scenario.atlas(1)
    chain = []
    for day in range(_DELTA_ROUNDS + 1):
        atlas = copy.deepcopy(a0 if day % 2 == 0 else a1)
        atlas.day = day
        chain.append(atlas)
    deltas = [compute_delta(b, n) for b, n in zip(chain, chain[1:])]
    return chain, deltas


def test_bench_post_delta_first_query(
    scenario, search_update_chain, bench_record_search, report
):
    chain, deltas = search_update_chain
    config = PredictorConfig.inano()
    prefixes = [int(p) for p in scenario.all_prefixes()]
    hot = [
        (prefixes[i], prefixes[-(i + 1)]) for i in range(_HOT_DESTINATIONS)
    ]

    def first_query_times(warm: bool):
        runtime = AtlasRuntime(copy.deepcopy(chain[0]))
        runtime.pool.prewarm_max = 8 if warm else 0
        predictor = runtime.pool.predictor(config)
        for pair in hot:
            predictor.predict_or_none(*pair)
        times = []
        for delta in deltas:
            runtime.apply_delta(delta)
            if not warm:
                # no prewarm: the version bump strands every cached
                # search, the first query runs cold
                predictor._search_cache.clear()
            start = time.perf_counter()
            predictor.predict_or_none(*hot[0])
            times.append((time.perf_counter() - start) * 1000)
            for pair in hot:
                predictor.predict_or_none(*pair)
        return statistics.median(times)

    gc.disable()
    try:
        cold_ms = first_query_times(warm=False)
        warm_ms = first_query_times(warm=True)
    finally:
        gc.enable()
    speedup = cold_ms / warm_ms
    bench_record_search(
        "post_delta_first_query",
        cold_start_ms=round(cold_ms, 4),
        warm_start_ms=round(warm_ms, 4),
        speedup=round(speedup, 1),
        rounds=len(deltas),
    )
    from repro.eval.reporting import render_table

    report(
        "search_warmstart",
        render_table(
            "Post-delta first query (hot destination)",
            ["arm", "median ms"],
            [
                ("cold start (no prewarm)", f"{cold_ms:.3f}"),
                ("pool prewarm", f"{warm_ms:.4f}"),
                ("speedup", f"{speedup:.0f}x"),
            ],
        ),
    )
    dedicated = os.environ.get("BENCH_RECORD") == "1"
    assert speedup >= (3.0 if dedicated else 2.0), (cold_ms, warm_ms)


def _value_only_next(atlas: Atlas, seed: int) -> Atlas:
    """The next day with only link *values* changed (no edge added or
    removed): rescale ~1% of the latencies — the paper's small-daily-
    churn regime — so the delta takes the value-only patch path."""
    nxt = copy.deepcopy(atlas)
    nxt.day = atlas.day + 1
    rng = random.Random(seed)
    keys = sorted(nxt.links)
    for key in rng.sample(keys, max(1, len(keys) // 100)):
        rec = nxt.links[key]
        nxt.links[key] = LinkRecord(
            latency_ms=round(rec.latency_ms * rng.uniform(0.6, 1.5), 3),
            loss_rate=rec.loss_rate,
        )
    return nxt


def test_bench_value_repair_first_query(bench_record_search, report):
    """Value-only days: after a latency-only delta, the first query
    against a hot destination (whose search was prewarmed against the
    new graph at apply time) must land within 3x of an untouched
    warm-path hit."""
    atlas = fanout_atlas()
    config = PredictorConfig.inano()
    all_prefixes = sorted(atlas.prefix_to_cluster)
    dsts = all_prefixes[::431]
    srcs = all_prefixes[7::97]
    hot = [(srcs[i], dsts[-(i + 1)]) for i in range(_HOT_DESTINATIONS)]
    runtime = AtlasRuntime(copy.deepcopy(atlas))
    predictor = runtime.pool.predictor(config)
    for pair in hot:
        predictor.predict_or_none(*pair)
    counts = {"dirty": 0, "prewarmed": 0}
    first_times: list[float] = []
    warm_times: list[float] = []
    gc.disable()
    try:
        current = atlas
        for day in range(1, _DELTA_ROUNDS + 1):
            nxt = _value_only_next(current, seed=day)
            apply_report = runtime.apply_delta(compute_delta(current, nxt))
            for key in counts:
                counts[key] += apply_report.cache.get(key, 0)
            # one unmeasured query on a *different* entry absorbs the
            # node's one-time post-patch lazy work (compiled-view
            # refresh) — that cost belongs to the apply segment
            # (bench-update), not to the first query
            predictor.predict_or_none(*hot[1])
            start = time.perf_counter()
            predictor.predict_or_none(*hot[0])
            first_times.append((time.perf_counter() - start) * 1000)
            # the untouched-warm-path baseline: the same warm cached
            # search serving a source it has not answered yet — a pure
            # pooled-cache hit plus one path extraction, which is what
            # any not-yet-memoized pair costs regardless of prewarm
            # (a prewarmed search starts with no memoized paths)
            fresh_src = srcs[_HOT_DESTINATIONS + day]
            start = time.perf_counter()
            predictor.predict_or_none(fresh_src, hot[0][1])
            warm_times.append((time.perf_counter() - start) * 1000)
            for pair in hot:
                predictor.predict_or_none(*pair)
            current = nxt
    finally:
        gc.enable()
    first_ms = statistics.median(first_times)
    warm_ms = statistics.median(warm_times)
    ratio = first_ms / warm_ms
    bench_record_search(
        "value_repair_first_query",
        first_query_ms=round(first_ms, 4),
        warm_hit_ms=round(warm_ms, 4),
        ratio=round(ratio, 2),
        rounds=_DELTA_ROUNDS,
        **counts,
    )
    from repro.eval.reporting import render_table

    report(
        "search_value_repair",
        render_table(
            "Value-only delta: prewarmed first query vs untouched warm hit",
            ["metric", "value"],
            [
                ("first query after delta (ms)", f"{first_ms:.4f}"),
                ("untouched warm path, new pair (ms)", f"{warm_ms:.4f}"),
                ("ratio", f"{ratio:.2f}x"),
                ("dirty", str(counts["dirty"])),
                ("prewarmed", str(counts["prewarmed"])),
            ],
        ),
    )
    dedicated = os.environ.get("BENCH_RECORD") == "1"
    assert ratio <= (3.0 if dedicated else 6.0), (first_ms, warm_ms, counts)
