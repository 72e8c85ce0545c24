"""Update-path benchmarks: in-place delta patching vs full recompile.

The runtime's claim (ISSUE 2 tentpole) is that the daily ~1MB delta
should be absorbed by the *compute* layer as cheaply as it is by the
wire: patch the compiled CSR arrays in place and let every co-located
consumer keep its pooled predictor, instead of each consumer recompiling
its private graphs from scratch.

Two metrics, both "delta-apply-to-first-query" on the default scenario
with GC off, medians over alternating-day delta chains:

* ``single`` — one warm runtime (directed + closed + one FROM_SRC
  merged view materialized) absorbing a delta and answering one query:
  ``mode="patch"`` vs ``mode="recompile"`` (the executable spec the
  equivalence suite proves bit-for-bit identical).
* ``node`` — the paper's one-atlas-per-subnet deployment: eight
  co-located consumers (six plain clients, a query agent, and one
  client with its own FROM_SRC plane) behind one shared runtime,
  versus the seed architecture where *every* consumer owns its
  compiled state (primary + warm closed fallback, rebuilt via
  ``INanoPredictor``'s constructor after every update).

The three arms (patch, recompile, seed) step through the same chain
side by side, rotating which goes first each day, so host drift lands
on all of them alike.

The acceptance gate rides on the ``node`` ratio: one patched runtime
must beat per-consumer recompilation by >= 5x update-to-first-query.
Results append to ``BENCH_update.json``.
"""

from __future__ import annotations

import copy
import gc
import itertools
import os
import time

import pytest

from repro.atlas.delta import apply_delta, compute_delta
from repro.core.predictor import INanoPredictor, PredictorConfig
from repro.runtime import AtlasRuntime

#: consumers on the shared node: (name, uses own FROM_SRC plane)
_CONSUMERS = [
    ("client-0", False),
    ("client-1", False),
    ("measurer", True),
    ("client-2", False),
    ("client-3", False),
    ("client-4", False),
    ("client-5", False),
    ("agent", False),
]
#: distinct query destinations across the node; the rest re-hit hot
#: targets (shared-cache wins the pool architecture is built for)
_DISTINCT_DESTINATIONS = 4
_ROUNDS = 16


@pytest.fixture(scope="module")
def update_chain(scenario):
    """Alternating day-0/day-1 content as a reusable delta chain.

    Chain entries are shallow copies that differ only in ``day``: they
    share the scenario's datasets, so consumers must deep-copy before
    mutating (every runtime below starts from a deep copy)."""
    a0 = scenario.atlas(0)
    a1 = scenario.atlas(1)
    chain = []
    for day in range(_ROUNDS + 1):
        atlas = copy.copy(a0 if day % 2 == 0 else a1)
        atlas.day = day
        chain.append(atlas)
    deltas = [compute_delta(b, n) for b, n in zip(chain, chain[1:])]
    return chain, deltas


@pytest.fixture(scope="module")
def from_src(scenario):
    return dict(itertools.islice(scenario.atlas(0).links.items(), 40))


@pytest.fixture(scope="module")
def query_pairs(scenario):
    """One (src, dst) probe per consumer, distinct destinations.

    Pairs are chosen answerable on the primary directed plane for both
    alternating chain contents, so every arm pays exactly one cold
    search per consumer per update (no fallback-graph noise).
    """
    prefixes = [int(p) for p in scenario.all_prefixes()]
    config = PredictorConfig.inano()
    atlases = [scenario.atlas(0), scenario.atlas(1)]
    predictors = [INanoPredictor(atlas, config) for atlas in atlases]

    def primary_answerable(src, dst):
        for atlas, predictor in zip(atlases, predictors):
            src_cluster = atlas.cluster_of_prefix(src)
            dst_cluster = atlas.cluster_of_prefix(dst)
            if src_cluster is None or dst_cluster is None:
                return False
            states = predictor._search(predictor.graph, dst_cluster, dst)
            path = predictor._lookup(
                predictor.graph, states, src, src_cluster, dst_cluster
            )
            if path is None:
                return False
        return True

    distinct = []
    used_dst = set()
    step = max(1, len(prefixes) // 37)
    candidates = itertools.product(prefixes[::step], prefixes[5::step])
    for src, dst in candidates:
        if src == dst or dst in used_dst:
            continue
        if primary_answerable(src, dst):
            distinct.append((src, dst))
            used_dst.add(dst)
            if len(distinct) == _DISTINCT_DESTINATIONS:
                break
    assert len(distinct) == _DISTINCT_DESTINATIONS, (
        "not enough primary-answerable pairs"
    )
    # Consumers beyond the distinct set re-query earlier destinations
    # (hot targets): the shared pool answers them from its per-runtime
    # LRU search cache, while the seed's private caches cannot.
    pairs = list(distinct)
    k = 0
    while len(pairs) < len(_CONSUMERS):
        src, dst = distinct[k % len(distinct)]
        pairs.append((prefixes[(7 * k + 11) % len(prefixes)], dst))
        k += 1
    return pairs


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _consumer_predictors(runtime, from_src):
    """Each consumer's pooled predictor, resolved the way a consumer
    asks for it after every update."""
    config = PredictorConfig.inano()
    return [
        runtime.pool.predictor(
            config,
            client_key=name if measures else None,
            from_src_links=from_src if measures else None,
            from_src_rev=0,
        )
        for name, measures in _CONSUMERS
    ]


def _runtime_arm(chain, from_src, query_pairs, mode):
    """A shared runtime with directed + closed + one merged view
    materialized and every consumer's first query answered; returns its
    per-delta step: ``delta -> (update-to-all-consumers-answered ms,
    apply ms)``."""
    runtime = AtlasRuntime(copy.deepcopy(chain[0]))
    runtime.directed_graph()
    runtime.closed_graph()
    runtime.merged_graph("measurer", from_src, {}, rev=0)
    for predictor, (src, dst) in zip(
        _consumer_predictors(runtime, from_src), query_pairs
    ):
        predictor.predict_or_none(src, dst)

    def step(delta):
        start = time.perf_counter()
        runtime.apply_delta(delta, mode=mode)
        mid = time.perf_counter()
        for predictor, (src, dst) in zip(
            _consumer_predictors(runtime, from_src), query_pairs
        ):
            predictor.predict_or_none(src, dst)
        end = time.perf_counter()
        return (end - start) * 1000, (mid - start) * 1000

    return step


def _seed_arm(chain, from_src, query_pairs):
    """The pre-runtime architecture: every consumer owns its compiled
    state and rebuilds it (primary + warm closed fallback) per update.
    Same step signature as :func:`_runtime_arm`; the apply share is not
    separable, so both numbers are the whole cycle."""
    config = PredictorConfig.inano()
    atlas = copy.deepcopy(chain[0])

    def step(delta):
        nonlocal atlas
        start = time.perf_counter()
        atlas = apply_delta(atlas, delta)
        for (name, measures), (src, dst) in zip(_CONSUMERS, query_pairs):
            predictor = INanoPredictor(
                atlas, config, from_src_links=from_src if measures else None
            )
            predictor.fallback_graph  # the warm consumer's closed graph
            predictor.predict_or_none(src, dst)
        ms = (time.perf_counter() - start) * 1000
        return ms, ms

    return step


def _alternating_times(chain, deltas, from_src, query_pairs):
    """Per-delta cycle times of the three arms — patching runtime,
    recompiling runtime, seed architecture — stepped through the same
    chain side by side, rotating which arm goes first day by day.
    Returns ``{arm: (cycle ms list, apply ms list)}``."""
    arms = {
        "patch": _runtime_arm(chain, from_src, query_pairs, "patch"),
        "recompile": _runtime_arm(chain, from_src, query_pairs, "recompile"),
        "seed": _seed_arm(chain, from_src, query_pairs),
    }
    out = {name: ([], []) for name in arms}
    order = list(arms)
    for i, delta in enumerate(deltas):
        first = i % len(order)
        for name in order[first:] + order[:first]:
            total, apply = arms[name](delta)
            out[name][0].append(total)
            out[name][1].append(apply)
    return out


def test_bench_update_to_first_query(
    update_chain, from_src, query_pairs, bench_record_update, report
):
    chain, deltas = update_chain
    gc.disable()
    try:
        arms = _alternating_times(chain, deltas, from_src, query_pairs)
    finally:
        gc.enable()
    patched, patched_apply = arms["patch"]
    recompiled, recompiled_apply = arms["recompile"]
    seed_arch = arms["seed"][0]

    single_patch = _median(patched)
    single_recompile = _median(recompiled)
    node_seed = _median(seed_arch)
    single_ratio = single_recompile / single_patch
    node_ratio = node_seed / single_patch

    bench_record_update(
        "update_to_first_query",
        consumers=len(_CONSUMERS),
        rounds=len(deltas),
        patched_node_ms=round(single_patch, 3),
        recompile_runtime_ms=round(single_recompile, 3),
        seed_per_consumer_ms=round(node_seed, 3),
        runtime_ratio=round(single_ratio, 2),
        node_ratio=round(node_ratio, 2),
        # schema-2 phase breakdown: the apply segment (patch/recompile +
        # prewarm) vs the consumers' first queries
        phases={
            "patch_apply_ms": round(_median(patched_apply), 3),
            "patch_queries_ms": round(
                _median([t - a for t, a in zip(patched, patched_apply)]), 3
            ),
            "recompile_apply_ms": round(_median(recompiled_apply), 3),
        },
    )
    from repro.eval.reporting import render_table

    report(
        "update_performance",
        render_table(
            f"Delta-apply-to-first-query (default scenario, "
            f"{len(_CONSUMERS)} consumers)",
            ["arm", "median ms", "vs patched"],
            [
                ("shared runtime, in-place patch", f"{single_patch:.2f}", "1.0x"),
                (
                    "shared runtime, full recompile",
                    f"{single_recompile:.2f}",
                    f"{single_ratio:.1f}x",
                ),
                (
                    "seed arch (per-consumer compile)",
                    f"{node_seed:.2f}",
                    f"{node_ratio:.1f}x",
                ),
            ],
        ),
    )
    # The acceptance gate: one patched runtime beats the seed's
    # per-consumer recompilation by >= 5x update-to-first-query. The
    # full bar applies to the dedicated `make bench-update` run (GC
    # off, quiet machine); mixed full-suite runs use a conservative
    # floor that still catches real regressions without timing flake.
    dedicated = os.environ.get("BENCH_RECORD") == "1"
    node_floor = 5.0 if dedicated else 3.0
    assert node_ratio >= node_floor, (node_ratio, single_patch, node_seed)
    # And patching must beat even a *shared* full recompile outright
    # (loose floor: this arm shares everything except the patch itself).
    # The mixed-run floor sits well under the quiet-machine ratio
    # (~1.15-1.3 on a 1-core container): at full-suite load the margin
    # has been observed dipping to ~1.07 on unchanged code, so 1.1 was
    # still flaking without catching anything real.
    single_floor = 1.2 if dedicated else 1.05
    assert single_ratio >= single_floor, (
        single_ratio,
        single_patch,
        single_recompile,
    )


def test_bench_patch_vs_compile_graph_only(
    update_chain, bench_record_update
):
    """Graph-maintenance cost alone (no queries): in-place patch of the
    directed+closed pair vs compiling both from the updated atlas."""
    chain, deltas = update_chain
    gc.disable()
    try:
        runtime = AtlasRuntime(copy.deepcopy(chain[0]))
        runtime.directed_graph()
        runtime.closed_graph()
        patch_times = []
        for delta in deltas:
            start = time.perf_counter()
            runtime.apply_delta(delta, mode="patch")
            patch_times.append((time.perf_counter() - start) * 1000)

        runtime = AtlasRuntime(copy.deepcopy(chain[0]))
        runtime.directed_graph()
        runtime.closed_graph()
        compile_times = []
        for delta in deltas:
            start = time.perf_counter()
            runtime.apply_delta(delta, mode="recompile")
            compile_times.append((time.perf_counter() - start) * 1000)
    finally:
        gc.enable()
    patch_ms = _median(patch_times)
    compile_ms = _median(compile_times)
    bench_record_update(
        "graph_maintenance",
        patch_ms=round(patch_ms, 3),
        recompile_ms=round(compile_ms, 3),
        ratio=round(compile_ms / patch_ms, 2),
    )
    assert patch_ms < compile_ms
