"""Sharded prediction-service benchmarks: shard-count sweeps.

The serving tentpole's claim: a ``PredictionService`` fleet of N shard
workers over the shared-memory CSR scales ``predict_batch`` throughput
with shard count while the delta broadcast keeps every shard on one
graph version. Two mechanisms carry the scaling:

* **aggregate search-cache capacity** — consistent-hash routing
  partitions the destination working set, so N shards hold N
  per-destination LRUs. The benchmark workload covers every
  destination cluster of the default scenario (more destinations than
  one pool's LRU holds), which a single shard must re-search every
  round and a 4-shard fleet answers warm. This effect is
  machine-independent — it shows even on one core;
* **process parallelism** — cold searches fan out to all involved
  shards concurrently (visible on multi-core hosts; ``cpus`` is
  recorded so trajectories are comparable).

Recorded per shard count: cold and steady-state round time, steady
throughput, and single-query p50/p99 round-trip latency; plus the
delta-broadcast convergence time and wire size. Appends to
``BENCH_serve.json`` under ``BENCH_RECORD=1`` (``make bench-serve``).
"""

from __future__ import annotations

import copy
import gc
import os
import time

import pytest

from repro.atlas.delta import compute_delta
from repro.client import AtlasServer
from repro.core.predictor import _SEARCH_CACHE_MAX
from repro.obs import Tracer
from repro.util.stats import nearest_rank

SHARD_COUNTS = (1, 2, 4)
STEADY_ROUNDS = 3
SINGLE_QUERIES = 60


@pytest.fixture(scope="module")
def server(scenario):
    server = AtlasServer()
    server.publish(copy.deepcopy(scenario.atlas(0)))
    return server


@pytest.fixture(scope="module")
def workload(scenario):
    """Pairs covering every destination cluster (one prefix per
    cluster, a few sources each) — a working set larger than one
    predictor pool's LRU, the regime sharding exists for."""
    atlas = scenario.atlas(0)
    prefix_of_cluster: dict[int, int] = {}
    for prefix, cluster in sorted(atlas.prefix_to_cluster.items()):
        prefix_of_cluster.setdefault(cluster, prefix)
    dsts = sorted(prefix_of_cluster.values())
    srcs = sorted(atlas.prefix_to_cluster)[:3]
    return [(src, dst) for dst in dsts for src in srcs], len(dsts)


def test_bench_shard_scaling(
    server, scenario, workload, bench_record_serve, report
):
    pairs, n_dsts = workload
    delta = compute_delta(scenario.atlas(0), _next_day(scenario))
    sweep = {}
    gc.disable()
    try:
        for n_shards in SHARD_COUNTS:
            service = server.serve(n_shards=n_shards)
            try:
                start = time.perf_counter()
                service.predict_batch(pairs)
                cold_s = time.perf_counter() - start
                start = time.perf_counter()
                for _ in range(STEADY_ROUNDS):
                    service.predict_batch(pairs)
                steady_s = (time.perf_counter() - start) / STEADY_ROUNDS
                singles = []
                warm = pairs[: SINGLE_QUERIES]
                for src, dst in warm:
                    start = time.perf_counter()
                    service.predict(src, dst)
                    singles.append(time.perf_counter() - start)
                # full tracing on every batch: route + worker + kernel
                # spans recorded and shipped back over the pipe — the
                # worst-case obs cost, recorded for the trajectory
                tracer = Tracer()
                start = time.perf_counter()
                for _ in range(STEADY_ROUNDS):
                    service.predict_batch(pairs, trace=tracer.start_trace())
                traced_s = (time.perf_counter() - start) / STEADY_ROUNDS
                start = time.perf_counter()
                update = service.apply_delta(delta)
                broadcast_s = time.perf_counter() - start
                converged = service.converged()
                sweep[n_shards] = {
                    "cold_s": round(cold_s, 4),
                    "steady_s": round(steady_s, 4),
                    "steady_traced_s": round(traced_s, 4),
                    "trace_overhead_pct": round(
                        max(0.0, (traced_s / steady_s - 1.0) * 100), 2
                    ),
                    "throughput_pairs_s": round(len(pairs) / steady_s, 1),
                    "p50_ms": round(nearest_rank(singles, 0.50) * 1000, 3),
                    "p99_ms": round(nearest_rank(singles, 0.99) * 1000, 3),
                    "broadcast_s": round(broadcast_s, 4),
                    "broadcast_wire_bytes": update["wire_bytes"],
                    "converged": converged,
                    "shared_mb": round(service.shared_bytes / 2**20, 2),
                }
                assert converged, "fleet must hold one graph version"
            finally:
                service.close()
    finally:
        gc.enable()

    base = sweep[SHARD_COUNTS[0]]["throughput_pairs_s"]
    for n_shards in SHARD_COUNTS:
        sweep[n_shards]["speedup_vs_1"] = round(
            sweep[n_shards]["throughput_pairs_s"] / base, 2
        )
    bench_record_serve(
        "shard_scaling",
        pairs=len(pairs),
        destinations=n_dsts,
        lru_capacity=_SEARCH_CACHE_MAX,
        cpus=os.cpu_count(),
        sweep={str(n): stats for n, stats in sweep.items()},
    )
    from repro.eval.reporting import render_table

    report(
        "serve_scaling",
        render_table(
            f"Sharded predict_batch ({len(pairs)} pairs, {n_dsts} "
            f"destinations, LRU {_SEARCH_CACHE_MAX}/shard)",
            ["shards", "steady tput (pairs/s)", "speedup", "p50 ms", "p99 ms", "bcast ms"],
            [
                (
                    str(n),
                    f"{sweep[n]['throughput_pairs_s']:,.0f}",
                    f"{sweep[n]['speedup_vs_1']:.1f}x",
                    f"{sweep[n]['p50_ms']:.2f}",
                    f"{sweep[n]['p99_ms']:.2f}",
                    f"{sweep[n]['broadcast_s'] * 1000:.0f}",
                )
                for n in SHARD_COUNTS
            ],
        ),
    )
    # The acceptance gate: >= 2x steady throughput at 4 shards vs 1.
    # The destination working set (> one LRU) makes this hold even on a
    # single core; multi-core hosts add cold-path parallelism on top.
    if n_dsts > _SEARCH_CACHE_MAX:
        assert sweep[4]["speedup_vs_1"] >= 2.0, sweep
    else:  # pragma: no cover - scenario shrank below the LRU
        pytest.skip("workload fits one shard's LRU; scaling gate n/a")


def _next_day(scenario):
    nxt = copy.deepcopy(scenario.atlas(1))
    nxt.day = 1
    return nxt
