"""Sharded prediction-service benchmarks: shard-count sweeps.

A ``PredictionService`` fleet of N shard workers over the shared-memory
CSR answers ``predict_batch`` while the delta broadcast keeps every
shard on one graph version. The workload covers every destination
cluster of the default scenario (333, a few sources each). One
predictor's search LRU is sized to a day's working set, so a single
shard holds all of it: after the cold round, every steady round is
cache hits at every shard count, and the sweep measures the fleet's
warm path (routing, IPC, per-shard batch cost) rather than re-searches.
Cold rounds fan out to all involved shards concurrently, which shows
only on multi-core hosts (``cpus`` is recorded so trajectories are
comparable).

Recorded per shard count: cold and steady-state round time, steady
throughput, and single-query p50/p99 round-trip latency; plus the
delta-broadcast convergence time and wire size. Appends to
``BENCH_serve.json`` under ``BENCH_RECORD=1`` (``make bench-serve``).

The gate, true on any core count: one shard's steady throughput stays
within ``ONE_SHARD_FLOOR`` of four shards' on the same run, so no shard
count re-searches its working set every round (runs recorded while a
256-entry LRU thrashed read 0.009-0.022x). ``check_serve_floor.py``
also holds the 4-shard figure against the median of recent runs
on the same core count.
"""

from __future__ import annotations

import copy
import gc
import os
import time

import pytest
from check_serve_floor import ONE_SHARD_FLOOR

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
    cluster, a few sources each): a day-sized destination working
    set."""
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
    # One shard must serve the whole working set warm: its steady
    # throughput within ONE_SHARD_FLOOR of four shards' on this run.
    one, four = (sweep[n]["throughput_pairs_s"] for n in (1, 4))
    assert one >= ONE_SHARD_FLOOR * four, sweep


def _next_day(scenario):
    nxt = copy.deepcopy(scenario.atlas(1))
    nxt.day = 1
    return nxt
