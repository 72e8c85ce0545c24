"""The shard worker process: one AtlasRuntime + predictor pool per core.

``shard_worker_main`` is the entry point the
:class:`~repro.serve.shard.ShardManager` spawns. Each worker

* decodes its own private :class:`~repro.atlas.model.Atlas` from the
  same encoded payload the service holds (identical bytes → identical
  ``links`` dict order → identical compiled emission order),
* maps the service's compiled CSR arrays **zero-copy** from shared
  memory (:meth:`~repro.core.compiled.CompiledGraph.from_shared`) and
  installs them into its runtime — no per-worker ``from_atlas``
  compile, one physical copy of the graph across N processes,
* then serves request messages off its pipe until told to stop.

Daily updates arrive as binary delta broadcasts
(:func:`~repro.atlas.serialization.decode_delta`) and flow straight
into :meth:`AtlasRuntime.apply_delta` — in-place atlas mutation, CSR
patch (which materializes the shared views copy-on-write on first
structural/value edit) and pool prewarming, exactly the path a
single-process consumer takes. After each delta the
worker replies with a state snapshot (day + per-graph shape + array
fingerprint) so the service can verify every shard converged to the
same graph version.

Wire protocol (one request message in, one reply out, in order)::

    ("batch", req_id, pairs, config, client, trace) -> ("batch", req_id, [PredictedPath|None], spans|None)
    ("delta", epoch, payload, verify)         -> ("delta", epoch, snapshot, report)
    ("register", token, links, extra, prefixes, rev) -> ("register", token)
    ("release", token)                        -> ("release", token)
    ("snapshot",)                             -> ("snapshot", snapshot)
    ("stats",)                                -> ("stats", stats_dict)
    ("stop",)                                 -> ("stopped", shard_index)

Worker-side exceptions never kill the loop: the reply is
``("error", op, repr(exc))`` and the service raises
:class:`~repro.errors.ShardStateError`.
"""

from __future__ import annotations

import time

from repro.atlas.serialization import decode_atlas, decode_delta
from repro.core.compiled import CompiledGraph
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.runtime import AtlasRuntime

#: recent per-batch handle times kept for the stats op's percentiles
_HANDLE_WINDOW = 512

__all__ = ["shard_worker_main", "graph_fingerprint", "runtime_snapshot"]


def graph_fingerprint(cg: CompiledGraph) -> int:
    """A position-sensitive cross-process fingerprint of the compiled
    arrays: a BLAKE2b digest over every array's exact bytes (floats
    included bit for bit), in field order.

    A digest — not a content sum — because the plausible divergence
    mode between shards is *reordering* (survivor order, set-iteration
    order feeding the splice), which permutes array elements without
    changing their multiset. Two graphs with equal fingerprints across
    workers are, for convergence-checking purposes, the same graph
    version.
    """
    import hashlib

    import numpy as np

    digest = hashlib.blake2b(digest_size=8)
    for name, values in cg.arrays().items():
        dtype = np.float64 if name in CompiledGraph._FLOAT_FIELDS else np.int64
        digest.update(np.asarray(values, dtype=dtype).tobytes())
    return int.from_bytes(digest.digest(), "big")


def runtime_snapshot(runtime: AtlasRuntime, fingerprint: bool = True) -> dict:
    """The comparable state one worker reports after init and after
    every delta: atlas day plus shape (+ array fingerprint) per
    materialized graph. Graph ``version`` ints are process-local and
    meaningless across workers; fingerprints are the cross-process
    equivalent. ``fingerprint=False`` skips the O(graph) array walk —
    the cheap handshake mode for latency-sensitive broadcasts."""
    return {
        "day": runtime.atlas.day,
        "updates_applied": runtime.updates_applied,
        "graphs": {
            name: (
                cg.n_nodes,
                cg.n_edges,
                graph_fingerprint(cg) if fingerprint else None,
            )
            for name, cg in sorted(runtime._graphs.items())
        },
    }


def _resolve_predictor(runtime, clients: dict, config, token):
    """Mirror :attr:`INanoClient.predictor`'s pool resolution for a
    registered client token (or the shared entry when ``token`` is
    None)."""
    if token is None:
        return runtime.pool.predictor(config)
    spec = clients[token]
    links = spec["from_src_links"]
    has_links = bool(links)
    return runtime.pool.predictor(
        config,
        client_key=token if has_links else None,
        from_src_links=links or None,
        from_src_prefixes=spec["from_src_prefixes"],
        client_cluster_as=spec["client_cluster_as"],
        from_src_rev=spec["rev"] if has_links else 0,
    )


def shard_worker_main(conn, init: dict) -> None:
    """Run one shard worker over ``conn`` until a ``stop`` message."""
    shard_index = init["shard_index"]
    atlas = decode_atlas(init["atlas_bytes"])
    runtime = AtlasRuntime(atlas)
    mapped: list[CompiledGraph] = []
    for name, meta in init["graphs"].items():
        cg = CompiledGraph.from_shared(meta, atlas)
        runtime.install_graph(name, cg, closed=(name == "closed"))
        mapped.append(cg)
    if init.get("untrack_shm"):
        # Non-fork start methods give each worker a private
        # resource_tracker that would unlink the (service-owned) blocks
        # when this worker exits; drop the attach-side registration.
        _untrack_shared(init["graphs"])
    clients: dict[object, dict] = {}
    obs = _WorkerObs(shard_index)
    conn.send(("ready", shard_index, runtime_snapshot(runtime)))
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "stop":
                conn.send(("stopped", shard_index))
                break
            try:
                conn.send(_dispatch(op, msg, runtime, clients, obs))
            except Exception as exc:  # keep the worker serving
                conn.send(("error", op, repr(exc)))
    except (EOFError, OSError, KeyboardInterrupt):
        # EOFError/BrokenPipeError: the service closed its end (clean
        # shutdown may race our final reply) — exit quietly.
        pass
    finally:
        for cg in mapped:
            cg.release_shared()
        conn.close()


class _WorkerObs:
    """One worker's observability bundle: the metrics registry, the
    dict-shaped stats view over it, the batch handle-time histogram,
    and a tracer for minting span ids when a traced batch arrives."""

    __slots__ = ("registry", "stats", "handle", "tracer", "shard")

    def __init__(self, shard_index: int) -> None:
        self.shard = shard_index
        self.registry = MetricsRegistry()
        self.stats = self.registry.view(
            "serve.shard",
            ("shard", "batches", "pairs", "deltas", "registered_clients"),
        )
        self.stats["shard"] = shard_index
        self.handle = self.registry.get_histogram(
            "serve.shard.handle_us", window=_HANDLE_WINDOW
        )
        self.tracer = Tracer()


def _traced_batch(obs, runtime, predictor, pairs, trace):
    """Run the batch under a ``shard.batch`` span with a
    ``kernel.search`` child attributing the pool's kernel-counter
    deltas (cache-hit vs cold-search) to this request."""
    pool = runtime.pool
    k0 = pool.kernel_stats()
    start_us = Tracer.now_us()
    t0 = time.perf_counter()
    batch_span = obs.tracer.mint_id()
    paths = predictor.predict_batch(pairs)
    duration_us = (time.perf_counter() - t0) * 1e6
    k1 = pool.kernel_stats()
    searches = k1["searches"] - k0["searches"]
    spans = [
        Span(
            trace_id=trace[0],
            span_id=batch_span,
            parent_id=trace[1],
            name="shard.batch",
            start_us=start_us,
            duration_us=duration_us,
            tags={"shard": str(obs.shard), "pairs": str(len(pairs))},
        ),
        Span(
            trace_id=trace[0],
            span_id=obs.tracer.mint_id(),
            parent_id=batch_span,
            name="kernel.search",
            start_us=start_us,
            duration_us=k1["search_us"] - k0["search_us"],
            tags={
                "searches": str(searches),
                "hits": str(k1["hits"] - k0["hits"]),
                "cache": "cold" if searches else "hit",
            },
        ),
    ]
    return paths, spans, duration_us


def _dispatch(op, msg, runtime, clients, obs):
    stats = obs.stats
    if op == "batch":
        _, req_id, pairs, config, token, trace = msg
        pairs = list(pairs)
        predictor = _resolve_predictor(runtime, clients, config, token)
        if trace is None:
            t0 = time.perf_counter()
            paths = predictor.predict_batch(pairs)
            spans = None
            duration_us = (time.perf_counter() - t0) * 1e6
        else:
            paths, spans, duration_us = _traced_batch(
                obs, runtime, predictor, pairs, trace
            )
        stats["batches"] += 1
        stats["pairs"] += len(pairs)
        obs.handle.observe(duration_us)
        return ("batch", req_id, paths, spans)
    if op == "delta":
        _, epoch, payload, verify = msg
        report = runtime.apply_delta(decode_delta(payload))
        stats["deltas"] += 1
        return (
            "delta",
            epoch,
            runtime_snapshot(runtime, fingerprint=(verify == "fingerprint")),
            {"mode": report.mode, "cache": report.cache},
        )
    if op == "register":
        _, token, links, extra, prefixes, rev = msg
        clients[token] = {
            "from_src_links": links,
            "client_cluster_as": extra,
            "from_src_prefixes": prefixes,
            "rev": rev,
        }
        stats["registered_clients"] = len(clients)
        return ("register", token)
    if op == "release":
        _, token = msg
        clients.pop(token, None)
        runtime.release(token)
        stats["registered_clients"] = len(clients)
        return ("release", token)
    if op == "snapshot":
        return ("snapshot", runtime_snapshot(runtime))
    if op == "stats":
        # the shard's registry is the single source: the dict surface
        # (batches/pairs/percentiles/kernel/last_repair) is derived
        # from it, and the full snapshot rides along under "obs" for
        # the front-end's fleet-wide merge
        runtime.pool.export_metrics(obs.registry)
        out = dict(stats)
        out["handle_p50_us"] = obs.handle.percentile(0.50)
        out["handle_p99_us"] = obs.handle.percentile(0.99)
        out["kernel"] = runtime.pool.kernel_stats()
        out["last_repair"] = dict(runtime.pool.last_repair)
        out["obs"] = obs.registry.snapshot()
        return ("stats", out)
    raise ValueError(f"unknown worker op {op!r}")


def _untrack_shared(graph_metas: dict) -> None:
    """Best-effort: unregister this process's attach-side shared-memory
    tracking (the exporting service owns block lifetime)."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover
        return
    for meta in graph_metas.values():
        try:
            resource_tracker.unregister(f"/{meta['name']}", "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
