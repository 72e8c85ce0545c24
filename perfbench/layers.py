"""Traced mode (``--trace 1``): the per-layer metrics and a latency budget.

Numbers come from outside the program. The run replays the workload's
request lists against each layer's public entry point in turn and times
every call; it reads only counters the program already exports
(``service.fleet_snapshot()``, the gateway's ``obs`` registry, the pool's
``kernel_stats()``). ``repro.obs`` is read, never timed.

1. **net** — one round of the deployed fleet, exactly as the end-to-end
   run drives it, timing every ``NetworkClient`` call (the client's
   request time), reading every shard's counters after each request
   (untimed, through the server process) and the gateway's push timings
   after each roll.
2. **serve** — in the server process, a fresh ``PredictionService``
   without gateway: spawn, each day's ``apply_delta`` broadcast, and
   every request through ``predict_batch``, with the shards' counters
   read after each request as in step 1.
3. **runtime / core** — in this process, one ``AtlasRuntime`` decoded
   from the day-0 anchor: each day's ``apply_delta``, then every request
   through its pool predictor.
4. **codecs** — ``repro.net.protocol`` request/reply frames for every
   request (both directions, both ends) and ``repro.atlas.serialization``
   delta encode + decode for every day.

The budget splits the client's mean request time by self time — a
layer's time minus the time of the layer it calls: net = client −
service call (step 2), IPC = service call − shard handling (step 2),
shard = shard handling − kernel search time inside the shard and
kernel = that search time, both from step 1's live counters. The rows
come from two runs of the same requests, so they need not add up: the
residual, what they leave of the client's time, equals the replayed
minus the live shard handling time, and shows how far the replay is
from the live run. ``net.self_us`` carries the same gap; where it is as
large as the net layer's own time it can read negative.
"""

from __future__ import annotations

import statistics
import time

LAYER_UNITS = {
    "net.self_us": "us",
    "net.codec_us": "us",
    "net.bytes_per_pair": "B",
    "net.push_encode_us": "us",
    "net.push_fanout_us": "us",
    "serve.request_us": "us",
    "serve.shard_handle_us": "us",
    "serve.ipc_us": "us",
    "serve.pairs_per_batch": "pairs",
    "serve.broadcast_ms": "ms",
    "serve.spawn_ms": "ms",
    "runtime.apply_ms": "ms",
    "runtime.repair.kept": "count",
    "runtime.repair.dirty": "count",
    "runtime.cache_hit_ratio": "ratio",
    "core.searches": "count",
    "core.search_us": "us",
    "core.predict_batch_us": "us",
    "core.compile_ms": "ms",
    "atlas.decode_ms": "ms",
    "atlas.anchor_bytes": "B",
    "atlas.delta_codec_us": "us",
    "atlas.delta_bytes": "B",
}


def _sum_diff(pairs, key):
    return sum(after[key] - before[key] for before, after in pairs)


def live_round(gen, rec, days, run_round) -> dict:
    """Step 1: one end-to-end round; reads the gateway's push timings
    after each roll. On the fleet's request path it reads every shard's
    counters after each roll and each request, and charges each request
    its shard handling and kernel time. In ``local_bootstrap`` it reads
    the subscriber's kernel counters around each day's requests instead,
    then sends the same requests through the delegate, charged the same
    way, so the net layer has a client time on this workload too."""
    from fleet import charge

    live = {
        "push_encode_us": [],
        "push_fanout_us": [],
        "kernel": [],
        "delegate_us": [],
        "handle_us": [],
        "search_us": [],
    }
    marks = {}
    counters = []

    def after_request():
        counters.append(gen.fleet.call("shard_counters"))
        charged = charge(counters[-2], counters[-1], gen.requests.mix)
        live["handle_us"].append(charged["handle_us"])
        live["search_us"].append(charged["search_us"])

    def observe(phase, day):
        if phase == "rolled":
            encode_us, fanout_us = gen.fleet.call("push_timings")
            live["push_encode_us"].append(encode_us)
            live["push_fanout_us"].append(fanout_us)
            if not gen.local:
                counters.append(gen.fleet.call("shard_counters"))
        if gen.local:
            stats = gen.subscriber.runtime.pool.kernel_stats()
            if phase == "rolled":
                marks[day] = stats
            else:
                live["kernel"].append((marks[day], stats))
                counters.append(gen.fleet.call("shard_counters"))
                for pairs in gen.requests.days[day - 1]:
                    t0 = time.perf_counter()
                    gen.delegate.predict_batch(pairs)
                    live["delegate_us"].append((time.perf_counter() - t0) * 1e6)
                    after_request()

    if not gen.local:
        gen.after_request = after_request
    run_round(gen, rec, days, observe)
    return live


def pool_replay(chain, requests) -> dict:
    """Step 3: the runtime and the search kernel in this process."""
    from repro.atlas.serialization import decode_atlas, encode_atlas
    from repro.core.predictor import PredictorConfig
    from repro.runtime import AtlasRuntime

    anchor = encode_atlas(chain.atlas0)
    t0 = time.perf_counter()
    atlas = decode_atlas(anchor)
    t1 = time.perf_counter()
    runtime = AtlasRuntime(atlas)
    predictor = runtime.pool.predictor(PredictorConfig.inano())
    runtime.directed_graph()
    runtime.closed_graph()
    t2 = time.perf_counter()
    out = {
        "anchor_bytes": len(anchor),
        "decode_ms": (t1 - t0) * 1e3,
        "compile_ms": (t2 - t1) * 1e3,
        "apply_ms": [],
        "kept": [],
        "dirty": [],
        "request_us": [],
        "kernel": [],
    }
    for day, day_requests in enumerate(requests.days, start=1):
        t0 = time.perf_counter()
        report = runtime.apply_delta(chain.deltas[day - 1])
        out["apply_ms"].append((time.perf_counter() - t0) * 1e3)
        cache = report.cache
        out["kept"].append(cache["reused"] + cache["repaired"] + cache["replayed"])
        out["dirty"].append(cache["dirty"])
        before = runtime.pool.kernel_stats()
        for pairs in day_requests:
            t0 = time.perf_counter()
            if requests.mix == "hot":
                for pair in pairs:
                    predictor.predict_batch([pair])
            else:
                predictor.predict_batch(pairs)
            out["request_us"].append((time.perf_counter() - t0) * 1e6)
        out["kernel"].append((before, runtime.pool.kernel_stats()))
    return out


def codec_replay(chain, requests, answers: dict) -> dict:
    """Step 4: the wire and atlas codecs on the run's own requests and
    answers."""
    from repro.atlas.serialization import decode_delta, encode_delta
    from repro.net import protocol as P

    request_us, wire_bytes, pairs_total = [], 0, 0
    for day, day_requests in enumerate(requests.days, start=1):
        for pairs, paths in zip(day_requests, answers[day]):
            t0 = time.perf_counter()
            if requests.mix == "hot":
                for (src, dst), path in zip(pairs, paths):
                    req = P.encode_frame(P.PREDICT, 1, P.encode_predict_request(src, dst, None))
                    P.decode_predict_request(req[P.HEADER_SIZE:])
                    rep = P.encode_frame(P.PREDICT_OK, 1, P.encode_predict_reply(path))
                    P.decode_predict_reply(rep[P.HEADER_SIZE:])
                    wire_bytes += len(req) + len(rep)
            else:
                req = P.encode_frame(
                    P.PREDICT_BATCH, 1, P.encode_batch_request(pairs, None, None)
                )
                P.decode_batch_request(req[P.HEADER_SIZE:])
                rep = P.encode_frame(P.PREDICT_BATCH_OK, 1, P.encode_batch_reply(paths))
                P.decode_batch_reply(rep[P.HEADER_SIZE:])
                wire_bytes += len(req) + len(rep)
            request_us.append((time.perf_counter() - t0) * 1e6)
            pairs_total += len(pairs)
    delta_us, delta_bytes = [], []
    for delta in chain.deltas:
        t0 = time.perf_counter()
        payload = encode_delta(delta)
        decode_delta(payload)
        delta_us.append((time.perf_counter() - t0) * 1e6)
        delta_bytes.append(len(payload))
    return {
        "codec_us": statistics.fmean(request_us),
        "bytes_per_pair": wire_bytes / pairs_total,
        "delta_codec_us": statistics.median(delta_us),
        "delta_bytes": statistics.fmean(delta_bytes),
    }


def run_traced(fleet, chain, requests, workload, log):
    from run import LoadGenerator, Record, run_round

    days = len(requests.days)
    gen = LoadGenerator(fleet, requests, workload)
    rec = Record(days)
    live = live_round(gen, rec, days, run_round)
    n_requests = len(rec.latencies[0])
    client_us = statistics.fmean(rec.latencies[0]) * 1e6
    wire_us = statistics.fmean(live["delegate_us"]) if gen.local else client_us
    serve = fleet.call("serve_replay", requests.mix, requests.days)
    pool = pool_replay(chain, requests)
    codec = codec_replay(chain, requests, rec.answers)

    request_us = statistics.fmean(serve["request_us"])
    handle_us = statistics.fmean(serve["handle_us"])
    core_searches = _sum_diff(pool["kernel"], "searches")
    core_hits = _sum_diff(pool["kernel"], "hits")
    values = {
        "net.self_us": wire_us - request_us,
        "net.codec_us": codec["codec_us"],
        "net.bytes_per_pair": codec["bytes_per_pair"],
        "net.push_encode_us": statistics.median(live["push_encode_us"]),
        "net.push_fanout_us": statistics.median(live["push_fanout_us"]),
        "serve.request_us": request_us,
        "serve.shard_handle_us": handle_us,
        "serve.ipc_us": request_us - handle_us,
        "serve.pairs_per_batch": serve["pairs"] / serve["batches"],
        "serve.broadcast_ms": statistics.median(serve["broadcast_ms"]),
        "serve.spawn_ms": serve["spawn_ms"],
        "runtime.apply_ms": statistics.median(pool["apply_ms"]),
        "runtime.repair.kept": statistics.fmean(pool["kept"]),
        "runtime.repair.dirty": statistics.fmean(pool["dirty"]),
        "runtime.cache_hit_ratio": core_hits / (core_hits + core_searches),
        "core.searches": core_searches / days,
        "core.search_us": _sum_diff(pool["kernel"], "search_us") / max(1, core_searches),
        "core.predict_batch_us": statistics.fmean(pool["request_us"]),
        "core.compile_ms": pool["compile_ms"],
        "atlas.decode_ms": pool["decode_ms"],
        "atlas.anchor_bytes": float(pool["anchor_bytes"]),
        "atlas.delta_codec_us": codec["delta_codec_us"],
        "atlas.delta_bytes": codec["delta_bytes"],
    }

    def budget(title, client, rows):
        log(f"{title}, mean us per request over {n_requests} requests:")
        log(f"  {'client request':30s} {client:12.1f}")
        for name, us in rows:
            log(f"  {name:30s} {us:12.1f}  {us / client:7.1%}")
        residual = client - sum(us for _, us in rows)
        log(f"  {'residual':30s} {residual:12.1f}  {residual / client:7.1%}")

    if gen.local:
        # the subscriber answers in-process: kernel searches and the rest
        kernel = _sum_diff(live["kernel"], "search_us") / n_requests
        budget(
            "local latency budget",
            client_us,
            [("kernel (local searches)", kernel), ("runtime (cache, extraction)", client_us - kernel)],
        )
    live_handle_us = statistics.fmean(live["handle_us"])
    live_kernel_us = statistics.fmean(live["search_us"])
    budget(
        "fleet latency budget (the same requests through the delegate)"
        if gen.local
        else "latency budget",
        wire_us,
        [
            ("net (client - service call)", values["net.self_us"]),
            ("ipc (service call - shard)", values["serve.ipc_us"]),
            ("shard (handling - kernel)", live_handle_us - live_kernel_us),
            ("kernel (searches in shard)", live_kernel_us),
        ],
    )
    log(f"  (shard handling: replayed {handle_us:.1f}, live {live_handle_us:.1f})")
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
    return rec, metrics
