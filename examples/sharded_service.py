#!/usr/bin/env python3
"""Quickstart: the sharded multi-process prediction service.

A single ``AtlasRuntime`` caps prediction throughput at one core. This
example stands up the scale-out path instead:

1. build and publish an atlas on the central server,
2. ``server.serve(n_shards=...)`` — compile the CSR once, export it to
   shared memory, and spawn N shard worker processes that map it
   zero-copy (no per-worker compile, one physical copy of the graph),
3. route queries through the front-end: consistent-hash fan-out by
   destination cluster, one message per involved shard per batch,
4. publish the next day and broadcast the binary delta — every worker
   patches its arrays in place and the fleet converges on one graph
   version (verified by cross-process fingerprints),
5. register a measuring client's FROM_SRC plane on every shard.

Run:  python examples/sharded_service.py
"""

import time

from repro.client import AtlasServer, ClientConfig, INanoClient
from repro.core.predictor import PredictorConfig
from repro.eval import get_scenario


def main() -> None:
    scenario = get_scenario("small")
    server = AtlasServer()
    server.publish(scenario.atlas(day=0))
    print("== atlas published (day 0) ==")

    # Spawn the fleet: one AtlasRuntime + predictor pool per shard
    # worker, all mapping one shared-memory CSR export.
    with server.serve(n_shards=2) as service:
        print(
            f"  {service.n_shards} shard workers over "
            f"{service.shared_bytes / 2**20:.2f} MB of shared CSR"
        )

        prefixes = sorted(scenario.atlas(0).prefix_to_cluster)
        pairs = [(s, d) for s in prefixes[:8] for d in prefixes[8:24]]

        # Batched fan-out: pairs are grouped per destination shard and
        # all involved shards work concurrently.
        start = time.perf_counter()
        paths = service.predict_batch(pairs)
        elapsed = time.perf_counter() - start
        answered = sum(1 for p in paths if p is not None)
        print(
            f"  predict_batch: {answered}/{len(pairs)} answered "
            f"in {elapsed * 1000:.1f} ms"
        )

        # Duplicate pairs in one batch: each involved shard still gets
        # one message, and same-destination queries ride one kernel
        # search worker-side.
        before = sum(s["batches"] for s in service.shard_stats())
        dupes = service.predict_batch([(prefixes[0], prefixes[9])] * 5)
        sent = sum(s["batches"] for s in service.shard_stats()) - before
        print(
            f"  duplicates: 5 identical pairs -> {sent} shard message(s), "
            f"answers identical: {all(p == dupes[0] for p in dupes)}"
        )

        # Two-way PathInfos (forward by destination shard, reverse by
        # source shard), same payload a co-located client would build.
        info = service.query(prefixes[2], prefixes[11])
        if info is not None:
            print(
                f"  query: rtt={info.rtt_ms:.1f} ms "
                f"loss={info.loss_round_trip:.3f} day={info.atlas_day}"
            )

        # A measuring client: its FROM_SRC plane merges onto the shared
        # base on every shard (bit-for-bit with the co-located path).
        source = scenario.validation_set().sources[0]
        client = INanoClient(
            server,
            vantage=source.vantage,
            measurement_toolkit=scenario.simulator(0),
            cluster_map=scenario.cluster_map(0),
            config=ClientConfig(use_swarm=False),
            shared_runtime=server.runtime(),
        )
        client.fetch()
        client.measure(n_prefixes=20)
        service.register_client(
            "edge-client",
            client.from_src_links,
            client_cluster_as=client.cluster_map.cluster_asn,
            from_src_prefixes={source.vantage.prefix_index},
            rev=client._from_src_rev,
        )
        mine = service.query_batch(
            [(source.vantage.prefix_index, d) for d in prefixes[30:36]],
            config=PredictorConfig.inano(),
            client="edge-client",
        )
        print(f"  measuring client: {sum(1 for i in mine if i)} answered")

        # Day 2: publish, then broadcast the binary delta to the fleet.
        server.publish(scenario.atlas(day=1))
        applied = service.sync_from(server)
        print(
            f"  delta broadcast: {applied} day(s) applied, "
            f"fleet converged={service.converged()}, now at day {service.day}"
        )
        print(f"  front-end stats: {service.stats}")
        for stats in service.shard_stats():
            print(f"    shard {stats['shard']}: {stats}")


if __name__ == "__main__":
    main()
