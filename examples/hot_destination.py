#!/usr/bin/env python3
"""Hotspot-aware routing: heat tracking + hot-destination replication.

Consistent-hash routing pins every destination cluster to one shard —
great for cache locality, terrible when the workload is skewed: a few
popular destinations (a flash-crowd CDN site, a prefix under
diagnosis) can pile 90% of the traffic onto one worker while the rest
of the fleet idles. Because the delta broadcast keeps *every* shard on
the same graph version, spreading a hot destination is pure routing
policy — any shard answers bit-for-bit identically.

This example:

1. stands up a 4-shard service with a ``HeatTracker`` (sliding
   logical-op windows + EMA decay, promote/demote hysteresis),
2. drives a 90%-skewed workload at three destinations owned by one
   shard and watches them get promoted to the hot set,
3. shows the replica fan-out: the hot stream spreads across the ring
   successors (least-loaded pick per query) while answers stay
   identical to the pinned oracle,
4. shifts the traffic away and watches heat decay demote the
   destinations back to pinned routing.

Run:  python examples/hot_destination.py
"""

from repro.client import AtlasServer
from repro.eval import get_scenario


def main() -> None:
    scenario = get_scenario("small")
    server = AtlasServer()
    server.publish(scenario.atlas(day=0))
    prefixes = sorted(scenario.atlas(0).prefix_to_cluster)

    heat_config = dict(
        window=64,  # logical ops per heat window (no wall clocks)
        alpha=0.5,  # EMA weight of the freshest window
        promote_threshold=8.0,  # heat to enter the hot set
        demote_threshold=2.0,  # hysteresis: decay below this to leave
        replicas=4,  # ring successors a hot destination fans to
    )
    with server.serve(n_shards=4, heat=heat_config) as service:
        # three destinations that all hash to the same shard: the
        # worst-case pin for a skewed workload
        owner = service.shard_of_destination(prefixes[0])
        hot_dsts = [
            p for p in prefixes if service.shard_of_destination(p) == owner
        ][:3]
        srcs = prefixes[:16]
        hot_pairs = [(s, d) for d in hot_dsts for s in srcs]
        print(
            f"== {len(hot_dsts)} hot destinations, all pinned to "
            f"shard {owner} =="
        )

        # Phase 1: the skewed stream. Every query records heat for its
        # destination cluster; full windows EMA-decay and promote.
        for _ in range(4):
            service.predict_batch(hot_pairs)
        snap = service.heat.snapshot()
        print(
            f"  after {snap['heat.records']} records: "
            f"{snap['heat.hot_destinations']} hot "
            f"({snap['heat.promotions']} promotions)"
        )
        replicas = service.replicas_of_destination(hot_dsts[0])
        print(f"  replica set of dst {hot_dsts[0]}: shards {replicas}")

        # The spread is observable per shard — and free of correctness
        # cost: replicas answer from the same broadcast-synced graph.
        oracle = server.predict_batch(hot_pairs)
        got = service.predict_batch(hot_pairs)
        moved = [s["pairs"] for s in service.shard_stats()]
        print(f"  per-shard pairs handled: {moved}")
        print(f"  replica-routed queries: {service.stats['replica_routed']}")
        print(f"  bit-for-bit with single-process oracle: {got == oracle}")

        # Phase 2: the crowd moves on. Heat halves every window with no
        # traffic; hysteresis keeps membership stable until the decay
        # crosses the demote threshold.
        cold_dsts = [p for p in prefixes if p not in hot_dsts]
        for _ in range(8):
            service.predict_batch([(s, cold_dsts[0]) for s in srcs] * 4)
        snap = service.heat.snapshot()
        print(
            f"  after the shift: {snap['heat.demotions']} demotions; "
            f"{snap['heat.hot_destinations']} hot (the crowd's new "
            "target promoted in its place)"
        )
        print(
            f"  dst {hot_dsts[0]} routes to "
            f"{service.replicas_of_destination(hot_dsts[0])} (pinned again)"
        )

        # The front-end's load telemetry (also on the wire via
        # FLAG_STATS through a gateway).
        load = service.load_stats()
        print(
            f"  load: inflight={load['inflight']} "
            f"req p50={load['req_p50_us']:.0f}us "
            f"p99={load['req_p99_us']:.0f}us"
        )


if __name__ == "__main__":
    main()
