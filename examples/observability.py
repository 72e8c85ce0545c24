#!/usr/bin/env python3
"""The unified observability layer: metrics, traces, fleet dashboard.

Every tier of the serving stack reports into one substrate now — the
:mod:`repro.obs` metrics registry and the end-to-end request tracer.
This example lights up all of it against a real sharded deployment:

1. publish an atlas, serve it with a 2-shard
   :class:`~repro.serve.service.PredictionService` behind a
   :class:`~repro.net.gateway.NetworkGateway` on TCP,
2. connect a ``trace=True`` client: its HELLO negotiates ``FLAG_TRACE``,
   each query carries a ``(trace_id, span_id)`` context on the wire,
   and every layer it crosses records spans — gateway decode /
   admission / dispatch, the front-end's shard routing (pinned vs
   promoted replica), the worker's batch handling, the kernel search
   itself (cache-hit vs cold),
3. fetch the assembled span tree back over ``TRACE_FETCH`` and render
   it,
4. heat one destination until the hotspot layer promotes it, and watch
   the ``serve.route`` span flip from ``replica=pinned`` to
   ``replica=promoted``,
5. pull the fleet-wide metrics snapshot (front-end registry + every
   worker's registry folded together) and render the ``repro-top``
   dashboard plus the Prometheus text exposition.

Run:  python examples/observability.py
"""

import copy

from repro.client import AtlasServer
from repro.eval import get_scenario
from repro.net import NetworkClient, NetworkGateway
from repro.obs import MetricsRegistry, render_tree
from repro.obs.dashboard import render


def main() -> None:
    scenario = get_scenario("small")
    server = AtlasServer()
    server.publish(copy.deepcopy(scenario.atlas(day=0)))
    prefixes = sorted(scenario.atlas(0).prefix_to_cluster)
    print("== atlas published (day 0) ==")

    heat = dict(window=16, alpha=0.5, promote_threshold=4.0, replicas=2)
    service = server.serve(n_shards=2, heat=heat)
    try:
        with NetworkGateway(service, tcp=("127.0.0.1", 0)) as gateway:
            host, port = gateway.tcp_address
            print(f"  gateway on tcp://{host}:{port}, 2 shards, heat on")

            # -- 2. a traced query end to end --------------------------
            with NetworkClient.connect_tcp(
                host, port, trace=True, trace_seed=11
            ) as client:
                cold_dst = prefixes[5]
                client.predict_batch([(prefixes[1], cold_dst)])
                print("\n== span tree: cold destination (pinned) ==")
                print(render_tree(client.fetch_trace(), indent="   "))

                # -- 4. heat a destination until it is promoted --------
                hot_dst = prefixes[0]
                hot_pairs = [(s, hot_dst) for s in prefixes[1:9]]
                for _ in range(8):
                    client.predict_batch(hot_pairs)
                cluster = service.atlas.cluster_of_prefix(hot_dst)
                assert service.heat.is_hot(cluster)
                client.predict_batch(hot_pairs)
                spans = client.fetch_trace()
                route = next(s for s in spans if s.name == "serve.route")
                print("\n== span tree: hot destination "
                      f"(replica={route.tags['replica']}) ==")
                print(render_tree(spans, indent="   "))

            # -- 5. the fleet dashboard --------------------------------
            fleet = service.fleet_snapshot()
            fleet = MetricsRegistry.merge_snapshots(fleet, gateway.obs.snapshot())
            print()
            print(render(fleet, title="repro-top — 1 gateway, 2 shards"))

            prom = gateway.obs.expose_text()
            print("\n== prometheus exposition (gateway registry, head) ==")
            print("\n".join(prom.splitlines()[:10]))
    finally:
        service.close()


if __name__ == "__main__":
    main()
