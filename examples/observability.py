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
   admission / dispatch, the front-end's shard routing (the
   destination's ring owner), the worker's batch handling, the kernel
   search itself (cache-hit vs cold),
3. fetch the assembled span tree back over ``TRACE_FETCH`` and render
   it,
4. pull the fleet-wide metrics snapshot (front-end registry + every
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

    service = server.serve(n_shards=2)
    try:
        with NetworkGateway(service, tcp=("127.0.0.1", 0)) as gateway:
            host, port = gateway.tcp_address
            print(f"  gateway on tcp://{host}:{port}, 2 shards")

            # -- 2. a traced query end to end --------------------------
            with NetworkClient.connect_tcp(
                host, port, trace=True, trace_seed=11
            ) as client:
                client.predict_batch([(prefixes[1], prefixes[5])])
                print("\n== span tree: one query through the fleet ==")
                print(render_tree(client.fetch_trace(), indent="   "))

            # -- 4. the fleet dashboard --------------------------------
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
