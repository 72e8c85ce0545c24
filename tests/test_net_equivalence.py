"""Networked / co-located equivalence over the full churn chain.

The network gateway's contract: a :class:`~repro.net.client.NetworkClient`
— over TCP or a unix-domain socket, in delegate mode (no atlas, queries
shipped over the wire) or bootstrap mode (atlas fetched over the wire,
daily deltas applied from pushes) — returns **bit-for-bit** the
predictions and :class:`~repro.client.query.PathInfo` payloads a
co-located consumer computes, every day of the runtime suite's ≥10-day
seeded churn chain, across the day-30 monthly recompile.

The co-located oracles are the exact single-process surfaces earlier
PRs proved against each other: the server runtime's pooled predictors
and a :class:`~repro.client.remote.QueryAgent` built over the server's
own runtime. Delta pushes must land **in place** on a bootstrapped
client's runtime (same runtime object, same graph objects, patch days
patched / monthly day recompiled) — the wire is a transport, not a
fork of the lineage.
"""

from __future__ import annotations

import copy
import random

import pytest

import test_runtime_delta_chain as chainmod

from repro.atlas.delta import compute_delta
from repro.client import AtlasServer
from repro.client.remote import QueryAgent
from repro.core.predictor import PredictorConfig
from repro.net import NetworkClient, NetworkGateway

PAIRS_PER_DAY = 8
CONFIGS = [PredictorConfig.inano(), PredictorConfig.graph_baseline()]


@pytest.fixture(scope="module")
def chain(atlas):
    return chainmod._build_chain(atlas)


class TestNetworkedEquivalence:
    def test_tcp_and_uds_clients_match_co_located_across_chain(
        self, chain, tmp_path_factory
    ):
        server = AtlasServer()
        server.publish(copy.deepcopy(chain[0]))
        ref_runtime = server.runtime()
        agent = QueryAgent.co_located(server)
        uds = str(tmp_path_factory.mktemp("net-equiv") / "gateway.sock")
        gateway = NetworkGateway(server, tcp=("127.0.0.1", 0), uds=uds)
        gateway.start()
        clients: list[NetworkClient] = []
        try:
            host, port = gateway.tcp_address
            delegate_tcp = NetworkClient.connect_tcp(host, port)
            delegate_uds = NetworkClient.connect_uds(uds)
            boot_tcp = NetworkClient.connect_tcp(host, port)
            boot_uds = NetworkClient.connect_uds(uds)
            clients = [delegate_tcp, delegate_uds, boot_tcp, boot_uds]
            assert boot_tcp.bootstrap().day == chain[0].day
            assert boot_uds.bootstrap().day == chain[0].day
            boot_runtimes = [boot_tcp.runtime, boot_uds.runtime]
            boot_graphs = [rt.directed_graph() for rt in boot_runtimes]

            prefixes = sorted(chain[0].prefix_to_cluster)
            rng = random.Random(0xC0FFEE)

            def check_day(day):
                pairs = [
                    tuple(rng.sample(prefixes, 2)) for _ in range(PAIRS_PER_DAY)
                ]
                for config in CONFIGS:
                    oracle = ref_runtime.pool.predictor(config).predict_batch(
                        pairs
                    )
                    for client in clients:
                        assert client.predict_batch(pairs, config) == oracle, (
                            day,
                            config.ablation_name(),
                            client.endpoint,
                            client.mode,
                        )
                oracle_infos = [
                    r.info for r in agent.query_batch_for(0, pairs)
                ]
                for client in clients:
                    assert client.query_batch(pairs) == oracle_infos, (
                        day,
                        client.endpoint,
                        client.mode,
                    )
                    if client.mode == "local":
                        assert client.day == day

            check_day(chain[0].day)
            for base, nxt in zip(chain, chain[1:]):
                delta = compute_delta(base, nxt)
                # push_delta advances the server's runtime (the oracles'
                # shared compiled core) and fans the INDB payload to the
                # two subscribed bootstrap connections
                result = gateway.push_delta(delta)
                assert result["day"] == nxt.day == ref_runtime.atlas.day
                assert result["subscribers"] == 2
                assert boot_tcp.wait_for_day(nxt.day) == nxt.day
                assert boot_uds.wait_for_day(nxt.day) == nxt.day
                check_day(nxt.day)

            assert len(chain) - 1 >= 10, "chain must span >= 10 deltas"
            for client, runtime, graph in zip(
                (boot_tcp, boot_uds), boot_runtimes, boot_graphs
            ):
                # pushes landed in place: same runtime, same graph object,
                # daily patches patched and the monthly boundary recompiled
                assert client.runtime is runtime
                assert runtime.directed_graph() is graph
                assert client.deltas_applied == len(chain) - 1
                assert runtime.updates_patched >= 1
                assert runtime.updates_recompiled >= 1
                assert runtime.atlas.day == chain[-1].day
        finally:
            for client in clients:
                client.close()
            gateway.close()


class TestServiceBackedGateway:
    """The same wire, fronting the sharded fleet: remote answers equal
    the service's (which the serve suite already pins to the
    single-process oracle), and pushes roll client + fleet together."""

    DAYS = 4  # a slice of the chain is enough; the full chain is pinned above

    def test_networked_service_matches_direct_service(self, chain):
        server = AtlasServer()
        server.publish(copy.deepcopy(chain[0]))
        service = server.serve(n_shards=2)
        gateway = None
        clients: list[NetworkClient] = []
        try:
            gateway = NetworkGateway(service, tcp=("127.0.0.1", 0))
            gateway.start()
            host, port = gateway.tcp_address
            delegate = NetworkClient.connect_tcp(host, port)
            boot = NetworkClient.connect_tcp(host, port)
            clients = [delegate, boot]
            assert delegate.backend_name == "service"
            assert boot.bootstrap().day == chain[0].day
            prefixes = sorted(chain[0].prefix_to_cluster)
            rng = random.Random(0x7E57)
            # asked again every day, so the gateway's cached answers of
            # one day meet every push
            fixed = [tuple(rng.sample(prefixes, 2)) for _ in range(PAIRS_PER_DAY)]

            def check_day(day):
                pairs = fixed + [
                    tuple(rng.sample(prefixes, 2)) for _ in range(PAIRS_PER_DAY)
                ]
                direct = service.predict_batch(pairs)
                assert delegate.predict_batch(pairs) == direct, day
                # the repeat is answered from the gateway's cache
                assert delegate.pipeline_predict(pairs) == direct, day
                assert boot.predict_batch(pairs) == direct, day
                infos = service.query_batch(pairs)
                assert delegate.query_batch(pairs) == infos, day
                assert delegate.query_batch(pairs) == infos, day
                assert boot.query_batch(pairs) == infos, day

            check_day(chain[0].day)
            for base, nxt in zip(chain[: self.DAYS], chain[1 : self.DAYS + 1]):
                result = gateway.push_delta(compute_delta(base, nxt))
                assert result["day"] == nxt.day == service.day
                assert boot.wait_for_day(nxt.day) == nxt.day
                assert service.converged()
                check_day(nxt.day)
            # every day's repeats (one predict, one query) were hits
            hits = gateway.obs.get_counter("net.gateway.answer_hits").get()
            assert hits == (self.DAYS + 1) * 2 * 2 * PAIRS_PER_DAY
        finally:
            for client in clients:
                client.close()
            if gateway is not None:
                gateway.close()
            service.close()


class TestRelayChainAndCompaction:
    """Planetary distribution, end to end: origin -> relay -> relay,
    with compaction firing mid-chain at every tier. Clients behind two
    relay tiers — delegate and bootstrapped, plus one that bootstraps a
    week late, *after* the log was folded into a fresh exact anchor —
    must land bit-for-bit on the co-located oracle, every day of the
    >= 10-delta churn chain."""

    COMPACT_DAYS = 4

    def test_two_deep_relay_chain_matches_co_located_across_chain(
        self, chain
    ):
        from repro.net import RelayGateway

        server = AtlasServer()
        server.publish(copy.deepcopy(chain[0]))
        ref_runtime = server.runtime()
        agent = QueryAgent.co_located(server)
        origin = NetworkGateway(
            server, tcp=("127.0.0.1", 0), compact_days=self.COMPACT_DAYS
        ).start()
        relays: list[RelayGateway] = []
        clients: list[NetworkClient] = []
        try:
            upstream = origin
            for _ in range(2):
                relay = RelayGateway(
                    upstream_tcp=upstream.tcp_address,
                    tcp=("127.0.0.1", 0),
                    compact_days=self.COMPACT_DAYS,
                ).start()
                relays.append(relay)
                upstream = relay
            tail = relays[-1]
            host, port = tail.tcp_address
            delegate = NetworkClient.connect_tcp(host, port)
            boot = NetworkClient.connect_tcp(host, port)
            clients = [delegate, boot]
            assert delegate.backend_name == "relay"
            assert boot.bootstrap().day == chain[0].day

            prefixes = sorted(chain[0].prefix_to_cluster)
            rng = random.Random(0x2E1A7)

            def check_day(day, check_clients):
                pairs = [
                    tuple(rng.sample(prefixes, 2)) for _ in range(PAIRS_PER_DAY)
                ]
                for config in CONFIGS:
                    oracle = ref_runtime.pool.predictor(config).predict_batch(
                        pairs
                    )
                    for client in check_clients:
                        assert client.predict_batch(pairs, config) == oracle, (
                            day,
                            config.ablation_name(),
                            client.mode,
                        )
                oracle_infos = [
                    r.info for r in agent.query_batch_for(0, pairs)
                ]
                for client in check_clients:
                    assert client.query_batch(pairs) == oracle_infos, (
                        day,
                        client.mode,
                    )

            check_day(chain[0].day, clients)
            for base, nxt in zip(chain, chain[1:]):
                delta = compute_delta(base, nxt)
                result = origin.push_delta(delta)
                assert result["day"] == nxt.day == ref_runtime.atlas.day
                # the push crosses both relay tiers before the client
                # behind them sees it
                assert boot.wait_for_day(nxt.day, timeout=30.0) == nxt.day
                check_day(nxt.day, clients)

            assert len(chain) - 1 >= 10, "chain must span >= 10 deltas"
            # compaction fired at every tier mid-chain, and no tier lost
            # its upstream feed
            assert origin.stats["compactions"] >= 2
            for relay in relays:
                assert relay.stats["compactions"] >= 2
                assert relay.stats["upstream_lost"] == 0
                assert relay.backend.day == chain[-1].day
            assert origin.stats["delta_log_days"] < len(chain) - 1

            # the week-late client: bootstraps behind both relays after
            # multiple compactions folded most of the chain into a fresh
            # exact anchor — one anchor + a short suffix, same answers
            late = NetworkClient.connect_tcp(host, port)
            clients.append(late)
            assert late.bootstrap().day == chain[-1].day
            assert late.deltas_applied <= self.COMPACT_DAYS
            check_day(chain[-1].day, clients)
        finally:
            for client in clients:
                client.close()
            for relay in reversed(relays):
                relay.close()
            origin.close()

    def test_late_bootstrap_lands_bit_for_bit_after_origin_compaction(
        self, chain
    ):
        """No relays: the origin alone, compacting mid-chain; a client
        that bootstraps only at the end anchors on the exact re-encode
        and replays the short suffix to the oracle's exact state."""
        server = AtlasServer()
        server.publish(copy.deepcopy(chain[0]))
        ref_runtime = server.runtime()
        gateway = NetworkGateway(
            server, tcp=("127.0.0.1", 0), compact_days=self.COMPACT_DAYS
        ).start()
        try:
            for base, nxt in zip(chain, chain[1:]):
                gateway.push_delta(compute_delta(base, nxt))
            assert gateway.stats["compactions"] >= 2
            host, port = gateway.tcp_address
            with NetworkClient.connect_tcp(host, port) as late:
                assert late.bootstrap().day == chain[-1].day
                assert late.deltas_applied <= self.COMPACT_DAYS
                prefixes = sorted(chain[0].prefix_to_cluster)
                rng = random.Random(0x1A7E)
                pairs = [
                    tuple(rng.sample(prefixes, 2)) for _ in range(16)
                ]
                for config in CONFIGS:
                    oracle = ref_runtime.pool.predictor(config).predict_batch(
                        pairs
                    )
                    assert late.predict_batch(pairs, config) == oracle
        finally:
            gateway.close()
