"""Mechanics of the sharded prediction service.

Covers the pieces the full-chain equivalence suite
(``test_serve_equivalence.py``) exercises only implicitly: the
shared-memory export/import round trip and its copy-on-write
materialization, routing (each destination's pairs reach its ring
owner and no other shard) and the fan-out's failure handling, the load
telemetry surfaces, client registration/release across the fleet,
divergence detection, and the pool's warm-start record lifecycle (a
released client must stop drawing prewarm work).
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.atlas.delta import compute_delta
from repro.atlas.serialization import decode_atlas, encode_atlas
from repro.client import AtlasServer
from repro.core.compiled import CompiledGraph
from repro.core.predictor import INanoPredictor, PredictorConfig
from repro.errors import ServiceError
from repro.runtime import AtlasRuntime

N_SHARDS = 2


@pytest.fixture(scope="module")
def server(scenario):
    server = AtlasServer()
    server.publish(copy.deepcopy(scenario.atlas(0)))
    return server


@pytest.fixture()
def service(server):
    svc = server.serve(n_shards=N_SHARDS)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def prefixes(scenario):
    return sorted(scenario.atlas(0).prefix_to_cluster)


class TestSharedGraph:
    def test_round_trip_and_zero_copy_views(self, atlas):
        payload = encode_atlas(atlas)
        cg = CompiledGraph.from_atlas(decode_atlas(payload), closed=True)
        handle = cg.to_shared()
        try:
            view = CompiledGraph.from_shared(handle.meta, decode_atlas(payload))
            for name, want in cg.arrays().items():
                got = getattr(view, name)
                assert not isinstance(got, list), f"{name} should be a view"
                assert not got.flags.writeable
                assert got.tolist() == want, name
            assert view._id_of == cg._id_of
            assert view.n_nodes == cg.n_nodes and view.n_edges == cg.n_edges
            view.release_shared()
        finally:
            handle.close()
            handle.unlink()

    def test_predictions_from_views_match_lists(self, atlas, prefixes):
        payload = encode_atlas(atlas)
        ref_atlas = decode_atlas(payload)
        cg = CompiledGraph.from_atlas(ref_atlas, closed=True)
        handle = cg.to_shared()
        try:
            view_atlas = decode_atlas(payload)
            view = CompiledGraph.from_shared(handle.meta, view_atlas)
            config = PredictorConfig.graph_baseline()
            ref = INanoPredictor(ref_atlas, config, primary_graph=cg)
            over_view = INanoPredictor(view_atlas, config, primary_graph=view)
            pairs = [(s, d) for s in prefixes[:6] for d in prefixes[6:12]]
            assert over_view.predict_batch(pairs) == ref.predict_batch(pairs)
            view.release_shared()
        finally:
            handle.close()
            handle.unlink()

    def test_ensure_mutable_materializes_and_detaches(self, atlas):
        cg = CompiledGraph.from_atlas(atlas, closed=True)
        handle = cg.to_shared()
        try:
            view = CompiledGraph.from_shared(handle.meta, atlas)
            assert view._shm is not None
            view.ensure_mutable()
            assert view._shm is None
            assert all(
                isinstance(values, list) for values in view.arrays().values()
            )
            assert view.arrays() == cg.arrays()
            view.ensure_mutable()  # idempotent
        finally:
            handle.close()
            handle.unlink()


class TestRoutingAndCoalescing:
    def test_predict_matches_server(self, service, server, prefixes):
        for src, dst in [(prefixes[0], prefixes[5]), (prefixes[3], prefixes[9])]:
            assert service.predict(src, dst) == server.predict(src, dst)

    def test_unmapped_destination_short_circuits(self, service):
        assert service.predict(10**9 + 7, 10**9 + 8) is None
        assert service.predict_batch([(10**9 + 7, 10**9 + 8)]) == [None]
        assert service.stats["batches_routed"] == 2
        assert all(s["batches"] == 0 for s in service.shard_stats()), (
            "unmapped destinations never reach a worker"
        )

    def test_shard_stats_expose_kernel_counters(self, service, prefixes):
        service.predict(prefixes[0], prefixes[5])
        stats = service.shard_stats()
        for s in stats:
            assert set(s["kernel"]) == {"searches", "hits", "search_us"}
            assert set(s["last_repair"]) == {
                "reused", "repaired", "replayed", "dirty", "prewarmed",
            }
        # at least the shard that served the pair ran or reused a search
        assert any(
            s["kernel"]["searches"] + s["kernel"]["hits"] >= 1 for s in stats
        )

    def test_skewed_batch_stays_on_destination_owners(self, server, prefixes):
        # 90% of the batch targets three destinations; every pair must
        # land on its destination's ring owner and nowhere else
        rng = random.Random(0x5EED)
        hot_dsts = prefixes[:3]
        pairs = [(rng.choice(prefixes), rng.choice(hot_dsts)) for _ in range(90)]
        pairs += [tuple(rng.sample(prefixes, 2)) for _ in range(10)]
        rng.shuffle(pairs)
        with server.serve(n_shards=4) as svc:
            expected = [0] * svc.n_shards
            for _, dst in pairs:
                expected[svc.shard_of_destination(dst)] += 1
            before = [s["pairs"] for s in svc.shard_stats()]
            got = svc.predict_batch(pairs)
            after = [s["pairs"] for s in svc.shard_stats()]
        assert [b - a for a, b in zip(before, after)] == expected
        assert got == server.predict_batch(pairs)

    def test_close_resolves_pending_and_rejects_new_work(self, server, prefixes):
        svc = server.serve(n_shards=N_SHARDS)
        svc.close()
        with pytest.raises(ServiceError):
            svc.predict(prefixes[0], prefixes[5])
        svc.close()  # idempotent


class TestLoadTelemetry:
    def test_load_stats_surface(self, server, prefixes):
        with server.serve(n_shards=2) as svc:
            svc.predict_batch(
                [(s, d) for s in prefixes[:4] for d in prefixes[4:8]]
            )
            load = svc.load_stats()
            assert load["inflight_per_shard"] == [0, 0]  # all drained
            assert load["inflight"] == 0
            assert load["req_p50_us"] > 0
            assert load["req_p99_us"] >= load["req_p50_us"]
            # mirrored into the stats dict the gateway serializes
            assert svc.stats["req_p50_us"] == load["req_p50_us"]
            assert svc.stats["req_p99_us"] == load["req_p99_us"]
            assert svc.stats["inflight"] == 0

    def test_worker_stats_carry_handle_percentiles(self, server, prefixes):
        with server.serve(n_shards=2) as svc:
            svc.predict_batch(
                [(s, d) for s in prefixes[:4] for d in prefixes[4:8]]
            )
            for stats in svc.shard_stats():
                assert "handle_p50_us" in stats
                assert stats["handle_p99_us"] >= stats["handle_p50_us"]
                if stats["batches"]:
                    assert stats["handle_p50_us"] > 0


class TestFleetState:
    def test_workers_start_converged(self, service):
        assert service.converged()
        snaps = service.shard_snapshots()
        assert len(snaps) == N_SHARDS
        assert snaps[0]["graphs"].keys() == {"directed", "closed"}

    def test_sync_from_server_rolls_the_fleet(self, scenario):
        server = AtlasServer()
        server.publish(copy.deepcopy(scenario.atlas(0)))
        server.runtime()  # materialize at day 0 so both sides roll the chain
        svc = server.serve(n_shards=N_SHARDS)
        try:
            server.publish(copy.deepcopy(scenario.atlas(1)))
            assert svc.day == 0
            assert svc.sync_from(server) == 1
            assert svc.day == 1
            assert svc.converged()
            pairs = [(s, d) for s, d in zip(
                sorted(scenario.atlas(1).prefix_to_cluster)[:6],
                sorted(scenario.atlas(1).prefix_to_cluster)[6:12],
            )]
            assert svc.predict_batch(pairs) == server.predict_batch(pairs)
        finally:
            svc.close()

    def test_register_and_release_client_across_fleet(self, service, atlas, prefixes):
        links = dict(list(copy.deepcopy(atlas).links.items())[:8])
        service.register_client("tok", links, from_src_prefixes={prefixes[0]})
        assert all(
            s["registered_clients"] == 1 for s in service.shard_stats()
        )
        # client-scoped queries resolve through the merged pool entry
        got = service.predict_batch(
            [(prefixes[0], prefixes[5])], client="tok"
        )
        assert len(got) == 1
        service.release_client("tok")
        assert all(
            s["registered_clients"] == 0 for s in service.shard_stats()
        )

    def test_shared_bytes_accounted(self, service):
        assert service.shared_bytes > 0

    def test_worker_error_does_not_desync_the_fleet(
        self, service, server, prefixes
    ):
        from repro.errors import ShardStateError

        pairs = [(prefixes[i], prefixes[i + 4]) for i in range(4)]
        with pytest.raises(ShardStateError):
            # unregistered client token: the owning worker replies with
            # an error, but every shard's reply must still be drained
            service.predict_batch(pairs, client="nobody")
        # the request/reply streams stayed in sync: the service keeps
        # answering correctly after the failure
        assert service.predict_batch(pairs) == server.predict_batch(pairs)
        assert service.converged()

    def test_invalid_arguments_rejected_before_spawning(self, server):
        with pytest.raises(ValueError):
            server.serve(n_shards=0)

    def test_dead_shard_does_not_strand_healthy_requests(
        self, server, prefixes
    ):
        from repro.errors import ShardStateError

        svc = server.serve(n_shards=2)
        try:
            d0 = [p for p in prefixes if svc.shard_of_destination(p) == 0][:3]
            d1 = next(p for p in prefixes if svc.shard_of_destination(p) == 1)
            healthy = [(prefixes[0], d) for d in d0]
            send = svc._shards.send

            def send_then_kill_shard_1(shard, msg):
                send(shard, msg)
                svc._shards._conns[1].close()  # shard 1's pipe dies

            # shard 0's group is routed first, so shard 1's pipe dies
            # between the two sends of one fan-out
            svc._shards.send = send_then_kill_shard_1
            with pytest.raises(ShardStateError, match="shard 1"):
                svc.predict_batch(healthy + [(prefixes[0], d1)])
            svc._shards.send = send
            # shard 0's reply was drained: nothing in flight, and its
            # stream answers the next request with that request's reply
            assert svc._inflight == [0, 0]
            reply = svc._shards.request(0, ("stats",))
            assert reply[0] == "stats" and reply[1]["batches"] == 1
            assert svc.predict_batch(healthy) == server.predict_batch(healthy)
        finally:
            svc.close()

    def test_shape_verify_mode(self, scenario):
        server = AtlasServer()
        server.publish(copy.deepcopy(scenario.atlas(0)))
        server.runtime()
        svc = server.serve(n_shards=N_SHARDS)
        try:
            server.publish(copy.deepcopy(scenario.atlas(1)))
            update = svc.apply_delta(server.delta_for(1), verify="shape")
            # shape handshake skips the O(graph) digest per worker...
            graphs = update["snapshot"]["graphs"]
            assert all(fp is None for _, _, fp in graphs.values())
            # ...while the on-demand check still runs the full digest
            assert svc.converged()
            with pytest.raises(ValueError):
                svc.apply_delta(server.delta_for(1), verify="bogus")
        finally:
            svc.close()


class TestPoolWarmRecords:
    """The release fix: a released client's warm-start records must not
    pin prewarm work on later updates."""

    def _chain_step(self, atlas, bump):
        nxt = copy.deepcopy(atlas)
        nxt.day += 1
        from repro.atlas.model import LinkRecord

        for link in list(nxt.links)[: len(nxt.links) // 4]:
            rec = nxt.links[link]
            nxt.links[link] = LinkRecord(latency_ms=rec.latency_ms + bump)
        return nxt

    def test_records_reseed_destinations_evicted_from_lru(self, atlas):
        runtime = AtlasRuntime(copy.deepcopy(atlas))
        graph = runtime.closed_graph()
        config = PredictorConfig.graph_baseline()
        predictor = runtime.pool.predictor(config)
        clusters = sorted({c for ab in runtime.atlas.links for c in ab})[:3]
        for cluster in clusters:
            predictor.search_for(graph, cluster, None)
        day1 = self._chain_step(runtime.atlas, 0.25)
        runtime.apply_delta(compute_delta(runtime.atlas, day1))
        pool_key = (config, None)
        assert runtime.pool._warm.get(pool_key), "update records hot dsts"
        # simulate the hottest destination aging out of the LRU
        graph = runtime.closed_graph()
        victim = next(
            key
            for key in list(predictor._search_cache)
            if key[1] == clusters[0]
        )
        del predictor._search_cache[victim]
        day2 = self._chain_step(runtime.atlas, 0.5)
        runtime.apply_delta(compute_delta(runtime.atlas, day2))
        graph = runtime.closed_graph()
        assert (graph.version, clusters[0], None) in predictor._search_cache, (
            "warm records re-seed destinations the LRU already dropped"
        )

    def test_release_drops_warm_records(self, atlas):
        runtime = AtlasRuntime(copy.deepcopy(atlas))
        graph = runtime.closed_graph()
        config = PredictorConfig.graph_baseline()
        shared = runtime.pool.predictor(config)
        dedicated = runtime.pool.predictor(config, client_key="c1")
        clusters = sorted({c for ab in runtime.atlas.links for c in ab})[:2]
        for cluster in clusters:
            shared.search_for(graph, cluster, None)
            dedicated.search_for(graph, cluster, None)
        runtime.apply_delta(
            compute_delta(runtime.atlas, self._chain_step(runtime.atlas, 0.25))
        )
        assert any(key[1] == "c1" for key in runtime.pool._warm)
        runtime.release("c1")
        assert not any(key[1] == "c1" for key in runtime.pool._warm), (
            "released client's warm-start records must be dropped"
        )
        assert not any(key[1] == "c1" for key in runtime.pool._entries)
        # subsequent updates still work and never prewarm for c1
        report = runtime.apply_delta(
            compute_delta(runtime.atlas, self._chain_step(runtime.atlas, 0.5))
        )
        assert "c1" not in {key[1] for key in runtime.pool._warm}
        assert report.cache["prewarmed"] <= runtime.pool.prewarm_max


class TestCloseAndLiveness:
    """PR 5 hardening: close is idempotent, a dead worker is detected
    promptly (with its shard id) instead of hanging a pipe read, and
    ``timeout=`` bounds every broadcast / fan-out reply wait."""

    def test_close_is_idempotent(self, server, prefixes):
        svc = server.serve(n_shards=N_SHARDS)
        svc.predict(prefixes[0], prefixes[5])
        svc.close()
        assert svc._shards.closed
        svc.close()  # second explicit close: no-op
        assert svc._shards.closed

    def test_context_exit_after_explicit_close(self, server):
        with server.serve(n_shards=N_SHARDS) as svc:
            svc.close()
        assert svc._shards.closed  # __exit__ re-closed without error

    def test_dead_worker_raises_with_shard_id_not_hang(self, server):
        import time

        from repro.errors import ShardStateError

        svc = server.serve(n_shards=2)
        try:
            proc = svc._shards._procs[1]
            proc.terminate()
            proc.join(timeout=5.0)
            start = time.monotonic()
            with pytest.raises(ShardStateError, match="shard 1"):
                svc._shards.request(1, ("snapshot",))
            assert time.monotonic() - start < 5.0, "detection must be prompt"
            # the other worker still serves
            assert svc._shards.request(0, ("snapshot",))[0] == "snapshot"
        finally:
            svc.close()

    def test_reply_timeout_bounds_the_wait_and_poisons_the_shard(self, server):
        import time

        from repro.errors import ShardStateError

        svc = server.serve(n_shards=N_SHARDS)
        try:
            # no request outstanding: a live worker will never reply, so
            # only the timeout can end this wait
            start = time.monotonic()
            with pytest.raises(ShardStateError, match="timed out"):
                svc._shards.recv_raw(0, timeout=0.3)
            elapsed = time.monotonic() - start
            assert 0.2 <= elapsed < 5.0
            # a timed-out shard's pipe may later carry the stale reply;
            # it is quarantined rather than left to answer the wrong
            # request
            with pytest.raises(ShardStateError, match="quarantined"):
                svc._shards.request(0, ("snapshot",))
            # the other shard is unaffected
            assert svc._shards.request(1, ("snapshot",))[0] == "snapshot"
        finally:
            svc.close()

    def test_service_level_timeout_is_plumbed(self, server, prefixes):
        svc = server.serve(n_shards=N_SHARDS, timeout=30.0)
        try:
            assert svc.timeout == 30.0
            assert svc.predict(prefixes[0], prefixes[5]) == server.predict(
                prefixes[0], prefixes[5]
            )
            assert svc.apply_delta is not None  # broadcast paths share it
        finally:
            svc.close()

    def test_buffered_reply_from_exited_worker_still_drains(self, server):
        svc = server.serve(n_shards=2)
        try:
            # ask for a snapshot, let the reply land in the pipe, then
            # stop the worker: the reply must still be readable
            svc._shards.send(1, ("snapshot",))
            import time

            time.sleep(0.3)
            svc._shards._procs[1].terminate()
            svc._shards._procs[1].join(timeout=5.0)
            reply = svc._shards.recv_raw(1, timeout=5.0)
            assert reply[0] == "snapshot"
        finally:
            svc.close()
