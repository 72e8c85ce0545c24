"""Heat tracking + hot-destination replica routing.

The hotspot layer is pure policy over mechanisms proven elsewhere
(hash-ring ownership, delta broadcast keeping every shard current), so
this suite pins the policy itself: deterministic promote/demote on the
logical-op window clock, hysteresis against flapping, replica sets as
ring successors, least-loaded fan-out on a live service — and that
none of it can change a single answer bit (replication is routing
only).
"""

from __future__ import annotations

import copy

import pytest

from repro.client import AtlasServer
from repro.serve.hashring import HashRing
from repro.serve.heat import Counter, HeatTracker, Timer, Tracker


@pytest.fixture(scope="module")
def server(scenario):
    server = AtlasServer()
    server.publish(copy.deepcopy(scenario.atlas(0)))
    return server


@pytest.fixture(scope="module")
def prefixes(scenario):
    return sorted(scenario.atlas(0).prefix_to_cluster)


class TestTracker:
    def test_counters_and_timers_are_shared_by_name(self):
        tracker = Tracker()
        a = tracker.get_counter("routed")
        b = tracker.get_counter("routed")
        assert a is b
        a.increase()
        b.increase(4)
        assert tracker.get_counter("routed").get() == 5
        t = tracker.get_timer("route_seconds")
        assert t is tracker.get_timer("route_seconds")
        t.add(0.25)
        with tracker.get_timer("route_seconds"):
            pass
        assert tracker.get_timer("route_seconds").get() >= 0.25

    def test_snapshot_is_flat(self):
        tracker = Tracker()
        tracker.get_counter("a").increase(2)
        tracker.get_timer("b").add(1.5)
        snap = tracker.snapshot()
        assert snap == {"a": 2, "b": 1.5}

    def test_repr_names(self):
        assert "hits" in repr(Counter("hits"))
        assert "lat" in repr(Timer("lat"))


class TestHeatTracker:
    def test_promotes_on_sustained_skew(self):
        heat = HeatTracker(window=10, alpha=0.5, promote_threshold=4.0)
        # destination 7 takes 50% of three full windows:
        # EMA 2.5 -> 3.75 -> 4.375, crossing the threshold on the third
        for _ in range(3):
            for i in range(5):
                heat.record(7)
                heat.record(100 + i)
        assert heat.is_hot(7)
        assert heat.heat_of(7) == 4.375
        assert not heat.is_hot(100)
        assert heat.hot == frozenset({7})
        snap = heat.snapshot()
        assert snap["heat.promotions"] == 1
        assert snap["heat.hot_destinations"] == 1
        assert snap["heat.records"] == 30

    def test_demotes_on_decay(self):
        heat = HeatTracker(
            window=10, alpha=0.5, promote_threshold=4.0, demote_threshold=1.0
        )
        for _ in range(3):
            for _ in range(5):
                heat.record(7)
            for i in range(5):
                heat.record(100 + i)
        assert heat.is_hot(7)
        # traffic moves away entirely: EMA halves each window
        for _ in range(40):
            heat.record(999)
        assert not heat.is_hot(7)
        assert heat.snapshot()["heat.demotions"] == 1

    def test_hysteresis_holds_between_thresholds(self):
        heat = HeatTracker(
            window=10, alpha=0.5, promote_threshold=5.0, demote_threshold=1.0
        )
        for _ in range(4):
            for _ in range(8):
                heat.record(3)
            heat.record(50)
            heat.record(51)
        assert heat.is_hot(3)
        # drop to 3/window: EMA settles ~3 — below promote, above demote
        for _ in range(6):
            for _ in range(3):
                heat.record(3)
            for i in range(7):
                heat.record(60 + i)
        assert 1.0 < heat.heat_of(3) < 5.0
        assert heat.is_hot(3), "membership must hold inside the band"

    def test_determinism_same_sequence_same_hot_set(self):
        seq = ([5] * 6 + list(range(10, 14))) * 3
        a = HeatTracker(window=10)
        b = HeatTracker(window=10)
        for dst in seq:
            a.record(dst)
            b.record(dst)
        assert a.hot == b.hot
        assert a.heat_of(5) == b.heat_of(5)

    def test_bulk_record_splits_windows(self):
        # one record(n=25) over window=10 must close windows exactly as
        # 25 singles would
        a = HeatTracker(window=10, alpha=0.5)
        b = HeatTracker(window=10, alpha=0.5)
        a.record(4, n=25)
        for _ in range(25):
            b.record(4)
        assert a.heat_of(4) == b.heat_of(4)
        assert a.snapshot() == b.snapshot()

    def test_validation(self):
        with pytest.raises(ValueError):
            HeatTracker(window=0)
        with pytest.raises(ValueError):
            HeatTracker(alpha=0.0)
        with pytest.raises(ValueError):
            HeatTracker(promote_threshold=1.0, demote_threshold=2.0)
        with pytest.raises(ValueError):
            HeatTracker(replicas=0)
        with pytest.raises(ValueError):
            HeatTracker().record(1, n=0)


class TestRingSuccessors:
    def test_first_successor_is_the_owner(self):
        ring = HashRing(range(6))
        for key in range(200):
            assert ring.successors(key, 3)[0] == ring.shard_for(key)

    def test_successors_distinct_and_clamped(self):
        ring = HashRing(range(4))
        for key in range(100):
            reps = ring.successors(key, 3)
            assert len(reps) == len(set(reps)) == 3
            assert ring.successors(key, 99) == ring.successors(key, 4)
            assert len(ring.successors(key, 99)) == 4

    def test_successors_deterministic_across_instances(self):
        a = HashRing(range(5))
        b = HashRing([4, 3, 2, 1, 0])  # insertion order must not matter
        for key in range(100):
            assert a.successors(key, 3) == b.successors(key, 3)

    def test_successor_k1_validation(self):
        ring = HashRing(range(3))
        with pytest.raises(ValueError):
            ring.successors(1, 0)

    def test_memoized_lookup_survives_ring_changes(self):
        ring = HashRing(range(4))
        before = {k: ring.shard_for(k) for k in range(300)}
        # cached answers are stable
        assert {k: ring.shard_for(k) for k in range(300)} == before
        ring.add_shard(4)
        fresh = HashRing(range(5))
        after = {k: ring.shard_for(k) for k in range(300)}
        assert after == {k: fresh.shard_for(k) for k in range(300)}
        ring.remove_shard(4)
        assert {k: ring.shard_for(k) for k in range(300)} == before


class TestServiceReplicaRouting:
    HEAT = dict(window=16, alpha=0.5, promote_threshold=4.0, replicas=2)

    def test_hot_destination_spreads_and_answers_match(
        self, server, prefixes
    ):
        hot_dst = prefixes[0]
        srcs = prefixes[1:9]
        pairs = [(s, hot_dst) for s in srcs] * 8
        oracle = server.predict_batch(pairs)
        with server.serve(n_shards=2, heat=dict(self.HEAT)) as svc:
            cluster = svc.atlas.cluster_of_prefix(hot_dst)
            assert svc.replicas_of_destination(hot_dst) == [
                svc.shard_of_destination(hot_dst)
            ]
            got = []
            for chunk in range(4):
                got.extend(svc.predict_batch(pairs[chunk * 16 : chunk * 16 + 16]))
            assert svc.heat.is_hot(cluster)
            replicas = svc.replicas_of_destination(hot_dst)
            assert len(replicas) == 2
            assert replicas[0] == svc.shard_of_destination(hot_dst)
            # hot traffic now reaches both replicas, bit-identically
            got.extend(svc.predict_batch(pairs[:16]))
            assert svc.stats["replica_routed"] > 0
            assert got == oracle + oracle[:16]
            per_shard = svc.shard_stats()
            assert all(s["pairs"] > 0 for s in per_shard), (
                "replication should hand the hot stream to every shard"
            )

    def test_demotion_restores_pinned_routing(self, server, prefixes):
        hot_dst, cold_dst = prefixes[0], prefixes[5]
        with server.serve(
            n_shards=2,
            heat=dict(self.HEAT, demote_threshold=1.0),
        ) as svc:
            cluster = svc.atlas.cluster_of_prefix(hot_dst)
            for _ in range(8):
                for s in prefixes[1:5]:
                    svc.predict_batch([(s, hot_dst)])
            assert svc.heat.is_hot(cluster)
            # all traffic shifts elsewhere; heat decays below demote
            for _ in range(20):
                svc.predict_batch([(s, cold_dst) for s in prefixes[1:5]])
            assert not svc.heat.is_hot(cluster)
            assert svc.replicas_of_destination(hot_dst) == [
                svc.shard_of_destination(hot_dst)
            ]

    def test_load_stats_surface(self, server, prefixes):
        with server.serve(n_shards=2, heat=dict(self.HEAT)) as svc:
            svc.predict_batch(
                [(s, d) for s in prefixes[:4] for d in prefixes[4:8]]
            )
            load = svc.load_stats()
            assert load["inflight_per_shard"] == [0, 0]  # all drained
            assert load["inflight"] == 0
            assert load["req_p50_us"] > 0
            assert load["req_p99_us"] >= load["req_p50_us"]
            assert "heat" in load
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

    def test_heat_true_uses_defaults_and_none_disables(self, server, prefixes):
        with server.serve(n_shards=2, heat=True) as svc:
            assert isinstance(svc.heat, HeatTracker)
        with server.serve(n_shards=2) as svc:
            assert svc.heat is None
            svc.predict_batch([(prefixes[0], prefixes[5])])
            assert svc.stats["replica_routed"] == 0
