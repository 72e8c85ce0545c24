"""The unified observability layer: registry, tracing, dashboard.

Three layers under test, bottom-up:

* the metric primitives — histogram percentiles against a numpy
  nearest-rank oracle, snapshot/merge associativity (the property that
  makes the fleet fold order-independent), the ``StatsView`` facade
  that keeps ``gateway.stats`` dict-shaped;
* the trace primitives — deterministic sampling under a seeded RNG,
  process-global span-id uniqueness (a client and a gateway tracer in
  one process must never mint the same id), LRU bounding, tree
  assembly with orphan surfacing;
* the end-to-end pipeline — a traced query through a real TCP gateway
  over the sharded service returns one span tree covering gateway
  decode, admission, shard routing, worker batch handling and the
  kernel search, and the legacy stats surfaces (``gateway.stats``,
  ``load_stats()``) stay equivalent views over the registry while
  tracing runs.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro.client import AtlasServer
from repro.errors import ClientError
from repro.net import NetworkClient, NetworkGateway
from repro.obs import (
    DEFAULT_US_BUCKETS,
    MetricsRegistry,
    Span,
    TraceCollector,
    Tracer,
    build_tree,
    render_tree,
)
from repro.obs.dashboard import render
from repro.obs.registry import histogram_percentile, prefix_snapshot
from repro.util.stats import nearest_rank


# -- histograms ------------------------------------------------------------


class TestHistogram:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q", [0.50, 0.90, 0.99])
    def test_exact_percentile_matches_numpy_oracle(self, seed, q):
        rng = random.Random(seed)
        values = [rng.uniform(0.5, 400_000.0) for _ in range(257)]
        hist = MetricsRegistry().get_histogram("t")
        for v in values:
            hist.observe(v)
        got = hist.percentile(q)
        assert got == nearest_rank(values, q)
        # nearest-rank must land between numpy's two bracketing order
        # statistics for the same q
        lo = float(np.percentile(values, q * 100, method="lower"))
        hi = float(np.percentile(values, q * 100, method="higher"))
        assert lo <= got <= hi

    def test_window_bounds_the_exact_percentile(self):
        hist = MetricsRegistry().get_histogram("t", window=8)
        for v in [1000.0] * 50 + [10.0] * 8:
            hist.observe(v)
        # only the last 8 samples remain in the exact window...
        assert hist.percentile(0.99) == 10.0
        # ...but the mergeable bucket counts remember everything
        assert hist.count == 58

    def test_merged_percentile_lands_in_the_right_bucket(self):
        rng = random.Random(7)
        values = [rng.uniform(1.0, 900_000.0) for _ in range(500)]
        hist = MetricsRegistry().get_histogram("t")
        for v in values:
            hist.observe(v)
        exact = nearest_rank(values, 0.99)
        merged = histogram_percentile(hist.state(), 0.99)
        # bucket-resolution answer: same bucket as the exact one
        bounds = (0.0,) + DEFAULT_US_BUCKETS + (float("inf"),)
        for lo, hi in zip(bounds, bounds[1:]):
            if lo < exact <= hi:
                assert lo <= merged <= hi
                break

    def test_empty_histogram_reports_zero(self):
        hist = MetricsRegistry().get_histogram("t")
        assert hist.percentile(0.5) == 0.0
        assert histogram_percentile(hist.state(), 0.5) == 0.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().get_histogram("t", bounds=(5.0, 1.0))


# -- snapshot / merge ------------------------------------------------------


def _loaded_registry(seed: int) -> MetricsRegistry:
    rng = random.Random(seed)
    reg = MetricsRegistry()
    reg.get_counter("req.total").increase(rng.randrange(1, 50))
    reg.get_gauge("req.depth").set(rng.randrange(0, 9))
    hist = reg.get_histogram("req.us")
    for _ in range(rng.randrange(5, 40)):
        hist.observe(rng.uniform(1.0, 100_000.0))
    return reg


class TestSnapshotMerge:
    def test_merge_is_associative(self):
        a, b, c = (_loaded_registry(s).snapshot() for s in (1, 2, 3))
        merge = MetricsRegistry.merge_snapshots
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        assert left == right

    def test_merge_sums_numbers_and_buckets(self):
        a, b = _loaded_registry(4).snapshot(), _loaded_registry(5).snapshot()
        out = MetricsRegistry.merge_snapshots(a, b)
        assert out["req.total"] == a["req.total"] + b["req.total"]
        assert out["req.us"]["count"] == a["req.us"]["count"] + b["req.us"]["count"]
        assert out["req.us"]["counts"] == [
            x + y for x, y in zip(a["req.us"]["counts"], b["req.us"]["counts"])
        ]
        assert out["req.us"]["max"] == max(a["req.us"]["max"], b["req.us"]["max"])

    def test_merge_does_not_mutate_inputs(self):
        a, b = _loaded_registry(6).snapshot(), _loaded_registry(7).snapshot()
        a_copy = copy.deepcopy(a)
        MetricsRegistry.merge_snapshots(a, b)
        assert a == a_copy

    def test_merge_rejects_mismatched_bounds(self):
        reg = MetricsRegistry()
        reg.get_histogram("h", bounds=(1.0, 2.0)).observe(1.0)
        other = MetricsRegistry()
        other.get_histogram("h", bounds=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ValueError, match="bounds"):
            MetricsRegistry.merge_snapshots(reg.snapshot(), other.snapshot())

    def test_prefix_snapshot_rekeys(self):
        snap = {"a.b": 1, "c": 2}
        assert prefix_snapshot(snap, "shard3") == {"shard3.a.b": 1, "shard3.c": 2}


# -- registry / views ------------------------------------------------------


class TestRegistry:
    def test_same_name_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.get_counter("x") is reg.get_counter("x")
        assert reg.get_histogram("h") is reg.get_histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.get_counter("x")
        with pytest.raises(ValueError, match="Counter"):
            reg.get_gauge("x")
        reg.get_histogram("h")
        with pytest.raises(ValueError):
            reg.get_counter("h")

    def test_expose_text_prometheus_shape(self):
        reg = MetricsRegistry()
        reg.get_counter("net.requests").increase(3)
        reg.get_histogram("net.req_us", bounds=(10.0, 100.0)).observe(42.0)
        text = reg.expose_text()
        assert "# TYPE net_requests counter" in text
        assert "net_requests 3" in text
        assert "# TYPE net_req_us histogram" in text
        assert 'net_req_us_bucket{le="100"} 1' in text
        assert 'net_req_us_bucket{le="+Inf"} 1' in text
        assert "net_req_us_count 1" in text

    def test_timer_adds_and_times_a_block(self):
        reg = MetricsRegistry()
        timer = reg.get_timer("route_seconds")
        assert timer is reg.get_timer("route_seconds")
        timer.add(0.25)
        with reg.get_timer("route_seconds"):
            pass
        assert reg.get_timer("route_seconds").get() >= 0.25

    def test_counter_and_timer_snapshot_is_flat(self):
        reg = MetricsRegistry()
        reg.get_counter("a").increase(2)
        reg.get_timer("b").add(1.5)
        assert reg.snapshot() == {"a": 2, "b": 1.5}

    def test_repr_names(self):
        reg = MetricsRegistry()
        assert "hits" in repr(reg.get_counter("hits"))
        assert "lat" in repr(reg.get_timer("lat"))


class TestStatsView:
    def test_view_is_a_window_onto_gauges(self):
        reg = MetricsRegistry()
        view = reg.view("net.gw", ("requests", "errors"))
        view["requests"] += 5
        assert reg.get_gauge("net.gw.requests").get() == 5
        reg.get_gauge("net.gw.errors").add(2)
        assert view["errors"] == 2
        assert dict(view) == {"requests": 5, "errors": 2}

    def test_new_keys_create_gauges(self):
        reg = MetricsRegistry()
        view = reg.view("relay", ("anchor_day",))
        view["upstream_lost"] = 1
        assert reg.get_gauge("relay.upstream_lost").get() == 1
        assert list(view) == ["anchor_day", "upstream_lost"]

    def test_undeclared_read_and_delete_fail(self):
        view = MetricsRegistry().view("p", ("a",))
        with pytest.raises(KeyError):
            view["missing"]
        with pytest.raises(TypeError):
            del view["a"]


# -- tracer primitives -----------------------------------------------------


class TestTracer:
    def test_sampling_is_deterministic_under_seeded_rng(self):
        mk = lambda: Tracer(sample_rate=0.4, rng=random.Random(99))
        a, b = mk(), mk()
        decisions = [a.sample() for _ in range(200)]
        assert decisions == [b.sample() for _ in range(200)]
        assert 0 < sum(decisions) < 200

    def test_rate_edges_skip_the_rng(self):
        always = Tracer(sample_rate=1.0, rng=random.Random(1))
        never = Tracer(sample_rate=0.0, rng=random.Random(1))
        assert all(always.sample() for _ in range(50))
        assert not any(never.sample() for _ in range(50))
        # no draws happened: both RNGs still agree with a fresh one
        assert always.rng.random() == random.Random(1).random()

    def test_unsampled_start_trace_is_none(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.start_trace() is None
        ctx = Tracer(sample_rate=1.0).start_trace()
        assert ctx is not None and ctx[0] != 0

    def test_span_ids_unique_across_tracer_instances(self):
        # regression: a client tracer and a gateway tracer co-resident
        # in one process used to restart the same counter and collide
        ids = {Tracer().mint_id() for _ in range(64)}
        ids.update(Tracer().mint_id() for _ in range(64))
        assert len(ids) == 128

    def test_record_parents_and_stringifies_tags(self):
        tracer = Tracer()
        sid = tracer.record((7, 3), "x", 0.0, 1.0, pairs=4)
        [span] = tracer.collector.spans_of(7)
        assert (span.trace_id, span.parent_id, span.span_id) == (7, 3, sid)
        assert span.tags == {"pairs": "4"}


class TestTraceCollector:
    def test_lru_bounds_trace_count(self):
        coll = TraceCollector(max_traces=4)
        for tid in range(1, 10):
            coll.record(Span(tid, tid, 0, "s", 0.0, 1.0))
        assert len(coll) == 4
        assert coll.spans_of(1) == []
        assert len(coll.spans_of(9)) == 1


class TestBuildTree:
    def test_nesting_and_orphans(self):
        spans = [
            Span(1, 10, 0, "root", 0.0, 9.0),
            Span(1, 11, 10, "child", 1.0, 2.0),
            Span(1, 12, 11, "grandchild", 1.5, 0.5),
            Span(1, 13, 999, "orphan", 3.0, 1.0),  # parent lost
        ]
        roots = build_tree(spans)
        assert [n["span"].name for n in roots] == ["root", "orphan"]
        assert roots[0]["children"][0]["span"].name == "child"
        assert roots[0]["children"][0]["children"][0]["span"].name == "grandchild"
        text = render_tree(spans)
        assert "root" in text and "  child" in text


class TestDashboard:
    def test_render_groups_and_histograms(self):
        reg = MetricsRegistry()
        reg.get_gauge("net.gateway.requests").set(12)
        h = reg.get_histogram("serve.service.request_us")
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        board = render(reg.snapshot(), title="test-top")
        assert "test-top" in board
        assert "[net]" in board and "[serve]" in board
        assert "n=3" in board


# -- end-to-end ------------------------------------------------------------


@pytest.fixture(scope="module")
def server(scenario):
    server = AtlasServer()
    server.publish(copy.deepcopy(scenario.atlas(0)))
    return server


@pytest.fixture(scope="module")
def prefixes(scenario):
    return sorted(scenario.atlas(0).prefix_to_cluster)


def _names(spans):
    return [s.name for s in spans]


def _route_spans(spans):
    return [s for s in spans if s.name == "serve.route"]


class TestEndToEndTrace:
    def test_server_backend_span_tree(self, server):
        gateway = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        client = None
        try:
            host, port = gateway.tcp_address
            client = NetworkClient.connect_tcp(host, port, trace=True)
            src, dst = sorted(server.atlas_object().prefix_to_cluster)[:2]
            client.predict(src, dst)
            spans = client.fetch_trace()
            names = _names(spans)
            for expected in (
                "client.request",
                "gw.admission",
                "gw.decode",
                "gw.dispatch",
                "kernel.search",
            ):
                assert expected in names
            [kernel] = [s for s in spans if s.name == "kernel.search"]
            assert kernel.tags["cache"] in ("hit", "cold")
            tree = client.span_tree()
            assert tree[0]["span"].name == "client.request"
            kids = {n["span"].name for n in tree[0]["children"]}
            assert {"gw.admission", "gw.decode", "gw.dispatch"} <= kids
        finally:
            if client is not None:
                client.close()
            gateway.close()

    def test_service_backend_span_tree(self, server, prefixes):
        dst = prefixes[5]
        service = server.serve(n_shards=2)
        gateway = client = None
        try:
            gateway = NetworkGateway(service, tcp=("127.0.0.1", 0)).start()
            host, port = gateway.tcp_address
            client = NetworkClient.connect_tcp(host, port, trace=True)

            # a destination routes to its ring owner
            client.predict_batch([(prefixes[1], dst)])
            spans = client.fetch_trace()
            names = _names(spans)
            for expected in (
                "client.request",
                "gw.admission",
                "gw.decode",
                "gw.dispatch",
                "serve.route",
                "shard.batch",
                "kernel.search",
            ):
                assert expected in names, f"missing {expected} in {names}"
            [route] = _route_spans(spans)
            assert route.tags["shard"] == str(service.shard_of_destination(dst))
            # full chain nests: route under dispatch, batch under
            # route, kernel under batch
            tree = client.span_tree()
            node = tree[0]
            assert node["span"].name == "client.request"
            by_name = {n["span"].name: n for n in node["children"]}
            dispatch = by_name["gw.dispatch"]
            route_node = dispatch["children"][0]
            assert route_node["span"].name == "serve.route"
            batch_node = route_node["children"][0]
            assert batch_node["span"].name == "shard.batch"
            assert batch_node["children"][0]["span"].name == "kernel.search"
            kernel = batch_node["children"][0]["span"]
            assert kernel.tags["cache"] in ("hit", "cold")
        finally:
            if client is not None:
                client.close()
            if gateway is not None:
                gateway.close()
            service.close()

    def test_sampling_zero_disables_tracing(self, server):
        gateway = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        client = None
        try:
            host, port = gateway.tcp_address
            client = NetworkClient.connect_tcp(
                host, port, trace=True, trace_sample=0.0, trace_seed=3
            )
            src, dst = sorted(server.atlas_object().prefix_to_cluster)[:2]
            client.predict(src, dst)
            assert client.last_trace_id is None
            with pytest.raises(ClientError):
                client.fetch_trace()
        finally:
            if client is not None:
                client.close()
            gateway.close()

    def test_untraced_client_cannot_fetch(self, server):
        gateway = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        client = None
        try:
            host, port = gateway.tcp_address
            client = NetworkClient.connect_tcp(host, port)
            with pytest.raises(ClientError):
                client.fetch_trace(1234)
        finally:
            if client is not None:
                client.close()
            gateway.close()


class TestStatsAreRegistryViews:
    def test_gateway_stats_backed_by_registry(self, server):
        gateway = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        client = None
        try:
            host, port = gateway.tcp_address
            client = NetworkClient.connect_tcp(host, port)
            src, dst = sorted(server.atlas_object().prefix_to_cluster)[:2]
            client.predict(src, dst)
            assert gateway.stats["requests"] >= 1
            assert (
                gateway.obs.get_gauge("net.gateway.requests").get()
                == gateway.stats["requests"]
            )
            snap = gateway.obs.snapshot()
            assert snap["net.gateway.requests"] == gateway.stats["requests"]
            text = gateway.obs.expose_text()
            assert "net_gateway_requests" in text
        finally:
            if client is not None:
                client.close()
            gateway.close()

    def test_service_fleet_snapshot_merges_workers(self, server, prefixes):
        with server.serve(n_shards=2) as svc:
            svc.predict_batch(
                [(s, d) for s in prefixes[:4] for d in prefixes[4:8]]
            )
            load = svc.load_stats()
            assert (
                svc.obs.get_gauge("serve.service.requests").get()
                == svc.stats["requests"]
            )
            assert load["req_p50_us"] == svc.stats["req_p50_us"]
            fleet = svc.fleet_snapshot()
            # front-end series, fleet-merged worker series, and the
            # per-shard drill-down all in one snapshot
            assert fleet["serve.service.requests"] == svc.stats["requests"]
            assert fleet["serve.shard.batches"] >= 2
            assert fleet["serve.shards.count"] == 2
            assert fleet["serve.shards.alive"] == 2
            assert "shard0.serve.shard.batches" in fleet
            assert "shard1.serve.shard.batches" in fleet
            assert (
                fleet["shard0.serve.shard.batches"]
                + fleet["shard1.serve.shard.batches"]
                == fleet["serve.shard.batches"]
            )
            board = render(fleet, title="fleet")
            assert "[serve]" in board and "[shard0]" in board
