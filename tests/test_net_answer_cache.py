"""The gateway's answer cache: a repeated pair is answered on the event loop.

A service-backed gateway keeps the packed reply of every client-less
pair it answered, under the service's day (its answer version). These
tests pin what makes that exact:

* a repeated window sends no shard message and answers bit for bit
  what the service answers;
* a push, or a direct ``apply_delta`` / ``sync_from`` on the service,
  drops the cache: the next answers are the new day's;
* while a push's apply runs, a cached pair waits for it on the bridge
  instead of being answered from the cache, and a miss whose call
  returns after a push began stores nothing;
* traced, ``FLAG_STATS`` and client-scoped queries, and the query
  after a failed call, always reach the backend;
* the cache holds at most ``_ANSWER_CAP`` entries;
* a gateway over an ``AtlasServer`` is never cached, so it follows the
  server's ``publish`` on its own.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import time

import pytest

from helpers import prefix_of, toy_atlas

from repro.atlas.delta import compute_delta
from repro.client import AtlasServer
from repro.core.predictor import PredictedPath
from repro.errors import AtlasError
from repro.net import NetworkClient, NetworkGateway
from repro.net import protocol as P
from repro.net.client import RemoteError
from repro.net.gateway import _ANSWER_CAP


def next_day(atlas):
    """A value-only next day: every link 1 ms slower, so the latency of
    every predicted path changes."""
    nxt = copy.deepcopy(atlas)
    nxt.day = atlas.day + 1
    nxt.links = {
        link: dataclasses.replace(record, latency_ms=record.latency_ms + 1.0)
        for link, record in atlas.links.items()
    }
    return nxt


def counts(gw: NetworkGateway) -> tuple[int, int]:
    snap = gw.obs.snapshot()
    return snap["net.gateway.answer_hits"], snap["net.gateway.answer_misses"]


def shard_pairs(service) -> list[int]:
    return [s["pairs"] for s in service.shard_stats()]


@pytest.fixture()
def fleet(scenario):
    """``(server, service, gateway)``: a 2-shard service over a copy of
    the scenario's day 0, served by a gateway."""
    server = AtlasServer()
    server.publish(copy.deepcopy(scenario.atlas(0)))
    service = server.serve(n_shards=2)
    try:
        gw = NetworkGateway(service, tcp=("127.0.0.1", 0)).start()
        try:
            yield server, service, gw
        finally:
            gw.close()
    finally:
        service.close()


def window_of(service) -> list[tuple[int, int]]:
    """16 distinct pairs whose destinations span both shards."""
    prefixes = sorted(service.atlas.prefix_to_cluster)
    window = [(prefixes[0], d) for d in prefixes[1:17]]
    assert len({service.shard_of_destination(d) for _, d in window}) == 2
    return window


class TestServiceBackedCache:
    def test_repeat_window_sends_no_shard_message(self, fleet):
        _, service, gw = fleet
        window = window_of(service)
        want = service.predict_batch(window)
        infos = service.query_batch(window)
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            assert c.pipeline_predict(window) == want
            assert c.query_batch(window) == infos
            before = shard_pairs(service)
            assert c.pipeline_predict(window) == want
            assert c.predict_batch(window) == want
            assert c.query_batch(window) == infos
            assert shard_pairs(service) == before
        # PREDICT and PREDICT_BATCH share entries; QUERY_INFO has its own
        assert counts(gw) == (3 * len(window), 2 * len(window))
        assert gw.stats["answer_entries"] == 2 * len(window)

    def test_push_answers_the_next_day(self, fleet):
        server, service, gw = fleet
        window = window_of(service)
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            day0 = c.pipeline_predict(window)
            assert c.pipeline_predict(window) == day0
            atlas0 = server.atlas_object()
            result = gw.push_delta(compute_delta(atlas0, next_day(atlas0)))
            assert result["day"] == service.day == atlas0.day + 1
            assert gw.stats["answer_entries"] == 0
            day1 = c.pipeline_predict(window)
            assert day1 == service.predict_batch(window)
        assert any(a != b for a, b in zip(day0, day1))
        assert counts(gw) == (len(window), 2 * len(window))

    @pytest.mark.parametrize("update", ["apply_delta", "sync_from"])
    def test_update_outside_the_gateway_drops_the_cache(self, fleet, update):
        server, service, gw = fleet
        window = window_of(service)
        atlas0 = server.atlas_object()
        atlas1 = next_day(atlas0)
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            day0 = c.pipeline_predict(window)
            assert c.pipeline_predict(window) == day0
            # the gateway is idle, so the service has one caller here
            if update == "apply_delta":
                service.apply_delta(compute_delta(atlas0, atlas1))
            else:
                server.publish(atlas1)
                assert service.sync_from(server) == 1
            before = shard_pairs(service)
            day1 = c.pipeline_predict(window)
            assert shard_pairs(service) != before
        assert day1 == service.predict_batch(window)
        assert any(a != b for a, b in zip(day0, day1))
        assert counts(gw) == (len(window), 2 * len(window))


# -- a pre-built adapter that controls timing ------------------------------

PAIR = (prefix_of(1), prefix_of(4))
TOY_DELTA = compute_delta(toy_atlas(), next_day(toy_atlas()))


def answer(version: int, src: int, dst: int) -> PredictedPath:
    """The fake answer of one pair: its latency names the version."""
    return PredictedPath(
        clusters=(src, dst),
        as_path=(),
        latency_ms=float(version),
        loss=0.0,
        as_hops=0,
        used_from_src=False,
    )


class GatedBackend:
    """A pre-built adapter whose answers carry the answer version they
    were computed under. Each call is recorded with that version;
    ``predict_gate`` / ``apply_gate`` hold ``predict_batch`` /
    ``apply_delta`` on the bridge thread while cleared, and
    ``predicting`` / ``applying`` tell the test that a call arrived."""

    name = "gated"

    def __init__(self) -> None:
        self.version = 0
        self.calls: list[tuple[list, int]] = []
        self.fail: Exception | None = None
        self.predict_gate = threading.Event()
        self.predict_gate.set()
        self.apply_gate = threading.Event()
        self.apply_gate.set()
        self.predicting = threading.Event()
        self.applying = threading.Event()

    @property
    def day(self) -> int:
        return self.version

    @property
    def answer_version(self) -> int:
        return self.version

    def atlas_bytes(self, day):
        raise AtlasError("no atlas here")

    def predict_batch(self, pairs, config, client, trace=None):
        self.calls.append((list(pairs), self.version))
        self.predicting.set()
        assert self.predict_gate.wait(10.0)
        if self.fail is not None:
            raise self.fail
        return [answer(self.version, s, d) for s, d in pairs]

    def apply_delta(self, delta, payload: bytes) -> int:
        self.applying.set()
        assert self.apply_gate.wait(10.0)
        self.version += 1
        return self.version


@pytest.fixture()
def gated():
    backend = GatedBackend()
    gw = NetworkGateway(backend, tcp=("127.0.0.1", 0)).start()
    try:
        yield gw, backend
    finally:
        backend.predict_gate.set()
        backend.apply_gate.set()
        gw.close()


def send_predict(c: NetworkClient, pair) -> int:
    request_id = c._take_id()
    c._send_frame(P.PREDICT, request_id, P.encode_predict_request(*pair))
    return request_id


def read_predict(c: NetworkClient, request_id: int) -> PredictedPath:
    ftype, got_id, payload = c._next_frame(None)
    assert (ftype, got_id) == (P.PREDICT_OK, request_id)
    return P.decode_predict_reply(payload)


def start_push(gw: NetworkGateway) -> threading.Thread:
    pusher = threading.Thread(target=gw.push_delta, args=(TOY_DELTA,))
    pusher.start()
    return pusher


class TestPushOrdering:
    def test_cached_pair_waits_for_the_apply(self, gated):
        gw, backend = gated
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            assert c.predict(*PAIR) == answer(0, *PAIR)
            assert c.predict(*PAIR) == answer(0, *PAIR)
            assert len(backend.calls) == 1
            backend.apply_gate.clear()
            pusher = start_push(gw)
            assert backend.applying.wait(10.0)
            request_id = send_predict(c, PAIR)
            # held behind the apply: no answer from the cache meanwhile
            assert c._next_frame(time.monotonic() + 0.3) is None
            assert len(backend.calls) == 1
            backend.apply_gate.set()
            pusher.join(10.0)
            assert not pusher.is_alive()
            assert read_predict(c, request_id) == answer(1, *PAIR)
        assert backend.calls[-1] == ([PAIR], 1)

    def test_miss_racing_a_push_stores_nothing(self, gated):
        gw, backend = gated
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            backend.predict_gate.clear()
            request_id = send_predict(c, PAIR)
            assert backend.predicting.wait(10.0)
            backend.apply_gate.clear()
            pusher = start_push(gw)
            deadline = time.monotonic() + 10.0
            while gw._answers is not None:  # until the push drops it
                assert time.monotonic() < deadline
                time.sleep(0.005)
            backend.predict_gate.set()
            # answered before the apply ran, so with the old day
            assert read_predict(c, request_id) == answer(0, *PAIR)
            assert gw.stats["answer_entries"] == 0
            backend.apply_gate.set()
            pusher.join(10.0)
            assert not pusher.is_alive()
            assert c.predict(*PAIR) == answer(1, *PAIR)
        assert [version for _, version in backend.calls] == [0, 1]

    def test_miss_whose_version_moved_stores_nothing(self, gated):
        gw, backend = gated
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            backend.predict_gate.clear()
            request_id = send_predict(c, PAIR)
            assert backend.predicting.wait(10.0)
            backend.version += 1  # an update that bypassed the gateway
            backend.predict_gate.set()
            assert read_predict(c, request_id) == answer(1, *PAIR)
            assert gw.stats["answer_entries"] == 0
            assert c.predict(*PAIR) == answer(1, *PAIR)
        assert len(backend.calls) == 2


class TestBypass:
    @pytest.mark.parametrize("flag", ["stats", "trace"])
    def test_stats_and_traced_repeats_reach_the_backend(self, gated, flag):
        gw, backend = gated
        with NetworkClient.connect_tcp(*gw.tcp_address, **{flag: True}) as c:
            for _ in range(3):
                assert c.predict(*PAIR) == answer(0, *PAIR)
        assert len(backend.calls) == 3
        assert counts(gw) == (0, 0)

    def test_client_scoped_repeats_reach_the_backend(self, gated):
        gw, backend = gated
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            for _ in range(3):
                assert c.predict_batch([PAIR], client="alice") == [
                    answer(0, *PAIR)
                ]
        assert len(backend.calls) == 3
        assert counts(gw) == (0, 0)

    def test_failed_call_caches_nothing(self, gated):
        gw, backend = gated
        backend.fail = AtlasError("day unavailable")
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            with pytest.raises(RemoteError):
                c.predict(*PAIR)
            backend.fail = None
            assert c.predict(*PAIR) == answer(0, *PAIR)
            assert c.predict(*PAIR) == answer(0, *PAIR)
        assert len(backend.calls) == 2
        assert counts(gw) == (1, 2)


class TestBound:
    def test_entries_never_exceed_the_cap(self, gated):
        gw, backend = gated
        pairs = [(i, i + 1) for i in range(_ANSWER_CAP + 100)]
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            c.predict_batch(pairs)
            assert gw.stats["answer_entries"] == _ANSWER_CAP
            # the first _ANSWER_CAP pairs were stored, the rest were not
            c.predict_batch(pairs[:10] + pairs[-10:])
            assert backend.calls[-1][0] == pairs[-10:]
            assert gw.stats["answer_entries"] == _ANSWER_CAP
            gw.push_delta(TOY_DELTA)
            assert gw.stats["answer_entries"] == 0
            assert c.predict(*PAIR) == answer(1, *PAIR)
            assert gw.stats["answer_entries"] == 1


class TestUncachedBackend:
    def test_server_backed_gateway_follows_publish(self):
        server = AtlasServer()
        server.publish(toy_atlas())
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        try:
            with NetworkClient.connect_tcp(*gw.tcp_address) as c:
                day0 = c.predict(*PAIR)
                assert c.predict(*PAIR) == day0
                server.publish(next_day(toy_atlas()))
                day1 = c.predict(*PAIR)
            predictor = server.runtime().pool.predictor(None)
            assert day1 == predictor.predict_batch([PAIR])[0]
            assert day1.latency_ms != day0.latency_ms
            assert counts(gw) == (0, 0)
        finally:
            gw.close()


def test_hit_and_miss_counters_export_as_counters(gated):
    gw, _ = gated
    with NetworkClient.connect_tcp(*gw.tcp_address) as c:
        c.predict(*PAIR)
        c.predict(*PAIR)
    assert counts(gw) == (1, 1)
    text = gw.obs.expose_text()
    assert "# TYPE net_gateway_answer_hits counter" in text
    assert "# TYPE net_gateway_answer_misses counter" in text
    assert "# TYPE net_gateway_answer_entries gauge" in text
