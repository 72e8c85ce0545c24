"""Burst dispatch: a pipelined burst is answered with one backend call.

The gateway groups consecutive admitted query frames of one socket read
that share a backend call and ``(config, client)``; the group's pairs
reach the backend as one ``predict_batch``/``query_batch`` and the
answers split back per frame, in arrival order. These tests pin the
call count (a counting stub backend and the shard workers' batch
counters), the group boundaries of a mixed burst, bit-for-bit answers
against a per-pair oracle, and per-frame typed errors when a group's
backend call fails.
"""

from __future__ import annotations

import copy

import pytest

from helpers import prefix_of, toy_atlas

from repro.client import AtlasServer
from repro.client.query import combine_batches
from repro.core.predictor import PredictorConfig
from repro.errors import AtlasError
from repro.net import NetworkClient, NetworkGateway
from repro.net import protocol as P
from repro.net.admission import AdmissionControl

TOY_PREFIXES = [prefix_of(asn) for asn in (1, 2, 3, 4, 5)]


class CountingBackend:
    """A pre-built gateway adapter over an ``AtlasServer``'s shared
    runtime that records every query call it receives; ``fail`` makes
    the next calls raise instead."""

    name = "counting"

    def __init__(self, server: AtlasServer) -> None:
        self.server = server
        self.calls: list[tuple[str, list, PredictorConfig | None]] = []
        self.fail: Exception | None = None

    @property
    def day(self) -> int:
        return self.server.runtime().atlas.day

    def atlas_bytes(self, day):
        day = self.server.latest_day() if day is None else day
        return day, self.server.full_atlas_bytes(day)

    def _record(self, method, pairs, config):
        self.calls.append((method, list(pairs), config))
        if self.fail is not None:
            raise self.fail

    def predict_batch(self, pairs, config, client, trace=None):
        self._record("predict_batch", pairs, config)
        return self.server.runtime().pool.predictor(config).predict_batch(
            list(pairs)
        )

    def query_batch(self, pairs, config, client, trace=None):
        self._record("query_batch", pairs, config)
        runtime = self.server.runtime()
        return combine_batches(
            pairs, runtime.pool.predictor(config).predict_batch, runtime.atlas.day
        )


def make_server(atlas=None) -> AtlasServer:
    server = AtlasServer()
    server.publish(atlas if atlas is not None else toy_atlas())
    return server


def oracle(server: AtlasServer, pairs, config=None) -> list:
    """Per-pair answers: one co-located call per pair."""
    predictor = server.runtime().pool.predictor(config)
    return [predictor.predict_batch([pair])[0] for pair in pairs]


def read_replies(client: NetworkClient, n: int) -> list[tuple[int, int, bytes]]:
    return [client._next_frame(None) for _ in range(n)]


@pytest.fixture()
def counted():
    backend = CountingBackend(make_server())
    gw = NetworkGateway(backend, tcp=("127.0.0.1", 0)).start()
    try:
        yield gw, backend
    finally:
        gw.close()


WINDOW = [(s, d) for s in TOY_PREFIXES[:4] for d in TOY_PREFIXES[1:5]]


class TestOneCallPerBurst:
    def test_window_reaches_backend_as_one_call(self, counted):
        gw, backend = counted
        assert len(WINDOW) == 16
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            got = c.pipeline_predict(WINDOW)
        assert backend.calls == [("predict_batch", WINDOW, None)]
        assert got == oracle(backend.server, WINDOW)
        assert gw.stats["requests"] == 16

    def test_window_costs_one_message_per_shard(self, scenario):
        server = make_server(copy.deepcopy(scenario.atlas(0)))
        prefixes = sorted(server.atlas_object().prefix_to_cluster)
        # destinations spread over the ring so both shards are involved
        window = [(prefixes[0], d) for d in prefixes[1:17]]
        service = server.serve(n_shards=2)
        try:
            gw = NetworkGateway(service, tcp=("127.0.0.1", 0)).start()
            try:
                with NetworkClient.connect_tcp(*gw.tcp_address) as c:
                    before = [s["batches"] for s in service.shard_stats()]
                    got = c.pipeline_predict(window)
                    after = [s["batches"] for s in service.shard_stats()]
            finally:
                gw.close()
            shards = {service.shard_of_destination(d) for _, d in window}
        finally:
            service.close()
        assert len(shards) == 2
        assert sum(a - b for a, b in zip(after, before)) <= 2
        assert got == oracle(server, window)


class TestBurstOrder:
    def test_mixed_burst_answers_in_arrival_order(self):
        backend = CountingBackend(make_server())
        # six query frames are admitted, the seventh is shed: the bucket
        # refills too slowly to matter within one burst
        gw = NetworkGateway(
            backend,
            tcp=("127.0.0.1", 0),
            admission=AdmissionControl(rate=0.001, burst=6),
        ).start()
        a, b, c5 = prefix_of(1), prefix_of(4), prefix_of(5)
        ablated = PredictorConfig.graph_baseline()
        burst = [
            (P.PREDICT, P.encode_predict_request(a, b)),
            (P.PREDICT_BATCH, P.encode_batch_request([(a, c5), (b, c5)])),
            (P.QUERY_INFO, P.encode_query_request([(a, b)])),
            (P.PREDICT, b"\x01"),  # malformed
            (P.WELCOME, b""),  # unsupported from a client
            (P.PREDICT, P.encode_predict_request(a, c5, ablated)),
            (P.PREDICT, P.encode_predict_request(b, a)),
            (P.PREDICT, P.encode_predict_request(c5, a)),  # shed
        ]
        try:
            with NetworkClient.connect_tcp(*gw.tcp_address) as client:
                ids = [client._take_id() for _ in burst]
                client._send(
                    b"".join(
                        P.encode_frame(ftype, rid, payload)
                        for rid, (ftype, payload) in zip(ids, burst)
                    )
                )
                replies = read_replies(client, len(burst))
        finally:
            gw.close()
        assert [(ftype, rid) for ftype, rid, _ in replies] == list(
            zip(
                [
                    P.PREDICT_OK,
                    P.PREDICT_BATCH_OK,
                    P.QUERY_INFO_OK,
                    P.ERROR,
                    P.ERROR,
                    P.PREDICT_OK,
                    P.PREDICT_OK,
                    P.RETRY,
                ],
                ids,
            )
        )
        payloads = [payload for _, _, payload in replies]
        assert P.decode_error(payloads[3])[0] == P.E_MALFORMED
        assert P.decode_error(payloads[4])[0] == P.E_UNSUPPORTED
        server = backend.server
        assert P.decode_predict_reply(payloads[0]) == oracle(server, [(a, b)])[0]
        assert P.decode_batch_reply(payloads[1]) == oracle(
            server, [(a, c5), (b, c5)]
        )
        runtime = server.runtime()
        assert P.decode_query_reply(payloads[2]) == combine_batches(
            [(a, b)], runtime.pool.predictor(None).predict_batch, runtime.atlas.day
        )
        assert P.decode_predict_reply(payloads[5]) == oracle(
            server, [(a, c5)], ablated
        )[0]
        assert P.decode_predict_reply(payloads[6]) == oracle(server, [(b, a)])[0]
        # the group boundaries: PREDICT + PREDICT_BATCH share one call;
        # the query, the config change and the key change back each
        # start a new group; the malformed and shed frames never reach
        # the backend
        assert [(m, p, cfg) for m, p, cfg in backend.calls] == [
            ("predict_batch", [(a, b), (a, c5), (b, c5)], None),
            ("query_batch", [(a, b)], None),
            ("predict_batch", [(a, c5)], ablated),
            ("predict_batch", [(b, a)], None),
        ]

    def test_answers_equal_per_pair_oracle_over_shards(self, scenario):
        server = make_server(copy.deepcopy(scenario.atlas(0)))
        prefixes = sorted(server.atlas_object().prefix_to_cluster)
        # repeats and reversed pairs ride the same window
        pairs = [(prefixes[i], prefixes[-1 - i]) for i in range(24)]
        window = pairs + [(d, s) for s, d in pairs[:8]] + pairs[:8]
        want = oracle(server, window)
        service = server.serve(n_shards=2)
        try:
            gw = NetworkGateway(service, tcp=("127.0.0.1", 0)).start()
            try:
                with NetworkClient.connect_tcp(*gw.tcp_address) as c:
                    assert c.pipeline_predict(window) == want
                    # a second, now-warm window answers identically
                    assert c.pipeline_predict(window) == want
            finally:
                gw.close()
        finally:
            service.close()


class TestGroupErrors:
    def test_backend_error_answers_each_frame(self, counted):
        gw, backend = counted
        backend.fail = AtlasError("day unavailable")
        with NetworkClient.connect_tcp(*gw.tcp_address) as c:
            ids = [c._take_id() for _ in range(3)]
            c._send(
                b"".join(
                    P.encode_frame(P.PREDICT, rid, P.encode_predict_request(s, d))
                    for rid, (s, d) in zip(ids, WINDOW)
                )
            )
            replies = read_replies(c, 3)
            assert [(ftype, rid) for ftype, rid, _ in replies] == [
                (P.ERROR, rid) for rid in ids
            ]
            for _, _, payload in replies:
                assert P.decode_error(payload) == (
                    P.E_UNAVAILABLE,
                    "day unavailable",
                )
            assert len(backend.calls) == 1  # one group, one failed call
            # the connection keeps serving once the backend recovers
            backend.fail = None
            assert c.predict(*WINDOW[0]) == oracle(backend.server, WINDOW[:1])[0]
        assert gw.stats["errors_sent"] == 3
