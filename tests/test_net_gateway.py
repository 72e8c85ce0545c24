"""Gateway + NetworkClient mechanics over the toy atlas.

The full-chain equivalence lives in ``test_net_equivalence.py``; this
suite covers the transport machinery itself: the HELLO handshake,
pipelining, both listeners at once, ERROR frames for malformed and
unsupported requests, max-frame enforcement, subscription lifecycle,
delegate-vs-bootstrap behavior, and clean teardown.
"""

from __future__ import annotations

import copy
import logging
import socket
import struct
import time

import pytest

from helpers import prefix_of, toy_atlas

from repro.atlas.delta import compute_delta
from repro.atlas.model import LinkRecord
from repro.client import AtlasServer
from repro.errors import ClientError, NetworkError, RemoteError
from repro.net import NetworkClient, NetworkGateway
from repro.net import protocol as P


def make_server() -> AtlasServer:
    server = AtlasServer()
    server.publish(toy_atlas())
    return server


def next_day_delta():
    base = toy_atlas()
    nxt = copy.deepcopy(base)
    nxt.day = 1
    nxt.links[(10, 20)] = LinkRecord(latency_ms=3.0)
    nxt.links.pop((40, 50))
    return compute_delta(base, nxt)


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    server = make_server()
    uds = str(tmp_path_factory.mktemp("net") / "gateway.sock")
    gw = NetworkGateway(server, tcp=("127.0.0.1", 0), uds=uds)
    gw.start()
    yield gw
    gw.close()


@pytest.fixture()
def client(gateway):
    host, port = gateway.tcp_address
    c = NetworkClient.connect_tcp(host, port)
    yield c
    c.close()


class TestHandshake:
    def test_welcome_reports_day_and_backend(self, client):
        assert client.server_day == 0
        assert client.backend_name == "server"
        assert client.mode == "delegate"
        assert client.subscribed is False

    def test_hello_flag_subscribes_immediately(self, gateway):
        host, port = gateway.tcp_address
        with NetworkClient.connect_tcp(host, port, subscribe=True) as c:
            assert c.subscribed is True

    def test_uds_and_tcp_serve_the_same_protocol(self, gateway):
        pair = (prefix_of(1), prefix_of(5))
        with NetworkClient.connect_uds(gateway.uds_path) as u:
            host, port = gateway.tcp_address
            with NetworkClient.connect_tcp(host, port) as t:
                assert u.predict(*pair) == t.predict(*pair)
                assert u.query_batch([pair]) == t.query_batch([pair])

    def test_frame_before_hello_is_rejected(self, gateway):
        host, port = gateway.tcp_address
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            sock.sendall(P.encode_frame(P.PREDICT, 1, P.encode_predict_request(1, 2)))
            decoder = P.FrameDecoder()
            frames = decoder.feed(sock.recv(65536))
            assert frames and frames[0][0] == P.ERROR
            code, message = P.decode_error(frames[0][2])
            assert code == P.E_MALFORMED
            assert "HELLO" in message
            assert sock.recv(65536) == b""  # gateway hung up
        finally:
            sock.close()

    def test_garbage_bytes_get_error_then_close(self, gateway):
        host, port = gateway.tcp_address
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            frames = P.FrameDecoder().feed(sock.recv(65536))
            assert frames and frames[0][0] == P.ERROR
            assert sock.recv(65536) == b""
        finally:
            sock.close()


class TestRequests:
    def test_predict_matches_backend(self, gateway, client):
        pair = (prefix_of(1), prefix_of(5))
        want = gateway.backend.predict_batch([pair], None, None)[0]
        assert client.predict(*pair) == want

    def test_batch_answers_align_with_pairs(self, client):
        pairs = [
            (prefix_of(1), prefix_of(5)),
            (prefix_of(1), 999_999),  # unknown prefix -> None
            (prefix_of(4), prefix_of(2)),
        ]
        paths = client.predict_batch(pairs)
        assert len(paths) == 3
        assert paths[0] is not None and paths[2] is not None
        assert paths[1] is None

    def test_pipelined_predicts_return_in_order(self, client):
        pairs = [
            (prefix_of(a), prefix_of(b))
            for a in (1, 2, 3)
            for b in (4, 5)
            if a != b
        ] * 4
        assert client.pipeline_predict(pairs) == client.predict_batch(pairs)

    def test_unsupported_frame_gets_typed_error(self, client):
        client._send_frame(99, 123, b"")
        with pytest.raises(RemoteError) as excinfo:
            client._collect(123, P.PREDICT_OK)
        assert excinfo.value.code == P.E_UNSUPPORTED

    def test_malformed_request_payload_keeps_connection_alive(self, client):
        client._send_frame(P.PREDICT_BATCH, 55, b"\x01")  # truncated config
        with pytest.raises(RemoteError) as excinfo:
            client._collect(55, P.PREDICT_BATCH_OK)
        assert excinfo.value.code == P.E_MALFORMED
        # the connection survived the bad request
        assert client.predict(prefix_of(1), prefix_of(5)) is not None

    def test_client_token_unsupported_on_server_backend(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.predict_batch([(prefix_of(1), prefix_of(5))], client="meas")
        assert excinfo.value.code == P.E_MALFORMED

    def test_unknown_atlas_day_is_unavailable(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.bootstrap(day=77)
        assert excinfo.value.code == P.E_UNAVAILABLE
        assert client.runtime is None  # failed bootstrap leaves delegate mode

    def test_oversized_frame_drops_connection(self, gateway):
        host, port = gateway.tcp_address
        c = NetworkClient.connect_tcp(host, port)
        try:
            header = struct.pack(
                "<4sBBII", P.MAGIC, P.PROTOCOL_VERSION, P.PREDICT, 9,
                P.DEFAULT_MAX_FRAME + 1,
            )
            c._sock.sendall(header)
            with pytest.raises((NetworkError, RemoteError)):
                c._collect(9, P.PREDICT_OK)
        finally:
            c.close()


class TestBootstrapAndPush:
    def test_bootstrap_goes_local_and_stays_equivalent(self, gateway):
        host, port = gateway.tcp_address
        with NetworkClient.connect_tcp(host, port) as delegate:
            with NetworkClient.connect_tcp(host, port) as boot:
                atlas = boot.bootstrap()
                assert boot.mode == "local"
                assert boot.subscribed is True
                assert atlas.day == 0
                pairs = [(prefix_of(1), prefix_of(5)), (prefix_of(3), prefix_of(2))]
                assert boot.query_batch(pairs) == delegate.query_batch(pairs)
                with pytest.raises(ClientError):
                    boot.bootstrap()  # double bootstrap is a client bug
                with pytest.raises(ClientError):
                    boot.pipeline_predict(pairs)  # wire primitive, delegate-only

    def test_unsubscribed_connection_gets_no_push(self):
        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        try:
            host, port = gw.tcp_address
            with NetworkClient.connect_tcp(host, port) as boot:
                boot.bootstrap(subscribe=False)
                assert boot.subscribed is False
                result = gw.push_delta(next_day_delta())
                assert result == {"day": 1, "subscribers": 0} | {
                    "wire_bytes": result["wire_bytes"]
                }
                assert boot.poll_updates(max_wait=0.3) == 0
                assert boot.runtime.atlas.day == 0
                # the backend moved on without us
                with NetworkClient.connect_tcp(host, port) as fresh:
                    assert fresh.server_day == 1
        finally:
            gw.close()

    def test_push_applies_in_place_on_the_client_runtime(self):
        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        try:
            host, port = gw.tcp_address
            with NetworkClient.connect_tcp(host, port) as boot:
                boot.bootstrap()
                runtime = boot.runtime
                graph_before = runtime.directed_graph()
                result = gw.push_delta(next_day_delta())
                assert result["subscribers"] == 1
                assert boot.wait_for_day(1) == 1
                assert boot.deltas_applied == 1
                assert boot.runtime is runtime  # same runtime...
                assert runtime.directed_graph() is graph_before  # ...same graph object
                assert runtime.updates_patched == 1  # in place, no recompile
        finally:
            gw.close()

    def test_poll_without_wait_applies_pushed_day(self):
        gw = NetworkGateway(make_server(), tcp=("127.0.0.1", 0)).start()
        try:
            with NetworkClient.connect_tcp(*gw.tcp_address) as boot:
                boot.bootstrap()
                gw.push_delta(next_day_delta())
                # max_wait=0 never blocks, but still reads what arrived
                for _ in range(2000):
                    if boot.poll_updates():
                        break
                    time.sleep(0.001)
                assert boot.runtime.atlas.day == 1
                assert boot.deltas_applied == 1
        finally:
            gw.close()

    def test_bootstrap_after_push_lands_on_current_day(self):
        # a client bootstrapping *after* pushes advanced the backend
        # gets the anchor payload plus a catch-up replay of the pushed
        # deltas, and returns already on the current day — then keeps
        # riding the live stream
        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        try:
            host, port = gw.tcp_address
            with NetworkClient.connect_tcp(host, port, subscribe=True) as c:
                result = gw.push_delta(next_day_delta())
                assert result["subscribers"] == 1
                atlas = c.bootstrap()  # fetch happens after the push
                assert atlas.day == 1
                assert c.pushes_stale == 1  # the live push beat the runtime
                assert c.deltas_applied == 1  # the catch-up replay landed it
                # the live stream keeps working for the *next* day
                day1 = copy.deepcopy(toy_atlas())
                day1.day = 1
                day1.links[(10, 20)] = LinkRecord(latency_ms=3.0)
                day1.links.pop((40, 50))
                day2 = copy.deepcopy(day1)
                day2.day = 2
                day2.links[(30, 50)] = LinkRecord(latency_ms=7.0)
                gw.push_delta(compute_delta(day1, day2))
                assert c.wait_for_day(2) == 2
                # and the late bootstrapper matches the server runtime
                pair = (prefix_of(1), prefix_of(5))
                oracle = server.runtime().pool.predictor(None).predict_batch(
                    [pair]
                )
                assert c.predict_batch([pair]) == oracle
        finally:
            gw.close()

    def test_subscribe_toggle(self, gateway):
        host, port = gateway.tcp_address
        with NetworkClient.connect_tcp(host, port) as c:
            day = c.subscribe(True)
            assert c.subscribed is True
            assert day == c.server_day
            c.subscribe(False)
            assert c.subscribed is False


class TestStatsCapability:
    """FLAG_STATS: typed per-request kernel telemetry behind the
    capability bit — a STATS frame trails every successful query reply
    with the same request id."""

    def test_stats_frames_trail_query_replies(self):
        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        try:
            host, port = gw.tcp_address
            with NetworkClient.connect_tcp(host, port, stats=True) as c:
                assert c.stats_enabled is True
                assert c.last_stats is None
                pair = (prefix_of(1), prefix_of(5))
                c.predict(*pair)
                first = c.last_stats
                assert first is not None
                assert first["elapsed_us"] > 0.0
                # a fresh backend runs the kernel cold for this pair
                assert first["searches"] >= 1
                assert first["search_us"] > 0.0
                # an identical repeat is a pure cache hit: no new search
                c.predict(*pair)
                second = c.last_stats
                assert second["searches"] == 0
                assert second["cache_hits"] >= 1
                assert c.stats_frames == 2
                assert gw.stats["stats_frames"] == 2
                # every delegate-mode query surface trails one
                c.predict_batch([pair])
                assert c.stats_frames == 3
                c.query_batch([pair])
                assert c.stats_frames == 4
                # pipelining drains one STATS frame per reply, in order
                got = c.pipeline_predict([pair, pair, pair])
                assert len(got) == 3
                assert c.stats_frames == 7
        finally:
            gw.close()

    def test_stats_carry_repair_classes_after_a_delta(self):
        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        try:
            host, port = gw.tcp_address
            with NetworkClient.connect_tcp(host, port, stats=True) as c:
                pair = (prefix_of(1), prefix_of(5))
                c.predict(*pair)  # warm the pooled search cache
                gw.push_delta(next_day_delta())
                c.predict(*pair)
                keys = ("reused", "repaired", "replayed", "dirty")
                got = {k: c.last_stats[k] for k in keys}
                want = server.runtime().pool.last_repair
                assert got == {k: want[k] for k in keys}
                # the warmed entry was classified into exactly one class
                assert sum(got.values()) >= 1
        finally:
            gw.close()

    def test_stats_off_by_default(self, gateway, client):
        before = gateway.stats["stats_frames"]
        assert client.predict(prefix_of(1), prefix_of(5)) is not None
        assert client.last_stats is None
        assert client.stats_frames == 0
        assert gateway.stats["stats_frames"] == before
        # and no stray frame is left in flight on the connection
        assert client.poll_updates(max_wait=0.2) == 0


class TestLifecycle:
    def test_close_is_idempotent_and_ends_clients(self):
        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        host, port = gw.tcp_address
        c = NetworkClient.connect_tcp(host, port)
        assert c.predict(prefix_of(1), prefix_of(5)) is not None
        gw.close()
        gw.close()  # idempotent
        with pytest.raises(NetworkError):
            c.predict(prefix_of(1), prefix_of(5))
        with pytest.raises(NetworkError):
            gw.push_delta(next_day_delta())
        c.close()

    def test_close_with_open_connection_logs_no_error(self, caplog):
        gw = NetworkGateway(make_server(), tcp=("127.0.0.1", 0)).start()
        c = NetworkClient.connect_tcp(*gw.tcp_address)
        try:
            assert c.predict(prefix_of(1), prefix_of(5)) is not None
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                gw.close()
        finally:
            c.close()
        assert [
            r.getMessage()
            for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ] == []

    def test_uds_socket_file_removed_on_close(self, tmp_path):
        uds = str(tmp_path / "gw.sock")
        gw = NetworkGateway(make_server(), uds=uds).start()
        assert gw.uds_path == uds
        gw.close()
        import os

        assert not os.path.exists(uds)

    def test_requires_a_listener(self):
        with pytest.raises(ValueError):
            NetworkGateway(make_server())

    def test_close_after_failed_start_is_safe(self, tmp_path):
        gw = NetworkGateway(
            make_server(), uds=str(tmp_path / "no-such-dir" / "gw.sock")
        )
        with pytest.raises(OSError):
            gw.start()
        gw.close()  # must not raise on the already-closed loop

    def test_partial_bind_failure_releases_bound_listeners(self, tmp_path):
        server = make_server()
        probe = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        port = probe.tcp_address[1]
        probe.close()
        bad = NetworkGateway(
            server,
            tcp=("127.0.0.1", port),
            uds=str(tmp_path / "no-such-dir" / "gw.sock"),
        )
        with pytest.raises(OSError):
            bad.start()  # TCP bound, UDS failed
        bad.close()
        # the TCP listener must have been released, not leaked
        retry = NetworkGateway(server, tcp=("127.0.0.1", port)).start()
        retry.close()

    def test_hello_deadline_defeats_byte_tricklers(self):
        import time

        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0), hello_timeout=0.6)
        gw.start()
        try:
            host, port = gw.tcp_address
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.settimeout(5.0)
            frame = P.encode_frame(P.HELLO, 1, P.encode_hello(0))
            closed = False
            try:
                # trickle one byte at a time: each read succeeds, but
                # the deadline is absolute
                start = time.monotonic()
                for byte in frame[:-1]:
                    if time.monotonic() - start > 3.0:
                        break
                    sock.sendall(bytes([byte]))
                    time.sleep(0.12)
            except OSError:
                closed = True
            if not closed:
                frames = P.FrameDecoder().feed(sock.recv(65536))
                assert frames and frames[0][0] == P.ERROR
                assert sock.recv(65536) == b""  # gateway hung up
            sock.close()
        finally:
            gw.close()

    def test_connection_resyncs_past_an_abandoned_request(self, gateway):
        host, port = gateway.tcp_address
        with NetworkClient.connect_tcp(host, port) as c:
            # a malformed pipelined request whose ERROR reply is never
            # collected (the caller abandoned it) ...
            c._send_frame(P.PREDICT, c._take_id(), b"\x01")
            # ... must not desynchronize later requests: their _collect
            # discards the stale reply and finds its own
            assert c.predict(prefix_of(1), prefix_of(5)) is not None
            # idle polling discards stale replies the same way
            c._send_frame(P.PREDICT, c._take_id(), b"\x01")
            assert c.poll_updates(max_wait=0.3) == 0
            assert c.predict(prefix_of(1), prefix_of(5)) is not None

    def test_rejects_unknown_backend(self):
        with pytest.raises(TypeError):
            NetworkGateway(object(), tcp=("127.0.0.1", 0))

    def test_stats_accounting(self, gateway, client):
        before = dict(gateway.stats)
        client.predict(prefix_of(1), prefix_of(5))
        assert gateway.stats["requests"] > before["requests"]
        assert gateway.stats["frames_in"] > before["frames_in"]
        assert gateway.stats["bytes_out"] > before["bytes_out"]
        assert gateway.stats["connections_open"] >= 1


def toy_chain_deltas(days: int):
    """Deltas for ``days`` successive toy-atlas days (one value change
    per day)."""
    atlases = [toy_atlas()]
    for day in range(1, days + 1):
        nxt = copy.deepcopy(atlases[-1])
        nxt.day = day
        nxt.links[(10, 20)] = LinkRecord(latency_ms=3.0 + day * 0.25)
        atlases.append(nxt)
    return [compute_delta(a, b) for a, b in zip(atlases, atlases[1:])]


def wait_until(predicate, timeout: float = 5.0, what: str = "condition"):
    import time

    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"{what} not reached within {timeout}s")
        time.sleep(0.01)


class TestPushChurn:
    """The broadcast under failure: dead peers must be counted and
    dropped, slow peers unsubscribed with a typed frame, and a bootstrap
    racing live pushes must still land — none of it silently.

    The peer pathologies are injected at the connection's transport
    (``write`` raising for a dead peer, ``get_write_buffer_size`` held
    positive for a peer that stopped reading) so the tests do not
    depend on OS socket buffer sizes.
    """

    def _single_conn(self, gw):
        wait_until(lambda: len(gw._conns) == 1, what="connection registered")
        conn = next(iter(gw._conns))
        # before patching the writer, let its task finish any frame
        # already in flight (drained is set only from its idle loop), so
        # the patch applies exactly from the next push on
        wait_until(conn.drained.is_set, what="writer idle")
        return conn

    def test_dead_peer_counts_push_errors_and_leaves_broadcast(self):
        gw = NetworkGateway(make_server(), tcp=("127.0.0.1", 0)).start()
        try:
            host, port = gw.tcp_address
            victim = NetworkClient.connect_tcp(host, port, subscribe=True)
            conn = self._single_conn(gw)

            def dead_write(data):
                raise ConnectionResetError("peer vanished mid-write")

            conn.writer.write = dead_write
            deltas = toy_chain_deltas(2)
            # the broadcast fast path hits the dead transport inline:
            # the push reports the failure synchronously
            result = gw.push_delta(deltas[0])
            assert result["subscribers"] == 0
            assert gw.stats["push_errors"] == 1
            assert conn not in gw._conns
            # the dead peer is out of the broadcast set entirely
            assert gw.push_delta(deltas[1])["subscribers"] == 0
            assert gw.stats["push_errors"] == 1
            # and the gateway keeps serving everyone else
            with NetworkClient.connect_tcp(host, port) as healthy:
                assert healthy.predict(prefix_of(1), prefix_of(5)) is not None
            victim.close()
        finally:
            gw.close()

    def test_slow_subscriber_dropped_with_typed_frame(self):
        import threading

        # budget 0: any byte still unflushed when the next push arrives
        # is over budget
        gw = NetworkGateway(
            make_server(), tcp=("127.0.0.1", 0), subscriber_buffer=0
        ).start()
        try:
            host, port = gw.tcp_address
            slow = NetworkClient.connect_tcp(host, port)
            slow.bootstrap()
            assert slow.subscribed is True
            conn = self._single_conn(gw)
            released = threading.Event()
            buffered = [0]  # simulated transport write-buffer depth
            transport = conn.writer.transport
            real_write = conn.writer.write

            def buffering_write(data):
                real_write(data)  # the bytes still reach the peer
                buffered[0] += len(data)

            async def stalled_drain():
                import asyncio

                while not released.is_set():
                    await asyncio.sleep(0.005)
                buffered[0] = 0

            conn.writer.write = buffering_write
            conn.writer.drain = stalled_drain
            transport.get_write_buffer_size = lambda: buffered[0]

            deltas = toy_chain_deltas(3)
            # day 1 goes out on the fast path but sticks in the transport
            assert gw.push_delta(deltas[0])["subscribers"] == 1
            # day 2 finds day 1 unflushed: over budget -> unsubscribe
            assert gw.push_delta(deltas[1])["subscribers"] == 0
            assert gw.stats["push_drops"] == 1
            assert gw.push_delta(deltas[2])["subscribers"] == 0
            assert gw.stats["push_drops"] == 1  # dropped once, not per push
            released.set()
            assert slow.wait_for_day(1) == 1
            wait_until(
                lambda: slow.poll_updates(max_wait=0.05) >= 0
                and slow.sub_dropped == 1,
                what="SUB_DROPPED received",
            )
            assert slow.subscribed is False
            assert "over budget" in slow.drop_reason
            assert slow.runtime.atlas.day == 1  # days 2 and 3 never came
            # the connection stays usable for request/reply
            assert slow.subscribe(False) == gw.backend.day
            slow.close()
        finally:
            gw.close()

    def test_auto_resubscribe_recovers_the_push_stream(self):
        import threading

        server = make_server()
        gw = NetworkGateway(
            server, tcp=("127.0.0.1", 0), subscriber_buffer=0
        ).start()
        try:
            host, port = gw.tcp_address
            c = NetworkClient.connect_tcp(host, port, auto_resubscribe=True)
            c.bootstrap()
            conn = self._single_conn(gw)
            released = threading.Event()
            buffered = [0]
            transport = conn.writer.transport
            real_write = conn.writer.write

            def buffering_write(data):
                real_write(data)
                buffered[0] += len(data)

            async def stalled_drain():
                import asyncio

                while not released.is_set():
                    await asyncio.sleep(0.005)
                buffered[0] = 0

            conn.writer.write = buffering_write
            conn.writer.drain = stalled_drain
            transport.get_write_buffer_size = lambda: buffered[0]

            deltas = toy_chain_deltas(4)
            assert gw.push_delta(deltas[0])["subscribers"] == 1
            # day 2 finds day 1 unflushed: dropped from the broadcast
            assert gw.push_delta(deltas[1])["subscribers"] == 0
            assert gw.stats["push_drops"] == 1
            # day 3 sails past the now-unsubscribed client entirely
            gw.push_delta(deltas[2])
            released.set()
            # day 1 arrives; the drop notice behind it triggers the
            # self-heal at the next idle drain — re-subscribe, fresh
            # anchor, fence — which may land before this returns
            assert c.wait_for_day(1) >= 1
            wait_until(
                lambda: c.poll_updates(max_wait=0.05) >= 0
                and c.resubscribes >= 1,
                what="auto resubscribe completed",
            )
            assert c.sub_dropped == 1
            assert c.subscribed is True
            assert c.runtime.atlas.day == 3  # re-anchored past days 2-3
            # and the live stream is whole again for the next day
            gw.push_delta(deltas[3])
            assert c.wait_for_day(4) == 4
            pair = (prefix_of(1), prefix_of(5))
            oracle = server.runtime().pool.predictor(None).predict_batch([pair])
            assert c.predict_batch([pair]) == oracle
            c.close()
        finally:
            gw.close()

    def test_no_auto_resubscribe_by_default(self):
        gw = NetworkGateway(
            make_server(), tcp=("127.0.0.1", 0), subscriber_buffer=0
        ).start()
        try:
            host, port = gw.tcp_address
            c = NetworkClient.connect_tcp(host, port)
            c.bootstrap()
            conn = self._single_conn(gw)
            real_write = conn.writer.write
            buffered = [0]

            def buffering_write(data):
                real_write(data)
                buffered[0] += len(data)

            conn.writer.write = buffering_write
            conn.writer.transport.get_write_buffer_size = lambda: buffered[0]
            deltas = toy_chain_deltas(2)
            gw.push_delta(deltas[0])
            gw.push_delta(deltas[1])
            assert gw.stats["push_drops"] == 1
            buffered[0] = 0
            wait_until(
                lambda: c.poll_updates(max_wait=0.05) >= 0
                and c.sub_dropped == 1,
                what="SUB_DROPPED received",
            )
            assert c.subscribed is False
            assert c.resubscribes == 0  # opt-in only
            c.close()
        finally:
            gw.close()

    def test_bootstrap_races_concurrent_pushes(self):
        import threading

        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0)).start()
        clients: list[NetworkClient] = []
        push_errors: list[BaseException] = []
        try:
            host, port = gw.tcp_address
            deltas = toy_chain_deltas(6)

            def pusher():
                import time

                try:
                    for delta in deltas:
                        gw.push_delta(delta)
                        time.sleep(0.02)
                except BaseException as exc:  # surfaced after join
                    push_errors.append(exc)

            thread = threading.Thread(target=pusher)
            thread.start()
            for _ in range(4):
                c = NetworkClient.connect_tcp(host, port)
                clients.append(c)
                hello_day = c.server_day
                atlas = c.bootstrap()
                # anchor + catch-up replay always lands at or past the
                # day the connection saw at HELLO, whatever interleaved
                assert atlas.day >= hello_day
            thread.join(timeout=30.0)
            assert not thread.is_alive() and not push_errors
            pairs = [(prefix_of(1), prefix_of(5)), (prefix_of(3), prefix_of(2))]
            oracle = server.runtime().pool.predictor(None).predict_batch(pairs)
            for c in clients:
                assert c.wait_for_day(6) == 6
                assert c.predict_batch(pairs) == oracle
            assert gw.stats["push_errors"] == 0
            assert gw.stats["push_drops"] == 0
        finally:
            for c in clients:
                c.close()
            gw.close()


class TestCompaction:
    def test_day_cadence_folds_log_and_reanchors(self):
        server = make_server()
        gw = NetworkGateway(server, tcp=("127.0.0.1", 0), compact_days=3).start()
        try:
            for delta in toy_chain_deltas(7):
                gw.push_delta(delta)
            # compacted at day 3 and day 6; day 7 remains as the suffix
            assert gw.stats["compactions"] == 2
            assert gw.stats["anchor_day"] == 6
            assert gw.stats["delta_log_days"] == 1
            assert gw.stats["delta_log_bytes"] > 0
            host, port = gw.tcp_address
            with NetworkClient.connect_tcp(host, port) as late:
                assert late.bootstrap().day == 7
                pair = (prefix_of(1), prefix_of(5))
                oracle = server.runtime().pool.predictor(None).predict_batch([pair])
                assert late.predict_batch([pair]) == oracle
        finally:
            gw.close()

    def test_compacted_day_no_longer_bootstrappable(self):
        gw = NetworkGateway(
            make_server(), tcp=("127.0.0.1", 0), compact_days=3
        ).start()
        try:
            for delta in toy_chain_deltas(3):
                gw.push_delta(delta)
            assert gw.stats["compactions"] == 1
            host, port = gw.tcp_address
            with NetworkClient.connect_tcp(host, port) as c:
                with pytest.raises(RemoteError) as excinfo:
                    c.bootstrap(day=1)
                assert excinfo.value.code == P.E_UNAVAILABLE
                assert "compacted" in str(excinfo.value)
        finally:
            gw.close()

    def test_byte_cap_bounds_the_log(self):
        gw = NetworkGateway(
            make_server(),
            tcp=("127.0.0.1", 0),
            compact_days=None,
            log_max_bytes=1,
        ).start()
        try:
            deltas = toy_chain_deltas(5)
            for delta in deltas:
                gw.push_delta(delta)
            # every push blows the 1-byte budget: the log never retains
            assert gw.stats["compactions"] == len(deltas)
            assert gw.stats["delta_log_days"] == 0
            assert gw.stats["delta_log_bytes"] == 0
            assert gw.stats["anchor_day"] == 5
            host, port = gw.tcp_address
            with NetworkClient.connect_tcp(host, port) as late:
                # anchor-only bootstrap (empty replay suffix) still lands
                assert late.bootstrap().day == 5
        finally:
            gw.close()
