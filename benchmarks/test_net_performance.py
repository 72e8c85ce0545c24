"""Network-gateway benchmarks: the cost of crossing the node boundary.

Three sweeps over a gateway serving the default scenario's atlas on
both transports, recorded to ``BENCH_net.json`` under ``BENCH_RECORD=1``
(``make bench-net``):

* **connect** — TCP connect + HELLO/WELCOME handshake latency (the
  per-client session setup cost);
* **pipelined QPS** — single-PREDICT frames pipelined N-deep vs. sent
  one-at-a-time (request/reply lockstep), plus ``predict_batch`` for
  the one-frame batching ceiling. Pipelining is where the front-end
  protocol wins back the wire's round trip — the acceptance gate is
  ≥ 1k pipelined queries/s on warm destinations;
* **delta push** — wall time from :meth:`NetworkGateway.push_delta` to
  a subscribed bootstrapped client having *applied* the day in place
  (decode + CSR patch + prewarm included), plus the wire size of the
  push;
* **fan-out sweep** — wall time from :meth:`NetworkGateway.push_delta`
  to the *last* of N loopback subscribers having received the day's
  push frame, for N = 1, 50, 200. The arms alternate round by round
  (rotating which goes first) and each takes its median, so host drift
  lands on every arm alike. The acceptance gate is the 200/1 median
  latency ratio staying within ``FANOUT_RATIO_GATE``: per-subscriber
  distribution work must stay negligible against the day's shared
  encode+apply cost. Subscribers here *receive* rather than apply —
  on a shared-CPU loopback host, N clients applying serialize on the
  interpreter, which would measure the harness, not the gateway; one
  subscriber's bytes are decode-validated out of band each round.
"""

from __future__ import annotations

import copy
import gc
import os
import selectors
import socket
import statistics
import threading
import time

import pytest

from repro.atlas.delta import compute_delta
from repro.atlas.model import LinkRecord
from repro.atlas.serialization import decode_delta, encode_delta
from repro.client import AtlasServer
from repro.net import NetworkClient, NetworkGateway
from repro.net import protocol as P
from repro.util.stats import nearest_rank

N_CONNECTS = 20
PIPELINE_DEPTH = 256
PIPELINE_ROUNDS = 15
LOCKSTEP_QUERIES = 200
QPS_GATE = 1000.0
SWEEP_NS = (1, 50, 200)
SWEEP_ROUNDS = 9
FANOUT_RATIO_GATE = 2.0


@pytest.fixture(scope="module")
def server(scenario):
    server = AtlasServer()
    server.publish(copy.deepcopy(scenario.atlas(0)))
    return server


@pytest.fixture(scope="module")
def workload(scenario):
    """Warm-destination pairs: a small destination set (well inside one
    pool's LRU) so the sweep times the wire, not cold searches."""
    atlas = scenario.atlas(0)
    prefixes = sorted(atlas.prefix_to_cluster)
    dsts = prefixes[:8]
    srcs = prefixes[:25]
    return [(s, d) for d in dsts for s in srcs if s != d]


def test_bench_gateway(server, scenario, workload, bench_record_net, report):
    delta = compute_delta(scenario.atlas(0), _next_day(scenario))
    gateway = NetworkGateway(server, tcp=("127.0.0.1", 0))
    gateway.start()
    gc.disable()
    try:
        host, port = gateway.tcp_address

        # -- connect + handshake latency --
        connects = []
        for _ in range(N_CONNECTS):
            start = time.perf_counter()
            NetworkClient.connect_tcp(host, port).close()
            connects.append(time.perf_counter() - start)

        client = NetworkClient.connect_tcp(host, port)
        client.predict_batch(workload)  # warm the pooled search caches

        # -- lockstep: one request in flight --
        lockstep = workload[:LOCKSTEP_QUERIES]
        start = time.perf_counter()
        for src, dst in lockstep:
            client.predict(src, dst)
        lockstep_s = time.perf_counter() - start
        lockstep_qps = len(lockstep) / lockstep_s

        # -- pipelined vs one-frame batch vs traced pipelined --
        # FLAG_TRACE negotiated with sampling off is the deployment
        # default for always-on tracing support; the obs gate
        # (benchmarks/check_obs_overhead.py) holds its pipelined-QPS
        # regression within 5%. The three modes alternate within each
        # round (rotating which goes first), so host drift lands on all
        # of them alike, and each mode's QPS is taken from its median
        # window: the ratios the floors check compare like with like.
        window = (workload * ((PIPELINE_DEPTH // len(workload)) + 1))[
            :PIPELINE_DEPTH
        ]
        traced = NetworkClient.connect_tcp(
            host, port, trace=True, trace_sample=0.0
        )
        traced.predict_batch(workload)  # same cache warmth as `client`
        modes = {
            "pipelined": lambda: client.pipeline_predict(window),
            "batch": lambda: client.predict_batch(window),
            "traced": lambda: traced.pipeline_predict(window),
        }
        order = list(modes)
        window_s: dict[str, list[float]] = {name: [] for name in order}
        for r in range(PIPELINE_ROUNDS):
            first = r % len(order)
            for name in order[first:] + order[:first]:
                start = time.perf_counter()
                modes[name]()
                window_s[name].append(time.perf_counter() - start)
        traced.close()
        pipelined_qps, batch_qps, traced_qps = (
            len(window) / statistics.median(window_s[name]) for name in order
        )

        # -- delta push latency: gateway apply -> client applied in place --
        subscriber = NetworkClient.connect_tcp(host, port)
        subscriber.bootstrap()
        start = time.perf_counter()
        push = gateway.push_delta(delta)
        pushed_s = time.perf_counter() - start
        subscriber.wait_for_day(push["day"], timeout=30.0)
        applied_s = time.perf_counter() - start
        subscriber.close()
        client.close()
    finally:
        gc.enable()
        gateway.close()

    stats = {
        "connect_p50_ms": round(nearest_rank(connects, 0.50) * 1000, 3),
        "connect_p99_ms": round(nearest_rank(connects, 0.99) * 1000, 3),
        "lockstep_qps": round(lockstep_qps, 1),
        "pipelined_qps": round(pipelined_qps, 1),
        "pipelined_qps_trace_off": round(traced_qps, 1),
        "trace_overhead_pct": round(
            max(0.0, (1.0 - traced_qps / pipelined_qps) * 100), 2
        ),
        "pipeline_depth": PIPELINE_DEPTH,
        "pipeline_rounds": PIPELINE_ROUNDS,
        "batch_qps": round(batch_qps, 1),
        "push_apply_ms": round(pushed_s * 1000, 3),
        "push_applied_client_ms": round(applied_s * 1000, 3),
        "push_wire_bytes": push["wire_bytes"],
        "cpus": os.cpu_count(),
    }
    bench_record_net("gateway_tcp", **stats)
    from repro.eval.reporting import render_table

    report(
        "net_gateway",
        render_table(
            f"Network gateway (TCP loopback, {len(workload)} warm pairs)",
            ["metric", "value"],
            [
                ("connect p50", f"{stats['connect_p50_ms']:.2f} ms"),
                ("lockstep QPS", f"{stats['lockstep_qps']:,.0f}"),
                (
                    f"pipelined QPS (depth {PIPELINE_DEPTH})",
                    f"{stats['pipelined_qps']:,.0f}",
                ),
                (
                    "pipelined QPS (trace on, sample 0)",
                    f"{stats['pipelined_qps_trace_off']:,.0f}",
                ),
                ("batch QPS", f"{stats['batch_qps']:,.0f}"),
                ("delta push -> applied", f"{stats['push_applied_client_ms']:.1f} ms"),
                ("push wire size", f"{stats['push_wire_bytes']:,} B"),
            ],
        ),
    )
    # the acceptance gate: the wire must not cap the service below 1k
    # pipelined queries/s on warm destinations. (The pipelined-vs-
    # lockstep ratio is recorded, not asserted — on a loaded 1-core
    # host scheduler jitter can invert the ~25% margin.)
    assert pipelined_qps >= QPS_GATE, stats
    assert lockstep_qps >= QPS_GATE, stats


def _next_day(scenario):
    nxt = copy.deepcopy(scenario.atlas(1))
    nxt.day = 1
    return nxt


class _SweepSubscribers:
    """N raw subscribed sockets drained by one selector thread.

    Completion is byte-counted (every socket must receive exactly one
    push frame's worth of bytes per round) so the timed window contains
    no parsing; subscriber 0 keeps its bytes for out-of-band frame
    decode + delta validation. The reader sleeps briefly between
    selector batches so fan-out writes accumulate instead of the reader
    stealing the interpreter from the gateway loop once per socket —
    the ~0.5 ms granularity this adds to the measured latency is the
    same for every N.
    """

    def __init__(self, host: str, port: int, n: int) -> None:
        self.n = n
        self.socks: list[socket.socket] = []
        self.sel = selectors.DefaultSelector()
        self.counts: dict[int, list] = {}
        self._scratch = bytearray(1 << 20)
        hello = P.encode_frame(P.HELLO, 0, P.encode_hello(P.FLAG_SUBSCRIBE))
        for i in range(n):
            s = socket.create_connection((host, port))
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.sendall(hello)
            self.socks.append(s)
        for i, s in enumerate(self.socks):
            dec = P.FrameDecoder(P.DEFAULT_MAX_FRAME)
            welcome = None
            while welcome is None:
                for frame in dec.feed(s.recv(65536)):
                    welcome = frame
                    break
            assert welcome[0] == P.WELCOME
            s.setblocking(False)
            self.sel.register(s, selectors.EVENT_READ)
            # [socket, bytes received, kept bytes (subscriber 0 only)]
            self.counts[s.fileno()] = [s, 0, bytearray() if i == 0 else None]

    def await_round(self, wire_bytes: int, done: threading.Event) -> None:
        targets = {fd: ent[1] + wire_bytes for fd, ent in self.counts.items()}
        need = self.n
        while need:
            time.sleep(0.0005)  # batch wakes; see class docstring
            for key, _ in self.sel.select(timeout=5.0):
                ent = self.counts[key.fd]
                try:
                    m = ent[0].recv_into(self._scratch)
                except BlockingIOError:
                    continue
                if ent[2] is not None:
                    ent[2] += self._scratch[:m]
                before = ent[1]
                ent[1] += m
                if before < targets[key.fd] <= ent[1]:
                    need -= 1
        done.set()

    def validate_round(self, delta) -> None:
        kept = self.counts[self.socks[0].fileno()][2]
        frames = P.FrameDecoder(P.DEFAULT_MAX_FRAME).feed(bytes(kept))
        del kept[:]
        assert frames and frames[-1][0] == P.DELTA_PUSH
        decoded = decode_delta(frames[-1][2])
        assert decoded.new_day == delta.new_day

    def close(self) -> None:
        for s in self.socks:
            self.sel.unregister(s)
            s.close()
        self.sel.close()


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def test_bench_push_fanout_sweep(server, bench_record_net, report):
    server.runtime()  # live runtime: every push patches the compiled core
    gateway = NetworkGateway(server, tcp=("127.0.0.1", 0))
    gateway.start()
    gc.disable()
    stats: dict = {}
    try:
        host, port = gateway.tcp_address
        # synthetic successive days off the gateway's live atlas: every
        # link's latency nudges, i.e. a full-size value-churn day (a
        # real scenario day costs a ~10 s topology rebuild per round)
        cur = copy.deepcopy(server.runtime().atlas)
        elapsed: dict[int, list[float]] = {n: [] for n in SWEEP_NS}
        fanout: dict[int, list[float]] = {n: [] for n in SWEEP_NS}
        wire_bytes = 0
        for r in range(SWEEP_ROUNDS):
            first = r % len(SWEEP_NS)
            for n in SWEEP_NS[first:] + SWEEP_NS[:first]:
                _wait_until(lambda: not gateway._conns)
                subs = _SweepSubscribers(host, port, n)
                try:
                    _wait_until(lambda: len(gateway._conns) == n)
                    nxt = copy.deepcopy(cur)
                    nxt.day = cur.day + 1
                    for key, rec in nxt.links.items():
                        nxt.links[key] = LinkRecord(
                            latency_ms=rec.latency_ms * 1.01 + 0.01,
                            loss_rate=rec.loss_rate,
                        )
                    delta = compute_delta(cur, nxt)
                    cur = nxt
                    wire = len(encode_delta(delta)) + P.HEADER_SIZE
                    done = threading.Event()
                    th = threading.Thread(
                        target=subs.await_round, args=(wire, done)
                    )
                    th.start()
                    start = time.perf_counter()
                    push = gateway.push_delta(delta)
                    assert done.wait(30.0)
                    elapsed[n].append((time.perf_counter() - start) * 1e3)
                    th.join()
                    assert push["subscribers"] == n
                    wire_bytes = push["wire_bytes"]
                    subs.validate_round(delta)
                    fanout[n].append(gateway.stats["push_enqueue_us"])
                finally:
                    subs.close()
        assert gateway.stats["push_errors"] == 0
        assert gateway.stats["push_drops"] == 0
    finally:
        gc.enable()
        gateway.close()

    median_ms = {n: statistics.median(elapsed[n]) for n in SWEEP_NS}
    fanout_us = {n: statistics.median(fanout[n]) for n in SWEEP_NS}
    ratio = median_ms[SWEEP_NS[-1]] / median_ms[SWEEP_NS[0]]
    for n in SWEEP_NS:
        stats[f"all_received_{n}_ms"] = round(median_ms[n], 3)
    stats["ratio_200_over_1"] = round(ratio, 3)
    stats["fanout_loop_us_200"] = round(fanout_us[SWEEP_NS[-1]], 1)
    stats["wire_bytes"] = wire_bytes
    stats["rounds"] = SWEEP_ROUNDS
    stats["cpus"] = os.cpu_count()
    bench_record_net("push_fanout", **stats)
    from repro.eval.reporting import render_table

    report(
        "net_push_fanout",
        render_table(
            "Delta push fan-out (TCP loopback, median of "
            f"{SWEEP_ROUNDS} alternating rounds)",
            ["subscribers", "push -> all received"],
            [(str(n), f"{median_ms[n]:.2f} ms") for n in SWEEP_NS]
            + [
                ("ratio 200/1", f"{ratio:.2f}x"),
                ("fan-out loop @200", f"{fanout_us[SWEEP_NS[-1]]:.0f} us"),
            ],
        ),
    )
    # the tentpole gate: distribution latency stays flat as subscribers
    # scale — per-subscriber cost must not rival the day's shared work
    assert ratio <= FANOUT_RATIO_GATE, stats
