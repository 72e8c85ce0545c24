"""The benchmark's server process: ``AtlasServer`` → ``serve(n_shards=2)``
→ ``NetworkGateway`` on loopback, driven over a control pipe.

The load generator (``run.py``) starts :func:`main` in a separate
interpreter, so the gateway's event loop, its bridge thread and the
service front-end never share a GIL with the clients. Each command is
answered before the next is read. The load generator sends no query
while it waits on a command, so the service calls made here from the
main thread never race the gateway's bridge thread.

Commands (tuples; the first element names the command):

``("setup",)``
    publish the chain's day 0, spawn the fleet, start the gateway;
    answers its ``(host, port)``.
``("push", day)``
    ``gateway.push_delta`` of the delta to ``day``; answers the push
    result once the backend applied it and the frame was fanned out.
``("days",)``
    every shard's reported day and the front-end's day.
``("push_timings",)``
    the last push's encode and fan-out times from the gateway's ``obs``
    registry.
``("shard_counters",)``
    every shard's counters (:func:`shard_counters`); traced mode reads
    them after each live request.
``("rss",)``
    peak RSS (kB) of this process and of each shard worker.
``("teardown",)``
    close the gateway, then the service.
``("serve_replay", mix, days)``
    traced mode: a fresh service without gateway; times the spawn,
    each day's ``apply_delta`` broadcast and every request of the
    day's list through ``PredictionService.predict_batch`` (one call
    per pair for single-pair ``hot`` frames, as the gateway makes them).
    Around every request it reads each shard's counters
    (:func:`shard_counters`) and charges the request the handling
    time its reply waited for (:func:`charge`).
``("stop",)``
    exit.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
import traceback
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36
#: how long :func:`reap_all` waits for children to end before it kills them
REAP_GRACE_S = 15.0


def shard_counters(service) -> list[dict]:
    """Per shard: summed batch handling and kernel search time (us),
    batches and pairs, from the workers' ``stats`` export."""
    out = []
    for stats in service.shard_stats():
        handle = stats["obs"].get("serve.shard.handle_us") or {"sum": 0.0}
        out.append(
            {
                "handle_us": handle["sum"],
                "search_us": stats["kernel"]["search_us"],
                "batches": stats["batches"],
                "pairs": stats["pairs"],
            }
        )
    return out


def charge(before: list[dict], after: list[dict], mix: str) -> dict:
    """What one request cost the shards, from their counters before and
    after it: the slowest shard for a batch the shards answer side by
    side, the sum for a window of single frames that reach the shards
    one by one."""
    moved = [{k: a[k] - b[k] for k in a} for b, a in zip(before, after)]
    if mix == "hot":
        return {k: sum(m[k] for m in moved) for k in moved[0]}
    slowest = max(moved, key=lambda m: m["handle_us"])
    return dict(
        slowest,
        batches=sum(m["batches"] for m in moved),
        pairs=sum(m["pairs"] for m in moved),
    )


def adopt_orphans() -> None:
    """Make this process the child subreaper of everything it starts.

    A process whose parent exits before it is handed to the nearest
    subreaper instead of to init: a shard worker outliving a killed
    server process, or ``multiprocessing``'s resource tracker, which the
    ``spawn`` of the server process starts and which exits only once
    this process has closed its end of the tracker's pipe. With this
    set, :func:`reap_all` can wait for all of them."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _children() -> list[int]:
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def reap_all() -> None:
    """Stop the resource tracker and wait until every child and adopted
    orphan has ended; whatever still runs after :data:`REAP_GRACE_S` is
    killed."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        # closing the tracker's pipe is what stops it
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def _vm_hwm_kb(pid: int | str = "self") -> int:
    with open(f"/proc/{pid}/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


class Fleet:
    def __init__(self, chain) -> None:
        self.chain = chain
        self.server = None
        self.service = None
        self.gateway = None

    def setup(self):
        from repro.client.server import AtlasServer
        from repro.net.gateway import NetworkGateway

        self.server = AtlasServer()
        self.server.publish(self.chain.atlas0)
        self.service = self.server.serve(n_shards=2)
        self.gateway = NetworkGateway(self.service, tcp=("127.0.0.1", 0)).start()
        return self.gateway.tcp_address

    def push(self, day: int):
        return self.gateway.push_delta(self.chain.deltas[day - 1])

    def days(self):
        return [s["day"] for s in self.service.shard_snapshots()], self.service.day

    def push_timings(self):
        gateway = self.gateway.obs.snapshot()
        return gateway["net.gateway.push_encode_us"], gateway["net.gateway.push_enqueue_us"]

    def shard_counters(self):
        return shard_counters(self.service)

    def rss(self):
        shards = [_vm_hwm_kb(p.pid) for p in multiprocessing.active_children()]
        return _vm_hwm_kb(), shards

    def teardown(self):
        self.gateway.close()
        self.service.close()
        self.server = self.service = self.gateway = None

    def serve_replay(self, mix: str, days: list):
        """Traced mode: the serve layer alone, in this process."""
        from repro.atlas.serialization import encode_atlas
        from repro.serve import PredictionService

        payload = encode_atlas(self.chain.atlas0)
        t0 = time.perf_counter()
        service = PredictionService(payload, n_shards=2)
        out = {"spawn_ms": (time.perf_counter() - t0) * 1e3, "broadcast_ms": []}
        out["request_us"], out["handle_us"] = [], []
        out["batches"] = out["pairs"] = 0
        try:
            for day, day_requests in enumerate(days, start=1):
                t0 = time.perf_counter()
                service.apply_delta(self.chain.deltas[day - 1])
                out["broadcast_ms"].append((time.perf_counter() - t0) * 1e3)
                before = shard_counters(service)
                for pairs in day_requests:
                    t0 = time.perf_counter()
                    if mix == "hot":
                        for pair in pairs:
                            service.predict_batch([pair])
                    else:
                        service.predict_batch(pairs)
                    out["request_us"].append((time.perf_counter() - t0) * 1e6)
                    after = shard_counters(service)
                    charged = charge(before, after, mix)
                    out["handle_us"].append(charged["handle_us"])
                    out["batches"] += charged["batches"]
                    out["pairs"] += charged["pairs"]
                    before = after
        finally:
            service.close()
        return out


def main(conn, cache_file: str) -> None:
    """Server-process entry point (run under the ``spawn`` start method,
    which hands the parent's ``sys.path`` to the child)."""
    from inputs import read_chain

    fleet = Fleet(read_chain(cache_file))
    # the inputs live as long as the process: keep them out of every
    # collection, as in the load generator
    gc.collect()
    gc.freeze()
    conn.send(("loaded",))
    while True:
        msg = conn.recv()
        op = msg[0]
        if op == "stop":
            if fleet.gateway is not None:
                fleet.teardown()
            conn.send(("stopped",))
            return
        try:
            conn.send(("ok", getattr(fleet, op)(*msg[1:])))
        except Exception:
            conn.send(("error", traceback.format_exc()))


class FleetProcess:
    """Load-generator side handle on the server process."""

    def __init__(self, cache_file: Path) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=main, args=(child, str(cache_file)), name="perfbench-fleet"
        )
        self._proc.start()
        child.close()
        self.result()

    @staticmethod
    def _expect(reply):
        if reply[0] == "error":
            raise RuntimeError(f"fleet process failed:\n{reply[1]}")
        return reply[1] if len(reply) > 1 else None

    def send(self, *msg) -> None:
        self._conn.send(msg)

    def result(self):
        # The shard workers are forked from the server process and hold
        # its end of this pipe too, so a server process that dies does
        # not close the pipe: watch the process itself as well.
        ready = multiprocessing.connection.wait([self._conn, self._proc.sentinel])
        if self._conn not in ready:
            raise RuntimeError(f"fleet process exited with code {self._proc.exitcode}")
        return self._expect(self._conn.recv())

    def call(self, *msg):
        self.send(*msg)
        return self.result()

    def close(self) -> None:
        if self._proc.is_alive():
            try:
                self._conn.send(("stop",))
                multiprocessing.connection.wait(
                    [self._conn, self._proc.sentinel], timeout=60
                )
            except OSError:
                pass
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=10)
        self._conn.close()

