"""The sharded prediction front-end: consistent-hash fan-out over the
worker fleet.

:class:`PredictionService` is the scale-out answer path for the
ROADMAP's heavy-traffic north star. One front-end object routes
``predict`` / ``predict_batch`` / ``query_batch`` across N shard worker
processes (:mod:`repro.serve.shard`), each holding its own
:class:`~repro.runtime.runtime.AtlasRuntime` over the shared-memory CSR
(:mod:`repro.serve.worker`):

* **Routing.** Every query is routed by consistent hash of its
  *destination cluster* (:mod:`repro.serve.hashring`) to that
  cluster's ring owner and nothing else, so the full query stream for
  one destination lands on one shard and rides that shard's
  per-destination search cache: one backtracking search answers every
  source toward the destination, as in the paper's predictor.
  Shard-count changes remap only ~1/N of destinations. Because the
  delta broadcast keeps *every* shard's graph (and registered-client
  planes) current, the choice of shard never changes an answer bit.
* **One query path.** :meth:`predict_batch` splits a caller's batch
  by owning shard, sends each involved shard exactly one message, and
  drains every reply before it returns, reassembling results in order.
  Worker-side, distinct sources toward one destination ride a single
  kernel search (the predictor's destination-grouped batch path).
  Coalescing many small requests into one batch is the caller's job —
  the network gateway's burst dispatch does it — so the pipes never
  carry more than one outstanding message per shard.
* **Delta broadcast.** :meth:`apply_delta` encodes one day's delta with
  the binary broadcast codec
  (:func:`~repro.atlas.serialization.encode_delta`) and fans the same
  bytes to every worker, which decodes straight into the in-place
  patch + prewarm path. The per-worker state snapshots
  (day + array fingerprints) must agree afterwards — a diverged shard
  raises :class:`~repro.errors.ShardStateError` instead of silently
  serving two graph versions.

Results are bit-for-bit identical to a single-process
:class:`~repro.client.server.AtlasServer` over the same atlas lineage
(``tests/test_serve_equivalence.py`` proves it across a delta chain
with a monthly recompile and a FROM_SRC-merged measuring client).

Behind a :class:`~repro.net.gateway.NetworkGateway`, a pair the gateway
already answered on the current day is answered from its answer cache
and never reaches the shards, so ``serve.service.requests`` counts the
gateway's misses only (its ``net.gateway.answer_hits`` counts the
rest).
"""

from __future__ import annotations

import itertools
import time

from repro.atlas.delta import AtlasDelta, apply_delta_inplace
from repro.atlas.serialization import decode_atlas, decode_delta, encode_delta
from repro.client.query import combine_batches
from repro.errors import ServiceError, ShardStateError
from repro.obs.registry import MetricsRegistry, prefix_snapshot
from repro.obs.trace import TraceCollector, Tracer
from repro.serve.hashring import HashRing
from repro.serve.shard import ShardManager

__all__ = ["PredictionService"]

_REQ_IDS = itertools.count(1)


class PredictionService:
    """Routes predictions across shard workers; see module docstring."""

    def __init__(
        self,
        atlas_bytes: bytes,
        n_shards: int = 4,
        *,
        timeout: float | None = None,
        mp_context=None,
    ) -> None:
        #: the front-end's metrics registry — every service counter,
        #: gauge and histogram below is a view over it, and
        #: :meth:`fleet_snapshot` folds the workers' registries in
        self.obs = MetricsRegistry()
        # Validate everything cheap before spawning the fleet, so bad
        # arguments cannot leak worker processes or shared blocks.
        self._ring = HashRing(range(n_shards))
        #: bound on every broadcast / fan-out reply wait (seconds; None
        #: waits while the worker stays alive — dead workers raise
        #: promptly either way)
        self.timeout = timeout
        #: the front-end's routing atlas — kept current by applying the
        #: same decoded broadcasts the workers apply
        self._atlas = decode_atlas(atlas_bytes)
        # the manager compiles its shared-memory export from this same
        # decoded object (read-only there), skipping a second decode
        self._shards = ShardManager(
            atlas_bytes, n_shards, mp_context=mp_context, atlas=self._atlas
        )
        self._inflight = [0] * n_shards
        #: recent front-end request round-trips (send -> reply, in us):
        #: a registry histogram — bucket counts merge fleet-wide, the
        #: bounded raw window answers exact local percentiles
        self._req_hist = self.obs.get_histogram("serve.service.request_us")
        self._epoch = 0
        self._clients: set[object] = set()
        #: dict-shaped stats surface, backed by registry gauges — the
        #: registry is the only copy of these numbers
        self.stats = self.obs.view(
            "serve.service",
            (
                "requests",
                "batches_routed",
                "deltas_broadcast",
                "bytes_broadcast",
                "inflight",
                "req_p50_us",
                "req_p99_us",
            ),
        )
        #: spans recorded front-end-side plus those workers return on
        #: traced batches; the gateway's TRACE_FETCH path reads it
        self.trace = TraceCollector()
        self.tracer = Tracer(collector=self.trace)
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._shards.n_shards

    @property
    def day(self) -> int:
        """The atlas day every shard currently serves."""
        return self._atlas.day

    @property
    def atlas(self):
        """The front-end's routing atlas (read-only use: it is the
        decoded view every worker also holds, kept current by the
        delta broadcasts — the network gateway re-encodes it to serve
        ATLAS_FETCH bootstraps)."""
        return self._atlas

    @property
    def shared_bytes(self) -> int:
        """Size of the shared-memory CSR export all workers map."""
        return self._shards.shared_bytes

    def close(self) -> None:
        """Stop the workers and destroy the shared blocks. Idempotent —
        later calls (context-manager exit after an explicit close,
        double teardown) are no-ops."""
        if self._closed:
            return
        self._closed = True
        self._shards.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._shards.closed:
            raise ServiceError("prediction service is closed")

    # -- routing -----------------------------------------------------------

    def shard_of_destination(self, dst_prefix_index: int) -> int | None:
        """The shard serving a destination prefix (None when the prefix
        is unmapped — such queries answer None without a worker trip)."""
        cluster = self._atlas.cluster_of_prefix(dst_prefix_index)
        if cluster is None:
            return None
        return self._ring.shard_for(cluster)

    # -- one-way predictions ----------------------------------------------

    def predict(self, src_prefix_index: int, dst_prefix_index: int, config=None):
        """One-way prediction (PredictedPath or None): a batch of one.
        Mirrors :meth:`AtlasServer.predict`'s ``predict_or_none``
        semantics."""
        return self.predict_batch([(src_prefix_index, dst_prefix_index)], config)[0]

    def predict_batch(self, pairs, config=None, client=None, trace=None) -> list:
        """Batched one-way predictions, fanned out to every involved
        shard concurrently; results align with ``pairs`` and match a
        single-process ``AtlasServer.predict_batch`` bit for bit.

        Each involved shard gets one message, and every sent message
        has its reply drained — even past a dead pipe or a worker-side
        failure — before the first error is raised, so one failed shard
        cannot desynchronize the surviving shards' streams and a failed
        request never masquerades as a no-path answer.

        ``trace`` is an optional ``(trace_id, parent_span_id)``
        context (minted by a FLAG_TRACE network client, threaded down
        by the gateway): each shard group gets a ``serve.route`` span
        tagged with its shard and pair count, and workers parent their
        ``shard.batch`` spans on it."""
        self._check_open()
        pairs = list(pairs)
        out: list = [None] * len(pairs)
        if not pairs:
            return out
        self.stats["requests"] += len(pairs)
        self.stats["batches_routed"] += 1
        by_shard: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}
        cluster_of = self._atlas.cluster_of_prefix
        shard_for = self._ring.shard_for
        for i, (src, dst) in enumerate(pairs):
            cluster = cluster_of(dst)
            if cluster is None:
                continue  # unmapped destination: None, like the pool path
            idxs, sub = by_shard.setdefault(shard_for(cluster), ([], []))
            idxs.append(i)
            sub.append((src, dst))
        sent = []
        errors: list[ShardStateError] = []
        for shard, (idxs, sub) in by_shard.items():
            req_id = next(_REQ_IDS)
            child = None
            if trace is not None:
                # the route span parents the worker's shard.batch span;
                # record it now (the routing decision already happened)
                route_span = self.tracer.record(
                    trace,
                    "serve.route",
                    Tracer.now_us(),
                    0.0,
                    shard=shard,
                    pairs=len(sub),
                )
                child = (trace[0], route_span)
            try:
                self._shards.send(
                    shard, ("batch", req_id, sub, config, client, child)
                )
            except ShardStateError as exc:
                # Dead pipe: keep fanning out to (and draining) the
                # healthy shards so their streams stay in sync.
                errors.append(exc)
                continue
            self._inflight[shard] += 1
            sent.append((shard, req_id, idxs, time.perf_counter()))
        for shard, req_id, idxs, t0 in sent:
            try:
                paths = self._recv_batch(shard, req_id, t0)
            except ShardStateError as exc:
                errors.append(exc)
                continue
            for i, path in zip(idxs, paths):
                out[i] = path
        if errors:
            raise errors[0]
        return out

    def _recv_batch(self, shard: int, req_id: int, t0: float) -> list:
        """Drain one shard's reply to batch ``req_id``: its paths, or a
        :class:`~repro.errors.ShardStateError` for a dead pipe, a
        worker-side failure or an out-of-order reply."""
        try:
            reply = self._shards.recv_raw(shard, timeout=self.timeout)
        finally:
            self._inflight[shard] -= 1
        self._req_hist.observe((time.perf_counter() - t0) * 1e6)
        self._shards.check(shard, reply)
        tag, got_id = reply[0], reply[1]
        if tag != "batch" or got_id != req_id:
            raise ShardStateError(
                f"shard {shard} answered {tag!r}/{got_id} to batch {req_id}"
            )
        _, _, paths, spans = reply
        if spans:
            self.trace.extend(spans)
        return paths

    # -- two-way query interface -------------------------------------------

    def query_batch(self, pairs, config=None, client=None, trace=None) -> list:
        """Both directions per pair, combined into
        :class:`~repro.client.query.PathInfo`\\ s (forward routed by the
        destination's shard, reverse by the source's). Shares
        ``INanoClient.query_batch``'s combine contract
        (:func:`~repro.client.query.combine_batches`), which the
        equivalence suite asserts bit for bit. ``trace`` threads a
        trace context into both directions' fan-outs."""
        return combine_batches(
            pairs,
            lambda batch: self.predict_batch(batch, config, client, trace=trace),
            self.day,
        )

    def query(self, src_prefix_index: int, dst_prefix_index: int, config=None):
        """One two-way query (PathInfo or None)."""
        return self.query_batch([(src_prefix_index, dst_prefix_index)], config)[0]

    # -- measuring clients --------------------------------------------------

    def register_client(
        self,
        token: object,
        from_src_links: dict,
        client_cluster_as: dict[int, int] | None = None,
        from_src_prefixes: set[int] | None = None,
        rev: int = 1,
    ) -> None:
        """Install (or refresh, with a higher ``rev``) a measuring
        client's FROM_SRC plane on every shard: each worker merges the
        plane onto its shared directed base exactly like a co-located
        ``INanoClient`` would, so client-scoped queries stay bit-for-bit
        with the single-process path."""
        self._check_open()
        self._shards.broadcast(
            (
                "register",
                token,
                dict(from_src_links),
                dict(client_cluster_as or {}),
                set(from_src_prefixes) if from_src_prefixes is not None else None,
                rev,
            ),
            timeout=self.timeout,
        )
        self._clients.add(token)

    def release_client(self, token: object) -> None:
        """Drop a client's merged views, pooled predictors, and
        warm-start records on every shard."""
        self._check_open()
        self._shards.broadcast(("release", token), timeout=self.timeout)
        self._clients.discard(token)

    # -- updates ------------------------------------------------------------

    def apply_delta(
        self,
        delta: AtlasDelta,
        verify: str = "fingerprint",
        payload: bytes | None = None,
    ) -> dict:
        """Advance every shard one day via the binary delta broadcast.

        ``payload``, when given, must be ``encode_delta(delta)`` — a
        caller that already encoded the same delta (the network
        gateway shares its push payload) skips the second encode.

        Encodes once, fans the same bytes to all workers, verifies the
        post-apply snapshots agree (same day, same per-graph array
        fingerprints — "one graph version across the fleet"), and rolls
        the front-end's routing atlas forward with the identical
        decoded view. Returns ``{"day", "epoch", "wire_bytes",
        "modes", "snapshot"}``.

        ``verify="fingerprint"`` (default) has each worker digest its
        full arrays into the handshake — O(graph), the strong check.
        ``verify="shape"`` compares only day/node/edge counts per
        graph (the cheap handshake for latency-sensitive update paths;
        :meth:`converged` still runs the full check on demand).
        """
        if verify not in ("fingerprint", "shape"):
            raise ValueError(f"unknown verify mode {verify!r}")
        self._check_open()
        if payload is None:
            payload = encode_delta(delta)
        self._epoch += 1
        replies = self._shards.broadcast(
            ("delta", self._epoch, payload, verify), timeout=self.timeout
        )
        snapshots = []
        modes = []
        for shard, reply in enumerate(replies):
            tag, epoch, snapshot, report = reply
            if tag != "delta" or epoch != self._epoch:
                raise ShardStateError(
                    f"shard {shard} answered {tag!r}@{epoch} to delta "
                    f"broadcast {self._epoch}"
                )
            snapshots.append(snapshot)
            modes.append(report["mode"])
        self._require_converged(snapshots)
        apply_delta_inplace(self._atlas, decode_delta(payload))
        if self._atlas.day != snapshots[0]["day"]:
            raise ShardStateError(
                f"front-end day {self._atlas.day} != shard day "
                f"{snapshots[0]['day']} after broadcast"
            )
        self.stats["deltas_broadcast"] += 1
        self.stats["bytes_broadcast"] += len(payload) * self.n_shards
        return {
            "day": self._atlas.day,
            "epoch": self._epoch,
            "wire_bytes": len(payload),
            "modes": modes,
            "snapshot": snapshots[0],
        }

    def sync_from(self, server) -> int:
        """Roll forward to an :class:`AtlasServer`'s latest published
        day through its delta chain; returns the number of deltas
        applied. A gap in the chain cannot be bridged by broadcast —
        that is a restart, not an update."""
        applied = 0
        latest = server.latest_day()
        while self.day < latest:
            delta = server.delta_for(self.day + 1)
            self.apply_delta(delta)
            applied += 1
        return applied

    def shard_snapshots(self) -> list[dict]:
        """Fresh per-worker state snapshots (day + graph fingerprints)."""
        self._check_open()
        return [
            reply[1]
            for reply in self._shards.broadcast(
                ("snapshot",), timeout=self.timeout
            )
        ]

    def converged(self) -> bool:
        """True when every shard reports identical graph state."""
        snapshots = self.shard_snapshots()
        return all(s == snapshots[0] for s in snapshots[1:])

    def _require_converged(self, snapshots: list[dict]) -> None:
        first = snapshots[0]
        for shard, snapshot in enumerate(snapshots[1:], start=1):
            if snapshot != first:
                raise ShardStateError(
                    f"shard {shard} diverged after broadcast: "
                    f"{snapshot} != {first}"
                )

    def shard_stats(self) -> list[dict]:
        """Per-worker counters (batches, pairs, deltas, clients)."""
        self._check_open()
        return [
            reply[1]
            for reply in self._shards.broadcast(("stats",), timeout=self.timeout)
        ]

    def load_stats(self) -> dict:
        """The load telemetry an autoscaler reads: in-flight messages
        per shard and rolling request round-trip percentiles. Cheap —
        no worker round trips — and mirrored into
        :attr:`stats` (``inflight`` / ``req_p50_us`` / ``req_p99_us``)
        so the gateway's FLAG_STATS frames carry the same numbers."""
        p50 = self._req_hist.percentile(0.50)
        p99 = self._req_hist.percentile(0.99)
        out = {
            "inflight_per_shard": list(self._inflight),
            "inflight": sum(self._inflight),
            "req_p50_us": p50,
            "req_p99_us": p99,
        }
        self.stats["inflight"] = out["inflight"]
        self.stats["req_p50_us"] = p50
        self.stats["req_p99_us"] = p99
        return out

    # -- observability -------------------------------------------------------

    def trace_spans(self, trace_id: int) -> list:
        """Every span this front-end holds for one trace: its own
        ``serve.route`` spans plus the ``shard.batch`` /
        ``kernel.search`` spans workers returned with traced batches."""
        return self.trace.spans_of(trace_id)

    def fleet_snapshot(self) -> dict:
        """One metrics view over the whole fleet: the front-end's own
        registry, the workers' registries folded together under their
        original names (counters add, histograms merge bucket-wise),
        and each worker's snapshot again under a ``shard<i>.`` prefix
        for per-shard drill-down. Feed it to
        :func:`repro.obs.dashboard.render` or
        :meth:`~repro.obs.registry.MetricsRegistry.expose_text`."""
        self.load_stats()  # refresh inflight/percentile gauges
        self._shards.export_metrics(self.obs)
        per_worker = self.shard_stats()
        out = dict(self.obs.snapshot())
        worker_snaps = [s.get("obs", {}) for s in per_worker]
        out.update(MetricsRegistry.merge_snapshots(*worker_snaps))
        for s in per_worker:
            out.update(
                prefix_snapshot(s.get("obs", {}), f"shard{s['shard']}")
            )
        return out
