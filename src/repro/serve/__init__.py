"""The sharded prediction service (multi-process scale-out serving).

Everything below :mod:`repro.runtime` is single-process: one
``AtlasRuntime``, one predictor pool, throughput capped at one core.
``repro.serve`` breaks that cap without giving up the runtime's
bit-for-bit guarantees:

* :mod:`repro.serve.hashring` — deterministic consistent-hash routing
  of destination clusters onto shards (BLAKE2b points, never the
  builtin randomized ``hash()``);
* :mod:`repro.serve.shard` — worker process lifecycle: the compiled
  CSR is exported once to ``multiprocessing.shared_memory`` and every
  worker maps it zero-copy;
* :mod:`repro.serve.worker` — the per-shard process: its own
  ``AtlasRuntime`` + predictor pool over the shared arrays, decoding
  binary delta broadcasts straight into the in-place patch and
  prewarm path;
* :mod:`repro.serve.service` — the :class:`PredictionService`
  front-end: destination-hashed fan-out of each caller batch (one
  message per involved shard — the network gateway's burst dispatch
  is where requests coalesce), delta broadcast with convergence
  handshakes, and FROM_SRC measuring-client registration. Every
  destination is served by its ring owner alone, so one search per
  destination answers all of its sources.

``AtlasServer.serve(n_shards=...)`` is the one-call entry point: it
exports the server's latest published atlas into a running service.
"""

from repro.serve.hashring import HashRing
from repro.serve.service import PredictionService
from repro.serve.shard import ShardManager
from repro.serve.worker import graph_fingerprint, shard_worker_main

__all__ = [
    "HashRing",
    "PredictionService",
    "ShardManager",
    "graph_fingerprint",
    "shard_worker_main",
]
