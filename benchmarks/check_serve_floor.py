#!/usr/bin/env python
"""CI gate for the sharded service's perf floor (stdlib only).

``make bench-serve`` appends one run to ``BENCH_serve.json``; this
script then fails the build if the *latest* run regressed on **shard
scaling** (absolute): steady ``predict_batch`` throughput at 4 shards
must stay >= ``SCALING_FLOOR`` x the 1-shard number (the serving
tentpole's acceptance bar; holds even on one core via aggregate LRU
capacity). A latest run without the scaling sweep is an error: the
gate must never silently pass on no data.

Older runs in the trajectory also carry a ``hotspot_replication``
sweep from the since-deleted hot-destination replication; it is kept
as history and not gated.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_SERVE_JSON = Path(__file__).parent.parent / "BENCH_serve.json"

#: acceptance bar carried by the shard-scaling bench since it landed.
SCALING_FLOOR = 2.0


def main() -> int:
    if not BENCH_SERVE_JSON.exists():
        print(f"FAIL: {BENCH_SERVE_JSON} missing — run `make bench-serve`")
        return 1
    payload = json.loads(BENCH_SERVE_JSON.read_text())
    runs = payload.get("runs") or []
    if not runs:
        print("FAIL: BENCH_serve.json has no recorded runs")
        return 1

    scaling = runs[-1].get("timings", {}).get("shard_scaling")
    if not isinstance(scaling, dict):
        print("FAIL: latest run recorded no shard_scaling sweep")
        return 1
    speedup = (scaling.get("sweep", {}).get("4") or {}).get("speedup_vs_1")
    if not isinstance(speedup, (int, float)):
        print("FAIL: shard_scaling sweep lacks 4-shard speedup_vs_1")
        return 1
    if speedup < SCALING_FLOOR:
        print(
            f"FAIL: 4-shard speedup {speedup:.2f}x below the "
            f"{SCALING_FLOOR}x floor"
        )
        return 1
    print(f"OK: 4-shard steady speedup {speedup:.2f}x (floor {SCALING_FLOOR}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
