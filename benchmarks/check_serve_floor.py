#!/usr/bin/env python
"""CI gate for the sharded service's perf floor (stdlib only).

``make bench-serve`` appends one run to ``BENCH_serve.json``; this
script then fails the build if the *latest* run's ``shard_scaling``
sweep shows either:

* **thrash** (same run) — steady ``predict_batch`` throughput at 1
  shard below ``ONE_SHARD_FLOOR`` x the 4-shard figure. One predictor's
  search LRU holds a day's destination working set, so one shard
  answers every steady round warm on any core count; runs recorded
  while a 256-entry LRU thrashed read 0.009-0.022x;
* **regression** (relative) — the 4-shard steady throughput below
  ``TOLERANCE`` x the median 4-shard figure of the last ``RECENT`` runs
  recorded before it on the same ``cpus``. A median, not the best run:
  with no thrash left, the 2- and 4-shard figures move by tens of
  percent run to run on 2 vCPUs, and a max-of-history bar would
  tighten on every lucky run.

A latest run without the sweep is an error: the gate must never
silently pass on no data.

Older runs in the trajectory also carry a ``hotspot_replication``
sweep from the since-deleted hot-destination replication; it is kept
as history and not gated.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH_SERVE_JSON = Path(__file__).parent.parent / "BENCH_serve.json"

#: 1-shard over 4-shard steady throughput on the same run (also the
#: in-run gate of ``test_serve_performance.py``, which imports it).
ONE_SHARD_FLOOR = 0.25
#: fraction of the recent median 4-shard steady throughput the latest
#: run must retain; generous because bench hosts vary.
TOLERANCE = 0.55
#: how many earlier same-``cpus`` runs the median spans.
RECENT = 5


def cpus(run: dict):
    scaling = run.get("timings", {}).get("shard_scaling")
    return scaling.get("cpus") if isinstance(scaling, dict) else None


def steady_throughput(run: dict, n_shards: int) -> float | None:
    scaling = run.get("timings", {}).get("shard_scaling")
    if not isinstance(scaling, dict):
        return None
    entry = scaling.get("sweep", {}).get(str(n_shards)) or {}
    value = entry.get("throughput_pairs_s")
    return value if isinstance(value, (int, float)) else None


def main() -> int:
    if not BENCH_SERVE_JSON.exists():
        print(f"FAIL: {BENCH_SERVE_JSON} missing — run `make bench-serve`")
        return 1
    payload = json.loads(BENCH_SERVE_JSON.read_text())
    runs = payload.get("runs") or []
    if not runs:
        print("FAIL: BENCH_serve.json has no recorded runs")
        return 1

    one = steady_throughput(runs[-1], 1)
    four = steady_throughput(runs[-1], 4)
    if one is None or four is None:
        print("FAIL: latest run recorded no 1- and 4-shard shard_scaling sweep")
        return 1
    history = [
        value
        for run in runs[:-1]
        if cpus(run) == cpus(runs[-1])
        and (value := steady_throughput(run, 4)) is not None
    ][-RECENT:]
    baseline = statistics.median(history) if history else four

    ok = True
    ratio = one / four
    if ratio < ONE_SHARD_FLOOR:
        print(
            f"FAIL: 1-shard steady throughput {one:,.0f} pairs/s is "
            f"{ratio:.3f}x the 4-shard {four:,.0f} (floor {ONE_SHARD_FLOOR}x)"
        )
        ok = False
    recent = (
        f"median {baseline:,.0f} of the last {len(history)} runs on "
        f"{cpus(runs[-1])} cpus"
    )
    if four < TOLERANCE * baseline:
        print(
            f"FAIL: 4-shard steady throughput {four:,.0f} pairs/s below "
            f"{TOLERANCE} x {recent}"
        )
        ok = False
    if ok:
        print(
            f"OK: 1-shard/4-shard {ratio:.3f}x (floor {ONE_SHARD_FLOOR}x); "
            f"4-shard {four:,.0f} pairs/s >= {TOLERANCE} x {recent}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
