#!/usr/bin/env python
"""CI gate for the network gateway's perf floors (stdlib only).

``make bench-net`` appends one run to ``BENCH_net.json``; this script
then fails the build if the *latest* run regressed:

* **fan-out flatness** (absolute) — the push->all-received latency
  ratio between 200 and 1 loopback subscribers must stay <=
  ``FANOUT_RATIO_CEILING`` (the ISSUE acceptance bar: per-subscriber
  distribution work stays negligible against the day's shared
  encode+apply cost);
* **pipelined QPS** (absolute + relative) — >= ``QPS_FLOOR`` warm
  pipelined queries/s through the gateway, and >= ``QPS_TOLERANCE`` of
  the best QPS ever recorded in the trajectory, so a slow decay that
  never crosses the absolute bar still trips the gate;
* **push latency** (relative) — the 200-subscriber push->all-received
  wall time must stay <= ``LATENCY_HEADROOM`` x the best recorded, so
  the fan-out can't quietly grow as long as the shared work grows with
  it;
* **pipelined vs batch** (within one run) — pipelined QPS must reach
  ``PIPELINED_OVER_BATCH_FLOOR`` x the one-frame-batch QPS of the same
  ``gateway_tcp`` entry: a pipelined burst of single PREDICT frames is
  answered with one backend call, so its cost per pair may stay
  within 2x of the same pairs sent as one frame. Both numbers come
  from one run on one host, so host speed cancels out.

Older trajectory entries predating the fan-out sweep are skipped when
computing historical bests; a latest run *without* the sweep entries
(e.g. a filtered pytest invocation) is an error, because the gate
would otherwise silently pass on no data.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_NET_JSON = Path(__file__).parent.parent / "BENCH_net.json"

#: ISSUE acceptance bar: push->all-received flat within 2x, 1 -> 200.
FANOUT_RATIO_CEILING = 2.0
#: acceptance gate carried by the gateway bench since it landed.
QPS_FLOOR = 1000.0
#: fraction of the best-ever pipelined QPS the latest run must retain.
#: Generous on purpose: bench hosts vary (CI vs the 1-core container
#: the trajectory was seeded on) and the absolute floor already guards
#: the acceptance bar.
QPS_TOLERANCE = 0.55
#: multiple of the best-ever 200-subscriber push latency the latest
#: run may take before the gate trips.
LATENCY_HEADROOM = 2.5
#: pipelined QPS over one-frame-batch QPS, same run (burst dispatch
#: answers a pipelined window with one backend call)
PIPELINED_OVER_BATCH_FLOOR = 0.5


def fanout_entry(timings: dict) -> dict | None:
    entry = timings.get("push_fanout")
    return entry if isinstance(entry, dict) else None


def gateway_qps(timings: dict, key: str) -> float | None:
    entry = timings.get("gateway_tcp")
    if not isinstance(entry, dict):
        return None
    qps = entry.get(key)
    return float(qps) if isinstance(qps, (int, float)) else None


def main() -> int:
    if not BENCH_NET_JSON.exists():
        print(f"FAIL: {BENCH_NET_JSON} missing — run `make bench-net`")
        return 1
    payload = json.loads(BENCH_NET_JSON.read_text())
    runs = payload.get("runs") or []
    if not runs:
        print("FAIL: BENCH_net.json has no recorded runs")
        return 1

    latest = runs[-1].get("timings", {})
    history = [run.get("timings", {}) for run in runs[:-1]]
    failures = []

    sweep = fanout_entry(latest)
    if sweep is None:
        print(
            "FAIL: latest run recorded no push_fanout sweep "
            "— run the full `make bench-net`, not a filtered subset"
        )
        return 1
    ratio = sweep.get("ratio_200_over_1")
    if not isinstance(ratio, (int, float)):
        failures.append("push_fanout entry lacks ratio_200_over_1")
    elif ratio > FANOUT_RATIO_CEILING:
        failures.append(
            f"fan-out ratio 200/1 = {ratio:.2f}x exceeds the "
            f"{FANOUT_RATIO_CEILING}x ceiling"
        )
    else:
        print(
            f"ok: fan-out ratio 200/1 = {ratio:.2f}x "
            f"(ceiling {FANOUT_RATIO_CEILING}x)"
        )

    latency = sweep.get("all_received_200_ms")
    past_latencies = [
        v
        for t in history
        if (e := fanout_entry(t)) is not None
        and isinstance(v := e.get("all_received_200_ms"), (int, float))
    ]
    if not isinstance(latency, (int, float)):
        failures.append("push_fanout entry lacks all_received_200_ms")
    elif past_latencies:
        ceiling = min(past_latencies) * LATENCY_HEADROOM
        if latency > ceiling:
            failures.append(
                f"push->all-received @200 = {latency:.1f} ms exceeds "
                f"{ceiling:.1f} ms ({LATENCY_HEADROOM} x best recorded "
                f"{min(past_latencies):.1f} ms)"
            )
        else:
            print(
                f"ok: push->all-received @200 = {latency:.1f} ms "
                f"(ceiling {ceiling:.1f} ms)"
            )
    else:
        print(
            f"ok: push->all-received @200 = {latency:.1f} ms "
            "(first sweep entry; no recorded ceiling yet)"
        )

    qps = gateway_qps(latest, "pipelined_qps")
    if qps is None:
        failures.append("latest run recorded no gateway_tcp pipelined_qps")
    else:
        past_qps = [
            v
            for t in history
            if (v := gateway_qps(t, "pipelined_qps")) is not None
        ]
        floor = QPS_FLOOR
        if past_qps:
            floor = max(floor, max(past_qps) * QPS_TOLERANCE)
        if qps < floor:
            failures.append(
                f"pipelined QPS {qps:,.0f} below floor {floor:,.0f} "
                f"(= max(absolute {QPS_FLOOR:,.0f}, {QPS_TOLERANCE} * "
                f"best-recorded"
                f"{f' {max(past_qps):,.0f}' if past_qps else ' n/a'}))"
            )
        else:
            print(f"ok: pipelined QPS {qps:,.0f} (floor {floor:,.0f})")

    batch = gateway_qps(latest, "batch_qps")
    if qps is None or batch is None or batch <= 0:
        failures.append("latest run recorded no gateway_tcp batch_qps")
    else:
        ratio = qps / batch
        if ratio < PIPELINED_OVER_BATCH_FLOOR:
            failures.append(
                f"pipelined QPS {qps:,.0f} is {ratio:.2f}x batch QPS "
                f"{batch:,.0f}, below the {PIPELINED_OVER_BATCH_FLOOR}x floor"
            )
        else:
            print(
                f"ok: pipelined QPS {qps:,.0f} = {ratio:.2f}x batch QPS "
                f"{batch:,.0f} (floor {PIPELINED_OVER_BATCH_FLOOR}x)"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: network gateway floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
