#!/usr/bin/env python3
"""Steadiness of the benchmark on unchanged code.

    python3 perfbench/steadiness.py --workload peer_rank [--runs 5] [--seconds 10]

Runs two sets of ``--runs`` runs of ``run.py`` on the same code,
alternating A, B, A, B, ..., each run with its own seed (set A takes
seeds ``1..runs``, set B ``runs+1..2*runs``). For every end-to-end
metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``), the quartile distance as a share of the
median (the *spread*), and how far B's median sits from A's in the
metric's worse direction (the *shift*); the ``all`` row pools both
sets. The bounds in ``BENCHMARK.json`` are derived from these figures:
a bound must exceed the spread and the shift with room to spare.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def stamp() -> str:
    import numpy

    return (
        f"{os.cpu_count()} cores, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, {platform.machine()}"
    )


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarize(sets: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    from measure import spread

    rows = [
        f"{'metric':18s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'shift':>7s}"
    ]
    for name in better:
        med = {}
        for label, runs in [*sets.items(), ("all", [r for runs in sets.values() for r in runs])]:
            values = [r["metrics"][name]["value"] for r in runs]
            m, q1, q3 = spread(values)
            med[label] = m
            shift = ""
            if label == "B" and med["A"]:
                sign = 1 if better[name] == "lower" else -1
                shift = f"{sign * (m - med['A']) / med['A']:+7.1%}"
            width = f"{(q3 - q1) / m:7.1%}" if m else "    n/a"
            rows.append(
                f"{name:18s} {label:3s} {m:12.4f} {q1:12.4f} {q3:12.4f} {width} {shift:>7s}"
            )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for i in range(args.runs):
        for label, seed in (("A", 1 + i), ("B", 1 + args.runs + i)):
            result = one_run(args.workload, seed, seconds)
            sets[label].append(result)
            print(
                f"  {label} seed {seed:3d} wall {result['wall_s']:5.1f}s "
                + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                ),
                flush=True,
            )
    print(f"\n{args.workload}: {args.runs}+{args.runs} runs of {seconds:g}s; {stamp()}")
    print("\n".join(summarize(sets, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
