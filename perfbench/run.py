#!/usr/bin/env python3
"""End-to-end benchmark of the iPlane Nano prediction fleet.

    python3 perfbench/run.py --workload <hot_singles|peer_rank|local_bootstrap>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program under test is the deployed
fleet: ``AtlasServer`` → ``serve(n_shards=2)`` → ``NetworkGateway`` on
loopback, in a server process of its own (``fleet.py``). This process is
the load generator: two threads at most and exactly two connections —
one delegate ``NetworkClient`` and one bootstrapped subscriber.

A run is whole *rounds*, as many as fit in ``--seconds`` (at least
``MIN_ROUNDS``). A round sets the fleet up from a published day 0
(timed to the first answered request), then for each day 1..``DAYS`` of
the scenario: a roll phase — push the day's real delta, keep a probe
query running on the delegate until the subscriber has applied the day
— followed by the day's fixed, seeded request list, sent closed-loop.
Every round sends the same requests and must get the same answers.
``EXTRA_SETUPS`` set-up-only cycles run first, so ``setup_s`` is a
median over several set-ups.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
same request lists layer by layer (``layers.py``) and prints the
per-layer metrics and a latency budget. Either way every answer is
checked afterwards (``checks.py``), outside the timed phases, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("hot_singles", "peer_rank", "local_bootstrap")
#: consecutive real days each round rolls (compaction every 7 pushed
#: days and the monthly recompile at day 30 are not reached)
DAYS = 3
MIN_ROUNDS = 3
EXTRA_SETUPS = 5
#: answered pairs per day checked against the fresh spec predictor
SPEC_SAMPLE = 6
#: ``poll_updates`` wait; a wait of 0 never reads the socket
POLL_WAIT_S = 0.002
#: a roll that has not reached the subscriber by then has failed
ROLL_TIMEOUT_S = 60.0

E2E_UNITS = {
    "setup_s": "s",
    "throughput_pps": "pairs/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "roll_ms": "ms",
    "roll_stall_ms": "ms",
    "rss_mb": "MB",
}


class LoadGenerator:
    """The two client connections and the phases of one round."""

    def __init__(self, fleet, requests, workload: str) -> None:
        self.fleet = fleet
        self.requests = requests
        self.local = workload == "local_bootstrap"
        self.delegate = None
        self.subscriber = None
        #: called untimed after each query-phase request (traced mode)
        self.after_request = None

    def _connect(self, address):
        from repro.net.client import NetworkClient

        return NetworkClient.connect_tcp(*address)

    def setup(self) -> tuple[float, object]:
        """Publish → spawn → gateway → connect → first answer; returns
        the seconds that took and the first answer. In ``local_bootstrap``
        the first answer comes from the bootstrapped subscriber."""
        t0 = time.perf_counter()
        address = self.fleet.call("setup")
        if self.local:
            self.subscriber = self._connect(address)
            self.subscriber.bootstrap()
            first = self.subscriber.predict_batch([self.requests.probe])[0]
            elapsed = time.perf_counter() - t0
            self.delegate = self._connect(address)
        else:
            self.delegate = self._connect(address)
            first = self.delegate.predict(*self.requests.probe)
            elapsed = time.perf_counter() - t0
            self.subscriber = self._connect(address)
            self.subscriber.bootstrap()
        return elapsed, first

    def teardown(self) -> None:
        # clients first: closing the gateway under open connections
        # logs a traceback per connection
        for client in (self.delegate, self.subscriber):
            if client is not None:
                client.close()
        self.delegate = self.subscriber = None
        self.fleet.call("teardown")
        # the closed clients leave about 2,900 objects of cyclic garbage a
        # round; collected here, untimed, every round starts from the same
        # heap instead of one that still holds earlier rounds' garbage
        gc.collect()

    def roll(self, day: int) -> tuple[float, float, list]:
        """Push ``day``; probe on the delegate until the subscriber has
        applied it. Returns ``(roll seconds, slowest probe seconds,
        probe answers)``."""
        stop = threading.Event()
        probes: list[tuple[float, object]] = []
        delegate, probe = self.delegate, self.requests.probe

        def prober():
            while True:
                t = time.perf_counter()
                answer = delegate.predict(*probe)
                probes.append((time.perf_counter() - t, answer))
                if stop.is_set():
                    return

        t0 = time.perf_counter()
        self.fleet.send("push", day)
        thread = threading.Thread(target=prober, name="perfbench-probe")
        thread.start()
        try:
            while self.subscriber.day < day:
                self.subscriber.poll_updates(POLL_WAIT_S)
                if time.perf_counter() - t0 > ROLL_TIMEOUT_S:
                    raise RuntimeError(f"day {day} not applied within {ROLL_TIMEOUT_S:g}s")
            applied = time.perf_counter() - t0
        finally:
            stop.set()
            thread.join()
        self.fleet.result()
        return applied, max(p[0] for p in probes), [p[1] for p in probes]

    def query(self, day_requests) -> tuple[list[float], list, float]:
        """The day's request list, closed-loop; returns per-request
        seconds, the answers and the phase's wall time."""
        if self.requests.mix == "hot":
            call = self.delegate.pipeline_predict
        elif self.local:
            call = self.subscriber.predict_batch
        else:
            call = self.delegate.predict_batch
        latencies, answers = [], []
        start = time.perf_counter()
        for pairs in day_requests:
            t = time.perf_counter()
            answers.append(call(pairs))
            latencies.append(time.perf_counter() - t)
            if self.after_request is not None:
                self.after_request()
        return latencies, answers, time.perf_counter() - start


class Record:
    """Everything a run measured and answered."""

    def __init__(self, days: int) -> None:
        self.setups: list[float] = []
        self.setup_answers: set = set()
        self.rolls: list[float] = []
        self.stalls: list[float] = []
        #: per-request seconds, one list per round
        self.latencies: list[list[float]] = []
        self.pairs = 0
        self.query_seconds = 0.0
        self.attempted = 0
        #: day -> answers of the first round (later rounds must match)
        self.answers: dict[int, list] = {}
        self.probe_answers: dict[int, set] = {d: set() for d in range(1, days + 1)}
        self.day_checks: list[tuple] = []
        self.rss_kb = 0
        self.mismatches: list[str] = []


def run_round(gen: LoadGenerator, rec: Record, days: int, observe=None) -> None:
    """One round; ``observe(phase, day)``, when given, runs untimed after
    each roll (``"rolled"``) and each query phase (``"queried"``)."""
    elapsed, first = gen.setup()
    rec.setups.append(elapsed)
    rec.setup_answers.add(first)
    rec.attempted += 1
    rec.latencies.append([])
    for day in range(1, days + 1):
        roll_s, stall_s, probe_answers = gen.roll(day)
        rec.rolls.append(roll_s)
        rec.stalls.append(stall_s)
        rec.probe_answers[day].update(probe_answers)
        rec.attempted += 1
        shard_days, front_day = gen.fleet.call("days")
        rec.day_checks.append((day, shard_days, front_day, gen.subscriber.day))
        if observe is not None:
            observe("rolled", day)
        day_requests = gen.requests.days[day - 1]
        latencies, answers, seconds = gen.query(day_requests)
        rec.latencies[-1].extend(latencies)
        rec.pairs += sum(len(r) for r in day_requests)
        rec.query_seconds += seconds
        rec.attempted += len(day_requests)
        if observe is not None:
            observe("queried", day)
        if day not in rec.answers:
            rec.answers[day] = answers
        elif answers != rec.answers[day]:
            rec.mismatches.append(f"day {day}: answers differ between rounds")
    if not rec.rss_kb:
        # after the first round only: later rounds would add allocator
        # growth that depends on how many rounds the run fits
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        fleet_kb, shard_kbs = gen.fleet.call("rss")
        rec.rss_kb = own + fleet_kb + sum(shard_kbs)
    gen.teardown()


def spec_sample(requests, seed: int) -> dict[int, list]:
    """Per day: a seeded sample of the day's distinct pairs."""
    rng = random.Random(f"perfbench/spec/{requests.mix}/{seed}")
    out = {}
    for day, day_requests in enumerate(requests.days, start=1):
        pairs = sorted({p for r in day_requests for p in r})
        out[day] = rng.sample(pairs, min(SPEC_SAMPLE, len(pairs)))
    return out


def check_record(rec: Record, requests, chain, seed: int, log) -> list[str]:
    """Run every checker; returns the failures (empty when correct)."""
    from checks import (
        CheckError,
        check_days,
        check_path,
        check_spec,
        reference_atlases,
        spec_predictor,
    )

    failures = list(rec.mismatches)
    atlases = reference_atlases(chain.atlas0, chain.deltas)
    specs = [spec_predictor(a) for a in atlases]
    src, dst = requests.probe
    probe_expected = [s.predict_or_none(src, dst) for s in specs]
    checked = 0

    def attempt(fn, *args):
        try:
            fn(*args)
        except CheckError as exc:
            failures.append(str(exc))

    for answer in rec.setup_answers:
        attempt(check_spec, specs[0], src, dst, answer)
    for args in rec.day_checks:
        attempt(check_days, *args)
    sample = spec_sample(requests, seed)
    for day, answers in rec.answers.items():
        atlas = atlases[day]
        given = {}
        for pairs, paths in zip(requests.days[day - 1], answers):
            if len(paths) != len(pairs):
                failures.append(f"day {day}: {len(paths)} answers for {len(pairs)} pairs")
                continue
            given.update(zip(pairs, paths))
        for (s, d), path in given.items():
            attempt(check_path, atlas, s, d, path)
            checked += 1
        for s, d in sample[day]:
            attempt(check_spec, specs[day], s, d, given.get((s, d)))
        for answer in rec.probe_answers[day]:
            if answer not in (probe_expected[day - 1], probe_expected[day]):
                failures.append(f"day {day}: probe answered {answer}")
    log(
        f"checked {checked} distinct answers, "
        f"{sum(len(v) for v in sample.values())} against the fresh spec, "
        f"{len(rec.day_checks)} rolls; {len(failures)} failures"
    )
    return failures


def e2e_metrics(rec: Record) -> tuple[dict[str, float], float]:
    from measure import percentile, tail_percentile

    # Every round has the same requests, so the tail's rung, picked on one
    # round, is each round's tail; the median over the rounds leaves out
    # the few rounds a slow spell of the host lands on, which moved a
    # pooled tail twice as much between runs.
    tail = tail_percentile(len(rec.latencies[0]))
    every = [x for lat in rec.latencies for x in lat]
    return {
        "setup_s": statistics.median(rec.setups),
        "throughput_pps": rec.pairs / rec.query_seconds,
        "latency_p50_ms": percentile(every, 50.0) * 1e3,
        "latency_tail_ms": statistics.median(percentile(lat, tail) for lat in rec.latencies)
        * 1e3,
        "roll_ms": statistics.median(rec.rolls) * 1e3,
        "roll_stall_ms": statistics.median(rec.stalls) * 1e3,
        "rss_mb": rec.rss_kb / 1024.0,
    }, tail


def run_e2e(fleet, requests, workload, seconds, days, log) -> Record:
    gen = LoadGenerator(fleet, requests, workload)
    rec = Record(days)
    start = time.perf_counter()
    for _ in range(EXTRA_SETUPS):
        elapsed, first = gen.setup()
        rec.setups.append(elapsed)
        rec.setup_answers.add(first)
        rec.attempted += 1
        gen.teardown()
    # whole rounds only: stop before a round that would end past the
    # run's length (on the mean round time so far)
    round_seconds: list[float] = []
    while len(round_seconds) < MIN_ROUNDS or (
        time.perf_counter() - start + statistics.fmean(round_seconds) <= seconds
    ):
        t0 = time.perf_counter()
        run_round(gen, rec, days)
        round_seconds.append(time.perf_counter() - t0)
    rounds = len(round_seconds)
    log(f"{rounds} rounds, {len(rec.setups)} set-ups in {time.perf_counter() - start:.1f}s")
    return rec


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scenario", default="default", help="bundled scenario preset")
    ap.add_argument("--days", type=int, default=DAYS, help="days each round rolls")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)

    def log(msg):
        print(f"[perfbench {args.workload}] {msg}", flush=True)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fleet import FleetProcess
    from inputs import cache_path, load_chain, make_requests

    chain = load_chain(args.scenario, args.days)
    # One CPU for the load generator, the server process and the shard
    # workers (children inherit it): spread over the VM's vCPUs the same
    # code moved by a factor of two with the host's steal (README).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    requests = make_requests(chain.atlas0, args.workload, args.seed, args.days)
    # The inputs stay alive for the whole run; frozen, the collector no
    # longer walks them, and a full collection in this process dropped
    # from up to 35 ms, which landed in the latency tail, to 10-17 ms.
    gc.collect()
    gc.freeze()
    fleet = FleetProcess(cache_path(args.scenario, args.days))
    try:
        if args.trace:
            from layers import run_traced

            rec, metrics = run_traced(fleet, chain, requests, args.workload, log)
        else:
            rec = run_e2e(fleet, requests, args.workload, args.seconds, args.days, log)
    finally:
        fleet.close()
    failures = check_record(rec, requests, chain, args.seed, log)
    for failure in failures[:20]:
        log(f"CHECK FAILED: {failure}")
    if not args.trace:
        values, tail = e2e_metrics(rec)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        log(
            f"{len(rec.latencies[0])} requests a round, tail = p{tail:g}; "
            f"{len(rec.rolls)} rolls; {len(rec.setups)} set-ups"
        )
    for name, m in metrics.items():
        log(f"{name:28s} {m['value']:14.4f} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": rec.attempted,
                # an operation that raises ends the run with a traceback
                # and a non-zero exit before this line, so none is failed
                "failed": 0,
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    from fleet import adopt_orphans, reap_all

    adopt_orphans()
    try:
        code = main()
    finally:
        reap_all()
    sys.exit(code)
