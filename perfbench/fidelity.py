#!/usr/bin/env python3
"""Exact-AS-path share of the benchmark's sampled answers against the
scenario's ground truth — a fidelity reference, not a benchmark metric.

    python3 perfbench/fidelity.py

For each workload and seed ``1..SEEDS`` it takes the pairs the run checks
against the fresh spec predictor (``run.spec_sample``), predicts them
with that spec on each day's reference atlas (bit for bit the fleet's
answer, which the benchmark checks), and compares the predicted AS path
with the true one from the scenario's forwarding engine for that day.
Builds the scenario's topologies, so it takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

#: the seeds of the steadiness runs (README)
SEEDS = 10


def main() -> int:
    from checks import reference_atlases, spec_predictor
    from inputs import load_chain, make_requests
    from repro.errors import NoRouteError, RoutingError
    from repro.eval import get_scenario
    from run import DAYS, WORKLOADS, spec_sample

    chain = load_chain("default", DAYS)
    atlases = reference_atlases(chain.atlas0, chain.deltas)
    specs = [spec_predictor(a) for a in atlases]
    scenario = get_scenario("default")
    for workload in WORKLOADS[:2]:  # local_bootstrap shares peer_rank's pairs
        exact = answered = unrouted = 0
        for seed in range(1, SEEDS + 1):
            requests = make_requests(chain.atlas0, workload, seed, DAYS)
            for day, pairs in spec_sample(requests, seed).items():
                engine = scenario.engine(day)
                for src, dst in pairs:
                    path = specs[day].predict_or_none(src, dst)
                    try:
                        truth = engine.as_path_between(src, dst)
                    except (NoRouteError, RoutingError):
                        continue
                    if path is None:
                        unrouted += 1
                        continue
                    answered += 1
                    exact += tuple(path.as_path) == tuple(truth)
        total = answered + unrouted
        print(
            f"{workload}: {exact}/{total} sampled pairs exact ({exact / total:.1%}), "
            f"{unrouted} without a predicted route"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
