"""Tests of the benchmark harness itself (not collected by the repository's
test run; run them explicitly from the repository root):

    python3 -m pytest -q perfbench/check_harness.py

* the tail-percentile rule;
* each correctness checker rejects a perturbed answer (mutation tests);
* a one-day smoke run on the ``small`` scenario runs every workload, in
  both modes, end to end with its checks.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import (  # noqa: E402
    CheckError,
    check_days,
    check_path,
    check_spec,
    reference_atlases,
    spec_predictor,
)
from inputs import load_chain  # noqa: E402
from measure import TAIL_LADDER, samples_beyond, tail_percentile  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(10, 50.0), (40, 50.0), (44, 75.0), (110, 90.0), (120, 90.0), (220, 95.0),
     (750, 95.0), (11000, 95.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected != 50.0:
        assert samples_beyond(n, expected) >= 10
    higher = [p for p in TAIL_LADDER if p > expected]
    assert all(samples_beyond(n, p) < 10 for p in higher)


@pytest.fixture(scope="module")
def day1():
    chain = load_chain("small", 1)
    atlas = reference_atlases(chain.atlas0, chain.deltas)[1]
    spec = spec_predictor(atlas)
    prefixes = sorted(atlas.prefix_to_cluster)
    for dst in prefixes[1:]:
        path = spec.predict_or_none(prefixes[0], dst)
        if path is not None and len(path.clusters) >= 3:
            return atlas, spec, prefixes[0], dst, path
    pytest.fail("no multi-hop path in the small scenario")


def test_checkers_accept_the_spec_answer(day1):
    atlas, spec, src, dst, path = day1
    check_path(atlas, src, dst, path)
    check_spec(spec, src, dst, path)


def _mutants(atlas, path):
    clusters = path.clusters
    other = next(c for c in atlas.cluster_to_as if c not in clusters)
    yield "latency", dataclasses.replace(
        path, latency_ms=math.nextafter(path.latency_ms, math.inf)
    )
    yield "loss", dataclasses.replace(path, loss=path.loss + 1e-9)
    yield "as_path", dataclasses.replace(path, as_path=path.as_path[::-1] + (0,))
    yield "hop", dataclasses.replace(
        path, clusters=clusters[:1] + (other,) + clusters[2:]
    )
    yield "endpoint", dataclasses.replace(path, clusters=clusters[:-1])


@pytest.mark.parametrize("field", ["latency", "loss", "as_path", "hop", "endpoint"])
def test_path_checker_rejects_mutant(day1, field):
    atlas, spec, src, dst, path = day1
    mutant = dict(_mutants(atlas, path))[field]
    with pytest.raises(CheckError):
        check_path(atlas, src, dst, mutant)


@pytest.mark.parametrize("field", ["latency", "loss", "as_path", "hop", "endpoint"])
def test_spec_checker_rejects_mutant(day1, field):
    atlas, spec, src, dst, path = day1
    mutant = dict(_mutants(atlas, path))[field]
    with pytest.raises(CheckError):
        check_spec(spec, src, dst, mutant)
    with pytest.raises(CheckError):
        check_spec(spec, src, dst, None)


def test_day_checker_rejects_any_consumer_behind():
    check_days(3, [3, 3], 3, 3)
    for shards, front, sub in (([3, 2], 3, 3), ([3, 3], 2, 3), ([3, 3], 3, 2), ([], 3, 3)):
        with pytest.raises(CheckError):
            check_days(3, shards, front, sub)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["hot_singles", "peer_rank", "local_bootstrap"])
def test_smoke_run_small_scenario(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scenario", "small", "--days", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
