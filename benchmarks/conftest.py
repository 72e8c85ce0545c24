"""Benchmark fixtures: one default-scale scenario per session, plus a
report sink that prints each regenerated table/figure (and, with
``BENCH_RECORD=1``, archives it under ``benchmarks/results/``), and a
query-perf recorder that appends
cold/warm/decode timings to ``BENCH_query.json`` at the repo root so
successive PRs accumulate a comparable trajectory."""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.eval import get_scenario

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_QUERY_JSON = Path(__file__).parent.parent / "BENCH_query.json"
BENCH_UPDATE_JSON = Path(__file__).parent.parent / "BENCH_update.json"
BENCH_SEARCH_JSON = Path(__file__).parent.parent / "BENCH_search.json"
BENCH_SERVE_JSON = Path(__file__).parent.parent / "BENCH_serve.json"
BENCH_NET_JSON = Path(__file__).parent.parent / "BENCH_net.json"
_BENCH_HISTORY_MAX = 40


#: trajectory schema: 2 adds optional per-phase breakdowns to entries
#: ("phases" sub-dicts — e.g. state alloc vs relax vs extract for the
#: search kernel, patch vs cache-repair vs query for the update path)
BENCH_SCHEMA = 2


def append_bench_run(path: Path, timings: dict) -> None:
    """Append one run entry to a trajectory JSON (bounded history)."""
    payload: dict = {"schema": BENCH_SCHEMA, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                payload = loaded
                # older entries stay as-is: schema 2 only adds fields
                payload["schema"] = BENCH_SCHEMA
        except (OSError, ValueError):
            pass
    payload["runs"].append(
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "timings": timings,
        }
    )
    payload["runs"] = payload["runs"][-_BENCH_HISTORY_MAX:]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def scenario():
    return get_scenario("default")


@pytest.fixture(scope="session")
def atlas(scenario):
    return scenario.atlas(0)


@pytest.fixture(scope="session")
def validation(scenario):
    return scenario.validation_set()


@pytest.fixture(scope="session")
def report():
    """Print a regenerated table/figure; archive it under
    ``benchmarks/results/`` only with ``BENCH_RECORD=1`` (the Makefile
    bench targets), so a plain test run leaves tracked files alone."""
    enabled = os.environ.get("BENCH_RECORD") == "1"

    def emit(name: str, text: str) -> None:
        print("\n" + text + "\n")
        if enabled:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return emit


def _trajectory_recorder(path: Path, make_entry):
    """Shared recorder plumbing: collect named entries, flush one run to
    ``path`` on teardown. Recording is opt-in via ``BENCH_RECORD=1``
    (set by the Makefile bench targets, which also disable GC) so plain
    ``make verify`` runs don't pollute the trajectories with
    non-comparable timings.
    """
    enabled = os.environ.get("BENCH_RECORD") == "1"
    timings: dict[str, dict] = {}

    def record(name: str, *args, **kwargs) -> None:
        entry = make_entry(*args, **kwargs)
        if entry is not None:
            timings[name] = entry

    def flush() -> None:
        if enabled and timings:
            append_bench_run(path, timings)

    return record, flush


@pytest.fixture(scope="session")
def bench_record():
    """Collect query-benchmark (pytest-benchmark) stats; appends one run
    entry to ``BENCH_query.json`` on session teardown."""

    def make_entry(benchmark, **extra):
        stats = getattr(getattr(benchmark, "stats", None), "stats", None)
        if stats is None:  # --benchmark-disable et al.
            return None
        entry = {
            "mean_s": stats.mean,
            "median_s": stats.median,
            "min_s": stats.min,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
        }
        entry.update(extra)
        return entry

    record, flush = _trajectory_recorder(BENCH_QUERY_JSON, make_entry)
    yield record
    flush()


@pytest.fixture(scope="session")
def bench_record_update():
    """Collect update-benchmark stats (plain dicts, manual timing);
    appends one run entry to ``BENCH_update.json`` on session teardown."""
    record, flush = _trajectory_recorder(
        BENCH_UPDATE_JSON, lambda **stats: stats
    )
    yield record
    flush()


@pytest.fixture(scope="session")
def bench_record_search():
    """Collect search-kernel benchmark stats (plain dicts, manual
    timing); appends one run entry to ``BENCH_search.json``."""
    record, flush = _trajectory_recorder(
        BENCH_SEARCH_JSON, lambda **stats: stats
    )
    yield record
    flush()


@pytest.fixture(scope="session")
def bench_record_serve():
    """Collect sharded-service benchmark stats (shard-count sweeps,
    delta-broadcast convergence); appends one run entry to
    ``BENCH_serve.json``."""
    record, flush = _trajectory_recorder(
        BENCH_SERVE_JSON, lambda **stats: stats
    )
    yield record
    flush()


@pytest.fixture(scope="session")
def bench_record_net():
    """Collect network-gateway benchmark stats (connect latency,
    pipelined QPS, delta-push latency); appends one run entry to
    ``BENCH_net.json`` on session teardown."""
    record, flush = _trajectory_recorder(BENCH_NET_JSON, lambda **stats: stats)
    yield record
    flush()
