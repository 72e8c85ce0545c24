"""Benchmark inputs: the scenario's atlas chain and the seeded request lists.

The atlas chain is day 0 of a bundled scenario plus the real daily deltas
to day ``days``. Building it runs the whole measurement pipeline (about
13 s per day of the ``default`` scenario), so it is built once per
checkout and cached under ``perfbench/.cache/`` (ignored by git), keyed
by scenario, day count and a digest of the ``src/repro`` sources. No
benchmark timer runs while it is built or loaded.

Request lists depend only on ``--seed``, the workload and the day, so the
same seed always yields the same requests:

* ``hot``: windows of ``HOT_WINDOW`` single-pair PREDICT frames drawn from
  a hot set of ``HOT_DESTINATIONS`` destination prefixes (distinct
  clusters) × ``HOT_SOURCES`` source prefixes, fixed for the run;
* ``peer``: ``PEER_REQUESTS`` batches a day, each one source and
  ``PEER_CANDIDATES`` distinct candidate destinations drawn over every
  prefix of the atlas. ``peer_rank`` and ``local_bootstrap`` share these
  lists, so the two workloads answer identical requests.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = Path(__file__).resolve().parent / ".cache"

HOT_DESTINATIONS = 8
HOT_SOURCES = 25
HOT_WINDOW = 16
HOT_WINDOWS_PER_DAY = 250
PEER_CANDIDATES = 32
PEER_REQUESTS_PER_DAY = 40

WORKLOAD_MIX = {"hot_singles": "hot", "peer_rank": "peer", "local_bootstrap": "peer"}


@dataclass
class AtlasChain:
    """Day 0 of a scenario and the deltas that roll it to ``days``."""

    scenario: str
    atlas0: object
    deltas: list


def _source_digest() -> str:
    digest = hashlib.blake2b(digest_size=12)
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_path(scenario: str, days: int) -> Path:
    return CACHE_DIR / f"chain-{scenario}-{days}d-{_source_digest()}.pkl"


def load_chain(scenario: str, days: int) -> AtlasChain:
    """The cached atlas chain, built on first use in a child interpreter
    (so the scenario's memory never counts towards this process)."""
    path = cache_path(scenario, days)
    if not path.exists():
        subprocess.run(
            [sys.executable, __file__, scenario, str(days)], check=True, timeout=1800
        )
    return read_chain(path)


def read_chain(path: Path) -> AtlasChain:
    with open(path, "rb") as f:
        return AtlasChain(**pickle.load(f))


def build_chain(scenario: str, days: int) -> None:
    from repro.atlas.delta import compute_delta
    from repro.eval import get_scenario

    t0 = time.perf_counter()
    sc = get_scenario(scenario)
    atlases = []
    for day in range(days + 1):
        atlases.append(sc.atlas(day))
        print(f"built {scenario} day {day} ({time.perf_counter() - t0:.1f}s)", flush=True)
    chain = {
        "scenario": scenario,
        "atlas0": atlases[0],
        "deltas": [compute_delta(atlases[d - 1], atlases[d]) for d in range(1, days + 1)],
    }
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = CACHE_DIR / f"building{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        pickle.dump(chain, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, cache_path(scenario, days))


@dataclass
class Requests:
    """One run's seeded inputs: ``days[d - 1]`` is day ``d``'s request
    list (each request a list of ``(src, dst)`` prefix pairs) and
    ``probe`` the pair the roll phase keeps asking."""

    mix: str
    probe: tuple[int, int]
    days: list[list[list[tuple[int, int]]]]


def make_requests(atlas0, workload: str, seed: int, days: int) -> Requests:
    mix = WORKLOAD_MIX[workload]
    prefixes = sorted(atlas0.prefix_to_cluster)
    rng = random.Random(f"perfbench/{mix}/{seed}")
    # hot set: destinations in distinct clusters, so each is its own
    # search-cache key
    by_cluster: dict[int, int] = {}
    for p in rng.sample(prefixes, len(prefixes)):
        by_cluster.setdefault(atlas0.prefix_to_cluster[p], p)
    hot_dsts = list(by_cluster.values())[:HOT_DESTINATIONS]
    hot_srcs = rng.sample([p for p in prefixes if p not in hot_dsts], HOT_SOURCES)
    probe = (hot_srcs[0], hot_dsts[0])
    out = []
    for _ in range(days):
        if mix == "hot":
            day = [
                [(rng.choice(hot_srcs), rng.choice(hot_dsts)) for _ in range(HOT_WINDOW)]
                for _ in range(HOT_WINDOWS_PER_DAY)
            ]
        else:
            day = []
            for _ in range(PEER_REQUESTS_PER_DAY):
                src = rng.choice(prefixes)
                dsts = rng.sample([p for p in prefixes if p != src], PEER_CANDIDATES)
                day.append([(src, d) for d in dsts])
        out.append(day)
    return Requests(mix=mix, probe=probe, days=out)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    build_chain(sys.argv[1], int(sys.argv[2]))
