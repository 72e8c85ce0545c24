"""Equivalence suite for in-place delta patching (the runtime tentpole).

The executable specification of an atlas update is a **full recompile**:
``CompiledGraph.from_atlas`` over the post-delta atlas. The runtime
instead patches the CSR arrays in place; these tests drive a ≥10-day
chain of daily deltas — including a monthly-refresh boundary — over a
real (small-scenario) atlas with seeded link/loss/tuple churn, and
assert after *every* step that:

* every materialized base graph's arrays are bit-for-bit identical to a
  fresh ``from_atlas`` of the runtime's atlas (directed and closed);
* the client FROM_SRC merged view equals a full
  ``from_atlas(..., from_src_links=...)`` compile;
* the runtime's in-place atlas mutation matches the pure
  ``apply_delta`` chain, including the ``links`` dict order the
  emission contract depends on;
* predictions from the patched runtime match a predictor built from
  scratch over the same atlas.

The chain is engineered to exercise each patch path at least once:
value-only days (no CSR work), structural days (CSR rebuild, with node
renumbering when first appearance shifts), and the monthly recompile
boundary. A last test rolls the scenario's own days and pins pool
prewarming: the hottest cached searches are live, exact and warm under
each new graph version.
"""

from __future__ import annotations

import copy
import itertools
import random

import pytest

from repro.atlas.delta import apply_delta, compute_delta
from repro.atlas.model import LinkRecord
from repro.core.compiled import CompiledGraph
from repro.core.predictor import INanoPredictor, PredictorConfig
from repro.runtime import AtlasRuntime

from helpers import assert_cached_equal, assert_states_equal

CHAIN_START_DAY = 25  # 10+ deltas from here cross the day-30 monthly refresh
CHAIN_DAYS = 11


def _perturb_daily(atlas, rng: random.Random) -> None:
    """Seeded daily churn over the delta-carried datasets only."""
    links = list(atlas.links)
    # latency jitter on a large slice of links (the dominant real-world
    # delta content: value-only span updates)
    for link in rng.sample(links, k=max(1, len(links) // 3)):
        rec = atlas.links[link]
        atlas.links[link] = LinkRecord(
            latency_ms=max(0.1, rec.latency_ms * (1.0 + rng.uniform(-0.2, 0.2)))
        )
    # structural churn: drop a few links (and their loss entries)
    for link in rng.sample(links, k=3):
        atlas.links.pop(link, None)
        atlas.link_loss.pop(link, None)
    # add links between existing clusters...
    clusters = sorted({c for ab in atlas.links for c in ab})
    for _ in range(3):
        a, b = rng.sample(clusters, 2)
        if (a, b) not in atlas.links:
            atlas.links[(a, b)] = LinkRecord(latency_ms=rng.uniform(1.0, 30.0))
    # ...and one touching a cluster the atlas cannot map to an AS (the
    # compiler skips it: a zero-edge span the patcher must track)
    unknown = max(clusters) + 1000 + rng.randrange(50)
    atlas.links[(clusters[0], unknown)] = LinkRecord(latency_ms=5.0)
    # loss churn over surviving links
    survivors = list(atlas.links)
    for link in rng.sample(survivors, k=5):
        atlas.link_loss[link] = round(rng.uniform(0.01, 0.2), 3)
    for link in list(atlas.link_loss)[:2]:
        del atlas.link_loss[link]
    # tuple churn (delta-carried but not compiled into the arrays)
    tuples = sorted(atlas.three_tuples)
    for t in rng.sample(tuples, k=min(4, len(tuples))):
        atlas.three_tuples.discard(t)
    atlas.three_tuples.add((90_001 + rng.randrange(99), 90_200, 90_300))


def _perturb_monthly(atlas, rng: random.Random) -> None:
    """Changes that only a monthly refresh can carry."""
    # flip one AS relationship (changes edge classification wholesale)
    for pair, code in list(atlas.relationship_codes.items())[:1]:
        atlas.relationship_codes[pair] = (code % 3) + 1
    # map one previously-unmappable cluster to a fresh AS
    mapped = set(atlas.cluster_to_as)
    for ab in atlas.links:
        for c in ab:
            if c not in mapped:
                atlas.cluster_to_as[c] = 90_999
                atlas.as_degrees[90_999] = 1
                return


def _build_chain(base_atlas):
    """``CHAIN_DAYS`` successive atlases with seeded churn, crossing day 30."""
    rng = random.Random(0xA71A5)
    current = copy.deepcopy(base_atlas)
    current.day = CHAIN_START_DAY
    chain = [current]
    for step in range(CHAIN_DAYS):
        nxt = copy.deepcopy(chain[-1])
        nxt.day += 1
        if step != 1:  # step 1 stays value-free structurally? no: see below
            _perturb_daily(nxt, rng)
        else:
            # one pure value-only day: latency jitter but no add/remove
            for link in list(nxt.links)[: len(nxt.links) // 4]:
                rec = nxt.links[link]
                nxt.links[link] = LinkRecord(latency_ms=rec.latency_ms + 0.25)
        if nxt.day % 30 == 0:
            _perturb_monthly(nxt, rng)
        chain.append(nxt)
    return chain


@pytest.fixture(scope="module")
def chain(atlas):
    return _build_chain(atlas)


@pytest.fixture(scope="module")
def from_src(atlas):
    return dict(itertools.islice(copy.deepcopy(atlas).links.items(), 10))


def _assert_graph_equal(got: CompiledGraph, want: CompiledGraph, label: str):
    got_arrays, want_arrays = got.arrays(), want.arrays()
    for name in want_arrays:
        assert got_arrays[name] == want_arrays[name], (label, name)
    assert got._id_of == want._id_of, label


class TestDeltaChainEquivalence:
    def test_chain_matches_full_recompile_everywhere(self, chain, from_src):
        runtime = AtlasRuntime(copy.deepcopy(chain[0]))
        runtime.directed_graph()
        runtime.closed_graph()
        runtime.merged_graph("client", from_src, {}, rev=0)
        reference = copy.deepcopy(chain[0])
        modes_seen = set()
        csr_modes = set()
        for base, nxt in zip(chain, chain[1:]):
            delta = compute_delta(base, nxt)
            report = runtime.apply_delta(delta)
            modes_seen.add(report.mode)
            for stats in report.graphs.values():
                modes_seen.add(stats.get("mode"))
                csr_modes.add(stats.get("csr"))
            # the pure apply_delta chain is the atlas-level spec
            reference = apply_delta(reference, delta)
            assert runtime.atlas.day == nxt.day == reference.day
            assert list(runtime.atlas.links) == list(reference.links), (
                "links dict order drives emission order and must match"
            )
            assert runtime.atlas.links == reference.links
            assert runtime.atlas.link_loss == reference.link_loss
            assert runtime.atlas.three_tuples == reference.three_tuples
            assert (
                runtime.atlas.relationship_codes == reference.relationship_codes
            )
            # every materialized graph equals a from-scratch compile
            _assert_graph_equal(
                runtime.directed_graph(),
                CompiledGraph.from_atlas(runtime.atlas, closed=False),
                f"directed@{nxt.day}",
            )
            _assert_graph_equal(
                runtime.closed_graph(),
                CompiledGraph.from_atlas(runtime.atlas, closed=True),
                f"closed@{nxt.day}",
            )
            _assert_graph_equal(
                runtime.merged_graph("client", from_src, {}, rev=0),
                CompiledGraph.from_atlas(
                    runtime.atlas, from_src_links=from_src, closed=False
                ),
                f"merged@{nxt.day}",
            )
        # the chain must have exercised every update path
        assert "recompile" in modes_seen, "monthly boundary should recompile"
        assert "values" in modes_seen, "a value-only day should skip CSR work"
        assert "structural" in modes_seen
        assert "rebuilt" in csr_modes
        assert runtime.updates_applied == CHAIN_DAYS
        assert runtime.updates_recompiled >= 1

    def test_chain_predictions_match_fresh_predictor(self, chain):
        runtime = AtlasRuntime(copy.deepcopy(chain[0]))
        runtime.closed_graph()
        config = PredictorConfig.inano()
        prefixes = sorted(runtime.atlas.prefix_to_cluster)
        rng = random.Random(7)
        for base, nxt in zip(chain, chain[1:]):
            runtime.apply_delta(compute_delta(base, nxt))
            pooled = runtime.pool.predictor(config)
            fresh = INanoPredictor(copy.deepcopy(runtime.atlas), config)
            for _ in range(6):
                src, dst = rng.sample(prefixes, 2)
                assert pooled.predict_or_none(src, dst) == fresh.predict_or_none(
                    src, dst
                ), (nxt.day, src, dst)

    def test_recompile_mode_is_equivalent(self, chain):
        """mode="recompile" (the spec path the benchmark compares against)
        lands on the same arrays as patching."""
        patched = AtlasRuntime(copy.deepcopy(chain[0]))
        rebuilt = AtlasRuntime(copy.deepcopy(chain[0]))
        for runtime in (patched, rebuilt):
            runtime.directed_graph()
            runtime.closed_graph()
        for base, nxt in zip(chain[:4], chain[1:5]):
            delta = compute_delta(base, nxt)
            patched.apply_delta(delta, mode="patch")
            rebuilt.apply_delta(delta, mode="recompile")
            for name in ("directed", "closed"):
                _assert_graph_equal(
                    patched._graphs[name],
                    rebuilt._graphs[name],
                    f"{name}@{nxt.day}",
                )

    def test_delta_mismatch_rejected(self, chain):
        runtime = AtlasRuntime(copy.deepcopy(chain[0]))
        bad = compute_delta(chain[1], chain[2])
        from repro.errors import DeltaMismatchError

        with pytest.raises(DeltaMismatchError):
            runtime.apply_delta(bad)


class TestPrewarmOnRealDays:
    def test_hot_searches_live_exact_and_warm_after_each_day(self, scenario):
        """Real days 0 -> 2: after each ``apply_delta`` the
        ``prewarm_max`` most recently used searches are cached under the
        new graph versions, equal a from-scratch search on a recompiled
        graph, and answer without a kernel run; every stale search is
        counted dirty."""
        days = [scenario.atlas(day) for day in range(3)]
        runtime = AtlasRuntime(copy.deepcopy(days[0]))
        config = PredictorConfig.inano()
        predictor = runtime.pool.predictor(config)
        graphs = {
            "directed": runtime.directed_graph(),
            "closed": runtime.closed_graph(),
        }
        limit = runtime.pool.prewarm_max
        prefixes = sorted(runtime.atlas.prefix_to_cluster)
        for base, nxt in zip(days, days[1:]):
            for src, dst in zip(prefixes[::5], prefixes[2::5]):
                predictor.predict_or_none(src, dst)
            cache = predictor._search_cache
            name_of = {g.version: name for name, g in graphs.items()}
            stale = list(cache)
            assert len(stale) > limit
            assert all(key[0] in name_of for key in stale)
            # cache iteration is oldest-first: the tail is the hot set
            hot = [(name_of[v], dst, prov) for v, dst, prov in stale[-limit:]]

            report = runtime.apply_delta(compute_delta(base, nxt))

            assert report.cache == {
                "reused": 0,
                "repaired": 0,
                "replayed": 0,
                "dirty": len(stale),
                "prewarmed": limit,
            }
            fresh = INanoPredictor(
                copy.deepcopy(runtime.atlas), config, kernel="scalar"
            )
            refs = {
                name: CompiledGraph.from_atlas(
                    runtime.atlas, closed=(name == "closed")
                )
                for name in graphs
            }
            before = runtime.pool.kernel_stats()["searches"]
            for name, dst, prov in hot:
                graph = graphs[name]
                key = (graph.version, dst, prov)
                assert key in cache, (nxt.day, name, dst)
                got = predictor.search_for(graph, dst, prov)
                want = fresh._search_compiled(refs[name], dst, prov)
                assert_cached_equal(got, want, (nxt.day, name, dst))
                full = predictor._run_search(graph, dst, prov)
                assert_states_equal(full, want, (nxt.day, name, dst))
            assert runtime.pool.kernel_stats()["searches"] == before
