"""Randomized property suite: kernel-vs-spec bit equality + prewarm.

Two contracts are fuzzed over ≥50 random atlases:

1. **Kernel equivalence.** The vectorized search kernel
   (:mod:`repro.core.search`, both the ``_run_small`` immediate loop
   and the ``_run_buckets`` phase-major bucket engine) must produce
   per-destination states **bit-for-bit identical** to the scalar spec
   loop (``INanoPredictor._search_compiled``) for every destination,
   across the ablation configs — including provider-gated searches and
   FROM_SRC-merged graphs. Latencies are drawn from a tiny value set so
   exact cost ties (the counter tie-breaking path) occur constantly.

2. **Prewarm equivalence.** After every runtime delta (value-only,
   structural, and node-renumbering days), each cached per-destination
   search live under the new graph version (the prewarmed ones) must
   equal a from-scratch search over the post-delta atlas. The suite
   also asserts that stale entries went dirty and were prewarmed, so
   the checks can't pass vacuously.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.atlas.delta import compute_delta
from repro.atlas.model import Atlas, LinkRecord
from repro.atlas.relationships import (
    REL_CUSTOMER,
    REL_PEER,
    REL_PROVIDER,
    REL_SIBLING,
)
from repro.core import search
from repro.core.compiled import CompiledGraph
from repro.core.predictor import INanoPredictor, PredictorConfig
from repro.runtime import AtlasRuntime

from helpers import assert_cached_equal, assert_states_equal

N_ATLASES = 52
#: tie-prone latency palette — exact float ties exercise the
#: emission-order/counter tie-breaking contract on almost every search
LATENCIES = (1.0, 2.0, 3.0, 5.0, 8.0)

CONFIGS = {
    "GRAPH": PredictorConfig.graph_baseline(),
    "iNano": PredictorConfig.inano(),
    "prefs": PredictorConfig(
        use_from_src=False,
        use_three_tuples=False,
        use_preferences=True,
        use_providers=False,
    ),
    "tuples+providers": PredictorConfig(
        use_from_src=False,
        use_three_tuples=True,
        use_preferences=False,
        use_providers=True,
        tuple_degree_threshold=2,
    ),
}


def random_atlas(rng: random.Random) -> Atlas:
    atlas = Atlas(day=0)
    n_as = rng.randint(4, 9)
    asns = rng.sample(range(1, 60), n_as)
    cluster_id = 1
    clusters_of: dict[int, list[int]] = {}
    for asn in asns:
        k = rng.randint(1, 2)
        clusters_of[asn] = list(range(cluster_id, cluster_id + k))
        for c in clusters_of[asn]:
            atlas.cluster_to_as[c] = asn
        cluster_id += k
    clusters = sorted(atlas.cluster_to_as)
    # prefixes (one per cluster, a couple of extras)
    for c in clusters:
        atlas.prefix_to_cluster[c * 100] = c
        atlas.prefix_to_as[c * 100] = atlas.cluster_to_as[c]
    # relationships over AS pairs (some pairs intentionally unknown)
    rels = (REL_PROVIDER, REL_CUSTOMER, REL_PEER, REL_SIBLING, None)
    inverse = {
        REL_PROVIDER: REL_CUSTOMER,
        REL_CUSTOMER: REL_PROVIDER,
        REL_PEER: REL_PEER,
        REL_SIBLING: REL_SIBLING,
    }
    for i, a in enumerate(asns):
        for b in asns[i + 1:]:
            rel = rng.choice(rels)
            if rel is not None:
                atlas.relationship_codes[(a, b)] = rel
                atlas.relationship_codes[(b, a)] = inverse[rel]
                if rel == REL_SIBLING and rng.random() < 0.4:
                    atlas.late_exit_pairs.add(frozenset((a, b)))
    # links: intra-AS chains + random inter-cluster links, sometimes
    # one-directional (directed-plane coverage)
    def add_link(x, y):
        atlas.links[(x, y)] = LinkRecord(latency_ms=rng.choice(LATENCIES))
        if rng.random() < 0.8:
            atlas.links[(y, x)] = LinkRecord(latency_ms=rng.choice(LATENCIES))
    for asn in asns:
        cs = clusters_of[asn]
        for x, y in zip(cs, cs[1:]):
            add_link(x, y)
    n_links = rng.randint(n_as, 3 * n_as)
    for _ in range(n_links):
        x, y = rng.sample(clusters, 2)
        if (x, y) not in atlas.links:
            add_link(x, y)
    # an unmappable cluster (compiler skips its links: zero-edge spans)
    atlas.links[(clusters[0], 900 + rng.randrange(50))] = LinkRecord(
        latency_ms=5.0
    )
    for link in rng.sample(sorted(atlas.links), k=min(3, len(atlas.links))):
        atlas.link_loss[link] = round(rng.uniform(0.01, 0.2), 3)
    atlas.link_loss = {
        k: v for k, v in atlas.link_loss.items() if k in atlas.links
    }
    atlas.as_degrees = {a: rng.randint(0, 8) for a in asns}
    # three-tuples: random triples, plus guaranteed witnesses for some
    # real adjacencies so tuple-gated searches still reach things
    for _ in range(rng.randint(4, 16)):
        a, b, c = rng.sample(asns, 3)
        atlas.three_tuples.add((a, b, c))
        if rng.random() < 0.5:
            atlas.three_tuples.add((c, b, a))
    # preferences: random (sometimes mutually contradictory — the spec's
    # first-lookup-wins order must be reproduced exactly)
    for _ in range(rng.randint(2, 10)):
        a, x, y = rng.sample(asns, 3)
        atlas.preferences.add((a, x, y))
        if rng.random() < 0.2:
            atlas.preferences.add((a, y, x))
    for asn in rng.sample(asns, k=rng.randint(1, n_as // 2 + 1)):
        others = [a for a in asns if a != asn]
        atlas.providers[asn] = frozenset(
            rng.sample(others, k=rng.randint(1, min(3, len(others))))
        )
    atlas.validate()
    return atlas


def all_destinations(atlas):
    return sorted({c for ab in atlas.links for c in ab})


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(N_ATLASES))
    def test_random_atlas_bit_equality(self, seed, monkeypatch):
        rng = random.Random(0xBEE5 + seed)
        atlas = random_atlas(rng)
        # odd seeds force the bucket engine so both kernel modes are
        # fuzzed; even seeds take the natural (small-graph) path
        if seed % 2:
            monkeypatch.setattr(search, "_VECTOR_GRAPH_MIN", 0)
            monkeypatch.setattr(search, "_VECTOR_MIN", rng.choice((0, 4)))
        for name, config in CONFIGS.items():
            vec = INanoPredictor(atlas, config, kernel="vector")
            spec = INanoPredictor(atlas, config, kernel="scalar")
            graphs = [(vec.graph, spec.graph)]
            if config.use_from_src:
                graphs.append((vec.fallback_graph, spec.fallback_graph))
            for dst_cluster in all_destinations(atlas):
                prefix = dst_cluster * 100
                providers = vec._provider_gate(prefix)
                for gv, gs in graphs:
                    got = vec._run_search(gv, dst_cluster, providers)
                    want = spec._search_compiled(gs, dst_cluster, providers)
                    assert_states_equal(
                        got, want, (seed, name, dst_cluster)
                    )

    @pytest.mark.parametrize("seed", range(0, N_ATLASES, 7))
    def test_from_src_merged_graphs(self, seed):
        rng = random.Random(0xF00D + seed)
        atlas = random_atlas(rng)
        links = sorted(atlas.links)
        from_src = {
            link: LinkRecord(latency_ms=rng.choice(LATENCIES))
            for link in rng.sample(links, k=min(6, len(links)))
        }
        config = PredictorConfig.inano()
        vec = INanoPredictor(
            atlas, config, from_src_links=from_src, kernel="vector"
        )
        spec = INanoPredictor(
            atlas, config, from_src_links=from_src, kernel="scalar"
        )
        assert vec.graph.has_from_src
        for dst_cluster in all_destinations(atlas):
            prefix = dst_cluster * 100
            providers = vec._provider_gate(prefix)
            got = vec._run_search(vec.graph, dst_cluster, providers)
            want = spec._search_compiled(spec.graph, dst_cluster, providers)
            assert_states_equal(got, want, (seed, "merged", dst_cluster))

    def test_predictions_match_legacy_engine(self):
        """End-to-end: kernel predictions equal the legacy dict engine."""
        rng = random.Random(0x1E6)
        atlas = random_atlas(rng)
        prefixes = sorted(atlas.prefix_to_cluster)
        for config in (PredictorConfig.inano(), PredictorConfig.graph_baseline()):
            vec = INanoPredictor(atlas, config, kernel="vector")
            legacy = INanoPredictor(atlas, config, engine="legacy")
            for src in prefixes[::2]:
                for dst in prefixes[1::2]:
                    assert vec.predict_or_none(src, dst) == \
                        legacy.predict_or_none(src, dst), (src, dst)


# -- prewarm across deltas ------------------------------------------------


def _perturb_values(atlas, rng):
    """Latency/loss/tuple churn only: a value-only patch day."""
    links = sorted(atlas.links)
    for link in rng.sample(links, k=max(1, len(links) // 4)):
        atlas.links[link] = LinkRecord(latency_ms=rng.choice(LATENCIES))
    for link in rng.sample(links, k=2):
        atlas.link_loss[link] = round(rng.uniform(0.01, 0.3), 3)
    if atlas.three_tuples and rng.random() < 0.8:
        atlas.three_tuples.discard(sorted(atlas.three_tuples)[0])
    asns = sorted(atlas.as_degrees)
    if len(asns) >= 3:
        atlas.three_tuples.add(tuple(rng.sample(asns, 3)))


def _perturb_structural(atlas, rng):
    """Add/remove links without disturbing node first-appearance."""
    links = sorted(atlas.links)
    # drop a link from the back half (front links pin node appearance)
    victim = links[len(links) // 2 + rng.randrange(len(links) // 2)]
    del atlas.links[victim]
    atlas.link_loss.pop(victim, None)
    clusters = sorted({c for ab in atlas.links for c in ab})
    for _ in range(2):
        x, y = rng.sample(clusters, 2)
        if (x, y) not in atlas.links:
            atlas.links[(x, y)] = LinkRecord(latency_ms=rng.choice(LATENCIES))


def _perturb_renumber(atlas, rng):
    """Remove the very first link: first-appearance order shifts."""
    first = next(iter(atlas.links))
    del atlas.links[first]
    atlas.link_loss.pop(first, None)


class TestWarmStartRepair:
    @pytest.mark.parametrize("seed", range(0, N_ATLASES, 3))
    def test_repair_matches_fresh_search(self, seed):
        rng = random.Random(0xCAFE + seed)
        base = random_atlas(rng)
        runtime = AtlasRuntime(copy.deepcopy(base))
        runtime.pool.prewarm_max = 3
        configs = [PredictorConfig.inano(), CONFIGS["tuples+providers"]]
        predictors = [runtime.pool.predictor(c) for c in configs]
        totals = {"dirty": 0, "prewarmed": 0}

        current = copy.deepcopy(base)
        perturbations = [
            _perturb_values,
            _perturb_structural,
            _perturb_values,
            _perturb_renumber,
        ]
        for day, perturb in enumerate(perturbations):
            # populate the caches (cold searches against every plane)
            prefixes = sorted(runtime.atlas.prefix_to_cluster)
            for predictor in predictors:
                for src, dst in zip(prefixes, prefixes[1:] + prefixes[:1]):
                    predictor.predict_or_none(src, dst)
            nxt = copy.deepcopy(current)
            nxt.day = day + 1
            perturb(nxt, rng)
            report = runtime.apply_delta(compute_delta(current, nxt))
            current = nxt
            for key in totals:
                totals[key] += report.cache.get(key, 0)
            # every live cache entry must equal a from-scratch search
            for config, predictor in zip(configs, predictors):
                fresh = INanoPredictor(
                    copy.deepcopy(runtime.atlas), config, kernel="scalar"
                )
                for name, graph in (
                    ("directed", runtime.directed_graph()),
                    ("closed", runtime.closed_graph()),
                ):
                    version = graph.version
                    ref = CompiledGraph.from_atlas(
                        runtime.atlas, closed=(name == "closed")
                    )
                    for key in list(predictor._search_cache):
                        if key[0] != version:
                            continue
                        got = predictor._search_cache[key]
                        want = fresh._search_compiled(ref, key[1], key[2])
                        label = (seed, day, name, key[1])
                        assert_cached_equal(got, want, label)
                        full = predictor._run_search(graph, key[1], key[2])
                        assert_states_equal(full, want, label)
        # the entries checked above must actually have been prewarmed
        assert totals["dirty"] > 0, totals
        assert totals["prewarmed"] > 0, totals

    @pytest.mark.parametrize("seed", range(0, N_ATLASES, 4))
    def test_replay_repair_interleaved_days(self, seed, monkeypatch):
        """Forced bucket engine with small chunk minimums over mixed
        value-only and structural days: every prewarmed entry stays
        bit-for-bit equal to a fresh scalar search over the post-delta
        atlas."""
        monkeypatch.setattr(search, "_VECTOR_GRAPH_MIN", 0)
        if seed % 8:
            monkeypatch.setattr(search, "_VECTOR_MIN", 4)
            monkeypatch.setattr(search, "_CHUNK_MIN", 2)
        rng = random.Random(0x5EED + seed)
        base = random_atlas(rng)
        runtime = AtlasRuntime(copy.deepcopy(base))
        runtime.pool.prewarm_max = 3
        configs = [PredictorConfig.inano(), CONFIGS["tuples+providers"]]
        predictors = [runtime.pool.predictor(c) for c in configs]

        current = copy.deepcopy(base)
        perturbations = [
            _perturb_values,
            _perturb_structural,
            _perturb_values,
            _perturb_values,
        ]
        for day, perturb in enumerate(perturbations):
            prefixes = sorted(runtime.atlas.prefix_to_cluster)
            for predictor in predictors:
                for src, dst in zip(prefixes, prefixes[1:] + prefixes[:1]):
                    predictor.predict_or_none(src, dst)
            nxt = copy.deepcopy(current)
            nxt.day = day + 1
            perturb(nxt, rng)
            runtime.apply_delta(compute_delta(current, nxt))
            current = nxt
            for config, predictor in zip(configs, predictors):
                fresh = INanoPredictor(
                    copy.deepcopy(runtime.atlas), config, kernel="scalar"
                )
                for name, graph in (
                    ("directed", runtime.directed_graph()),
                    ("closed", runtime.closed_graph()),
                ):
                    version = graph.version
                    ref = CompiledGraph.from_atlas(
                        runtime.atlas, closed=(name == "closed")
                    )
                    for key in list(predictor._search_cache):
                        if key[0] != version:
                            continue
                        got = predictor._search_cache[key]
                        want = fresh._search_compiled(ref, key[1], key[2])
                        label = (seed, day, name, key[1])
                        assert_cached_equal(got, want, label)
                        full = predictor._run_search(graph, key[1], key[2])
                        assert_states_equal(full, want, label)

    def test_state_pool_bounded_across_churn(self, monkeypatch):
        """State-pool lifecycle: a long churn chain must not grow pool
        memory past one spare bundle, and ``PredictorPool.release()``
        must free the released entry's pooled arrays."""
        monkeypatch.setattr(search, "_VECTOR_GRAPH_MIN", 0)
        rng = random.Random(0x9001)
        base = random_atlas(rng)
        runtime = AtlasRuntime(copy.deepcopy(base))
        predictor = runtime.pool.predictor(PredictorConfig.inano())
        prefixes = sorted(runtime.atlas.prefix_to_cluster)
        current = copy.deepcopy(base)
        sizes = []
        for day in range(8):
            for src, dst in zip(prefixes, prefixes[1:] + prefixes[:1]):
                predictor.predict_or_none(src, dst)
            for g in (runtime.directed_graph(), runtime.closed_graph()):
                pool = g.search_pool()
                # one spare bundle of 5 arrays of 8 bytes/node + the
                # bool finalized scratch bounds the pool
                bound = 5 * 8 * g.n_nodes + g.n_nodes
                sizes.append(pool.nbytes())
                assert pool.nbytes() <= bound, (day, pool.nbytes(), bound)
            nxt = copy.deepcopy(current)
            nxt.day = day + 1
            (_perturb_values if day % 2 else _perturb_structural)(nxt, rng)
            runtime.apply_delta(compute_delta(current, nxt))
            current = nxt
        assert any(sizes), sizes
        # a renumbering recompile resizes the pool rather than keeping
        # stale bundles
        _perturb_renumber(current, rng)
        nxt = copy.deepcopy(current)
        nxt.day = 99
        runtime.apply_delta(compute_delta(current, nxt))
        for g in (runtime.directed_graph(), runtime.closed_graph()):
            spare = g.search_pool()._spare
            assert spare is None or len(spare[0]) == g.n_nodes
        # release() frees the entry's cached state + pool spares
        runtime.pool.release(None)
        assert len(predictor._search_cache) == 0
        for g in (runtime.directed_graph(), runtime.closed_graph()):
            assert g.search_pool()._spare is None

    def test_post_delta_first_query_is_cache_hit(self):
        """Prewarming turns the first post-delta query into a hit."""
        rng = random.Random(0xAB)
        base = random_atlas(rng)
        runtime = AtlasRuntime(copy.deepcopy(base))
        runtime.pool.prewarm_max = 8
        predictor = runtime.pool.predictor(PredictorConfig.inano())
        prefixes = sorted(runtime.atlas.prefix_to_cluster)
        for src, dst in zip(prefixes, prefixes[1:] + prefixes[:1]):
            predictor.predict_or_none(src, dst)
        nxt = copy.deepcopy(base)
        nxt.day = 1
        _perturb_values(nxt, rng)
        runtime.apply_delta(compute_delta(base, nxt))
        live = {
            key
            for key in predictor._search_cache
            if key[0]
            in (
                runtime.directed_graph().version,
                runtime.closed_graph().version,
            )
        }
        assert live, "prewarm left no warm entries"
