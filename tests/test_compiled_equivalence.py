"""Equivalence suite: compiled CSR engine vs the legacy dict-based search.

The compiled engine (repro.core.compiled + the array-native Dijkstra in
repro.core.predictor) must be *bit-for-bit* interchangeable with the
legacy engine, which is kept as the executable specification. Two layers
of checks enforce that:

1. **Builder identity** — ``CompiledGraph.from_atlas`` (the fast path,
   which never materializes Edge objects) produces exactly the same
   arrays as ``CompiledGraph.from_prediction_graph`` (the canonical
   lowering of the built object graph). Since CSR edge lists preserve
   emission order, identical arrays imply identical tie-breaking.
2. **Engine equivalence** — for every Figure 5 ablation config, both
   engines return identical :class:`PredictedPath`s (clusters, AS path,
   latency, loss, hops, plane) on a seeded scenario and on the toy
   atlas with each corrective component stressed.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.atlas.model import LinkRecord
from repro.core.compiled import CompiledGraph
from repro.core.graph import PredictionGraph
from repro.core.predictor import INanoPredictor, PredictorConfig

from helpers import cluster_of, prefix_of, toy_atlas

#: Figure 5's ablation ladder plus the single-component configs.
ABLATIONS = {
    "GRAPH": PredictorConfig.graph_baseline(),
    "GRAPH+asym": PredictorConfig(
        use_from_src=True,
        use_three_tuples=False,
        use_preferences=False,
        use_providers=False,
    ),
    "GRAPH+tuples": PredictorConfig(
        use_from_src=False,
        use_three_tuples=True,
        use_preferences=False,
        use_providers=False,
    ),
    "GRAPH+prefs": PredictorConfig(
        use_from_src=False,
        use_three_tuples=False,
        use_preferences=True,
        use_providers=False,
    ),
    "GRAPH+providers": PredictorConfig(
        use_from_src=False,
        use_three_tuples=False,
        use_preferences=False,
        use_providers=True,
    ),
    "iNano": PredictorConfig.inano(),
}


def sample_pairs(scenario, n, seed):
    prefixes = [int(p) for p in scenario.all_prefixes()]
    rng = random.Random(seed)
    return [tuple(rng.sample(prefixes, 2)) for _ in range(n)]


class TestBuilderIdentity:
    @pytest.mark.parametrize("closed", [True, False])
    def test_scenario_atlas(self, atlas, closed):
        graph = PredictionGraph(atlas=atlas, closed=closed).build()
        lowered = CompiledGraph.from_prediction_graph(graph)
        direct = CompiledGraph.from_atlas(atlas, closed=closed)
        assert lowered.arrays() == direct.arrays()
        assert lowered.n_edges == graph.n_edges

    def test_with_from_src_plane(self, atlas):
        from_src = dict(itertools.islice(atlas.links.items(), 10))
        graph = PredictionGraph(
            atlas=atlas, from_src_links=from_src, closed=False
        ).build()
        lowered = CompiledGraph.from_prediction_graph(graph)
        direct = CompiledGraph.from_atlas(
            atlas, from_src_links=from_src, closed=False
        )
        assert lowered.arrays() == direct.arrays()
        assert lowered.has_from_src and direct.has_from_src

    def test_toy_atlas(self):
        atlas = toy_atlas()
        graph = PredictionGraph(atlas=atlas, closed=True).build()
        lowered = CompiledGraph.from_prediction_graph(graph)
        direct = CompiledGraph.from_atlas(atlas, closed=True)
        assert lowered.arrays() == direct.arrays()

    def test_csr_is_consistent(self, atlas):
        cg = CompiledGraph.from_atlas(atlas, closed=True)
        assert cg.rev_off[0] == 0 and cg.rev_off[-1] == cg.n_edges
        assert cg.fwd_off[0] == 0 and cg.fwd_off[-1] == cg.n_edges
        for nid in range(cg.n_nodes):
            for ei in cg.rev_lst[cg.rev_off[nid]:cg.rev_off[nid + 1]]:
                assert cg.e_dst[ei] == nid
            for ei in cg.fwd_lst[cg.fwd_off[nid]:cg.fwd_off[nid + 1]]:
                assert cg.e_src[ei] == nid


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_scenario_ablation(self, scenario, atlas, name):
        config = ABLATIONS[name]
        legacy = INanoPredictor(atlas, config, engine="legacy")
        compiled = INanoPredictor(atlas, config, engine="compiled")
        for src, dst in sample_pairs(scenario, 40, seed=sum(map(ord, name))):
            assert legacy.predict_or_none(src, dst) == compiled.predict_or_none(
                src, dst
            ), (name, src, dst)

    def test_from_src_plane(self, atlas):
        from_src = dict(itertools.islice(atlas.links.items(), 10))
        config = PredictorConfig.inano()
        legacy = INanoPredictor(
            atlas, config, from_src_links=from_src, engine="legacy"
        )
        compiled = INanoPredictor(
            atlas, config, from_src_links=from_src, engine="compiled"
        )
        prefixes = [int(p) for p in atlas.prefix_to_cluster][:30]
        for src, dst in itertools.permutations(prefixes[:8], 2):
            assert legacy.predict_or_none(src, dst) == compiled.predict_or_none(
                src, dst
            )

    def test_toy_preferences(self):
        atlas = toy_atlas()
        atlas.preferences.add((5, 4, 3))
        config = PredictorConfig(
            use_from_src=False,
            use_three_tuples=False,
            use_preferences=True,
            use_providers=False,
        )
        self._assert_all_pairs_equal(atlas, config)

    def test_toy_providers(self):
        atlas = toy_atlas()
        atlas.providers[5] = frozenset({3})
        config = PredictorConfig(
            use_from_src=False,
            use_three_tuples=False,
            use_preferences=False,
            use_providers=True,
        )
        self._assert_all_pairs_equal(atlas, config)

    def test_toy_tuples(self):
        atlas = toy_atlas()
        atlas.three_tuples.discard((3, 1, 2))
        atlas.three_tuples.discard((2, 1, 3))
        atlas.as_degrees[1] = 10
        config = PredictorConfig(
            use_from_src=False,
            use_three_tuples=True,
            use_preferences=False,
            use_providers=False,
        )
        self._assert_all_pairs_equal(atlas, config)

    @staticmethod
    def _assert_all_pairs_equal(atlas, config):
        legacy = INanoPredictor(atlas, config, engine="legacy")
        compiled = INanoPredictor(atlas, config, engine="compiled")
        for a, b in itertools.permutations((1, 2, 3, 4, 5), 2):
            assert legacy.predict_or_none(
                prefix_of(a), prefix_of(b)
            ) == compiled.predict_or_none(prefix_of(a), prefix_of(b)), (a, b)


class TestBatchSemantics:
    def test_grouped_batch_matches_per_pair(self, scenario, atlas):
        predictor = INanoPredictor(atlas, PredictorConfig.inano())
        pairs = sample_pairs(scenario, 30, seed=99)
        pairs += [(999_999, pairs[0][1]), (pairs[0][0], 999_999)]
        batch = predictor.predict_batch(pairs)
        single = [predictor.predict_or_none(s, d) for s, d in pairs]
        assert batch == single

    def test_batch_keeps_fallback_lazy(self, atlas):
        predictor = INanoPredictor(atlas, PredictorConfig.inano())
        prefixes = list(atlas.prefix_to_cluster)
        results = predictor.predict_batch([(prefixes[0], prefixes[1])])
        assert results[0] is not None, "expected pair resolvable on primary graph"
        # Resolved on the primary directed graph: the closed fallback
        # must not have been compiled just to iterate the generator.
        assert predictor._fallback_graph is None

    def test_batch_shares_destination_search(self, atlas):
        predictor = INanoPredictor(atlas, PredictorConfig.inano())
        prefixes = list(atlas.prefix_to_cluster)[:6]
        dst = prefixes[-1]
        predictor.predict_batch([(s, dst) for s in prefixes[:-1]])
        # One destination -> at most one search per graph plane.
        assert len(predictor._search_cache) <= 2


class TestSearchCacheLRU:
    @staticmethod
    def _predictor(atlas):
        pred = INanoPredictor(atlas, PredictorConfig.graph_baseline())
        pred._cache_max = 2
        return pred

    def test_hit_refreshes_recency(self):
        atlas = toy_atlas()
        pred = self._predictor(atlas)
        pred.predict(prefix_of(3), prefix_of(5))  # A
        pred.predict(prefix_of(3), prefix_of(4))  # B
        pred.predict(prefix_of(4), prefix_of(5))  # hit A -> A most recent
        pred.predict(prefix_of(1), prefix_of(2))  # C evicts B, not A
        cached_dst_clusters = {key[1] for key in pred._search_cache}
        assert cluster_of(5) in cached_dst_clusters
        assert cluster_of(2) in cached_dst_clusters
        assert cluster_of(4) not in cached_dst_clusters

    def test_eviction_without_hits_is_fifo(self):
        atlas = toy_atlas()
        pred = self._predictor(atlas)
        pred.predict(prefix_of(3), prefix_of(5))  # A
        pred.predict(prefix_of(3), prefix_of(4))  # B
        pred.predict(prefix_of(1), prefix_of(2))  # C evicts A
        cached_dst_clusters = {key[1] for key in pred._search_cache}
        assert cluster_of(5) not in cached_dst_clusters
        assert cached_dst_clusters == {cluster_of(4), cluster_of(2)}
        assert pred.kernel_stats["evictions"] == 1
