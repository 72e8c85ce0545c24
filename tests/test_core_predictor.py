"""Unit tests of the prediction engine on the hand-built toy atlas.

Topology (see tests/helpers.py)::

      AS1 ----peer---- AS2
       |                |
      AS3              AS4
         \\            /
            AS5 (dual-homed)
"""

import numpy as np
import pytest

from repro.atlas.model import LinkRecord
from repro.core.graph import DOWN, TO_DST, UP, PredictionGraph
from repro.core.predictor import INanoPredictor, PredictorConfig
from repro.errors import NoPredictedRouteError, UnknownEndpointError

from helpers import cluster_of, prefix_of, toy_atlas


@pytest.fixture
def atlas():
    return toy_atlas()


def predictor(atlas, **flags):
    defaults = dict(
        use_from_src=False,
        use_three_tuples=False,
        use_preferences=False,
        use_providers=False,
    )
    defaults.update(flags)
    return INanoPredictor(atlas, PredictorConfig(**defaults))


class TestGraphConstruction:
    def test_valley_free_by_construction(self, atlas):
        graph = PredictionGraph(atlas=atlas, closed=True).build()
        # No edge may go from a DOWN node to an UP node.
        for edges in graph.reverse_adjacency.values():
            for edge in edges:
                assert not (edge.src[1] == DOWN and edge.dst[1] == UP)

    def test_self_edges_present(self, atlas):
        graph = PredictionGraph(atlas=atlas, closed=True).build()
        node = (TO_DST, DOWN, cluster_of(5))
        kinds = [e.kind.name for e in graph.incoming(node)]
        assert "SELF_DOWN" in kinds

    def test_edge_count_positive(self, atlas):
        graph = PredictionGraph(atlas=atlas, closed=True).build()
        assert graph.n_edges > 0


class TestBasicPrediction:
    def test_valley_free_route_chosen(self, atlas):
        # 3 -> 5: direct customer route (3 is 5's provider).
        path = predictor(atlas).predict(prefix_of(3), prefix_of(5))
        assert path.as_path == (3, 5)

    def test_peer_route(self, atlas):
        # 3 -> 4: up to 1, peer to 2, down to 4 — NOT through customer 5
        # (that would be a valley).
        path = predictor(atlas).predict(prefix_of(3), prefix_of(4))
        assert path.as_path == (3, 1, 2, 4)

    def test_latency_composed(self, atlas):
        path = predictor(atlas).predict(prefix_of(3), prefix_of(4))
        assert path.latency_ms == pytest.approx(30.0)

    def test_unknown_endpoint(self, atlas):
        with pytest.raises(UnknownEndpointError):
            predictor(atlas).predict(999_999, prefix_of(5))

    def test_batch_interface(self, atlas):
        pred = predictor(atlas)
        results = pred.predict_batch(
            [(prefix_of(3), prefix_of(5)), (999_999, prefix_of(5))]
        )
        assert results[0] is not None and results[1] is None


class TestThreeTupleCheck:
    def test_missing_tuple_blocks_route(self, atlas):
        # Remove the witness that AS1 exports AS2's routes to AS3
        # (needed for 3 -> 1 -> 2 -> 4); AS1 has degree > threshold.
        atlas.three_tuples.discard((3, 1, 2))
        atlas.three_tuples.discard((2, 1, 3))
        atlas.as_degrees[1] = 10
        pred = predictor(atlas, use_three_tuples=True)
        with pytest.raises(NoPredictedRouteError):
            pred.predict(prefix_of(3), prefix_of(4))

    def test_low_degree_middle_exempt(self, atlas):
        atlas.three_tuples.discard((3, 1, 2))
        atlas.three_tuples.discard((2, 1, 3))
        atlas.as_degrees[1] = 2  # edge AS: visibility waiver applies
        pred = predictor(atlas, use_three_tuples=True)
        assert pred.predict(prefix_of(3), prefix_of(4)).as_path == (3, 1, 2, 4)


class TestProviderCheck:
    def test_non_provider_entry_blocked(self, atlas):
        # Claim AS5's prefixes are announced only via AS3.
        atlas.providers[5] = frozenset({3})
        pred = predictor(atlas, use_providers=True)
        path = pred.predict(prefix_of(4), prefix_of(5))
        # 4 cannot enter 5 directly (4 is not a provider in the
        # announcement); route must come around via 3.
        assert path.as_path[-2] == 3

    def test_per_prefix_override_wins(self, atlas):
        atlas.providers[5] = frozenset({3, 4})
        atlas.prefix_providers[prefix_of(5)] = frozenset({4})
        pred = predictor(atlas, use_providers=True)
        path = pred.predict(prefix_of(3), prefix_of(5))
        assert path.as_path[-2] == 4


class TestPreferences:
    def test_preference_breaks_tie(self, atlas):
        # Give AS5 a second link to each provider so both routes to AS1
        # have equal cluster structure; 5's routes to 1 via 3 or via
        # 4+2... those differ in length. Instead test 1 -> 5: via 3 or 4,
        # both 2 AS hops. Prefer 4.
        atlas.preferences.add((1, 2, 3))  # AS1 prefers next-hop 2 over 3
        # 1 -> 5 via 3 is (1,3,5); via 2 it is (1,2,4,5): longer, so the
        # preference must NOT override the shorter route.
        path = predictor(atlas, use_preferences=True).predict(
            prefix_of(1), prefix_of(5)
        )
        assert path.as_path == (1, 3, 5)

    def test_equal_length_preference_applied(self, atlas):
        # 5 -> 1: via 3 gives (5,3,1); make an equal-length alternative
        # via 4 impossible (4 connects to 2, not 1), so craft the tie at
        # AS5's providers toward a new dual-homed destination AS6.
        from repro.atlas.relationships import REL_CUSTOMER, REL_PROVIDER

        c6 = cluster_of(6)
        for provider in (3, 4):
            cp = cluster_of(provider)
            atlas.links[(cp, c6)] = LinkRecord(latency_ms=10.0)
            atlas.links[(c6, cp)] = LinkRecord(latency_ms=10.0)
            atlas.relationship_codes[(provider, 6)] = REL_PROVIDER
            atlas.relationship_codes[(6, provider)] = REL_CUSTOMER
        atlas.cluster_to_as[c6] = 6
        atlas.prefix_to_cluster[prefix_of(6)] = c6
        atlas.prefix_to_as[prefix_of(6)] = 6
        atlas.as_degrees[6] = 2
        # 5 -> 6 via 3 or via 4, both two hops. Express a preference.
        atlas.preferences.add((5, 4, 3))
        path = predictor(atlas, use_preferences=True).predict(
            prefix_of(5), prefix_of(6)
        )
        assert path.as_path == (5, 4, 6)
        # And the opposite preference flips the choice.
        atlas2 = toy_atlas()
        for provider in (3, 4):
            cp = cluster_of(provider)
            atlas2.links[(cp, c6)] = LinkRecord(latency_ms=10.0)
            atlas2.links[(c6, cp)] = LinkRecord(latency_ms=10.0)
            atlas2.relationship_codes[(provider, 6)] = REL_PROVIDER
            atlas2.relationship_codes[(6, provider)] = REL_CUSTOMER
        atlas2.cluster_to_as[c6] = 6
        atlas2.prefix_to_cluster[prefix_of(6)] = c6
        atlas2.prefix_to_as[prefix_of(6)] = 6
        atlas2.preferences.add((5, 3, 4))
        path2 = predictor(atlas2, use_preferences=True).predict(
            prefix_of(5), prefix_of(6)
        )
        assert path2.as_path == (5, 3, 6)


class TestFromSrcPlane:
    def test_from_src_links_used(self, atlas):
        # The client at AS5 has its own link observation 5 -> 4 with a
        # much better latency estimate; prediction should start in the
        # FROM_SRC plane.
        from_src = {
            (cluster_of(5), cluster_of(4)): LinkRecord(latency_ms=1.0),
            (cluster_of(4), cluster_of(2)): LinkRecord(latency_ms=1.0),
        }
        pred = INanoPredictor(
            atlas,
            PredictorConfig(
                use_from_src=True,
                use_three_tuples=False,
                use_preferences=False,
                use_providers=False,
            ),
            from_src_links=from_src,
        )
        path = pred.predict(prefix_of(5), prefix_of(2))
        assert path.used_from_src
        assert path.as_path == (5, 4, 2)

    def test_fallback_to_closed_graph(self, atlas):
        # No FROM_SRC links at all: the directed primary graph may fail,
        # the closed fallback must still answer.
        pred = INanoPredictor(
            atlas,
            PredictorConfig(
                use_from_src=True,
                use_three_tuples=False,
                use_preferences=False,
                use_providers=False,
            ),
            from_src_links=None,
        )
        path = pred.predict(prefix_of(3), prefix_of(4))
        assert path.as_path == (3, 1, 2, 4)

    def test_search_cache_reused(self, atlas):
        pred = predictor(atlas)
        pred.predict(prefix_of(3), prefix_of(5))
        cache_size = len(pred._search_cache)
        pred.predict(prefix_of(4), prefix_of(5))  # same destination cluster
        assert len(pred._search_cache) == cache_size

    def test_cache_entry_is_compact_and_owns_no_pooled_arrays(self, atlas):
        pred = INanoPredictor(atlas, PredictorConfig.inano())
        for asn in (1, 2, 3, 4, 5):
            for src in (1, 2, 3, 4, 5):
                pred.predict_or_none(prefix_of(src), prefix_of(asn))
        graphs = {g.version: g for g in (pred.graph, pred.fallback_graph)}
        pooled = [
            array
            for graph in graphs.values()
            for array in graph.search_pool()._spare or ()
        ]
        assert pooled, "finished searches return their bundle to the pool"
        assert pred._search_cache
        for (version, _, _), entry in pred._search_cache.items():
            assert entry.exitc is None and entry.nxt is None
            kept = (entry.phase, entry.eff, entry.parent)
            for array in kept:
                assert array.flags.owndata
                assert not any(np.shares_memory(array, p) for p in pooled)
            assert sum(a.nbytes for a in kept) <= 9 * graphs[version].n_nodes
