"""Hand-built micro-fixtures for unit tests of the prediction core.

``toy_atlas()`` builds a five-AS Internet by hand::

      AS1 (T1) ---peer--- AS2 (T1)
       |                   |
      AS3 (customer)      AS4 (customer)
         \\               /
          AS5 (customer of both AS3 and AS4)

Each AS has one cluster (cluster id == ASN * 10) and one prefix
(prefix index == ASN * 100). All inter-cluster links exist in both
directions with 10ms latency. Relationship codes, degrees, tuples and
providers are filled in consistently, so individual checks can be
exercised by removing or adding entries.

``assert_states_equal()`` compares two compiled-engine search results
bit for bit (exit costs by their float64 bit patterns);
``assert_cached_equal()`` compares a search-cache entry, which keeps
only ``phase`` / ``eff`` / ``parent``, against a full search result.
"""

from __future__ import annotations

import numpy as np

from repro.atlas.model import Atlas, LinkRecord
from repro.atlas.relationships import REL_CUSTOMER, REL_PEER, REL_PROVIDER


def cluster_of(asn: int) -> int:
    return asn * 10


def prefix_of(asn: int) -> int:
    return asn * 100


def toy_atlas() -> Atlas:
    atlas = Atlas(day=0)
    edges = [
        (1, 2, "peer"),
        (1, 3, "provider"),   # AS1 provides transit to AS3
        (2, 4, "provider"),
        (3, 5, "provider"),
        (4, 5, "provider"),
    ]
    for a, b, kind in edges:
        ca, cb = cluster_of(a), cluster_of(b)
        atlas.links[(ca, cb)] = LinkRecord(latency_ms=10.0)
        atlas.links[(cb, ca)] = LinkRecord(latency_ms=10.0)
        if kind == "peer":
            atlas.relationship_codes[(a, b)] = REL_PEER
            atlas.relationship_codes[(b, a)] = REL_PEER
        else:
            atlas.relationship_codes[(a, b)] = REL_PROVIDER
            atlas.relationship_codes[(b, a)] = REL_CUSTOMER
    for asn in (1, 2, 3, 4, 5):
        atlas.cluster_to_as[cluster_of(asn)] = asn
        atlas.prefix_to_cluster[prefix_of(asn)] = cluster_of(asn)
        atlas.prefix_to_as[prefix_of(asn)] = asn
    atlas.as_degrees = {1: 2, 2: 2, 3: 2, 4: 2, 5: 2}
    # Every consecutive triple along legitimate routes, commutativity-closed.
    for triple in [
        (3, 1, 2), (1, 2, 4), (2, 4, 5), (3, 5, 4), (1, 3, 5), (2, 4, 5), (4, 5, 3),
    ]:
        a, b, c = triple
        atlas.three_tuples.add((a, b, c))
        atlas.three_tuples.add((c, b, a))
    atlas.providers = {
        5: frozenset({3, 4}),
        3: frozenset({1}),
        4: frozenset({2}),
    }
    atlas.upstreams = {
        5: frozenset({3, 4}),
        3: frozenset({1, 5}),
        4: frozenset({2, 5}),
        1: frozenset({2, 3}),
        2: frozenset({1, 4}),
    }
    return atlas


def assert_states_equal(got, want, label):
    assert got.root_id == want.root_id, label
    assert np.array_equal(np.asarray(got.phase), np.asarray(want.phase)), label
    assert np.array_equal(np.asarray(got.eff), np.asarray(want.eff)), label
    assert np.array_equal(np.asarray(got.parent), np.asarray(want.parent)), label
    assert np.array_equal(np.asarray(got.nxt), np.asarray(want.nxt)), label
    # exact float identity (bit pattern), not just ==
    ga = np.asarray(got.exitc, dtype=np.float64)
    wa = np.asarray(want.exitc, dtype=np.float64)
    assert np.array_equal(ga.view(np.int64), wa.view(np.int64)), label


def assert_cached_equal(got, want, label):
    """A compact search-cache entry against a full (spec) search: the
    kept fields equal value for value, the dropped ones are gone."""
    assert got.root_id == want.root_id, label
    assert got.exitc is None and got.nxt is None, label
    for field in ("phase", "eff", "parent"):
        kept = np.asarray(getattr(got, field))
        full = np.asarray(getattr(want, field))
        assert kept.dtype.kind == "i", (label, field, kept.dtype)
        assert np.array_equal(kept, full), (label, field)
