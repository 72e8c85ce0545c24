"""A day's ranking working set fits one predictor's search cache.

The default scenario has 333 destination clusters, more than the 256
searches the LRU held before cache entries were compacted, so a second
pass over every destination then re-searched most of them. Sized to a
day's working set, the cache must answer the second pass with no kernel
run and drop nothing on either pass.
"""

from __future__ import annotations

import copy

from repro.core.predictor import PredictorConfig
from repro.obs import MetricsRegistry
from repro.runtime import AtlasRuntime

#: the LRU capacity that thrashed on this working set
OLD_CACHE_MAX = 256


def test_second_pass_over_day_working_set_runs_no_search(scenario):
    atlas = scenario.atlas(0)
    prefix_of_cluster: dict[int, int] = {}
    for prefix, cluster in sorted(atlas.prefix_to_cluster.items()):
        prefix_of_cluster.setdefault(cluster, prefix)
    srcs = sorted(atlas.prefix_to_cluster)[:3]
    pairs = [
        (src, dst) for dst in sorted(prefix_of_cluster.values()) for src in srcs
    ]
    runtime = AtlasRuntime(copy.deepcopy(atlas))
    pool = runtime.pool
    predictor = pool.predictor(PredictorConfig.inano())

    first = predictor.predict_batch(pairs)
    assert len(predictor._search_cache) > OLD_CACHE_MAX
    after_first = pool.kernel_stats()
    assert after_first["searches"] == len(predictor._search_cache)
    assert after_first["evictions"] == 0

    second = predictor.predict_batch(pairs)
    assert second == first
    after_second = pool.kernel_stats()
    assert after_second["searches"] == after_first["searches"]
    assert after_second["evictions"] == 0
    assert after_second["hits"] > after_first["hits"]

    registry = MetricsRegistry()
    pool.export_metrics(registry)
    assert registry.snapshot()["runtime.pool.kernel.evictions"] == 0
