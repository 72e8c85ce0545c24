"""Shard/single-process equivalence over a full delta chain.

The sharded service's contract: an N-shard
:class:`~repro.serve.service.PredictionService` — worker processes over
shared-memory CSR, consistent-hash fan-out, binary delta broadcast — is
**observably identical** to a single-process
:class:`~repro.client.server.AtlasServer` runtime over the same atlas
lineage. This suite drives both sides through the same ≥10-day seeded
churn chain (reusing the runtime suite's chain builder, which crosses
the day-30 monthly recompile boundary) and asserts bit-for-bit equal
answers every day, for:

* pooled one-way ``predict_batch`` under multiple predictor configs,
* two-way ``query_batch`` ``PathInfo``\\ s against a co-located client,
* a FROM_SRC-merged **measuring client** (registered on every shard,
  re-measured and re-registered mid-chain to exercise the rev
  handshake),

plus fleet convergence (equal per-shard graph fingerprints) after every
broadcast.
"""

from __future__ import annotations

import copy
import random

import pytest

import test_runtime_delta_chain as chainmod

from repro.atlas.delta import compute_delta
from repro.client import AtlasServer, ClientConfig, INanoClient
from repro.core.predictor import PredictorConfig

N_SHARDS = 3
REMEASURE_STEP = 5  # mid-chain re-measure day (before the monthly boundary)


@pytest.fixture(scope="module")
def chain(atlas):
    return chainmod._build_chain(atlas)


class TestShardedEquivalence:
    def test_fleet_matches_single_process_across_chain(self, chain, scenario):
        server = AtlasServer()
        server.publish(copy.deepcopy(chain[0]))
        ref_runtime = server.runtime()
        service = server.serve(n_shards=N_SHARDS)
        try:
            self._drive_chain(service, server, ref_runtime, chain, scenario)
        finally:
            service.close()

    def _drive_chain(self, service, server, ref_runtime, chain, scenario):
        # Reference consumers, all over the server's own runtime (one
        # compiled graph + one pool, the single-process deployment).
        plain_client = INanoClient(server, shared_runtime=ref_runtime)
        plain_client.fetch()
        source = scenario.validation_set().sources[0]
        measuring = INanoClient(
            server,
            vantage=source.vantage,
            measurement_toolkit=scenario.simulator(0),
            cluster_map=scenario.cluster_map(0),
            config=ClientConfig(use_swarm=False),
            shared_runtime=ref_runtime,
        )
        measuring.fetch()
        measuring.measure(n_prefixes=20)
        assert measuring.from_src_links, "measuring client must carry FROM_SRC"

        def mirror_measuring_client():
            service.register_client(
                "meas",
                measuring.from_src_links,
                client_cluster_as=measuring.cluster_map.cluster_asn,
                from_src_prefixes={source.vantage.prefix_index},
                rev=measuring._from_src_rev,
            )

        mirror_measuring_client()
        prefixes = sorted(chain[0].prefix_to_cluster)
        rng = random.Random(0x5EED)
        configs = [PredictorConfig.inano(), PredictorConfig.graph_baseline()]

        def check_day(day):
            pairs = [tuple(rng.sample(prefixes, 2)) for _ in range(12)]
            for config in configs:
                pooled = ref_runtime.pool.predictor(config)
                assert service.predict_batch(pairs, config) == (
                    pooled.predict_batch(pairs)
                ), (day, config.ablation_name())
            assert service.query_batch(pairs[:8]) == (
                plain_client.query_batch(pairs[:8])
            ), day
            measuring_pairs = [
                (source.vantage.prefix_index, dst)
                for dst in rng.sample(prefixes, 6)
            ]
            assert service.query_batch(
                measuring_pairs,
                config=measuring.config.predictor,
                client="meas",
            ) == measuring.query_batch(measuring_pairs), (day, "measuring")

        check_day(chain[0].day)
        modes = set()
        for step, (base, nxt) in enumerate(zip(chain, chain[1:])):
            delta = compute_delta(base, nxt)
            ref_runtime.apply_delta(delta)
            report = service.apply_delta(delta)
            modes.update(report["modes"])
            assert report["day"] == nxt.day == ref_runtime.atlas.day
            if step == REMEASURE_STEP:
                # Re-measure mid-chain: the client's FROM_SRC plane and
                # rev change; the mirrored registration must follow.
                measuring.measure(n_prefixes=10)
                mirror_measuring_client()
            check_day(nxt.day)
        assert len(chain) - 1 >= 10, "chain must span >= 10 deltas"
        assert "patch" in modes, "daily deltas must take the patch path"
        assert "recompile" in modes, "monthly boundary must recompile"
        assert service.converged(), "all shards on one graph version"
        assert service.day == chain[-1].day
