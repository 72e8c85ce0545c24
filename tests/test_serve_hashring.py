"""Consistent-hash ring: determinism, balance, minimal disruption."""

from __future__ import annotations

import pytest

from repro.serve import HashRing

KEYS = list(range(0, 5000, 7))


class TestDeterminism:
    def test_same_inputs_same_routing(self):
        a = HashRing(range(4)).assignment(KEYS)
        b = HashRing(range(4)).assignment(KEYS)
        assert a == b

    def test_insertion_order_irrelevant(self):
        a = HashRing([0, 1, 2, 3]).assignment(KEYS)
        b = HashRing([3, 1, 0, 2]).assignment(KEYS)
        assert a == b

    def test_routing_stable_across_interpreter_runs(self):
        # Ring points come from blake2b digests, which are
        # runtime-independent — unlike builtin hash(), whose
        # PYTHONHASHSEED randomization would scatter destinations onto
        # different shards every restart. A subprocess with a different
        # hash seed must produce the identical routing table.
        import json
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import json, sys; sys.path.insert(0, sys.argv[1]);"
            "from repro.serve import HashRing;"
            "ring = HashRing(range(4));"
            "print(json.dumps([ring.shard_for(k) for k in range(0, 500, 7)]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(src)],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": "12345"},
            check=True,
        )
        ring = HashRing(range(4))
        assert json.loads(out.stdout) == [
            ring.shard_for(k) for k in range(0, 500, 7)
        ]

    def test_salt_changes_routing(self):
        a = HashRing(range(4), salt=b"a").assignment(KEYS)
        b = HashRing(range(4), salt=b"b").assignment(KEYS)
        assert a != b


class TestShape:
    def test_all_shards_get_load(self):
        counts = {s: 0 for s in range(4)}
        for shard in HashRing(range(4)).assignment(KEYS).values():
            counts[shard] += 1
        assert all(count > 0 for count in counts.values())
        # vnode smoothing: no shard should dominate the keyspace
        assert max(counts.values()) < 2.5 * min(counts.values())

    def test_remove_only_remaps_owned_keys(self):
        ring = HashRing(range(4))
        before = ring.assignment(KEYS)
        ring.remove_shard(2)
        after = ring.assignment(KEYS)
        for key, shard in before.items():
            if shard != 2:
                assert after[key] == shard, "non-owned key moved on removal"
            else:
                assert after[key] != 2
        assert any(shard == 2 for shard in before.values())

    def test_add_back_restores_routing(self):
        ring = HashRing(range(4))
        before = ring.assignment(KEYS)
        ring.remove_shard(1)
        ring.add_shard(1)
        assert ring.assignment(KEYS) == before

    def test_memoized_lookup_survives_ring_changes(self):
        ring = HashRing(range(4))
        before = {k: ring.shard_for(k) for k in range(300)}
        # cached answers are stable
        assert {k: ring.shard_for(k) for k in range(300)} == before
        ring.add_shard(4)
        fresh = HashRing(range(5))
        after = {k: ring.shard_for(k) for k in range(300)}
        assert after == {k: fresh.shard_for(k) for k in range(300)}
        ring.remove_shard(4)
        assert {k: ring.shard_for(k) for k in range(300)} == before

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(range(2), vnodes=0)
        ring = HashRing(range(2))
        with pytest.raises(ValueError):
            ring.add_shard(0)
        with pytest.raises(ValueError):
            ring.remove_shard(9)
        ring.remove_shard(1)
        with pytest.raises(ValueError):
            ring.remove_shard(0)
