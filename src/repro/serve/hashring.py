"""Deterministic consistent-hash ring for destination routing.

The sharded prediction service routes every query by its **destination
cluster**: all traffic toward one destination lands on its one owning
shard (:meth:`HashRing.shard_for`; there are no replicas), so that
shard's per-destination search cache (and the pool's prewarm
machinery) sees the whole stream — the same locality the in-process
:class:`~repro.runtime.pool.PredictorPool` exploits.

Two properties matter and both are guaranteed here:

* **Determinism.** Ring points come from BLAKE2b digests of explicit
  byte strings — never Python's builtin ``hash()``, whose string/bytes
  randomization (``PYTHONHASHSEED``) would scatter a destination onto a
  different shard every process restart, silently discarding every
  shard's accumulated cache locality and making tests unreproducible.
  The same ``(salt, shards, vnodes)`` always yields the same routing
  table, in any process, on any run.
* **Minimal disruption.** Each shard owns ``vnodes`` points on the
  ring; removing a shard reassigns only the keys in its arcs (≈ 1/N of
  the keyspace) and adding one steals only what it now owns. Everything
  else keeps its shard — and its warm cache.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing"]

#: virtual nodes per shard; enough for <15% load imbalance at small N
DEFAULT_VNODES = 64


def _point(data: bytes) -> int:
    """A 64-bit ring position from a stable cryptographic digest."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """Maps integer keys (destination clusters) onto shard ids."""

    def __init__(
        self,
        shards,
        vnodes: int = DEFAULT_VNODES,
        salt: bytes = b"inano-serve",
    ) -> None:
        self.vnodes = int(vnodes)
        self.salt = bytes(salt)
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self._points: list[int] = []
        self._owners: list[int] = []
        self._shards: set[int] = set()
        self._lookup_cache: dict[int, int] = {}
        for shard in shards:
            self.add_shard(shard)
        if not self._shards:
            raise ValueError("ring needs at least one shard")

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[int]:
        return sorted(self._shards)

    def _vnode_points(self, shard: int) -> list[int]:
        prefix = b"%s|shard:%d|vnode:" % (self.salt, shard)
        return [_point(prefix + b"%d" % v) for v in range(self.vnodes)]

    def add_shard(self, shard: int) -> None:
        shard = int(shard)
        if shard in self._shards:
            raise ValueError(f"shard {shard} already on the ring")
        self._shards.add(shard)
        self._lookup_cache.clear()
        for p in self._vnode_points(shard):
            # Tie-break exact point collisions by shard id so insertion
            # order can never influence ownership.
            i = bisect.bisect_left(self._points, p)
            while i < len(self._points) and self._points[i] == p and self._owners[i] < shard:
                i += 1
            self._points.insert(i, p)
            self._owners.insert(i, shard)

    def remove_shard(self, shard: int) -> None:
        shard = int(shard)
        if shard not in self._shards:
            raise ValueError(f"shard {shard} not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.remove(shard)
        self._lookup_cache.clear()
        keep = [i for i, owner in enumerate(self._owners) if owner != shard]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def shard_for(self, key: int) -> int:
        """The shard owning ``key`` (first ring point clockwise).

        Lookups are memoized per key — the hot routing path hashes each
        destination once per ring topology, not once per query.  The
        cache is invalidated by ``add_shard``/``remove_shard``.
        """
        key = int(key)
        cached = self._lookup_cache.get(key)
        if cached is not None:
            return cached
        p = _point(b"%s|key:%d" % (self.salt, key))
        i = bisect.bisect_right(self._points, p)
        if i == len(self._points):
            i = 0
        owner = self._owners[i]
        self._lookup_cache[key] = owner
        return owner

    def assignment(self, keys) -> dict[int, int]:
        """Batch ``shard_for`` (key -> shard), for tests and rebalance
        accounting."""
        return {int(k): self.shard_for(k) for k in keys}
