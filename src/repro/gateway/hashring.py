"""Consistent-hash routing of query types onto gateway shards.

Every router in every process must map a query type to the same shard, so
the hash must be deterministic across interpreters — Python's builtin
``hash`` is salted per process and cannot be used.  The ring hashes with
BLAKE2b instead, places ``replicas`` virtual nodes per shard, and routes a
type to the first virtual node at or clockwise of the type's hash.

Consistent hashing (rather than ``hash(qtype) % shards``) keeps the
assignment stable under resizing: growing the fleet from N to N+1 shards
moves only ~1/(N+1) of the types, so the moved types' policies restart
cold (paper Appendix A) while every other shard keeps its warmed
histograms and memoized estimator state.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from ..exceptions import ConfigurationError

#: Virtual nodes per shard.  64 keeps the max/mean type-count imbalance
#: under ~1.3x for small fleets while the ring stays tiny (shards x 64
#: 8-byte points).
DEFAULT_REPLICAS = 64

#: Most query types one router remembers the shard of.  A closed type
#: table fits many times over; a stream of unique strings stops being
#: stored here and is hashed per call, so the router never grows past it.
ROUTE_MEMO_CAP = 4096


def _point(key: str) -> int:
    """Deterministic 64-bit ring position for ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Maps query types onto ``shards`` gateway workers, consistently.

    The router is pure computation over (shards, replicas): two routers
    built with the same parameters agree in every process, which is what
    lets load generators preformat per-shard frames without asking the
    gateway where a type lives.
    """

    def __init__(self, shards: int,
                 replicas: int = DEFAULT_REPLICAS) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {replicas}")
        self.shards = int(shards)
        self.replicas = int(replicas)
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append((_point(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]
        self._memo: Dict[str, int] = {}

    def shard_for(self, qtype: str) -> int:
        """Shard owning ``qtype`` (first virtual node clockwise)."""
        shard = self._memo.get(qtype)
        if shard is None:
            idx = bisect_right(self._points, _point(qtype))
            shard = self._owners[idx if idx < len(self._points) else 0]
            if len(self._memo) < ROUTE_MEMO_CAP:
                self._memo[qtype] = shard
        return shard

    def assignment(self, qtypes: Sequence[str]) -> Dict[int, List[str]]:
        """Group ``qtypes`` by owning shard (order preserved per shard)."""
        grouped: Dict[int, List[str]] = {}
        for qtype in qtypes:
            grouped.setdefault(self.shard_for(qtype), []).append(qtype)
        return grouped
