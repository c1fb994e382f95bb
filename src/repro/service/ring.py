"""Consistent-hash ring: which shard owns which stream.

The sharded service partitions streams across shard processes by hashing
stream ids onto a ring of virtual nodes (128 ``replicas`` per shard by
default, blake2b positions).  Consistent hashing gives the two properties the
supervisor's rebalance logic relies on:

* **uniformity** — with enough virtual nodes per shard, ownership across a
  large stream population is close to uniform (the property tests bound it
  with a chi-square statistic), and
* **minimal movement** — adding one shard reassigns only the streams
  adjacent to that shard's virtual nodes (about ``K/N`` of ``K``
  streams over ``N`` shards), so a rebalance replays a small slice of the
  workload instead of all of it.

Ring state is pure data (shard ids + replica count) and serialises to a
JSON-ready dict, so a restarted supervisor — or a test asserting
determinism — can rebuild the exact same ownership map.  Positions depend
only on shard id and replica index, never on insertion order.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple


def _position(token: str) -> int:
    """Deterministic 64-bit ring position of one token."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Maps stream ids to shard ids via consistent hashing."""

    def __init__(self, shard_ids: Sequence[str] = (), replicas: int = 128) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._shards: List[str] = []
        #: sorted (position, shard_id) pairs — the ring itself — plus the
        #: positions alone for O(log n) bisect lookups
        self._points: List[Tuple[int, str]] = []
        self._positions: List[int] = []
        for shard_id in shard_ids:
            self.add(shard_id)

    # ------------------------------------------------------------------ #
    @property
    def shard_ids(self) -> List[str]:
        """Member shards, sorted (membership is a set; order never matters)."""
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    # ------------------------------------------------------------------ #
    def add(self, shard_id: str) -> None:
        """Add a shard (``replicas`` virtual nodes) to the ring."""
        if not shard_id:
            raise ValueError("shard_id must be non-empty")
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} is already on the ring")
        self._shards.append(shard_id)
        for replica in range(self.replicas):
            point = (_position(f"{shard_id}#{replica}"), shard_id)
            bisect.insort(self._points, point)
        self._positions = [p[0] for p in self._points]

    def owner(self, stream_id: str) -> str:
        """The shard owning ``stream_id`` (first virtual node clockwise)."""
        if not self._points:
            raise LookupError("ring has no shards")
        index = bisect.bisect_right(self._positions, _position(stream_id))
        if index == len(self._points):  # wrap around the ring
            index = 0
        return self._points[index][1]

    def assign(self, stream_ids: Sequence[str]) -> Dict[str, List[str]]:
        """Group stream ids by owning shard (shards with no streams omitted)."""
        grouped: Dict[str, List[str]] = {}
        for stream_id in stream_ids:
            grouped.setdefault(self.owner(stream_id), []).append(stream_id)
        return grouped

    # ------------------------------------------------------------------ #
    def to_state(self) -> Dict[str, object]:
        """JSON-ready snapshot (the service's ``stats()``)."""
        return {"replicas": self.replicas, "shards": self.shard_ids}

    def __repr__(self) -> str:
        return f"HashRing(shards={self.shard_ids}, replicas={self.replicas})"
