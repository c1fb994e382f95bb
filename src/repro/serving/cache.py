"""Content-addressed LRU result cache for selection serving.

Query traffic to a model-selection service is heavily repetitive: the same
series (dashboards refreshing, retries, shared data sources) is submitted
again and again, and a selector's answer for identical bytes never changes.
The cache therefore keys results by a *content fingerprint* of the series
(plus the serving configuration that shaped the answer), not by name — two
queries with the same data hit the same entry no matter what they are
called, and any change to the bytes produces a new key.

Eviction is least-recently-used with a fixed capacity, and every lookup is
counted so operators can watch hit rates (:class:`CacheStats`).  All
operations take a lock, so a service shared across worker threads needs no
extra synchronisation.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..obs.metrics import Counter, default_registry


def series_fingerprint(series: np.ndarray, extra: Iterable[object] = ()) -> str:
    """Content-addressed key of a series (plus config tokens in ``extra``).

    Hashes the full byte content, dtype and shape, so any change to the data
    yields a different key; ``extra`` tokens (window size, aggregation, ...)
    separate answers computed under different serving configurations.  The
    bytes come first, so a :class:`RunningFingerprint` can keep the same key
    for a growing series at O(new points) per digest.
    """
    return RunningFingerprint().digest(series, extra)


class RunningFingerprint:
    """:func:`series_fingerprint` of an append-only series, kept incrementally.

    One blake2b state absorbs each point's bytes once, the first time a
    digest covers it; :meth:`digest` then mixes dtype, shape and ``extra``
    into a copy of that state.  A stream therefore pays for its new points
    only — and nothing when no digest is asked for — while every digest
    equals :func:`series_fingerprint` of the whole prefix.
    """

    def __init__(self) -> None:
        self._hasher = hashlib.blake2b(digest_size=16)
        self._hashed = 0
        self._extra: Optional[tuple] = None
        self._extra_bytes = b""

    def digest(self, series: np.ndarray, extra: Iterable[object] = ()) -> str:
        """Fingerprint of ``series``, which must extend every series digested
        before (same dtype, earlier rows unchanged)."""
        series = np.ascontiguousarray(series)
        if len(series) < self._hashed:
            raise ValueError(f"series shrank from {self._hashed} to {len(series)} rows; "
                             "a running fingerprint covers append-only series")
        self._hasher.update(series[self._hashed:])
        self._hashed = len(series)
        extra = tuple(extra)
        if extra != self._extra:  # a stream's tokens never change: encode once
            self._extra = extra
            self._extra_bytes = "".join(["\x00" + str(token) for token in extra]).encode()
        # ``dtype.str`` ("<f8"): ``str(dtype)`` runs Python-level formatting
        hasher = self._hasher.copy()
        hasher.update(f"{series.dtype.str}{series.shape}".encode() + self._extra_bytes)
        return hasher.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache: lookups, outcomes and current occupancy."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCache:
    """A thread-safe, fixed-capacity least-recently-used map.

    The hit/miss/eviction counters are :class:`repro.obs.metrics.Counter`
    objects — always functional, so :attr:`stats` never changes behaviour —
    and are registered on the default metrics registry under the cache's
    ``name`` label, so ``render_prometheus()`` exposes every cache that was
    built while observability was enabled.
    """

    def __init__(self, capacity: int = 4096, name: str = "cache") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        registry = default_registry()
        labels = {"cache": name}
        self._hits = registry.register(Counter(
            "repro_cache_hits_total", "lookups answered from the cache", labels))
        self._misses = registry.register(Counter(
            "repro_cache_misses_total", "lookups that missed the cache", labels))
        self._evictions = registry.register(Counter(
            "repro_cache_evictions_total", "entries evicted by the LRU policy", labels))

    def get(self, key: str) -> Optional[object]:
        """Return the cached value (refreshing recency) or ``None``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits.inc()
                return self._entries[key]
            self._misses.inc()
            return None

    def put(self, key: str, value: object) -> None:
        """Insert or refresh an entry, evicting the oldest when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def clear(self) -> None:
        """Drop every entry (the counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters (a thin registry view)."""
        with self._lock:
            return CacheStats(
                hits=self._hits.value,
                misses=self._misses.value,
                evictions=self._evictions.value,
                size=len(self._entries),
                capacity=self.capacity,
            )
