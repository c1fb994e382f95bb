"""Content-addressed cache of deterministic transform outputs.

Feature extraction (the ~40-statistic catalogue of
:mod:`repro.selectors.features`) and ROCKET kernel transforms are pure
functions of their input bytes: the same windows matrix always produces
the same feature matrix.  Serving traffic repeats those inputs (dashboards
re-query the same series), so this module memoises transform outputs
behind the same blake2b content fingerprint the selection cache
keys on (:func:`repro.serving.cache.series_fingerprint`), with the
transform's identity mixed into the key.

One process-wide LRU (:func:`default_transform_cache`) is shared by the
serve, stream and sharded paths — and by the classical feature selectors
— so a warm entry helps every surface.  Cached arrays are returned
read-only: consumers that normalise or scale features already allocate
fresh outputs, and accidental in-place writes would corrupt every future
hit.  Capacity comes from ``REPRO_TRANSFORM_CACHE`` (entries; ``0``
disables caching entirely) or :func:`configure_transform_cache`.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Optional

import numpy as np

from .cache import CacheStats, LRUCache, series_fingerprint

#: default LRU entries; feature matrices are small (a few KB per chunk)
DEFAULT_TRANSFORM_CACHE_CAPACITY = 1024

_lock = threading.Lock()
_cache: Optional[LRUCache] = None
_capacity: Optional[int] = None


def _configured_capacity() -> int:
    raw = os.environ.get("REPRO_TRANSFORM_CACHE")
    if raw is None:
        return DEFAULT_TRANSFORM_CACHE_CAPACITY
    try:
        return max(int(raw), 0)
    except ValueError:
        return DEFAULT_TRANSFORM_CACHE_CAPACITY


def configure_transform_cache(capacity: Optional[int]) -> None:
    """Resize (or with ``0`` disable) the process-wide transform cache.

    ``None`` re-reads the environment default.  Existing entries are
    dropped; the obs counters of the old cache keep their totals.
    """
    global _cache, _capacity
    with _lock:
        _capacity = capacity if capacity is None else max(int(capacity), 0)
        _cache = None


def default_transform_cache() -> Optional[LRUCache]:
    """The shared transform LRU, or ``None`` when caching is disabled."""
    global _cache, _capacity
    with _lock:
        if _capacity is None:
            _capacity = _configured_capacity()
        if _cache is None and _capacity > 0:
            _cache = LRUCache(_capacity, name="transform")
        return _cache


def transform_cache_stats() -> Optional[CacheStats]:
    """Hit/miss/eviction counters of the shared cache (``None`` if off)."""
    cache = default_transform_cache()
    return cache.stats if cache is not None else None


def transform_fingerprint(array: np.ndarray, transform_id: str) -> str:
    """Content key of ``array`` under one named transform."""
    return series_fingerprint(array, extra=("transform", transform_id))


def cached_transform(array: np.ndarray, transform_id: str,
                     fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Memoise ``fn(array)`` under the array's content hash.

    ``transform_id`` names the transform (and any configuration that
    shapes its output, e.g. ``"rocket:<seed>:<n_kernels>"``) so distinct
    transforms of the same bytes never collide.  Returns a **read-only**
    array on the cached path; the value is computed exactly once per
    content, so cached results are bitwise identical to direct calls.
    """
    cache = default_transform_cache()
    if cache is None:
        return fn(array)
    key = transform_fingerprint(array, transform_id)
    hit = cache.get(key)
    if hit is not None:
        return hit  # type: ignore[return-value]
    value = np.asarray(fn(array))
    value.setflags(write=False)
    cache.put(key, value)
    return value
