"""``repro.serving`` — the batched, cached selection-serving layer.

Turns a trained selector into a throughput-oriented service: batches of
series are windowed and classified in one vectorised pass, repeated queries
are answered from a content-addressed LRU cache, and oracle labelling can
fan out to forked workers.

* :mod:`repro.serving.cache`    — series fingerprinting + LRU result cache,
* :mod:`repro.serving.transform_cache` — content-addressed memo of
  feature/ROCKET transform outputs shared across serve/stream/sharded,
* :mod:`repro.serving.batching` — batch assembly utilities,
* :mod:`repro.serving.workers`  — sequential/forked-process worker pool,
* :mod:`repro.serving.service`  — :class:`SelectionService`, the front end.

See ``docs/architecture.md`` for the batching/caching semantics.
"""

from .batching import microbatches, window_budget_groups
from .cache import CacheStats, LRUCache, series_fingerprint
from .service import SelectionResult, SelectionService, ServingConfig
from .transform_cache import (
    cached_transform,
    configure_transform_cache,
    default_transform_cache,
    transform_cache_stats,
)
from .workers import WorkerError, WorkerPool

__all__ = [
    "CacheStats", "LRUCache", "series_fingerprint",
    "SelectionResult", "SelectionService", "ServingConfig",
    "WorkerError", "WorkerPool", "microbatches", "window_budget_groups",
    "cached_transform", "configure_transform_cache",
    "default_transform_cache", "transform_cache_stats",
]
