"""``repro.accel`` — the shared fast-kernel layer of the hot compute paths.

Detectors, ``repro.ml`` and the streaming scorer all route their heavy
numerics through this package:

* :mod:`repro.accel.profile`   — matrix-profile kernels: rolling
  mean/std via cumulative sums, MASS rFFT sliding dot products, and the
  O(n²) diagonal self-join profile that replaces the O(n²·w) blocked
  matmul.
* :mod:`repro.accel.distances` — memory-budgeted tiled pairwise-distance
  kernels with a running top-k merge and a symmetric self-join fast path;
  peak memory O(tile²) instead of O(n²), bitwise independent of tiling.
* :mod:`repro.accel.precision` — the precision policy: float64 everywhere
  by default (preserving every bitwise-equality guarantee), float32 fast
  path via ``REPRO_PRECISION``, :class:`use_precision` or per-call
  ``dtype=``.
* :mod:`repro.accel.config`    — memory budgets and the worker-pool default
  (``REPRO_MEMORY_BUDGET_MB``, ``REPRO_MAX_WORKERS``).
* :mod:`repro.accel.reference` — the pre-accel kernels, kept bit-for-bit
  as equivalence oracles for tests and benchmarks.

``docs/performance.md`` documents the speed/memory/accuracy trade-offs and
``benchmarks/bench_detector_kernels.py`` pins the speedups.
"""

from .config import (
    DEFAULT_MEMORY_BUDGET_MB,
    default_max_workers,
    memory_budget_bytes,
)
from .distances import padded_matmul_t, tile_kneighbors
from .precision import (
    PRECISIONS,
    current_precision,
    default_precision,
    resolve_dtype,
    set_default_precision,
    use_precision,
)
from .profile import (
    matrix_profile,
    moving_mean_std,
    sliding_dot_products,
    znorm_centroid_distances,
)

__all__ = [
    "DEFAULT_MEMORY_BUDGET_MB", "memory_budget_bytes",
    "default_max_workers",
    "padded_matmul_t", "tile_kneighbors",
    "PRECISIONS", "current_precision", "default_precision",
    "resolve_dtype", "set_default_precision", "use_precision",
    "matrix_profile", "moving_mean_std",
    "sliding_dot_products", "znorm_centroid_distances",
]
