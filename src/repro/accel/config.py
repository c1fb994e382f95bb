"""Runtime knobs of the kernel layer: memory budgets and worker defaults.

The tiled kernels bound their scratch memory by a byte budget instead of a
tile-count heuristic, so one setting scales from laptops to large boxes:

* ``REPRO_MEMORY_BUDGET_MB`` — per-kernel scratch budget (default 256 MB).
  ``kneighbors`` switches from the dense full-matrix path to memory-budgeted
  tiles when the distance matrix would exceed it.
* ``REPRO_MAX_WORKERS`` — default forked-worker count of oracle labelling
  (:class:`repro.serving.workers.WorkerPool`).  0 = sequential.

CLI flags (``--workers``, ``--precision``) override the environment;
explicit function arguments override both.
"""

from __future__ import annotations

import os
from typing import Optional

#: default scratch budget of one tiled kernel invocation, in bytes
DEFAULT_MEMORY_BUDGET_MB = 256


def memory_budget_bytes(override_mb: Optional[float] = None) -> int:
    """Resolve the kernel scratch budget (argument > env > default), in bytes."""
    if override_mb is None:
        override_mb = float(os.environ.get("REPRO_MEMORY_BUDGET_MB",
                                           DEFAULT_MEMORY_BUDGET_MB))
    if override_mb <= 0:
        raise ValueError("memory budget must be positive")
    return int(override_mb * 1024 * 1024)


def default_max_workers(override: Optional[int] = None) -> int:
    """Resolve the fan-out worker count (argument > ``REPRO_MAX_WORKERS`` > 0)."""
    if override is not None:
        return int(override)
    return int(os.environ.get("REPRO_MAX_WORKERS", "0"))

