"""Runtime knobs of the kernel layer: memory budgets and worker defaults.

The tiled kernels bound their scratch memory by a byte budget instead of a
tile-count heuristic, so one setting scales from laptops to large boxes:

* ``REPRO_MEMORY_BUDGET_MB`` — per-kernel scratch budget (default 256 MB).
  ``kneighbors`` switches from the dense full-matrix path to memory-budgeted
  tiles when the distance matrix would exceed it.
* ``REPRO_MAX_WORKERS`` — default worker count for fan-out work (oracle
  labelling, detection fan-out, per-stream scoring).  0 = sequential.
* ``REPRO_WORKER_MODE`` — ``thread`` (default) or ``process``; see
  :class:`repro.serving.workers.WorkerPool`.

CLI flags (``--workers``, ``--worker-mode``, ``--precision``) override the
environment; explicit function arguments override both.
"""

from __future__ import annotations

import os
from typing import Optional

#: default scratch budget of one tiled kernel invocation, in bytes
DEFAULT_MEMORY_BUDGET_MB = 256

#: backings of :class:`repro.serving.workers.WorkerPool`
WORKER_MODES = ("thread", "process")


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


def default_worker_mode(override: Optional[str] = None) -> str:
    """Resolve the worker mode (argument > ``REPRO_WORKER_MODE`` > thread)."""
    mode = override if override is not None else os.environ.get("REPRO_WORKER_MODE", "thread")
    if mode not in WORKER_MODES:
        raise ValueError(f"unknown worker mode {mode!r}; expected one of {WORKER_MODES}")
    return mode
