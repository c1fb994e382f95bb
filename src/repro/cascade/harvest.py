"""Cost-label measurement and harvesting.

The cost model trains on what the system *actually* measured while doing
real work.  Two halves:

* :func:`observed_cost` wraps one unit of work (a selector forward) and
  measures wall-clock milliseconds — and, when requested, peak allocated
  megabytes via ``tracemalloc``.  The forward-plan executor
  (:mod:`repro.cascade.executor`) calls it around every forward it runs
  and records a ``cost_observation`` audit event per measurement.
  Measurements are report-only: nothing downstream ever branches on them,
  so the bitwise-equality guarantees survive instrumentation.
* :func:`harvest_cost_observations` turns the ``cost_observation`` events
  of any ``--audit`` run back into :class:`CostObservation` training
  labels — the ``train-cost-model`` CLI path.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .cost_model import CostObservation


def observed_cost(
    fn: Callable[[], object],
    track_memory: Optional[bool] = None,
) -> Tuple[object, float, Optional[float]]:
    """Run ``fn()`` and measure it: ``(result, wall_ms, peak_mb)``.

    ``peak_mb`` is ``None`` unless memory is tracked.  The default
    (``track_memory=None``) tracks memory only when ``tracemalloc`` is
    *already* tracing — tracemalloc hooks every allocation and costs far
    too much to switch on behind the operator's back (the obs layer's
    ≤5%-overhead budget), so memory labels are an explicit opt-in: run
    under ``python -X tracemalloc`` (or start tracing programmatically, as
    the cost benchmark does) and every audited observation gains its peak.
    Wall time is two ``perf_counter`` reads — always measured.
    """
    if track_memory is None:
        track_memory = tracemalloc.is_tracing()
    if not track_memory:
        start = time.perf_counter()
        result = fn()
        return result, (time.perf_counter() - start) * 1000.0, None

    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    else:
        tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    try:
        result = fn()
        wall_ms = (time.perf_counter() - start) * 1000.0
        peak = tracemalloc.get_traced_memory()[1]
        peak_mb = max(peak - before, 0) / (1024.0 * 1024.0)
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return result, wall_ms, peak_mb


def cost_observation_event(obs: CostObservation) -> Dict[str, object]:
    """The audit-event payload of one measurement."""
    return obs.as_dict()


def harvest_cost_observations(
    events: Iterable[Dict[str, object]],
) -> List[CostObservation]:
    """Extract cost-model training labels from audit events.

    Accepts any event iterable (``AuditLog.read(path)`` output included)
    and keeps only well-formed ``cost_observation`` entries.
    """
    observations: List[CostObservation] = []
    for event in events:
        if event.get("event") != "cost_observation":
            continue
        try:
            observations.append(CostObservation(
                kind=str(event["kind"]),
                target=str(event["target"]),
                n_windows=int(event["n_windows"]),
                window=int(event["window"]),
                wall_ms=float(event["wall_ms"]),
                peak_mb=(None if event.get("peak_mb") is None
                         else float(event["peak_mb"])),
            ))
        except (KeyError, TypeError, ValueError):
            continue  # malformed/foreign entry — skip, don't fail the harvest
    return observations
