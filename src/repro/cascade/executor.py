"""The forward-plan executor: one selector-forward step for every layer.

Serving (:class:`repro.serving.SelectionService`), streaming
(:class:`repro.streaming.StreamEngine`) and therefore every shard of
:mod:`repro.service` run their selector forward passes through one
:class:`ForwardPlan`.  For each unit of forward work (a cache-miss batch,
or one flush) it

1. admits the work against the layer's latency SLO through the router,
   counting and auditing a fallback when no plan fits,
2. runs the admitted plan over each stacked window group — ``teacher``
   (the router's slow selector alone), ``fast`` (the layer's own selector
   alone) or ``cascade`` (the fast forward, then the low-margin rows
   re-classified by the slow selector and counted as escalations),
3. times each forward it ran as a ``cost_observation`` audit event (report
   only: the cost model's training labels, never a routing input), and
4. summarises the decision for ``last_cascade`` and ``explain``.

Without a router nothing is admitted and the plan is the fast forward
alone: the exact pre-cascade code path, so selections stay bitwise
identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..obs.metrics import Counter, default_registry
from .cost_model import CostObservation
from .router import AdmitDecision, CascadeRouter, margins


@dataclass(frozen=True)
class PlanOutput:
    """Per-row result of one group forward under the admitted plan."""

    proba: np.ndarray
    #: rows escalated to the slow tier (cascade plan only)
    escalated: Optional[np.ndarray] = None
    #: the fast tier's top-1 margins (fast and cascade plans only)
    margins: Optional[np.ndarray] = None

    def __getitem__(self, rows: slice) -> "PlanOutput":
        return PlanOutput(
            self.proba[rows],
            None if self.escalated is None else self.escalated[rows],
            None if self.margins is None else self.margins[rows])

    @property
    def n_escalated(self) -> int:
        return 0 if self.escalated is None else int(self.escalated.sum())

    @property
    def min_margin(self) -> Optional[float]:
        if self.margins is None or not len(self.margins):
            return None
        return float(self.margins.min())


class ForwardPlan:
    """Admit, run and meter one layer's selector forward passes.

    ``fast_forward`` is the layer's own selector forward (windows → proba).
    ``config`` is the layer's :class:`~repro.serving.ServingConfig` or
    :class:`~repro.streaming.StreamingConfig`: its ``window`` and
    ``selector_tier`` label cost observations and its ``latency_slo_ms``
    feeds admission.  ``layer`` labels the metrics and
    the ``slo_fallback`` audit event.
    """

    def __init__(self, layer: str, fast_forward: Callable[[np.ndarray], np.ndarray],
                 config, router: Optional[CascadeRouter] = None) -> None:
        self.layer = layer
        self.fast_forward = fast_forward
        self.config = config
        self.router = router
        registry = default_registry()
        self.escalated_windows = registry.register(Counter(
            "repro_cascade_escalated_windows_total",
            "windows escalated from the fast tier to the teacher",
            labels={"layer": layer}))
        self.slo_fallbacks = registry.register(Counter(
            "repro_cascade_slo_fallbacks_total",
            "forward batches where no plan fit the SLO and the cheapest ran",
            labels={"layer": layer}))

    def admit(self, n_windows: int, audit) -> Optional[AdmitDecision]:
        """The plan for ``n_windows`` of forward work (``None``: no router)."""
        if self.router is None or not n_windows:
            return None
        decision = self.router.admit(n_windows, latency_slo_ms=self.config.latency_slo_ms)
        if decision.fallback:
            self.slo_fallbacks.inc()
            if audit.enabled:
                audit.record("slo_fallback", layer=self.layer,
                             n_windows=int(n_windows), **decision.as_dict())
        return decision

    def forward(self, windows: np.ndarray, decision: Optional[AdmitDecision],
                audit) -> PlanOutput:
        """Run ``decision``'s plan over one stacked group of windows.

        Escalations go through the router's own predict path
        (:meth:`CascadeRouter.forward_slow`), never the layer's fast forward.
        """
        if decision is not None and decision.plan == "teacher":
            return PlanOutput(self._measured(self.router.forward_slow, windows,
                                             self.router.slow_tier, audit))
        fast = self._measured(self.fast_forward, windows, self.config.selector_tier, audit)
        if decision is None:
            return PlanOutput(fast)
        fast_margins = margins(fast)
        if decision.plan == "fast":
            return PlanOutput(fast, margins=fast_margins)
        mask = self.router.escalate_mask(fast, windows)
        if not mask.any():
            return PlanOutput(fast, mask, fast_margins)
        proba = np.array(fast, dtype=np.float64, copy=True)
        proba[mask] = self._measured(self.router.forward_slow, windows[mask],
                                     self.router.slow_tier, audit)
        self.escalated_windows.inc(int(mask.sum()))
        return PlanOutput(proba, mask, fast_margins)

    def summary(self, decision: AdmitDecision, output: PlanOutput, rows_key: str,
                **report: float) -> Dict[str, object]:
        """The ``last_cascade`` record of ``decision`` over ``output``'s rows.

        ``rows_key`` names the row count (a serving batch's ``n_windows``, a
        stream's ``n_new_windows``); ``report`` adds report-only context such
        as a flush's ``actual_forward_ms``.
        """
        return {
            "plan": decision.plan,
            "slow_tier": self.router.slow_tier,
            "escalated_windows": output.n_escalated,
            rows_key: len(output.proba),
            "threshold": float(self.router.threshold),
            "min_margin": output.min_margin,
            "predicted_ms": float(decision.predicted_ms),
            **report,
            "fallback": bool(decision.fallback),
        }

    def _measured(self, forward: Callable[[np.ndarray], np.ndarray],
                  windows: np.ndarray, tier: str, audit) -> np.ndarray:
        if not audit.enabled:
            return forward(windows)
        start = time.perf_counter()
        proba = forward(windows)
        audit.record("cost_observation", **CostObservation(
            "selector_forward", tier, len(windows), int(self.config.window),
            (time.perf_counter() - start) * 1000.0).as_dict())
        return proba
