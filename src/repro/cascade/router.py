"""Confidence-gated cascade routing with latency-SLO admission.

The router implements the learned-optimizer idea of ROADMAP item 2 on top
of the existing selector tiers:

* **Cascade** — the cheap tier (the distilled student) classifies every
  window; rows whose top-1 probability *margin* (top1 − top2) clears a
  calibrated threshold keep the cheap answer, the uncertain rest escalates
  to the teacher.  The margin decision is **per window row** and depends
  only on that row's content (the fast tier's forward path is chunk-padded
  and row-bit-independent), so the escalation *set* — and therefore the
  escalation rate — is invariant to chunking, tick boundaries and shard
  assignment.
* **Deterministic tie-breaking** — a row whose margin lands *exactly* on
  the threshold is routed by a seeded blake2b hash of the row's bytes, so
  selections stay reproducible run-to-run and identical across shards,
  with no RNG state threaded through the serving layers.
* **SLO admission** — given a window count and an optional
  ``latency_slo_ms``, :meth:`CascadeRouter.admit` prices the candidate
  plans (``teacher`` / ``cascade`` / ``fast``) in predicted milliseconds
  through the :class:`repro.cascade.CostModel` and picks the best
  predicted-quality plan that fits.  When nothing fits it degrades to the
  cheapest plan and flags the decision as a fallback, which the serving
  layers audit and meter.  Admission is pure arithmetic over predicted
  costs — no clock ever feeds a routing decision.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..selectors.base import Selector
from .cost_model import CostModel

#: default margin threshold when neither the distill metadata nor the CLI
#: provides a calibrated one
DEFAULT_THRESHOLD = 0.1

#: candidate plans, priced and ranked by :meth:`CascadeRouter.admit`
PLAN_NAMES = ("teacher", "cascade", "fast")


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of calibrating the margin threshold on held-out windows."""

    threshold: float
    escalation_rate: float
    #: fast↔teacher agreement over the *kept* (non-escalated) rows
    kept_agreement: float
    #: fast↔teacher agreement over all rows (the always-fast quality)
    overall_agreement: float

    def as_dict(self):
        return {
            "threshold": float(self.threshold),
            "escalation_rate": float(self.escalation_rate),
            "kept_agreement": float(self.kept_agreement),
            "overall_agreement": float(self.overall_agreement),
        }


@dataclass(frozen=True)
class AdmitDecision:
    """One admission verdict: which plan runs, at what predicted cost."""

    plan: str
    predicted_ms: float
    quality: float
    #: True when no plan fit the SLO and the cheapest ran anyway
    fallback: bool = False
    reason: str = ""

    def as_dict(self):
        return {
            "plan": self.plan,
            "predicted_ms": float(self.predicted_ms),
            "quality": float(self.quality),
            "fallback": bool(self.fallback),
            "reason": self.reason,
        }


def margins(proba: np.ndarray) -> np.ndarray:
    """Per-row top-1 confidence margin (top1 − top2 probability)."""
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim != 2 or proba.shape[1] < 2:
        return np.ones(len(proba), dtype=np.float64)
    part = np.partition(proba, proba.shape[1] - 2, axis=1)
    return part[:, -1] - part[:, -2]


def calibrate_margin_threshold(
    fast_proba: np.ndarray,
    slow_proba: np.ndarray,
    target_agreement: float = 0.995,
) -> CalibrationResult:
    """Smallest margin threshold whose kept rows agree with the teacher.

    Rows are ranked by descending fast-tier margin; the threshold is cut at
    the longest confident prefix whose fast↔teacher top-1 agreement stays
    at or above ``target_agreement``.  Rows tied on margin move across the
    boundary together (the runtime tie-break would otherwise split them
    nondeterministically between kept and escalated populations).
    """
    fast_proba = np.asarray(fast_proba, dtype=np.float64)
    slow_proba = np.asarray(slow_proba, dtype=np.float64)
    if len(fast_proba) != len(slow_proba):
        raise ValueError("fast/slow probability row counts differ")
    n = len(fast_proba)
    if n == 0:
        return CalibrationResult(DEFAULT_THRESHOLD, 0.0, 1.0, 1.0)

    margin = margins(fast_proba)
    agree = (np.argmax(fast_proba, axis=1) == np.argmax(slow_proba, axis=1))
    overall = float(np.mean(agree))

    order = np.argsort(-margin, kind="stable")
    sorted_margin = margin[order]
    cumulative = np.cumsum(agree[order]) / np.arange(1, n + 1)

    # candidate cuts: only at margin-value boundaries (ties stay together)
    boundary = np.ones(n, dtype=bool)
    boundary[:-1] = sorted_margin[:-1] != sorted_margin[1:]
    feasible = np.flatnonzero(boundary & (cumulative >= target_agreement))
    if len(feasible) == 0:
        # nothing confident enough to keep: threshold above every margin
        threshold = float(np.nextafter(sorted_margin[0], np.inf)) if n else 1.0
        return CalibrationResult(threshold, 1.0, 1.0, overall)

    cut = int(feasible[-1])  # longest feasible prefix
    kept = cut + 1
    threshold = float(sorted_margin[cut])
    return CalibrationResult(
        threshold=threshold,
        escalation_rate=float((n - kept) / n),
        kept_agreement=float(cumulative[cut]),
        overall_agreement=overall,
    )


class CascadeRouter:
    """Route selector windows between a fast tier and the teacher."""

    def __init__(
        self,
        slow_selector: Selector,
        threshold: float = DEFAULT_THRESHOLD,
        seed: int = 0,
        cost_model: Optional[CostModel] = None,
        fast_tier: str = "student",
        slow_tier: str = "teacher",
        escalation_rate: float = 0.1,
        kept_agreement: float = 0.995,
        fast_quality: float = 0.97,
        window: int = 96,
    ) -> None:
        self.slow_selector = slow_selector
        self.threshold = float(threshold)
        self.seed = int(seed)
        self.cost_model = cost_model or CostModel.default(window)
        self.fast_tier = fast_tier
        #: cost-model tier backing escalations and the "teacher" plan —
        #: "teacher-int8" swaps the quantized twin in as the slow selector
        self.slow_tier = slow_tier
        #: expected teacher-agreement of the slow tier: 1.0 for the float
        #: teacher, the gate-measured agreement an int8 twin carries
        provenance = getattr(slow_selector, "quant_provenance", None) or {}
        self.slow_quality = float(provenance.get("agreement", 1.0))
        #: calibration-time expectations feeding plan quality/cost estimates
        self.escalation_rate = float(min(max(escalation_rate, 0.0), 1.0))
        self.kept_agreement = float(kept_agreement)
        self.fast_quality = float(fast_quality)

    @classmethod
    def from_calibration(cls, slow_selector: Selector,
                         calibration: CalibrationResult, **kwargs) -> "CascadeRouter":
        return cls(
            slow_selector,
            threshold=calibration.threshold,
            escalation_rate=calibration.escalation_rate,
            kept_agreement=calibration.kept_agreement,
            fast_quality=calibration.overall_agreement,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # escalation
    # ------------------------------------------------------------------ #
    def _tie_break_escalates(self, row: np.ndarray) -> bool:
        """Deterministic seeded coin for a row landing exactly on the
        threshold: blake2b over (seed, row bytes) — content-local, so the
        same window row gets the same verdict in any chunk on any shard."""
        digest = hashlib.blake2b(
            self.seed.to_bytes(8, "little", signed=True)
            + np.ascontiguousarray(row, dtype=np.float64).tobytes(),
            digest_size=1,
        ).digest()
        return digest[0] % 2 == 1

    def escalate_mask(self, fast_proba: np.ndarray,
                      windows: np.ndarray) -> np.ndarray:
        """Boolean mask of rows the teacher must re-classify."""
        margin = margins(fast_proba)
        mask = margin < self.threshold
        for i in np.flatnonzero(margin == self.threshold):
            mask[i] = self._tie_break_escalates(windows[i])
        return mask

    def forward_slow(self, windows: np.ndarray) -> np.ndarray:
        """Teacher forward over escalated rows (the slow selector's own
        predict path, whose per-row bits do not depend on the row count)."""
        return self.slow_selector.predict_proba(windows)

    def route(self, windows: np.ndarray,
              fast_proba: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Escalate the uncertain rows of one already-classified batch.

        Returns ``(proba, escalated_mask)`` where ``proba`` keeps the fast
        tier's rows for confident windows and carries teacher rows for the
        rest.  ``fast_proba`` is never mutated.
        """
        windows = np.asarray(windows, dtype=np.float64)
        mask = self.escalate_mask(fast_proba, windows)
        if not mask.any():
            return fast_proba, mask
        proba = np.array(fast_proba, dtype=np.float64, copy=True)
        proba[mask] = self.forward_slow(windows[mask])
        return proba, mask

    # ------------------------------------------------------------------ #
    # SLO admission
    # ------------------------------------------------------------------ #
    def plan_cost(self, plan: str, n_windows: int) -> float:
        """Predicted milliseconds of running ``n_windows`` under ``plan``."""
        model = self.cost_model
        if plan == "teacher":
            # the plan keeps its name; the tier backing it may be the
            # int8 twin, which is what the cost model prices
            return model.predict_latency_ms(self.slow_tier, n_windows)
        if plan == "fast":
            return model.predict_latency_ms(self.fast_tier, n_windows)
        if plan == "cascade":
            escalated = self.escalation_rate * n_windows
            # the teacher forward only runs at all when >= 1 window
            # escalates; under per-window independence that happens with
            # probability 1 - (1 - rate)^n, so its fixed cost (the fitted
            # intercept, which dominates at small escalation counts) is
            # only paid that often, on the conditional escalation count
            p_any = 1.0 - (1.0 - self.escalation_rate) ** max(float(n_windows), 0.0)
            ms = model.predict_latency_ms(self.fast_tier, n_windows)
            if p_any > 0.0:
                ms += p_any * model.predict_latency_ms(self.slow_tier, escalated / p_any)
            return ms
        raise ValueError(f"unknown plan: {plan!r}")

    def plan_quality(self, plan: str) -> float:
        """Expected teacher-agreement of ``plan`` (float teacher ≡ 1.0)."""
        if plan == "teacher":
            return self.slow_quality
        if plan == "cascade":
            return (self.escalation_rate * self.slow_quality
                    + (1.0 - self.escalation_rate) * self.kept_agreement)
        if plan == "fast":
            return self.fast_quality
        raise ValueError(f"unknown plan: {plan!r}")

    def admit(self, n_windows: int,
              latency_slo_ms: Optional[float] = None) -> AdmitDecision:
        """Pick the best predicted-quality plan that fits the latency SLO.

        With no SLO the answer is always ``cascade`` (the whole point of
        this subsystem).  Exact quality ties break on lower predicted
        latency, then on the fixed plan order — fully deterministic.
        """
        priced = {p: self.plan_cost(p, n_windows) for p in PLAN_NAMES}
        if latency_slo_ms is None:
            return AdmitDecision("cascade", priced["cascade"],
                                 self.plan_quality("cascade"),
                                 reason="no SLO: cascade by default")

        feasible = [p for p in PLAN_NAMES if priced[p] <= latency_slo_ms]
        if feasible:
            best = min(feasible, key=lambda p: (-self.plan_quality(p), priced[p],
                                                PLAN_NAMES.index(p)))
            return AdmitDecision(best, priced[best], self.plan_quality(best),
                                 reason="best quality within SLO")
        cheapest = min(PLAN_NAMES, key=lambda p: (priced[p], PLAN_NAMES.index(p)))
        return AdmitDecision(cheapest, priced[cheapest], self.plan_quality(cheapest),
                             fallback=True,
                             reason="no plan fits the SLO; degraded to cheapest")

    def __repr__(self) -> str:
        return (f"CascadeRouter(threshold={self.threshold}, seed={self.seed}, "
                f"fast_tier={self.fast_tier!r}, slow_tier={self.slow_tier!r}, "
                f"escalation_rate={self.escalation_rate:.3f})")
