"""Learned cost prediction for cascade routing (BAO/MSCN-style).

A learned query optimizer routes plans by *predicted* cost; this module is
the analogous piece for detector selection.  :class:`CostModel` predicts
the **per-tier forward latency** of a batch of selector windows — the
wall-clock milliseconds of running ``n_windows`` windows through one
serving tier (``teacher`` / ``teacher-int8`` / ``student``).  Forward cost
is linear in the window count (one GEMM-bound pass per chunk), so each
tier gets one closed-form ridge fit of ``ms ≈ a + b·n_windows``.

Training labels are the ``cost_observation`` audit events the forward-plan
executor records per forward (:func:`harvest_cost_observations`).  An
*untrained* model falls back to fixed analytic coefficients
(:meth:`CostModel.default`) so that SLO admission stays deterministic —
predictions never read a clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..ml.linear import RidgeRegression

#: analytic fallback ``(intercept_ms, ms_per_window)`` per tier — rough
#: CPU figures in the measured 8-10x teacher/student ratio; a trained
#: model replaces them, but they keep untrained SLO admission deterministic
DEFAULT_LATENCY_COEF: Dict[str, Tuple[float, float]] = {
    "teacher": (2.0, 0.250),
    "teacher-int8": (1.0, 0.070),
    "student": (0.5, 0.030),
}


@dataclass(frozen=True)
class CostObservation:
    """One measured (work, latency) pair — a cost-model training label.

    ``kind`` is ``"selector_forward"`` (``target`` = tier name); the model
    ignores any other kind, such as the ``"detection"`` labels of older
    audit logs.
    """

    kind: str
    target: str
    n_windows: int
    window: int
    wall_ms: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "target": self.target,
            "n_windows": int(self.n_windows), "window": int(self.window),
            "wall_ms": float(self.wall_ms),
        }


def harvest_cost_observations(
    events: Iterable[Dict[str, object]],
) -> List[CostObservation]:
    """Extract cost-model training labels from audit events.

    Accepts any event iterable (``AuditLog.read(path)`` output included)
    and keeps only well-formed ``cost_observation`` entries, ignoring any
    other field (older logs carry memory peaks).
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
            ))
        except (KeyError, TypeError, ValueError):
            continue  # malformed/foreign entry — skip, don't fail the harvest
    return observations


# --------------------------------------------------------------------------- #
# the model
# --------------------------------------------------------------------------- #
def _fit_line(n_windows: np.ndarray, cost: np.ndarray) -> Tuple[float, float]:
    """Ridge fit of ``cost ≈ a + b·n_windows`` with non-negative slope."""
    ridge = RidgeRegression(alpha=1e-6).fit(n_windows[:, None], cost)
    slope = float(max(ridge.coef_[0], 0.0))
    intercept = float(max(ridge.intercept_, 0.0))
    return intercept, slope


class CostModel:
    """Predict per-tier forward latency.

    Prediction is pure arithmetic over stored coefficients — deterministic,
    clock-free, and cheap enough to run on every admission decision.
    """

    def __init__(
        self,
        window: int,
        latency: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> None:
        self.window = int(window)
        self.latency = {t: tuple(map(float, c))
                        for t, c in (latency or DEFAULT_LATENCY_COEF).items()}

    # ------------------------------------------------------------------ #
    @classmethod
    def default(cls, window: int) -> "CostModel":
        """The untrained analytic model (fixed coefficients, deterministic)."""
        return cls(window)

    @classmethod
    def fit(cls, observations: Iterable[CostObservation], window: int) -> "CostModel":
        """Fit one latency line per tier from forward observations.

        Tiers without any observation keep the analytic default so
        predictions stay total over every tier.
        """
        model = cls.default(window)
        by_tier: Dict[str, List[CostObservation]] = {}
        for obs in observations:
            if obs.kind == "selector_forward":
                by_tier.setdefault(obs.target, []).append(obs)

        for tier, rows in by_tier.items():
            n = np.array([r.n_windows for r in rows], dtype=np.float64)
            ms = np.array([r.wall_ms for r in rows], dtype=np.float64)
            model.latency[tier] = _fit_line(n, ms)
        return model

    # ------------------------------------------------------------------ #
    def predict_latency_ms(self, tier: str, n_windows: float) -> float:
        """Predicted wall-clock ms of one ``n_windows`` forward on ``tier``."""
        a, b = self.latency.get(tier) or DEFAULT_LATENCY_COEF.get(
            tier, DEFAULT_LATENCY_COEF["teacher"])
        return a + b * max(float(n_windows), 0.0)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "latency_ms": {t: list(c) for t, c in self.latency.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CostModel":
        return cls(
            window=int(data["window"]),
            latency={t: tuple(c) for t, c in dict(data.get("latency_ms") or {}).items()},
        )

    def save(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "CostModel":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:
        return f"CostModel(window={self.window}, tiers={sorted(self.latency)})"
