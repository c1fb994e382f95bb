"""Learned cost prediction for cascade routing (BAO/MSCN-style).

A learned query optimizer routes plans by *predicted* cost; this module is
the analogous piece for detector selection.  :class:`CostModel` predicts
the **per-tier forward cost** of a batch of selector windows — wall-clock
milliseconds and peak megabytes of running ``n_windows`` windows through
one serving tier (``teacher`` / ``teacher-int8`` / ``student``).  Forward
cost is linear in the window count (one GEMM-bound pass per chunk), so
each tier gets a closed-form ridge fit of ``ms ≈ a + b·n_windows`` (and
the same for MB).

Training labels come from measurements the harness already produces:
``cost_observation`` audit events recorded by the serving and streaming
layers (see :mod:`repro.cascade.harvest`) whenever a forward pass
executes with auditing on.  An *untrained* model falls back to fixed
analytic coefficients (:meth:`CostModel.default`) so that SLO admission
stays deterministic — predictions never read a clock.
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

#: analytic fallback ``(intercept_mb, mb_per_window)`` per tier — dominated
#: by the float64 window matrix plus per-tier activation working set
DEFAULT_MEMORY_COEF: Dict[str, Tuple[float, float]] = {
    "teacher": (2.0, 0.0120),
    "teacher-int8": (1.0, 0.0050),
    "student": (0.5, 0.0015),
}


@dataclass(frozen=True)
class CostObservation:
    """One measured (work, cost) pair — a cost-model training label.

    ``kind`` is ``"selector_forward"`` (``target`` = tier name); the model
    ignores any other kind, such as the ``"detection"`` labels of older
    audit logs.  ``peak_mb`` is ``None`` when memory was not tracked.
    """

    kind: str
    target: str
    n_windows: int
    window: int
    wall_ms: float
    peak_mb: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "target": self.target,
            "n_windows": int(self.n_windows), "window": int(self.window),
            "wall_ms": float(self.wall_ms),
            "peak_mb": None if self.peak_mb is None else float(self.peak_mb),
        }


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
    """Predict per-tier forward cost (latency and peak memory).

    Prediction is pure arithmetic over stored coefficients — deterministic,
    clock-free, and cheap enough to run on every admission decision.
    """

    def __init__(
        self,
        window: int,
        latency: Optional[Dict[str, Tuple[float, float]]] = None,
        memory: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> None:
        self.window = int(window)
        self.latency = {t: tuple(map(float, c))
                        for t, c in (latency or DEFAULT_LATENCY_COEF).items()}
        self.memory = {t: tuple(map(float, c))
                       for t, c in (memory or DEFAULT_MEMORY_COEF).items()}

    # ------------------------------------------------------------------ #
    @classmethod
    def default(cls, window: int) -> "CostModel":
        """The untrained analytic model (fixed coefficients, deterministic)."""
        return cls(window)

    @classmethod
    def fit(cls, observations: Iterable[CostObservation], window: int) -> "CostModel":
        """Fit one latency/memory line per tier from forward observations.

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
            with_mem = [r for r in rows if r.peak_mb is not None]
            if with_mem:
                n_mem = np.array([r.n_windows for r in with_mem], dtype=np.float64)
                mb = np.array([r.peak_mb for r in with_mem], dtype=np.float64)
                model.memory[tier] = _fit_line(n_mem, mb)
        return model

    # ------------------------------------------------------------------ #
    def _coef(self, table: Dict[str, Tuple[float, float]], tier: str) -> Tuple[float, float]:
        if tier in table:
            return table[tier]
        defaults = DEFAULT_LATENCY_COEF if table is self.latency else DEFAULT_MEMORY_COEF
        return defaults.get(tier, defaults["teacher"])

    def predict_latency_ms(self, tier: str, n_windows: float) -> float:
        """Predicted wall-clock ms of one ``n_windows`` forward on ``tier``."""
        a, b = self._coef(self.latency, tier)
        return a + b * max(float(n_windows), 0.0)

    def predict_memory_mb(self, tier: str, n_windows: float) -> float:
        """Predicted peak MB of one ``n_windows`` forward on ``tier``."""
        a, b = self._coef(self.memory, tier)
        return a + b * max(float(n_windows), 0.0)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "latency_ms": {t: list(c) for t, c in self.latency.items()},
            "memory_mb": {t: list(c) for t, c in self.memory.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CostModel":
        return cls(
            window=int(data["window"]),
            latency={t: tuple(c) for t, c in dict(data.get("latency_ms") or {}).items()},
            memory={t: tuple(c) for t, c in dict(data.get("memory_mb") or {}).items()},
        )

    def save(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "CostModel":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:
        return f"CostModel(window={self.window}, tiers={sorted(self.latency)})"
