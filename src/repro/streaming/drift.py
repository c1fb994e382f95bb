"""Distribution-shift monitoring over selector probabilities.

A stream that drifts (new regime, new anomaly style) can make the detector
chosen at the start of the stream stale.  Rather than inspecting raw points,
:class:`DriftMonitor` watches what the selector itself believes: the
per-window probability vectors.  It freezes a *reference* distribution (the
mean probability vector over the first ``reference_size`` windows after the
last re-selection) and compares it against a sliding *recent* window of the
last ``recent_size`` vectors using total variation distance.

Re-selection must not flap, so the trigger carries two kinds of hysteresis:

* **cooldown** — at least ``cooldown`` windows must pass between triggers,
* **release** — after a trigger the monitor is disarmed until the statistic
  first falls below the ``release`` low-water mark, so a statistic hovering
  around the threshold fires once, not on every tick.

On trigger the monitor rebuilds its reference from the post-drift stream;
the engine pairs the trigger with a vote reset (the stream's ``vote_start``
moves up to its last ``keep_last_on_drift`` windows), so the running vote
restarts from recent windows and the chosen detector can change mid-stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

import numpy as np


@dataclass(frozen=True)
class DriftConfig:
    """Knobs of the probability-distribution drift monitor."""

    #: windows frozen into the reference distribution after each reset
    reference_size: int = 32
    #: sliding window of recent probability vectors compared to the reference
    recent_size: int = 32
    #: total-variation distance that triggers re-selection (in [0, 1])
    threshold: float = 0.25
    #: low-water mark the statistic must fall below before re-arming
    release: float = 0.1
    #: minimum windows between two triggers
    cooldown: int = 32

    def __post_init__(self) -> None:
        if self.reference_size < 1 or self.recent_size < 1:
            raise ValueError("reference_size and recent_size must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if not 0.0 <= self.release < self.threshold:
            raise ValueError("release must satisfy 0 <= release < threshold")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")


@dataclass(frozen=True)
class DriftDecision:
    """Outcome of feeding one tick's windows into the monitor."""

    statistic: float
    triggered: bool
    #: False while the release gate holds the monitor disarmed
    armed: bool


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two probability vectors (in [0, 1])."""
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


class DriftMonitor:
    """Windowed shift statistic over one stream's selector probabilities."""

    def __init__(self, config: Optional[DriftConfig] = None) -> None:
        self.config = config or DriftConfig()
        self._reference_rows: List[np.ndarray] = []
        self._reference: Optional[np.ndarray] = None
        self._recent: Deque[np.ndarray] = deque(maxlen=self.config.recent_size)
        self._since_trigger = self.config.cooldown  # first trigger needs no wait
        self._armed = True
        #: total re-selections this monitor has triggered
        self.triggers = 0
        #: bounded per-update statistic trajectory (the explain surface)
        self.history: Deque[float] = deque(maxlen=512)

    # ------------------------------------------------------------------ #
    @property
    def statistic(self) -> float:
        """Current shift statistic (0.0 until both windows are filled)."""
        if self._reference is None or len(self._recent) < self.config.recent_size:
            return 0.0
        recent_mean = np.mean(np.asarray(self._recent), axis=0)
        return total_variation(self._reference, recent_mean)

    def update(self, probas: np.ndarray) -> DriftDecision:
        """Feed one tick's per-window probabilities; decide on re-selection."""
        probas = np.asarray(probas, dtype=np.float64)
        for row in probas:
            if self._reference is None:
                self._reference_rows.append(row)
                if len(self._reference_rows) >= self.config.reference_size:
                    self._reference = np.mean(self._reference_rows, axis=0)
                    self._reference_rows = []
                continue
            self._recent.append(row)
        self._since_trigger += len(probas)

        stat = self.statistic
        self.history.append(stat)
        ready = (self._reference is not None
                 and len(self._recent) >= self.config.recent_size)
        # The release gate re-arms only once the statistic is actually
        # *measured* low against the rebuilt reference — a stream still
        # churning after a re-selection keeps the monitor disarmed.
        if not self._armed and ready and stat <= self.config.release:
            self._armed = True
        triggered = (
            self._armed
            and ready
            and stat >= self.config.threshold
            and self._since_trigger >= self.config.cooldown
        )
        if triggered:
            self.triggers += 1
            self._reference = None
            self._reference_rows = []
            self._recent.clear()
            self._since_trigger = 0
            self._armed = False
        return DriftDecision(statistic=stat, triggered=triggered, armed=self._armed)

    def __repr__(self) -> str:
        return (f"DriftMonitor(statistic={self.statistic:.3f}, "
                f"triggers={self.triggers}, armed={self._armed})")
