"""Incremental student refresh: bounded fine-tunes triggered by drift.

A deployed student can silently fall out of sync with its teacher when
stream behaviour drifts.  :class:`StudentRefresher` closes the loop
cheaply: on a drift trigger it *probes* — compares student and teacher
selections on the most recent windows — and only when agreement drops
below the configured threshold does it escalate to the teacher for a
bounded PISL fine-tune on the streamed windows (the teacher labels a few
hundred windows once, instead of serving every query).

Everything is observable: checks/escalations/steps are counted through
``repro.obs.metrics`` and each refresh lands in the audit trail as a
``student_refresh`` event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import nn
from ..core.config import PISLConfig
from ..core.pisl import PISLLoss, performance_to_soft_labels
from ..data.windows import extract_windows
from ..obs.audit import NULL_AUDIT
from ..obs.metrics import Counter, Gauge, default_registry
from ..selectors.base import Selector
from ..selectors.student import StudentSelector
from .distiller import selection_agreement


@dataclass(frozen=True)
class RefreshConfig:
    """Bounds and thresholds of the incremental refresh loop."""

    #: escalate to the teacher when probe agreement falls below this
    min_agreement: float = 0.95
    #: most-recent windows used for the cheap agreement probe
    probe_windows: int = 32
    #: cap on windows the teacher labels per escalation
    max_windows: int = 256
    #: optimizer steps per escalation (the fine-tune is bounded, not a re-train)
    steps: int = 25
    batch_size: int = 64
    lr: float = 5e-3
    #: PISL mixing weight during fine-tune (1.0 = pure soft labels)
    alpha: float = 1.0
    t_soft: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class RefreshOutcome:
    """What one refresh call did."""

    agreement_before: float
    agreement_after: float
    escalated: bool
    steps: int
    windows: int


class StudentRefresher:
    """Keep a deployed student in agreement with its teacher after drift."""

    def __init__(self, teacher: Selector, student: StudentSelector,
                 config: Optional[RefreshConfig] = None) -> None:
        self.teacher = teacher
        self.student = student
        self.config = config or RefreshConfig()
        self._rng = np.random.default_rng(self.config.seed)
        registry = default_registry()
        # always-real counters (the stats surface); registered for exposition
        self._checks = registry.register(Counter(
            "repro_distill_refresh_checks_total", "student refresh agreement probes"))
        self._escalations = registry.register(Counter(
            "repro_distill_escalations_total", "refreshes escalated to the teacher"))
        self._finetune_steps = registry.register(Counter(
            "repro_distill_finetune_steps_total", "optimizer steps spent on student fine-tunes"))
        self._agreement = registry.register(Gauge(
            "repro_distill_student_agreement", "student-vs-teacher agreement at last probe"))

    # ------------------------------------------------------------------ #
    def refresh(self, windows: np.ndarray, audit=NULL_AUDIT,
                stream: Optional[str] = None) -> RefreshOutcome:
        """Probe agreement on recent ``windows``; fine-tune if it dropped.

        ``windows`` is a 2-D matrix of already-normalised selector windows,
        newest last.  Returns the outcome either way; records an audit
        event and bumps counters only through the obs layer.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 2 or len(windows) == 0:
            return RefreshOutcome(1.0, 1.0, escalated=False, steps=0, windows=0)
        config = self.config

        probe = windows[-config.probe_windows:]
        teacher_probe = self.teacher.predict_proba(probe)
        before = selection_agreement(self.student.predict_proba(probe), teacher_probe)
        self._checks.inc()
        self._agreement.set(before)

        if before >= config.min_agreement:
            self._audit(audit, stream, before, before, escalated=False, steps=0,
                        n_windows=len(probe))
            return RefreshOutcome(before, before, escalated=False, steps=0, windows=len(probe))

        # escalate: the teacher labels a bounded sample of recent windows
        self._escalations.inc()
        sample = windows[-config.max_windows:]
        steps = self._finetune(sample)
        self._finetune_steps.inc(steps)

        after = selection_agreement(self.student.predict_proba(probe), teacher_probe)
        self._agreement.set(after)
        self._audit(audit, stream, before, after, escalated=True, steps=steps,
                    n_windows=len(sample))
        return RefreshOutcome(before, after, escalated=True, steps=steps, windows=len(sample))

    def refresh_from_series(self, series: np.ndarray, window: int, stride: int,
                            audit=NULL_AUDIT, stream: Optional[str] = None,
                            ) -> Optional[RefreshOutcome]:
        """Refresh from the tail of a raw series (the streaming hook).

        Windows the most recent span that can hold ``max_windows`` windows
        (z-normalised, like the selection path) and delegates to
        :meth:`refresh`.  Returns ``None`` when the series is shorter than
        one window.
        """
        series = np.asarray(series, dtype=np.float64).ravel()
        if len(series) < window:
            return None
        span = window + (self.config.max_windows - 1) * stride
        tail = series[-span:] if len(series) > span else series
        return self.refresh(extract_windows(tail, window, stride), audit=audit, stream=stream)

    # ------------------------------------------------------------------ #
    def _finetune(self, windows: np.ndarray) -> int:
        """Bounded PISL fine-tune of the float student on teacher labels."""
        config = self.config
        teacher_proba = self.teacher.predict_proba(windows)
        hard = teacher_proba.argmax(axis=1)
        soft = performance_to_soft_labels(teacher_proba, config.t_soft)
        loss_fn = PISLLoss(PISLConfig(enabled=True, alpha=config.alpha, t_soft=config.t_soft))

        self.student.build()
        params = self.student.parameters()
        optimizer = nn.Adam(params, lr=config.lr)
        self.student.train_mode(True)
        static = self.student.static_input(windows)
        n = len(windows)
        batch = min(config.batch_size, n)
        for _ in range(config.steps):
            idx = self._rng.choice(n, size=batch, replace=False)
            logits, _ = self.student.forward_static(static[idx])
            per_sample = loss_fn(logits, hard[idx], soft[idx])
            loss = per_sample.sum() * (1.0 / batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        self.student.train_mode(False)
        return config.steps

    @staticmethod
    def _audit(audit, stream: Optional[str], before: float, after: float,
               escalated: bool, steps: int, n_windows: int) -> None:
        audit.record(
            "student_refresh",
            stream=stream,
            agreement_before=round(float(before), 6),
            agreement_after=round(float(after), 6),
            escalated=escalated,
            steps=steps,
            windows=n_windows,
        )
