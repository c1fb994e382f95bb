"""Scenario: cost-aware cascade serving under latency SLOs.

The distilled student answers most windows cheaply, but some windows
it is simply unsure about — and a hard latency SLO sometimes cannot
afford the teacher at all.  This example walks the whole
``repro.cascade`` path at a small scale:

1. train a teacher and distill a student as the fast tier
   (``repro.distill``),
2. calibrate the cascade's confidence threshold on held-out windows
   (:func:`repro.cascade.calibrate_margin_threshold`) — the smallest
   margin whose kept windows still agree with the teacher,
3. route query windows: confident rows keep the student's answer,
   uncertain rows escalate to one teacher forward
   (:class:`repro.cascade.CascadeRouter`),
4. serve live streams through a cascade-enabled ``StreamEngine`` with
   auditing on, harvest the recorded ``cost_observation`` events, add two
   offline probe measurements per tier (so the ridge fit sees more than
   one window count) and fit a :class:`repro.cascade.CostModel` — the
   same labels the ``train-cost-model`` CLI command consumes,
5. sweep SLO admission: price the ``teacher`` / ``cascade`` / ``fast``
   plans through the fitted model and watch the chosen plan move along
   the quality-vs-latency frontier as the SLO loosens.

Run with:  python examples/cascade_demo.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.cascade import (
    CascadeRouter,
    CostModel,
    CostObservation,
    calibrate_margin_threshold,
    harvest_cost_observations,
)
from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.data.records import DATASET_NAMES
from repro.data.windows import extract_windows
from repro.distill import DistillConfig, distill_student, selection_agreement
from repro.obs import AuditLog
from repro.selectors import make_selector
from repro.streaming import StreamEngine, StreamingConfig
from repro.system.reporting import format_table

WINDOW = 96
SEED = 0
FAMILIES = DATASET_NAMES[:8]


def train_teacher():
    records = [generate_series(name, 0, 800, seed=SEED) for name in FAMILIES]
    detector_names = ["IForest", "LOF", "HBOS", "MP", "POLY", "CNN"]
    gen = np.random.default_rng(SEED + 1)
    matrix = gen.uniform(0.05, 0.4, size=(len(records), len(detector_names)))
    matrix[np.arange(len(records)), np.arange(len(records)) % len(detector_names)] += 0.5
    dataset = build_selector_dataset(records, matrix, detector_names,
                                     window=WINDOW, stride=WINDOW, seed=SEED)
    teacher = make_selector("ResNet", window=WINDOW, n_classes=dataset.n_classes,
                            mid_channels=12, num_layers=2, seed=SEED)
    teacher.fit(dataset, config=TrainerConfig(epochs=2, batch_size=64, seed=SEED))
    return teacher, detector_names


def windows_from(n_series, length, seed):
    records = [generate_series(FAMILIES[i % len(FAMILIES)], i, length, seed=seed)
               for i in range(n_series)]
    return np.vstack([extract_windows(r.series, WINDOW, stride=48) for r in records])


def probe_observations(tiers, query):
    """Two offline forward timings per tier — the second window count is
    what lets the ridge fit tell the per-window slope from the fixed
    per-call cost (audit labels alone often sit at one batch size)."""
    observations = []
    for tier, selector in tiers.items():
        for n in (8, len(query)):
            start = time.perf_counter()
            selector.predict_proba(query[:n])
            observations.append(CostObservation(
                kind="selector_forward", target=tier, n_windows=n, window=WINDOW,
                wall_ms=(time.perf_counter() - start) * 1000.0))
    return observations


def main() -> None:
    print("training the teacher (small ResNet) ...")
    teacher, detector_names = train_teacher()

    print("distilling the fast tier ...")
    transfer = windows_from(16, 1600, seed=SEED + 3)
    student, report = distill_student(
        teacher, transfer, detector_names,
        DistillConfig(epochs=20, features="stats", seed=SEED))
    print(f"  teacher {report.teacher_parameters} params -> "
          f"student {report.student_parameters} params; "
          f"agreement {report.student_agreement:.4f}")

    # --- calibrate the confidence threshold on held-out windows ----------- #
    held_out = windows_from(8, 1600, seed=SEED + 4)
    calibration = calibrate_margin_threshold(
        student.predict_proba(held_out), teacher.predict_proba(held_out),
        target_agreement=0.995)
    print(format_table(
        ["threshold", "escalation rate", "kept agreement", "overall agreement"],
        [[f"{calibration.threshold:.4f}",
          f"{calibration.escalation_rate:.3f}",
          f"{calibration.kept_agreement:.4f}",
          f"{calibration.overall_agreement:.4f}"]]))
    router = CascadeRouter.from_calibration(teacher, calibration,
                                            seed=SEED, window=WINDOW)

    # --- route fresh query windows ---------------------------------------- #
    query = windows_from(10, 1600, seed=SEED + 5)
    teacher_proba = teacher.predict_proba(query)
    fast_proba = student.predict_proba(query)
    routed_proba, escalated = router.route(query, fast_proba)
    print(f"routing {len(query)} query windows: "
          f"{int(escalated.sum())} escalated to the teacher "
          f"({escalated.mean():.1%})")
    rows = [
        ["always-student", f"{selection_agreement(fast_proba, teacher_proba):.4f}"],
        ["cascade", f"{selection_agreement(routed_proba, teacher_proba):.4f}"],
        ["always-teacher", "1.0000"],
    ]
    print(format_table(["plan", "window agreement vs teacher"], rows))

    # --- stream with the cascade on, harvesting cost labels ---------------- #
    print("streaming with the cascade + audit; harvesting cost labels ...")
    audit = AuditLog()
    engine = StreamEngine(
        student, detector_names,
        StreamingConfig(window=WINDOW, stride=WINDOW, selector_tier="student"),
        audit=audit, cascade=router)
    streams = {f"{name}-live": np.asarray(
        generate_series(name, 7, 1200, seed=SEED + 6).series)
        for name in FAMILIES[:4]}
    for start in range(0, 1200, 128):
        for sid, series in streams.items():
            piece = series[start:start + 128]
            if len(piece):
                engine.append(sid, piece)
        engine.flush()
    harvested = harvest_cost_observations(audit.events())
    print(f"  {engine.stats.escalated_windows} windows escalated across "
          f"{len(streams)} streams; {len(harvested)} cost observations "
          f"harvested from the audit trail")

    observations = harvested + probe_observations(
        {"teacher": teacher, "student": student}, query)
    cost_model = CostModel.fit(observations, window=WINDOW)
    router.cost_model = cost_model
    tier_rows = [[tier, f"{a:.3f} + {b:.4f}*n"]
                 for tier, (a, b) in sorted(cost_model.latency.items())]
    print(format_table(["tier", "fitted latency (ms)"], tier_rows))

    # --- sweep SLO admission along the frontier ---------------------------- #
    n_windows = 64
    teacher_ms = router.plan_cost("teacher", n_windows)
    print(f"admission for a {n_windows}-window request "
          f"(predicted teacher cost {teacher_ms:.2f} ms):")
    rows = []
    for multiple in (0.05, 0.3, 0.8, 2.0):
        decision = router.admit(n_windows, latency_slo_ms=multiple * teacher_ms)
        rows.append([f"{multiple * teacher_ms:.2f}", decision.plan,
                     f"{decision.predicted_ms:.2f}",
                     f"{decision.quality:.4f}",
                     "yes" if decision.fallback else "no"])
    no_slo = router.admit(n_windows)
    rows.append(["(none)", no_slo.plan, f"{no_slo.predicted_ms:.2f}",
                 f"{no_slo.quality:.4f}", "no"])
    print(format_table(
        ["latency SLO (ms)", "plan", "predicted ms", "quality", "fallback"],
        rows))


if __name__ == "__main__":
    main()
