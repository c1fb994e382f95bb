"""Scenario: a production fast path — distill, quantize, serve, refresh.

The teacher selector (the paper's ResNet) decides well but burns a full
convolutional forward pass per window.  This example walks the whole
``repro.distill`` fast path at a small scale:

1. train a teacher on synthetic oracle knowledge,
2. distill it into a thin float student over static window features
   (:func:`repro.distill.distill_student`, reusing the PISL soft-label
   machinery),
3. quantize the teacher's convolutions to int8 behind the
   dequantize-compare gate (:func:`repro.distill.quantize_teacher`),
4. race the three tiers on the same query windows and compare their
   throughput and selection agreement,
5. simulate a drifted stream served by a stale student checkpoint and
   let a :class:`repro.distill.StudentRefresher` fine-tune it back into
   agreement — escalating to the teacher only because the probe showed
   agreement actually dropped.

Run with:  python examples/distill_demo.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.data.records import DATASET_NAMES
from repro.data.windows import extract_windows
from repro.distill import (
    DistillConfig,
    RefreshConfig,
    StudentRefresher,
    distill_student,
    quantize_teacher,
    selection_agreement,
)
from repro.selectors import make_selector
from repro.system.reporting import format_table

WINDOW = 96
SEED = 0


def train_teacher():
    families = DATASET_NAMES[:8]
    records = [generate_series(name, 0, 800, seed=SEED) for name in families]
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


def windows_from(families, n_series, length, seed):
    records = [generate_series(families[i % len(families)], i, length, seed=seed)
               for i in range(n_series)]
    return np.vstack([extract_windows(r.series, WINDOW, stride=48) for r in records])


def main() -> None:
    print("training the teacher (small ResNet) ...")
    teacher, detector_names = train_teacher()
    families = DATASET_NAMES[:8]

    print("distilling the student from teacher soft labels ...")
    transfer = windows_from(families, 16, 1600, seed=SEED + 3)
    student, report = distill_student(
        teacher, transfer, detector_names,
        DistillConfig(epochs=20, features="stats", seed=SEED))
    print(f"  teacher {report.teacher_parameters} params -> "
          f"student {report.student_parameters} params")
    print("quantizing the teacher to int8 ...")
    teacher_int8, gate = quantize_teacher(teacher, transfer, min_agreement=0.97)
    print(f"  int8 gate agreement {gate['agreement']:.4f} "
          f"(max |dproba| {gate['max_proba_diff']:.4f})")

    # --- race the tiers on fresh query windows ---------------------------- #
    query = windows_from(families, 12, 1600, seed=SEED + 4)
    tiers = {"teacher": teacher, "teacher-int8": teacher_int8, "student": student}
    rows = []
    probas = {}
    for tier, selector in tiers.items():
        start = time.perf_counter()
        probas[tier] = selector.predict_proba(query)
        elapsed = time.perf_counter() - start
        rows.append([tier, f"{len(query) / elapsed:.0f}",
                     f"{selection_agreement(probas[tier], probas['teacher']):.4f}"])
    print(format_table(["tier", "windows/sec", "agreement vs teacher"], rows))

    # --- drift: refresh a stale student from streamed windows -------------- #
    print("simulating drift served by a stale student checkpoint ...")
    drifted = windows_from(["MGAB", "Daphnet"], 8, 1600, seed=SEED + 5)
    # a deployment that predates the drift: nudge the classifier off-policy
    noise = np.random.default_rng(SEED + 6)
    student.classifier.weight.data += noise.normal(scale=0.25,
                                                   size=student.classifier.weight.data.shape)
    refresher = StudentRefresher(teacher, student,
                                 RefreshConfig(min_agreement=0.99, steps=80, lr=1e-2))
    outcome = refresher.refresh(drifted)
    print(f"  probe agreement {outcome.agreement_before:.4f} -> "
          f"{outcome.agreement_after:.4f}  "
          f"(escalated: {outcome.escalated}, fine-tune steps: {outcome.steps})")
    after = selection_agreement(student.predict_proba(drifted),
                                teacher.predict_proba(drifted))
    print(f"  student fine-tuned in place: drifted-window agreement {after:.4f}")


if __name__ == "__main__":
    main()
