"""``repro.distill`` — the distilled student and the int8 teacher.

Production serving rarely needs the full teacher network on every window:
a thin student over static window encodings answers the overwhelming
majority of selections identically at a fraction of the cost.  This
package provides the pieces of that fast path:

* :mod:`repro.distill.distiller` — teacher→student knowledge distillation
  (:func:`distill_student`, reusing the PISL soft-label machinery) and
  int8 post-training quantization of a conv teacher behind an explicit
  dequantize-compare accuracy gate (:func:`quantize_teacher`),
* :mod:`repro.distill.refresh` — :class:`StudentRefresher`, the bounded
  incremental fine-tune that keeps a deployed student in sync with its
  teacher after drift (escalating to the teacher only when the student's
  selection agreement drops below a threshold),
* the model classes themselves live in :mod:`repro.selectors.student`
  and :mod:`repro.selectors.teacher_int8` (``Student`` / ``TeacherInt8``
  in the selector registry) and are re-exported here.

See ``docs/performance.md`` (selector tiers) and ``docs/architecture.md``.
"""

from ..selectors.student import StaticFeatureEncoder, StudentSelector
from ..selectors.teacher_int8 import Int8TeacherSelector
from .distiller import (
    DistillConfig,
    DistillReport,
    calibration_split,
    distill_student,
    quantize_teacher,
    selection_agreement,
    teacher_soft_dataset,
)
from .refresh import RefreshConfig, RefreshOutcome, StudentRefresher

__all__ = [
    "DistillConfig", "DistillReport", "calibration_split",
    "distill_student", "quantize_teacher",
    "selection_agreement", "teacher_soft_dataset",
    "RefreshConfig", "RefreshOutcome", "StudentRefresher",
    "StaticFeatureEncoder", "StudentSelector", "Int8TeacherSelector",
]
