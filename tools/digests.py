#!/usr/bin/env python3
"""Digests of the trained selectors' outputs, for byte-equality across commits.

    PYTHONPATH=src python3 tools/digests.py [--tiny] > digests.txt

Prints one ``group/name <blake2b>`` line per output of a fixed seeded
world, in float64 and then in float32.  Running it once under each
commit's ``src`` and diffing the two files checks that a change keeps
every output's bytes; an empty diff is the evidence.  Each line hashes
one array's dtype, shape and bytes, so a moved line names the output that
moved.  BLAS runs on one thread unless the environment says otherwise.

Groups:

* ``train``: the ``serve``/``stream`` teacher recipe (a ResNet on a seeded
  per-family performance matrix, round-tripped through a
  ``SelectorStore``), and a ResNet fitted under ``kdselector_config``
  (PISL + MKI + PA) on a seeded synthetic performance matrix.  Each
  selector's parameters and buffers, epoch losses and ``predict_proba`` on
  held-out windows.
* ``distill``: the ``serve`` set-up recipe: the student distilled from that
  teacher, its parameters and buffers, its ``predict_proba`` on held-out
  windows, and the margin threshold calibrated against the teacher.

Both recipes are rebuilt from public entry points with ``perfbench``'s
constants (``--tiny`` shrinks every size, for tests).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pins)

from repro.accel.precision import use_precision  # noqa: E402
from repro.cascade import calibrate_margin_threshold  # noqa: E402
from repro.core import TrainerConfig, kdselector_config  # noqa: E402
from repro.data import build_selector_dataset, generate_series  # noqa: E402
from repro.data.records import DATASET_NAMES  # noqa: E402
from repro.data.windows import extract_windows  # noqa: E402
from repro.detectors import DEFAULT_MODEL_NAMES  # noqa: E402
from repro.distill import DistillConfig, distill_student  # noqa: E402
from repro.selectors import make_selector  # noqa: E402
from repro.system.selector_store import SelectorStore  # noqa: E402

PRECISIONS = ("float64", "float32")
NAMES = list(DEFAULT_MODEL_NAMES)
SETUP_SEED = 0
KD_SEED = 7

Output = Tuple[str, str, np.ndarray]


@dataclass(frozen=True)
class Scale:
    """Sizes of the seeded world (the default is ``perfbench``'s)."""

    window: int = 96
    families: int = len(DATASET_NAMES)
    mid_channels: int = 12
    num_layers: int = 2
    teacher_length: int = 800
    teacher_stride: int = 96
    teacher_epochs: int = 12
    teacher_lr: float = 0.01
    transfer_length: int = 1600
    transfer_stride: int = 48
    distill_epochs: int = 25
    target_agreement: float = 0.82
    kd_length: int = 360
    kd_stride: int = 24
    kd_epochs: int = 8


TINY = Scale(window=32, families=4, mid_channels=4, num_layers=1, teacher_length=200,
             teacher_stride=32, teacher_epochs=2, transfer_length=300, transfer_stride=16,
             distill_epochs=2, kd_length=160, kd_stride=16, kd_epochs=2)


def digest(value) -> str:
    """blake2b of an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(value)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(f"{array.dtype.str}{array.shape}".encode())
    hasher.update(array.tobytes())
    return hasher.hexdigest()


def format_lines(outputs: Sequence[Output]) -> List[str]:
    return [f"{group}/{name} {digest(value)}" for group, name, value in outputs]


def _family_series(scale: Scale, first_index: int, length: int, seed: int):
    families = DATASET_NAMES[:scale.families]
    return [generate_series(family, first_index + k, length, seed)
            for k, family in enumerate(families)]


def _held_out_windows(scale: Scale, first_index: int, length: int, seed: int) -> np.ndarray:
    return np.vstack([extract_windows(r.series, scale.window)
                      for r in _family_series(scale, first_index, length, seed)])


def _resnet(scale: Scale, seed: int):
    return make_selector("ResNet", window=scale.window, n_classes=len(NAMES), seed=seed,
                         mid_channels=scale.mid_channels, num_layers=scale.num_layers)


def _selector_outputs(group: str, prefix: str, selector, losses, windows) -> Iterator[Output]:
    for part in ("encoder", "classifier"):
        for key, value in getattr(selector, part).state_dict().items():
            yield group, f"{prefix}.{part}.{key}", value
    if losses is not None:
        yield group, f"{prefix}.losses", np.asarray(losses, dtype=np.float64)
    yield group, f"{prefix}.predict_proba", selector.predict_proba(windows)


def train_teacher(scale: Scale, workdir: Path):
    """The teacher of ``perfbench``'s ``serve`` and ``stream`` set-up."""
    seed = SETUP_SEED
    records = [generate_series(name, 0, scale.teacher_length, seed)
               for name in DATASET_NAMES[:scale.families]]
    rng = np.random.default_rng([seed, 1])
    matrix = rng.uniform(0.05, 0.4, size=(len(records), len(NAMES)))
    matrix[np.arange(len(records)), np.arange(len(records)) % len(NAMES)] += 0.5
    dataset = build_selector_dataset(records, matrix, NAMES, window=scale.window,
                                     stride=scale.teacher_stride, seed=seed)
    teacher = _resnet(scale, seed)
    teacher.fit(dataset, config=TrainerConfig(epochs=scale.teacher_epochs, batch_size=64,
                                               lr=scale.teacher_lr, seed=seed))
    store = SelectorStore(workdir / "store")
    store.save("teacher", teacher, overwrite=True)
    return store.load("teacher"), teacher.last_report_.epoch_losses


def kdselector_outputs(scale: Scale, prefix: str) -> Iterator[Output]:
    """A ResNet under PISL + MKI + PA on a seeded synthetic performance matrix."""
    records = _family_series(scale, 0, scale.kd_length, KD_SEED)
    matrix = np.random.default_rng([KD_SEED, 3]).uniform(0.0, 1.0, size=(len(records), len(NAMES)))
    dataset = build_selector_dataset(records, matrix, NAMES, window=scale.window,
                                     stride=scale.kd_stride, seed=KD_SEED)
    lsh_bits = int(min(14, max(4, round(np.log2(max(len(dataset), 2))))))
    selector = _resnet(scale, KD_SEED)
    selector.fit(dataset, config=kdselector_config(epochs=scale.kd_epochs, batch_size=64,
                                                   lsh_bits=lsh_bits, seed=KD_SEED))
    held_out = _held_out_windows(scale, 50, scale.kd_length, KD_SEED)
    yield from _selector_outputs("train", prefix, selector, selector.last_report_.epoch_losses,
                                 held_out)


def distill_outputs(scale: Scale, prefix: str, teacher) -> Iterator[Output]:
    """The student, its held-out probabilities and threshold of ``serve``'s set-up."""
    transfer = np.vstack([
        extract_windows(r.series, scale.window, stride=scale.transfer_stride)
        for r in _family_series(scale, 100, scale.transfer_length, SETUP_SEED)])
    student, _ = distill_student(teacher, transfer, NAMES,
                                 DistillConfig(epochs=scale.distill_epochs, seed=SETUP_SEED))
    held_out = _held_out_windows(scale, 200, scale.transfer_length, SETUP_SEED)
    yield from _selector_outputs("distill", prefix, student, None, held_out)
    calibration = calibrate_margin_threshold(student.predict_proba(held_out),
                                             teacher.predict_proba(held_out),
                                             target_agreement=scale.target_agreement)
    yield "distill", f"{prefix}.threshold", np.float64(calibration.threshold)


def collect(scale: Scale = Scale(), precisions: Sequence[str] = PRECISIONS) -> List[Output]:
    """Every ``(group, name, array)`` of the world, precision by precision."""
    outputs: List[Output] = []
    for precision in precisions:
        with use_precision(precision), tempfile.TemporaryDirectory() as workdir:
            teacher, losses = train_teacher(scale, Path(workdir))
            held_out = _held_out_windows(scale, 200, scale.transfer_length, SETUP_SEED)
            outputs.extend(_selector_outputs("train", f"{precision}.teacher", teacher, losses,
                                             held_out))
            outputs.extend(kdselector_outputs(scale, f"{precision}.kdselector"))
            outputs.extend(distill_outputs(scale, f"{precision}.student", teacher))
    return outputs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="a small world of the same recipes (seconds, for tests)")
    args = parser.parse_args(argv)
    for line in format_lines(collect(TINY if args.tiny else Scale())):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
