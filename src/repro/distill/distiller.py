"""Teacher→student distillation and gated int8 teacher quantization.

Distillation reuses the PISL machinery end to end: the teacher's
``predict_proba`` output *is* the per-window "performance" matrix, so
:func:`repro.core.pisl.performance_to_soft_labels` sharpens it into soft
targets and :class:`repro.core.trainer.SelectorTrainer` runs the usual
mixed hard/soft objective — no new training loop.

Teacher quantization is post-training: activation scales are calibrated
on calibration windows, and the resulting int8 twin must pass an explicit
dequantize-compare gate (per-window selection agreement against the float
teacher) before it is handed back.

The student stays float: its forward time is mostly the static feature
transform, not the two small GEMMs an int8 twin would speed up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.config import PISLConfig, TrainerConfig, check_training_fields
from ..data.windows import SelectorDataset
from ..nn.quant import calibrate_activation_scale
from ..selectors.base import Selector
from ..selectors.nn_selector import NNSelector
from ..selectors.student import StudentSelector
from ..selectors.teacher_int8 import Int8TeacherSelector, conv_bn_sites


@dataclass(frozen=True)
class DistillConfig:
    """Everything that shapes a distillation run (deterministic per seed)."""

    epochs: int = 25
    batch_size: int = 64
    lr: float = 1e-2
    #: soft-label weight of the PISL objective (1.0 = pure soft labels)
    alpha: float = 0.9
    #: temperature sharpening the teacher's probabilities into soft targets
    t_soft: float = 0.5
    hidden: int = 64
    features: str = "stats"
    n_kernels: int = 96
    #: fraction of windows held out to calibrate normalisation + agreement
    calibration_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        check_training_fields(self, "epochs", "batch_size", "hidden", "n_kernels")


@dataclass(frozen=True)
class DistillReport:
    """What a distillation run produced, for logs and the CLI."""

    n_windows: int
    n_calibration: int
    teacher_parameters: int
    student_parameters: int
    #: student-vs-teacher per-window selection agreement on calibration windows
    student_agreement: float


def selection_agreement(proba_a: np.ndarray, proba_b: np.ndarray) -> float:
    """Fraction of windows on which two probability matrices pick the same model."""
    a = np.asarray(proba_a)
    b = np.asarray(proba_b)
    if a.shape != b.shape:
        raise ValueError(f"probability shapes differ: {a.shape} vs {b.shape}")
    if len(a) == 0:
        return 1.0
    return float(np.mean(a.argmax(axis=1) == b.argmax(axis=1)))


def teacher_soft_dataset(teacher: Selector, windows: np.ndarray,
                         detector_names: Sequence[str]) -> SelectorDataset:
    """Wrap teacher predictions as a :class:`SelectorDataset`.

    The teacher's probability matrix plays the role of the performance
    matrix: PISL's temperature softmax then sharpens it into soft labels,
    and its argmax provides the hard labels.
    """
    windows = np.asarray(windows, dtype=np.float64)
    proba = teacher.predict_proba(windows)
    return SelectorDataset(
        windows=windows,
        hard_labels=proba.argmax(axis=1),
        performances=proba,
        metadata_texts=[""] * len(windows),
        series_ids=np.zeros(len(windows), dtype=int),
        series_names=[],
        series_datasets=[],
        detector_names=list(detector_names),
        window_size=windows.shape[1],
    )


def calibration_split(n: int, fraction: float, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic ``(train_idx, calib_idx)`` permutation split.

    The same ``(n, fraction, seed)`` always yields the same split, so the
    CLI can re-derive the calibration slice a distillation run used.
    """
    n_calib = max(1, int(round(n * fraction))) if fraction > 0 else 0
    n_calib = min(n_calib, n - 1) if n > 1 else 0
    order = np.random.default_rng(seed).permutation(n)
    return order[n_calib:], order[:n_calib]


def distill_student(teacher: Selector, windows: np.ndarray,
                    detector_names: Sequence[str],
                    config: Optional[DistillConfig] = None,
                    ) -> Tuple[StudentSelector, DistillReport]:
    """Distill ``teacher`` into a float :class:`StudentSelector`.

    ``windows`` is the transfer set (already z-normalised selector windows,
    e.g. from :func:`repro.data.windows.extract_windows`).  A deterministic
    ``calibration_fraction`` slice is held out from training; it calibrates
    the encoder normalisation and measures student↔teacher agreement.
    """
    config = config or DistillConfig()
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or len(windows) < 2:
        raise ValueError(f"expected a (n >= 2, window) transfer matrix, got shape {windows.shape}")

    train_idx, calib_idx = calibration_split(len(windows), config.calibration_fraction, config.seed)
    train_windows = windows[train_idx]
    calib_windows = windows[calib_idx] if len(calib_idx) else windows[train_idx[: min(64, len(train_idx))]]

    dataset = teacher_soft_dataset(teacher, train_windows, detector_names)
    student = StudentSelector(
        window=windows.shape[1],
        n_classes=len(detector_names),
        seed=config.seed,
        hidden=config.hidden,
        features=config.features,
        n_kernels=config.n_kernels,
    )
    student.build(window=windows.shape[1], n_classes=len(detector_names))
    student.encoder.calibrate(train_windows)

    trainer_config = TrainerConfig(
        epochs=config.epochs,
        batch_size=config.batch_size,
        lr=config.lr,
        seed=config.seed,
        pisl=PISLConfig(enabled=True, alpha=config.alpha, t_soft=config.t_soft),
    )
    student.fit(dataset, config=trainer_config)

    agreement = selection_agreement(
        student.predict_proba(calib_windows), teacher.predict_proba(calib_windows)
    )
    report = DistillReport(
        n_windows=len(train_windows),
        n_calibration=len(calib_windows),
        teacher_parameters=_parameter_count(teacher),
        student_parameters=_parameter_count(student),
        student_agreement=agreement,
    )
    return student, report


def _parameter_count(selector: Selector) -> int:
    try:
        return int(sum(p.size for p in selector.parameters()))
    except (AttributeError, RuntimeError):
        return 0


def quantize_teacher(teacher: NNSelector, calibration_windows: np.ndarray,
                     min_agreement: Optional[float] = 0.97,
                     ) -> Tuple[Int8TeacherSelector, dict]:
    """Quantize a conv teacher to int8 behind the dequantize-compare gate.

    Walks the teacher's encoder, calibrates one activation scale per conv
    input (plus the classifier input) on ``calibration_windows``, builds a
    structurally identical :class:`Int8TeacherSelector` twin, copies the
    float state shared by both structures, folds each conv's trailing
    batch norm into the quantized weights (eval-mode BN is a per-channel
    affine, absorbed exactly by the per-channel weight scales and bias),
    quantizes every conv and the classifier, and compares the twin's
    selections against the float teacher on the same windows.  Raises
    :class:`ValueError` when agreement falls below ``min_agreement`` (pass
    ``None`` to skip the gate).

    The returned twin carries a ``quant_provenance`` dict (measured
    agreement, calibration size, per-tensor activation scales and their
    hash) that the selector store persists alongside the int8 payload.
    """
    calibration_windows = np.asarray(calibration_windows, dtype=np.float64)
    if calibration_windows.ndim != 2 or len(calibration_windows) == 0:
        raise ValueError(f"expected a non-empty (n, window) calibration matrix, "
                         f"got shape {calibration_windows.shape}")
    if not isinstance(teacher, NNSelector):
        raise ValueError(f"expected a neural teacher selector, got {type(teacher).__name__}")
    teacher.build()
    teacher.train_mode(False)

    sites = [(name, parent._modules[conv_name], parent._modules.get(bn_name))
             for name, parent, conv_name, bn_name in conv_bn_sites(teacher.encoder)]
    if not sites:
        raise ValueError(
            f"{type(teacher).__name__} encoder has no Conv1d layers; "
            "feature-based selectors have no int8 tier")

    # one float pass records max|x| of every conv's input through forward
    # hooks; the encoder's output features calibrate the classifier input
    absmax = {name: 0.0 for name, _, _ in sites}

    def record(name):
        def hook(conv, args, output):
            data = np.asarray(getattr(args[0], "data", args[0]))
            if data.size:
                absmax[name] = max(absmax[name], float(np.abs(data).max()))
        return hook

    handles = [conv.register_forward_hook(record(name)) for name, conv, _ in sites]
    try:
        features = teacher.encode(calibration_windows)
    finally:
        for handle in handles:
            handle.remove()
    act_scales = {name: calibrate_activation_scale(np.asarray([absmax[name]]))
                  for name, _, _ in sites}
    act_scale_clf = calibrate_activation_scale(features)

    quantized = Int8TeacherSelector(
        window=teacher.window, n_classes=teacher.n_classes, seed=teacher.seed,
        base_type=teacher.name, **teacher.arch_kwargs)
    quantized.build()

    # shared float state (BN statistics, non-conv parameters): the twin's
    # state dict drops the float conv leaves and adds quant buffers, so
    # copy exactly the intersection of the two structures
    for float_mod, quant_mod in ((teacher.encoder, quantized.encoder),
                                 (teacher.classifier, quantized.classifier)):
        target_keys = set(quant_mod.state_dict())
        shared = {k: v for k, v in float_mod.state_dict().items() if k in target_keys}
        quant_mod.load_state_dict(shared)

    quant_modules = dict(quantized.encoder.named_modules())
    for name, conv, bn in sites:
        weight = np.asarray(conv.weight.data, dtype=np.float64)
        bias = (np.asarray(conv.bias.data, dtype=np.float64) if conv.bias is not None
                else np.zeros(conv.out_channels, dtype=np.float64))
        if bn is not None:
            gain = np.asarray(bn.weight.data, dtype=np.float64) / np.sqrt(
                np.asarray(bn.running_var, dtype=np.float64) + bn.eps)
            weight = weight * gain[:, None, None]
            bias = (bias - np.asarray(bn.running_mean, dtype=np.float64)) * gain \
                + np.asarray(bn.bias.data, dtype=np.float64)
        quant_modules[name].load_weights(weight, bias, act_scales[name])
    quantized.classifier.load_weights(teacher.classifier.weight.data,
                                      teacher.classifier.bias.data, act_scale_clf)

    proba_float = teacher.predict_proba(calibration_windows)
    proba_int8 = quantized.predict_proba(calibration_windows)
    agreement = selection_agreement(proba_float, proba_int8)
    max_diff = float(np.abs(proba_float - proba_int8).max())
    if min_agreement is not None and agreement < min_agreement:
        raise ValueError(
            f"quantized teacher agrees with the float teacher on only "
            f"{agreement:.4f} of {len(calibration_windows)} calibration windows "
            f"(gate: {min_agreement}); max |Δproba| = {max_diff:.4f}"
        )
    all_scales = dict(act_scales)
    all_scales["classifier"] = act_scale_clf
    scales_blob = json.dumps({k: repr(v) for k, v in sorted(all_scales.items())},
                             sort_keys=True).encode()
    gate = {
        "agreement": agreement,
        "max_proba_diff": max_diff,
        "n_calibration": len(calibration_windows),
        "act_scales": all_scales,
        "act_scales_hash": hashlib.blake2b(scales_blob, digest_size=8).hexdigest(),
        "base_type": teacher.name,
        "n_quantized_convs": len(sites),
        "n_folded_bns": sum(1 for _, _, bn in sites if bn is not None),
    }
    quantized.quant_provenance = dict(gate)
    return quantized, gate
