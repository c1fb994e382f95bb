"""Students trained through the static prefix against the per-minibatch path,
byte for byte.

``tests/reference_student.py`` holds the training loop and student forward
the library used before :class:`repro.core.trainer.SelectorTrainer`
featurised its training windows once per fit.  A student distilled either
way must have the same parameters, buffers and ``predict_proba`` bytes, in
float64 and float32, for every feature set, over several epochs and a
training set that the batch size does not divide.  A conv teacher fitted by
either loop must come out the same too: its prefix is its input tensor.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_student
from reference_student import ReferenceStudentSelector, ReferenceTrainer
from repro.accel.precision import use_precision
from repro.core import PISLConfig, SelectorTrainer, TrainerConfig
from repro.data import generate_series
from repro.data.windows import extract_windows
from repro.distill import DistillConfig, calibration_split, distill_student, teacher_soft_dataset
from repro.distill.distiller import StudentSelector
from repro.selectors import make_selector
from repro.selectors.features import extract_features
from repro.serving.transform_cache import configure_transform_cache

DETECTORS = ["IForest", "HBOS", "MP"]
#: 69 transfer windows: 52 train after the calibration hold-out, which a
#: batch of 16 does not divide
CONFIG = dict(epochs=3, batch_size=16, n_kernels=12, seed=0)


@pytest.fixture(scope="module")
def windows():
    return np.vstack([extract_windows(generate_series(family, 0, 400, seed=5).series, 48, stride=16)
                      for family in ("ECG", "IOPS", "SMD")])


@pytest.fixture(autouse=True)
def no_transform_cache():
    """Neither path may read features the other one cached."""
    configure_transform_cache(0)
    yield
    configure_transform_cache(None)


def _teacher(window):
    return make_selector("ResNet", window=window, n_classes=len(DETECTORS), seed=0,
                         mid_channels=4, num_layers=1).build()


def _student_bytes(student, windows):
    state = {**student.encoder.state_dict(), **student.classifier.state_dict()}
    return ({name: np.asarray(value).tobytes() for name, value in state.items()},
            student.predict_proba(windows).tobytes())


def _distilled(windows, features, student_class, monkeypatch):
    monkeypatch.setattr("repro.distill.distiller.StudentSelector", student_class)
    student, _ = distill_student(_teacher(windows.shape[1]), windows, DETECTORS,
                                 DistillConfig(features=features, **CONFIG))
    return _student_bytes(student, windows)


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("features", ["stats", "rocket", "both"])
def test_distilled_student_matches_the_per_minibatch_path(windows, precision, features,
                                                          monkeypatch):
    train_idx, _ = calibration_split(len(windows), 0.25, CONFIG["seed"])
    assert len(train_idx) % CONFIG["batch_size"] != 0
    with use_precision(precision):
        ours = _distilled(windows, features, StudentSelector, monkeypatch)
        theirs = _distilled(windows, features, ReferenceStudentSelector, monkeypatch)
    assert ours[0].keys() == theirs[0].keys()
    assert {"__buffer__.feat_mean", "__buffer__.feat_scale", "fc1.weight",
            "weight"} <= ours[0].keys()
    for name in ours[0]:
        assert ours[0][name] == theirs[0][name], f"{precision}/{features}: {name} differs"
    assert ours[1] == theirs[1], f"{precision}/{features}: predict_proba differs"


def _fit_calls(windows, student_class, monkeypatch):
    """``extract_features`` calls of one student fit (after calibration)."""
    calls = []

    def counting(x):
        calls.append(len(x))
        return extract_features(x)

    monkeypatch.setattr("repro.selectors.student.extract_features", counting)
    monkeypatch.setattr(reference_student, "extract_features", counting)
    teacher = _teacher(windows.shape[1])
    dataset = teacher_soft_dataset(teacher, windows, DETECTORS)
    student = student_class(window=windows.shape[1], n_classes=len(DETECTORS), seed=0,
                            features="stats")
    student.build()
    student.encoder.calibrate(windows)
    calls.clear()
    student.fit(dataset, config=TrainerConfig(epochs=CONFIG["epochs"],
                                              batch_size=CONFIG["batch_size"], seed=0,
                                              pisl=PISLConfig(enabled=True)))
    return calls


def test_a_fit_featurises_its_training_windows_once(windows, monkeypatch):
    batches = -(-len(windows) // CONFIG["batch_size"])
    assert _fit_calls(windows, StudentSelector, monkeypatch) == [len(windows)]
    assert len(_fit_calls(windows, ReferenceStudentSelector, monkeypatch)) == \
        CONFIG["epochs"] * batches


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_conv_teacher_fit_matches_the_per_minibatch_loop(windows, precision):
    """The conv prefix is the (N, 1, L) input: the teacher keeps its bits."""
    teacher = _teacher(windows.shape[1])
    dataset = teacher_soft_dataset(teacher, windows, DETECTORS)
    config = TrainerConfig(epochs=2, batch_size=16, seed=0, pisl=PISLConfig(enabled=True))
    results = []
    with use_precision(precision):
        for trainer_class in (SelectorTrainer, ReferenceTrainer):
            selector = _teacher(windows.shape[1])
            report = trainer_class(selector, config).fit(dataset)
            state = {**selector.encoder.state_dict(), **selector.classifier.state_dict()}
            results.append(({name: np.asarray(v).tobytes() for name, v in state.items()},
                            report.epoch_losses, selector.predict_proba(windows).tobytes()))
    assert results[0] == results[1]
