"""The one-pass window features against the NumPy-call-per-statistic
reference, byte for byte.

``tests/reference_features.py`` holds the ``extract_features`` the library
used before its moments shared one centring and its order statistics one
sort.  Both must return the same bytes (or raise the same exception) over a
bounded grid of batch sizes and window lengths: plain, rounded and tied
values, zeros of either or both signs (placed at the median and at every
percentile position), NaN and infinite rows, extreme scales, 1-D input and
non-contiguous layouts.  Two hypothesis properties mix those values at
random and check that a window's row does not depend on its batch, and a
student distilled on either implementation comes out the same.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_features import extract_features as reference_extract_features
from repro.data import generate_series
from repro.data.windows import extract_windows
from repro.distill import DistillConfig, distill_student
from repro.selectors import make_selector
from repro.selectors.features import extract_features
from repro.serving.transform_cache import configure_transform_cache

# Both implementations warn on empty means, inf - inf and the like.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

ROWS = [1, 2, 8, 33, 130]
LENGTHS = [1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 96, 97]
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, np.inf, -np.inf,
                    1e300, -1e300, 1e-300, -1e-300, 5e-324])


def _outcome(fn, x):
    """The features' dtype, shape, layout and bytes, or the exception."""
    try:
        features = fn(x)
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(error), str(error))
    return ("features", features.dtype, features.shape,
            features.flags.c_contiguous, features.tobytes())


def _assert_same(x, label=""):
    ours, theirs = _outcome(extract_features, x), _outcome(reference_extract_features, x)
    assert ours[:4] == theirs[:4], label
    assert ours == theirs, f"{label}: features differ from the reference"


def _used_positions(length: int) -> list:
    """Sorted positions the median and the six percentiles read."""
    virtual = (length - 1) * np.true_divide([1, 5, 25, 75, 95, 99], 100)
    below = np.floor(virtual).astype(int)
    half = length // 2
    return sorted({half, half - 1 + length % 2,
                   *below.tolist(), *np.minimum(below + 1, length - 1).tolist()})


def _zeros_at(rng, rows: int, length: int, position: int) -> np.ndarray:
    """Rows whose sorted ``position`` holds a zero among zeros of both signs."""
    out = np.empty((rows, length))
    for row in out:
        first = max(0, min(position - int(rng.integers(0, 2)), length - 2))
        width = int(rng.integers(2, 4))
        zeros = np.where(rng.random(width) < 0.5, -0.0, 0.0)
        zeros[:2] = [-0.0, 0.0]
        values = np.concatenate([-1.0 - rng.random(first), zeros,
                                 1.0 + rng.random(max(length - first - width, 0))])[:length]
        row[:] = rng.permutation(values)
    return out


def _variants(rows: int, length: int):
    rng = np.random.default_rng(1000 * rows + length)
    plain = rng.normal(size=(rows, length))
    nan = plain.copy()
    nan[::2, rng.integers(0, length)] = np.nan
    inf = plain.copy()
    inf[::3, rng.integers(0, length)] = np.inf
    inf[1::3, rng.integers(0, length)] = -np.inf
    inf[2::3, :] = rng.choice([np.inf, -np.inf, 1.0], size=inf[2::3].shape)
    yield "plain", plain
    yield "rounded", np.round(plain, 1)
    yield "tied", rng.integers(-2, 3, size=(rows, length)).astype(np.float64)
    yield "positive zeros", np.zeros((rows, length))
    yield "negative zeros", np.full((rows, length), -0.0)
    yield "random signed zeros", rng.choice(np.array([-0.0, 0.0, 1.5, -1.5]), size=(rows, length))
    yield "nan rows", nan
    yield "all nan", np.full((rows, length), np.nan)
    yield "inf rows", inf
    yield "huge", plain * 1e300
    yield "tiny", plain * 1e-300
    yield "fortran order", np.asfortranarray(plain)
    yield "strided", np.repeat(plain, 2, axis=1)[:, ::2]
    if length >= 2:
        for position in _used_positions(length):
            yield f"mixed zeros at {position}", _zeros_at(rng, rows, length, position)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("rows", ROWS)
def test_features_match_reference(rows, length):
    for label, x in _variants(rows, length):
        _assert_same(x, f"{rows}x{length} {label}")


@pytest.mark.parametrize("length", LENGTHS)
def test_one_dimensional_input_matches_reference(length):
    for label, x in _variants(1, length):
        _assert_same(x[0], f"1-D {length} {label}")


@pytest.mark.parametrize("shape", [(0, 96), (3, 0), (0, 0), (), (2, 3, 4)])
def test_empty_and_misshapen_input_match_reference(shape):
    _assert_same(np.zeros(shape), str(shape))


values = st.one_of(st.floats(width=64), st.sampled_from(list(SPECIAL)))
matrices = arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 40)), elements=values)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(x=matrices)
def test_random_mixtures_match_reference(x):
    _assert_same(x)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(x=matrices, data=st.data())
def test_rows_do_not_depend_on_their_batch(x, data):
    """Any subset, permutation or repetition of rows gives the same rows."""
    order = data.draw(st.lists(st.integers(0, len(x) - 1), min_size=1, max_size=2 * len(x)))
    assert extract_features(x[order]).tobytes() == extract_features(x)[order].tobytes()


def _distilled_student_bytes():
    windows = np.vstack([extract_windows(generate_series(family, 0, 400, seed=5).series, 48, stride=16)
                         for family in ("ECG", "IOPS", "SMD")])
    teacher = make_selector("ResNet", window=48, n_classes=3, seed=0,
                            mid_channels=4, num_layers=1).build()
    student, _ = distill_student(teacher, windows, ["IForest", "HBOS", "MP"],
                                 DistillConfig(epochs=3, seed=0))
    state = {**student.encoder.state_dict(), **student.classifier.state_dict()}
    return ({name: value.tobytes() for name, value in state.items()},
            student.predict_proba(windows).tobytes())


def test_distilled_student_matches_one_built_on_the_reference(monkeypatch):
    """Training, calibration and the student's forward see the same features."""
    configure_transform_cache(0)  # neither run may read the other's cached features
    try:
        ours = _distilled_student_bytes()
        monkeypatch.setattr("repro.selectors.student.extract_features", reference_extract_features)
        theirs = _distilled_student_bytes()
    finally:
        configure_transform_cache(None)
    assert ours[0].keys() == theirs[0].keys()
    assert ours == theirs
