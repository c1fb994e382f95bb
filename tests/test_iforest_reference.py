"""The flat isolation forest against the recursive reference, byte for byte.

``tests/reference_iforest.py`` holds the per-node recursive build and
traversal the library's flat trees replaced.  Both draw from the generator
in the same order, so every score (or every exception) must be identical:
over sample sizes around the ``max_samples`` and depth boundaries, one and
many columns, ties, constant columns, signed zeros and non-finite input.
The library replays each tree's draws from raw generator words, so that
replay is checked against the generator's own calls, and its trees against
the reference's pre-order flattening.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_iforest import (
    reference_flat_trees,
    reference_iforest1_scores,
    reference_iforest_scores,
    reference_score_samples,
)
from repro.detectors import IForest1Detector, IForestDetector, IsolationForest
from repro.detectors.iforest import _SCORE_BLOCK, _TreeDraws

SIZES = [1, 2, 3, 4, 5, 31, 127, 128, 129, 255, 256, 257, 1000]
MAX_SAMPLES = [8, 128, 256]
SEEDS = [0, 11]


def _outcome(fn):
    """The scores' dtype, shape and bytes, or the exception's type and message."""
    try:
        scores = fn()
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(error), str(error))
    return ("scores", scores.dtype, scores.shape, scores.tobytes())


def _assert_same(fn, reference):
    ours, theirs = _outcome(fn), _outcome(reference)
    assert ours[:3] == theirs[:3]
    assert ours == theirs, "scores differ from the recursive reference"


def _variants(n: int, d: int, seed: int):
    """Plain, tied, constant-column and signed-zero samples of shape (n, d)."""
    rng = np.random.default_rng(1000 * seed + 7 * n + d)
    plain = rng.normal(size=(n, d))
    constant = plain.copy()
    constant[:, 0] = 2.5
    zeros = rng.choice(np.array([-0.0, 0.0, 0.0, 1.5, -1.5]), size=(n, d))
    return {"plain": plain, "ties": np.round(plain, 1), "constant": constant, "zeros": zeros}


@pytest.mark.parametrize("d", [1, 2, 24])
@pytest.mark.parametrize("n", SIZES)
def test_forest_scores_match_reference(n, d):
    for seed in SEEDS:
        for x in _variants(n, d, seed).values():
            for max_samples in MAX_SAMPLES:
                _assert_same(
                    lambda: IsolationForest(4, max_samples, seed).fit(x).score_samples(x),
                    lambda: reference_score_samples(x, x, 4, max_samples, seed))


@pytest.mark.parametrize("d", [1, 2, 24])
@pytest.mark.parametrize("n", SIZES)
def test_forest_arrays_are_the_reference_trees_in_preorder(n, d):
    for seed in SEEDS:
        for x in _variants(n, d, seed).values():
            for max_samples in MAX_SAMPLES:
                forest = IsolationForest(4, max_samples, seed).fit(x)
                ends = np.append(forest.roots_[1:], len(forest.feature_))
                reference = reference_flat_trees(x, 4, max_samples, seed)
                assert len(reference) == len(forest.roots_)
                for (feature, value, leaf_path), start, end in zip(reference, forest.roots_, ends):
                    assert forest.feature_[start:end].tobytes() == feature.tobytes()
                    assert forest.value_[start:end].tobytes() == value.tobytes()
                    assert forest.leaf_path_[start:end].tobytes() == leaf_path.tobytes()


def test_forest_scores_unseen_rows_like_reference():
    rng = np.random.default_rng(5)
    for d in (1, 3):
        fit_x, score_x = rng.normal(size=(300, d)), 3.0 * rng.normal(size=(50, d))
        _assert_same(lambda: IsolationForest(20, 64, 2).fit(fit_x).score_samples(score_x),
                     lambda: reference_score_samples(fit_x, score_x, 20, 64, 2))


def test_one_column_scores_at_the_cuts_like_reference():
    """A one-column forest scores by interval lookup: rows on a split value go right."""
    rng = np.random.default_rng(8)
    for fit_x in (rng.normal(size=300), np.round(rng.normal(size=300), 1),
                  rng.choice(np.array([-0.0, 0.0, 1.5, -1.5]), size=300)):
        forest = IsolationForest(12, 64, 3).fit(fit_x)
        cuts = forest.value_[forest.feature_ >= 0]
        score_x = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
                                  [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]])
        _assert_same(lambda: IsolationForest(12, 64, 3).fit(fit_x).score_samples(score_x),
                     lambda: reference_score_samples(fit_x, score_x, 12, 64, 3))


#: ``rng.integers(0, d)`` bounds: no draw, a power of two, the window, two that reject often
DRAW_BOUNDS = [1, 2, 24, 3 * 2**30, 2**32 - 5]


@pytest.mark.parametrize("buffered", [False, True])
def test_replayed_draws_equal_the_generator_calls(buffered):
    """``_TreeDraws`` against a twin generator making the calls the recursive build makes."""
    pick = np.random.default_rng(17)
    for trial in range(200):
        ours, twin = np.random.default_rng(trial), np.random.default_rng(trial)
        if buffered:  # leave a 32-bit half in the buffer, as ``rng.choice`` can
            for rng in (ours, twin):
                rng.integers(0, 5)
        assert ours.bit_generator.state["has_uint32"] == int(buffered)
        draws = _TreeDraws(ours, 8)  # a short block, so it runs out and grows
        for _ in range(300):
            if pick.random() < 0.5:
                d = int(pick.choice(DRAW_BOUNDS))
                assert draws.integers(d) == twin.integers(0, d)
            else:
                lo = float(pick.normal() * 10.0 ** pick.integers(-6, 6))
                hi = lo + float(pick.exponential() * 10.0 ** pick.integers(-6, 6))
                ours_value, twin_value = draws.uniform(lo, hi), float(twin.uniform(lo, hi))
                assert np.float64(ours_value).tobytes() == np.float64(twin_value).tobytes()
        draws.sync()
        assert ours.bit_generator.state == twin.bit_generator.state
        assert ours.integers(0, 24) == twin.integers(0, 24)
        assert ours.uniform() == twin.uniform()


@pytest.mark.parametrize("lo, hi", [(-1.7e308, 1.7e308), (np.nan, np.nan), (0.0, np.inf)])
def test_overflowing_range_raises_and_leaves_the_generator_unmoved(lo, hi):
    ours, twin = np.random.default_rng(3), np.random.default_rng(3)
    draws = _TreeDraws(ours, 4)
    assert draws.integers(24) == twin.integers(0, 24)
    for uniform in (draws.uniform, twin.uniform):
        with pytest.raises(OverflowError, match="^high - low range exceeds valid bounds$"):
            uniform(lo, hi)
    draws.sync()
    assert ours.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n", SIZES)
def test_detectors_match_reference(n):
    for seed in SEEDS:
        series = np.random.default_rng(seed + n).normal(size=n).cumsum()
        for values in (series, np.round(series), np.full(n, -0.0)):
            _assert_same(lambda: IForestDetector(window=24, n_estimators=8, seed=seed).score(values),
                         lambda: reference_iforest_scores(values, 24, 8, seed=seed))
            _assert_same(lambda: IForest1Detector(n_estimators=8, seed=seed).score(values),
                         lambda: reference_iforest1_scores(values, 8, seed=seed))


def test_default_detectors_match_reference():
    series = np.sin(np.arange(700) / 9.0) + 0.1 * np.random.default_rng(3).normal(size=700)
    series[350:360] += 3.0
    _assert_same(lambda: IForestDetector(window=24).score(series),
                 lambda: reference_iforest_scores(series, 24))
    _assert_same(lambda: IForest1Detector().score(series),
                 lambda: reference_iforest1_scores(series))


def test_scores_across_score_blocks_match_reference():
    """Rows are scored ``_SCORE_BLOCK`` at a time; two blocks and one row cross both block edges."""
    series = np.random.default_rng(4).normal(size=2 * _SCORE_BLOCK + 1).cumsum()
    _assert_same(lambda: IForest1Detector(n_estimators=4).score(series),
                 lambda: reference_iforest1_scores(series, 4))
    _assert_same(lambda: IForestDetector(window=24, n_estimators=4).score(series),
                 lambda: reference_iforest_scores(series, 24, 4))


@pytest.mark.parametrize("n", [0, 1, 5])
def test_zero_columns_like_reference(n):
    """No columns: one row or none fits leaves; more rows raise numpy's error for ``integers(0, 0)``."""
    x = np.zeros((n, 0))
    _assert_same(lambda: IsolationForest(4, 8, 0).fit(x).score_samples(x),
                 lambda: reference_score_samples(x, x, 4, 8, 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "huge"])
@pytest.mark.parametrize("n", [5, 100, 400])
def test_non_finite_and_overflowing_input_raise_like_reference(n, bad):
    series = np.random.default_rng(n).normal(size=n)
    if bad == "huge":  # every column holds both signs, so hi - lo overflows to inf
        series = np.copysign(1.7e308, series)
    else:
        series[n // 2] = bad
    cases = [
        (lambda: IForest1Detector(n_estimators=8).score(series),
         lambda: reference_iforest1_scores(series, 8)),
        (lambda: IForestDetector(window=24, n_estimators=8).score(series),
         lambda: reference_iforest_scores(series, 24, 8)),
        (lambda: IsolationForest(8, 256, 1).fit(series).score_samples(series),
         lambda: reference_score_samples(series, series, 8, 256, 1)),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for ours, reference in cases:
            outcome = _outcome(ours)
            assert outcome == _outcome(reference)
            assert outcome == ("raised", OverflowError, "high - low range exceeds valid bounds")
