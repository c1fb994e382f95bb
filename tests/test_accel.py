"""Tests for the ``repro.accel`` kernel layer.

Every fast kernel is asserted against its pre-accel reference
implementation (:mod:`repro.accel.reference`): bitwise where achievable,
at a documented tolerance otherwise (the FFT/diagonal matrix profile sums
the same correlations in a different order, so float64 agreement is
atol ≤ 1e-8, not bitwise).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import (
    matrix_profile,
    memory_budget_bytes,
    moving_mean_std,
    padded_matmul_t,
    resolve_dtype,
    sliding_dot_products,
    tile_kneighbors,
    use_precision,
    znorm_centroid_distances,
)
from repro.accel import config as accel_config
from repro.accel import precision as accel_precision
from repro.accel.distances import mirror_upper
from repro.accel.reference import (
    kneighbors_dense,
    matrix_profile_matmul,
    pairwise_sq_euclidean_dense,
)
from repro.detectors.base import make_detector, window_scores_to_point_scores
from repro.detectors.matrix_profile import matrix_profile as detector_matrix_profile
from repro.ml.neighbors import kneighbors, pairwise_sq_euclidean
from repro.ml.scalers import zscore, zscore_rows
from repro.serving.workers import WorkerPool

from reference_mirror import reference_mirror_upper


# --------------------------------------------------------------------------- #
# precision policy
# --------------------------------------------------------------------------- #
class TestPrecisionPolicy:
    def test_default_is_float64(self):
        assert resolve_dtype(None) == np.dtype(np.float64)

    def test_context_override_and_nesting(self):
        with use_precision("float32"):
            assert resolve_dtype(None) == np.dtype(np.float32)
            with use_precision("float64"):
                assert resolve_dtype(None) == np.dtype(np.float64)
            assert resolve_dtype(None) == np.dtype(np.float32)
        assert resolve_dtype(None) == np.dtype(np.float64)

    def test_per_call_override_beats_context(self):
        with use_precision("float32"):
            assert resolve_dtype("float64") == np.dtype(np.float64)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        assert resolve_dtype(None) == np.dtype(np.float32)

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        accel_precision.set_default_precision("float64")
        try:
            assert resolve_dtype(None) == np.dtype(np.float64)
        finally:
            accel_precision.set_default_precision(None)

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            use_precision("float16")
        with pytest.raises(ValueError):
            resolve_dtype("int32")

    def test_nn_float32_fast_path(self):
        from repro import nn

        with use_precision("float32"):
            layer = nn.Linear(8, 4)
            assert layer.weight.data.dtype == np.float32
            x = nn.Tensor(np.random.default_rng(0).normal(size=(5, 8)))
            assert x.data.dtype == np.float32
            out = layer(x)
            assert out.data.dtype == np.float32
            out.sum().backward()
            assert layer.weight.grad is not None
            assert layer.weight.grad.dtype == np.float32

    def test_detectors_run_under_float32(self):
        rng = np.random.default_rng(1)
        series = np.cumsum(rng.normal(size=300))
        with use_precision("float32"):
            for name in ("MP", "LOF", "OCSVM", "NORMA"):
                scores = make_detector(name, window=16).detect(series)
                assert scores.shape == series.shape
                assert np.isfinite(scores).all()


class TestRuntimeConfig:
    def test_memory_budget_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "1")
        assert memory_budget_bytes() == 1024 * 1024
        assert memory_budget_bytes(2) == 2 * 1024 * 1024

    def test_memory_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            memory_budget_bytes(0)

    def test_worker_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert accel_config.default_max_workers() == 3
        assert accel_config.default_max_workers(1) == 1


# --------------------------------------------------------------------------- #
# matrix profile
# --------------------------------------------------------------------------- #
class TestMatrixProfileEquivalence:
    def test_matches_blocked_matmul_reference(self):
        """Property test: random lengths/windows/blocks, float64, atol 1e-8."""
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(12, 900))
            window = int(rng.integers(2, max(3, n // 2 + 1)))
            block = int(rng.integers(1, 300))
            kind = trial % 3
            if kind == 0:
                series = np.cumsum(rng.normal(size=n))
            elif kind == 1:
                series = np.sin(np.linspace(0, 15, n)) + 0.1 * rng.normal(size=n)
            else:  # large offset/scale exercises the global normalisation
                series = rng.normal(size=n) * 1e3 + 5e4
            ref = matrix_profile_matmul(series, window)
            fast = matrix_profile(series, window, block=block)
            assert fast.shape == ref.shape
            np.testing.assert_allclose(fast, ref, atol=1e-8,
                                       err_msg=f"n={n} w={window} block={block}")

    def test_float32_fast_path_close(self):
        rng = np.random.default_rng(3)
        series = np.cumsum(rng.normal(size=2000))
        ref = matrix_profile_matmul(series, 64)
        fast = matrix_profile(series, 64, dtype="float32")
        np.testing.assert_allclose(fast, ref, atol=1e-3)

    def test_detector_wrapper_matches_reference(self):
        rng = np.random.default_rng(4)
        series = np.cumsum(rng.normal(size=500))
        np.testing.assert_allclose(detector_matrix_profile(series, 25),
                                   matrix_profile_matmul(series, 25), atol=1e-8)


class TestMatrixProfileEdgeCases:
    def test_series_shorter_than_window(self):
        assert detector_matrix_profile(np.arange(5.0), 10).shape == (0,)

    def test_series_equal_to_window_all_excluded(self):
        profile = detector_matrix_profile(np.arange(10.0), 10)
        assert profile.shape == (1,)
        assert np.array_equal(profile, np.zeros(1))

    def test_series_under_two_windows_all_excluded(self):
        # 15 points, window 10 → 6 subsequences, every pair inside the
        # exclusion zone: zeros, no inf/NaN through sqrt/min.
        profile = detector_matrix_profile(np.arange(15.0), 10)
        assert profile.shape == (6,)
        assert np.array_equal(profile, np.zeros(6))

    def test_constant_series_profile_finite(self):
        for impl in (detector_matrix_profile, matrix_profile_matmul):
            profile = impl(np.full(100, 3.25), 10)
            assert np.isfinite(profile).all()
        np.testing.assert_allclose(detector_matrix_profile(np.full(100, 3.25), 10),
                                   matrix_profile_matmul(np.full(100, 3.25), 10),
                                   atol=1e-8)

    def test_detector_short_series_returns_zero_scores(self):
        detector = make_detector("MP", window=32)
        for n in (1, 2, 3):
            scores = detector.detect(np.arange(float(n)))
            assert scores.shape == (n,)
            assert np.isfinite(scores).all()

    def test_point_scores_with_zero_windows(self):
        out = window_scores_to_point_scores(np.zeros(0), 7, 10)
        assert np.array_equal(out, np.zeros(7))


class TestRollingStatsAndMass:
    def test_moving_mean_std_matches_windowed(self):
        rng = np.random.default_rng(5)
        series = rng.normal(size=300) * 3 + 1
        subs = np.lib.stride_tricks.sliding_window_view(series, 16)
        mu, sig = moving_mean_std(series, 16)
        np.testing.assert_allclose(mu, subs.mean(axis=1), atol=1e-10)
        np.testing.assert_allclose(sig, subs.std(axis=1), atol=1e-10)

    def test_moving_mean_std_short_series(self):
        mu, sig = moving_mean_std(np.arange(3.0), 5)
        assert mu.shape == (0,) and sig.shape == (0,)

    def test_sliding_dot_products_matches_naive(self):
        rng = np.random.default_rng(6)
        series = rng.normal(size=150)
        queries = rng.normal(size=(3, 12))
        ref = np.array([[q @ series[t:t + 12] for t in range(139)] for q in queries])
        np.testing.assert_allclose(sliding_dot_products(queries, series), ref, atol=1e-10)
        np.testing.assert_allclose(sliding_dot_products(queries[0], series), ref[0],
                                   atol=1e-10)

    def test_sliding_dot_products_query_longer_than_series(self):
        assert sliding_dot_products(np.ones(10), np.ones(4)).shape == (0,)

    def test_centroid_distances_match_explicit_zscore(self):
        rng = np.random.default_rng(8)
        series = np.cumsum(rng.normal(size=400))
        series[100:110] = series[100]  # a constant stretch → clamped windows
        window, k = 20, 3
        centroids = rng.normal(size=(k, window))
        subs = np.lib.stride_tricks.sliding_window_view(series, window)
        z = np.apply_along_axis(zscore, 1, subs)
        ref = np.sqrt(((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
        got = znorm_centroid_distances(series, window, centroids)
        np.testing.assert_allclose(got, ref, atol=1e-7)

    def test_centroid_distances_survive_large_offset(self):
        """Regression: un-normalised rolling stats collapsed on offset series."""
        rng = np.random.default_rng(9)
        base = rng.normal(size=500)
        window, k = 32, 2
        centroids = rng.normal(size=(k, window))
        series = base + 1e6  # large absolute level, e.g. traffic counters
        subs = np.lib.stride_tricks.sliding_window_view(series, window)
        z = np.apply_along_axis(zscore, 1, subs)
        ref = np.sqrt(((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
        got = znorm_centroid_distances(series, window, centroids)
        np.testing.assert_allclose(got, ref, atol=1e-5)


# --------------------------------------------------------------------------- #
# tiled distances
# --------------------------------------------------------------------------- #
class TestPaddedMatmul:
    def test_tile_independent_bits(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = int(rng.integers(1, 400))
            n = int(rng.integers(1, 300))
            d = int(rng.integers(1, 80))
            a = rng.normal(size=(m, d))
            b = rng.normal(size=(n, d))
            full = padded_matmul_t(a, b)
            tr = int(rng.integers(1, m + 10))
            tc = int(rng.integers(1, n + 10))
            tiled = np.empty((m, n))
            for i in range(0, m, tr):
                for j in range(0, n, tc):
                    tiled[i:i + tr, j:j + tc] = padded_matmul_t(a[i:i + tr], b[j:j + tc])
            assert np.array_equal(full, tiled), f"m={m} n={n} d={d} tr={tr} tc={tc}"

    def test_matches_plain_matmul_values(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(37, 5)), rng.normal(size=(23, 5))
        np.testing.assert_allclose(padded_matmul_t(a, b), a @ b.T, rtol=1e-13)


class TestTileKneighbors:
    def _random_case(self, rng, trial):
        m = int(rng.integers(1, 260))
        d = int(rng.integers(1, 40))
        self_join = trial % 2 == 0
        n = m if self_join else int(rng.integers(1, 260))
        x = rng.normal(size=(m, d))
        if trial % 4 == 0 and m > 3:  # duplicate rows → exact distance ties
            x[m // 2] = x[0]
            x[-1] = x[0]
        ref = x if self_join else rng.normal(size=(n, d))
        k = int(rng.integers(1, 2 * n + 1))  # includes k > n
        exclude = bool(rng.integers(0, 2)) and n == m
        return x, ref, k, exclude, self_join

    def test_bitwise_independent_of_tile_sizes(self):
        """Any tiling — including the single full-matrix tile — same bits."""
        rng = np.random.default_rng(11)
        for trial in range(30):
            x, ref, k, exclude, self_join = self._random_case(rng, trial)
            m, n = x.shape[0], ref.shape[0]
            full = tile_kneighbors(x, ref, k, exclude_self=exclude,
                                   tile_rows=max(m, n), tile_cols=max(m, n))
            t1 = int(rng.integers(1, m + 16))
            t2 = int(rng.integers(1, n + 16))
            tiled = tile_kneighbors(x, ref, k, exclude_self=exclude,
                                    tile_rows=t1, tile_cols=t2)
            assert np.array_equal(full[0], tiled[0]), (m, n, k, exclude, t1, t2)
            assert np.array_equal(full[1], tiled[1]), (m, n, k, exclude, t1, t2)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            x, ref, k, exclude, self_join = self._random_case(rng, trial)
            dd, di = kneighbors_dense(x, ref, k, exclude_self=exclude)
            td, ti = tile_kneighbors(x, ref, k, exclude_self=exclude,
                                     tile_rows=17, tile_cols=23)
            assert dd.shape == td.shape and di.shape == ti.shape
            # identical neighbour-distance multisets (indices may differ on
            # exact ties: tiled resolves them to the lowest index)
            mask = np.isfinite(dd)
            assert np.array_equal(mask, np.isfinite(td))
            np.testing.assert_allclose(td[mask], dd[mask], atol=1e-8)

    def test_duplicate_ties_take_lowest_index(self):
        x = np.zeros((6, 3))
        x[3:] = 1.0
        dist, idx = tile_kneighbors(x, x, 2, exclude_self=True, tile_rows=2)
        # Row 0's nearest duplicates are rows 1 and 2, in index order.
        assert list(idx[0]) == [1, 2]
        assert list(idx[4]) == [3, 5]
        np.testing.assert_allclose(dist[0], 0.0)

    def test_k_larger_than_reference(self):
        x = np.random.default_rng(13).normal(size=(4, 2))
        dist, idx = tile_kneighbors(x, x, 10, exclude_self=True, tile_rows=2)
        assert dist.shape == (4, 3)  # clamped to n - 1
        dist2, idx2 = tile_kneighbors(x, x, 10, exclude_self=False, tile_rows=3)
        assert dist2.shape == (4, 4)

    def test_single_row_exclude_self(self):
        x = np.ones((1, 2))
        dist, idx = tile_kneighbors(x, x, 1, exclude_self=True)
        ref_d, ref_i = kneighbors_dense(x, x, 1, exclude_self=True)
        assert np.isinf(dist[0, 0]) and np.isinf(ref_d[0, 0])
        assert idx[0, 0] == ref_i[0, 0] == 0


class TestPairwiseSelfJoin:
    def test_upper_triangle_bitwise_and_symmetric(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            n = int(rng.integers(1, 700))
            d = int(rng.integers(1, 50))
            a = rng.normal(size=(n, d))
            old = pairwise_sq_euclidean_dense(a, a)
            new = pairwise_sq_euclidean(a, a)
            iu = np.triu_indices(n)
            # Diagonal + upper triangle: bitwise identical to the historical
            # result.  The mirrored lower triangle is exactly the upper one,
            # so it can differ from the historical lower by the last ulp
            # wherever BLAS's GEMM output was asymmetric.
            assert np.array_equal(new[iu], old[iu])
            assert np.array_equal(new, new.T)
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12)

    def test_b_none_is_self_join(self):
        a = np.random.default_rng(15).normal(size=(40, 6))
        assert np.array_equal(pairwise_sq_euclidean(a), pairwise_sq_euclidean(a, a))

    def test_distinct_operands_unchanged(self):
        rng = np.random.default_rng(16)
        a, b = rng.normal(size=(31, 7)), rng.normal(size=(45, 7))
        assert np.array_equal(pairwise_sq_euclidean(a, b),
                              pairwise_sq_euclidean_dense(a, b))

    def test_float32_dtype(self):
        a = np.random.default_rng(17).normal(size=(10, 3))
        assert pairwise_sq_euclidean(a, dtype="float32").dtype == np.float32


#: a quiet NaN with a payload: a mirror that copies bytes keeps it
_PAYLOAD_NAN = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]


def _square_with_specials(n: int, dtype, seed: int) -> np.ndarray:
    """A random (n, n) matrix with NaN, ±inf and ±0.0 entries on both sides of the diagonal."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, n))
    if n:
        flat = d.reshape(-1)
        specials = np.array([np.nan, _PAYLOAD_NAN, np.inf, -np.inf, -0.0, 0.0])
        spots = rng.choice(n * n, size=min(n * n, 6 * max(1, n // 4)), replace=False)
        flat[spots] = np.resize(specials, len(spots))
    return d.astype(dtype)


class TestMirrorUpper:
    """``mirror_upper`` against the former 1,024-row ``tril_indices`` mirror, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 2049])
    def test_bytes_match_the_reference(self, n, dtype):
        d = _square_with_specials(n, dtype, seed=n)
        ours, theirs = d.copy(), d.copy()
        mirror_upper(ours)
        reference_mirror_upper(theirs)
        assert ours.dtype == dtype
        assert ours.tobytes() == theirs.tobytes()
        upper = np.triu_indices(n)
        assert ours[upper].tobytes() == d[upper].tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("tile", [37, 63, 64, 65, 100, 129, 200])
    def test_tiled_self_join_keeps_its_bits(self, monkeypatch, tile, dtype):
        """Diagonal tiles that end inside a mirror block give the former mirror's output."""
        import repro.accel.distances as distances

        rng = np.random.default_rng(tile)
        x = rng.normal(size=(300, 6))
        x[150] = x[0]  # exact distance ties
        x[7, 2] = -0.0
        for exclude in (True, False):
            ours = tile_kneighbors(x, x, 9, exclude_self=exclude, tile_rows=tile, dtype=dtype)
            with monkeypatch.context() as patch:
                patch.setattr(distances, "mirror_upper", reference_mirror_upper)
                theirs = tile_kneighbors(x, x, 9, exclude_self=exclude, tile_rows=tile, dtype=dtype)
            for a, b in zip(ours, theirs):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n", [1, 65, 700, 1100])
    def test_dense_self_join_keeps_its_bits(self, monkeypatch, n, dtype):
        import repro.ml.neighbors as neighbors

        x = np.random.default_rng(n).normal(size=(n, 5))
        ours = kneighbors(x, x, 10, exclude_self=True, dtype=dtype)
        with monkeypatch.context() as patch:
            patch.setattr(neighbors, "mirror_upper", reference_mirror_upper)
            theirs = kneighbors(x, x, 10, exclude_self=True, dtype=dtype)
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKneighborsRouting:
    def test_small_inputs_keep_historical_bits(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(80, 4))
        q = rng.normal(size=(15, 4))
        dist, idx = kneighbors(q, x, 5)
        ref_d, ref_i = kneighbors_dense(q, x, 5)
        assert np.array_equal(dist, ref_d) and np.array_equal(idx, ref_i)

    def test_over_budget_switches_to_tiles(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "0.01")  # ~10 KB
        rng = np.random.default_rng(19)
        x = rng.normal(size=(300, 5))
        dist, idx = kneighbors(x, x, 4, exclude_self=True)
        ref_d, ref_i = kneighbors_dense(x, x, 4, exclude_self=True)
        np.testing.assert_allclose(dist, ref_d, atol=1e-8)
        assert (idx != np.arange(300)[:, None]).all()

    def test_lof_equivalent_across_budgets(self, monkeypatch):
        from repro.detectors.lof import local_outlier_factor

        rng = np.random.default_rng(20)
        x = rng.normal(size=(400, 8))
        dense = local_outlier_factor(x, n_neighbors=10)
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "0.05")
        tiled = local_outlier_factor(x, n_neighbors=10)
        np.testing.assert_allclose(dense, tiled, rtol=1e-9)


# --------------------------------------------------------------------------- #
# vectorised row z-scoring
# --------------------------------------------------------------------------- #
class TestZscoreRows:
    def test_bitwise_matches_apply_along_axis(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(200, 24)) * 5 + 3
        m[17] = 2.0  # constant row → zeros
        ref = np.apply_along_axis(zscore, 1, m)
        assert np.array_equal(zscore_rows(m), ref)

    def test_float32_output(self):
        m = np.random.default_rng(22).normal(size=(5, 8))
        assert zscore_rows(m, dtype="float32").dtype == np.float32


# --------------------------------------------------------------------------- #
# forked worker pool
# --------------------------------------------------------------------------- #
def _square(x):
    return x * x


class TestProcessWorkerPool:
    def test_process_map_matches_sequential(self):
        items = list(range(20))
        expected = [_square(i) for i in items]
        assert WorkerPool(4).map(_square, items) == expected

    def test_process_map_preserves_order_with_arrays(self):
        rng = np.random.default_rng(23)
        series = [rng.normal(size=50) for _ in range(6)]
        pool = WorkerPool(3)
        results = pool.map(lambda s: float(s.sum()), series)
        assert results == [float(s.sum()) for s in series]

    def test_closures_cross_fork_without_pickling(self):
        big = np.arange(10_000, dtype=np.float64)
        pool = WorkerPool(2)
        # a lambda closing over a local array is not picklable by
        # multiprocessing's default; fork inheritance makes it work
        results = pool.map(lambda i: float(big[i]), [1, 5, 9])
        assert results == [1.0, 5.0, 9.0]

    def test_sequential_below_two_workers(self):
        assert WorkerPool(0).map(_square, [3]) == [9]
        assert WorkerPool(1).map(_square, [3, 4]) == [9, 16]

    def test_oracle_process_mode_matches_sequential(self):
        from repro.data.generators import generate_series
        from repro.eval import Oracle

        records = [generate_series("ECG", i, 200, seed=i) for i in range(3)]
        model_set = {name: make_detector(name, window=16)
                     for name in ("HBOS", "MP", "LOF")}
        seq = Oracle(model_set).performance_matrix(records)
        par = Oracle(model_set, max_workers=2).performance_matrix(records)
        assert np.array_equal(seq, par)

    def test_repr_mentions_mode(self):
        assert "process" in repr(WorkerPool(4))
        assert "sequential" in repr(WorkerPool(0))
