"""Tests for the classical ML substrate (repro.ml)."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    DecisionStump,
    DecisionTreeClassifier,
    KMeans,
    KNeighborsClassifier,
    LinearSVC,
    LogisticRegression,
    OneClassSVM,
    PCA,
    RandomForestClassifier,
    RidgeClassifier,
    RidgeRegression,
    StandardScaler,
    kneighbors,
    pairwise_sq_euclidean,
    zscore,
)


@pytest.fixture(scope="module")
def blobs():
    """Three well-separated Gaussian blobs (easy classification task)."""
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
    x = np.concatenate([rng.normal(c, 0.6, size=(40, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 40)
    return x, y


class TestScalers:
    def test_standard_scaler_zero_mean_unit_std(self):
        x = np.random.default_rng(1).normal(3.0, 2.0, size=(100, 4))
        out = StandardScaler().fit_transform(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_constant_feature_safe(self):
        x = np.column_stack([np.ones(10), np.arange(10)])
        out = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(out))

    def test_standard_scaler_requires_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_zscore_constant_series(self):
        assert np.allclose(zscore(np.full(10, 3.0)), 0.0)

    def test_zscore_normalises(self):
        out = zscore(np.arange(100, dtype=float))
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9


class TestNeighbors:
    def test_pairwise_distances_match_naive(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(pairwise_sq_euclidean(a, b), naive, atol=1e-9)

    def test_kneighbors_returns_sorted_distances(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        dist, idx = kneighbors(x, x, k=5)
        assert dist.shape == (20, 5)
        assert np.all(np.diff(dist, axis=1) >= -1e-12)
        assert np.allclose(dist[:, 0], 0.0, atol=1e-6)  # self-match first without exclusion

    def test_kneighbors_exclude_self(self):
        x = np.random.default_rng(5).normal(size=(10, 2))
        dist, idx = kneighbors(x, x, k=3, exclude_self=True)
        assert np.all(dist[:, 0] > 0)
        assert np.all(idx != np.arange(10)[:, None])

    def test_knn_classifier_blobs(self, blobs):
        x, y = blobs
        clf = KNeighborsClassifier(n_neighbors=5).fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.95
        proba = clf.predict_proba(x)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_knn_distance_weights(self, blobs):
        x, y = blobs
        clf = KNeighborsClassifier(n_neighbors=3, weights="distance").fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.95

    def test_knn_invalid_weights(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(weights="bogus")

    def test_knn_requires_fit(self):
        with pytest.raises(RuntimeError):
            KNeighborsClassifier().predict(np.zeros((1, 2)))


class TestLinearModels:
    def test_ridge_regression_recovers_line(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 3))
        w_true = np.array([1.0, -2.0, 0.5])
        y = x @ w_true + 3.0 + 0.01 * rng.normal(size=200)
        model = RidgeRegression(alpha=1e-3).fit(x, y)
        assert np.allclose(model.coef_, w_true, atol=0.05)
        assert model.intercept_ == pytest.approx(3.0, abs=0.05)

    def test_ridge_classifier_blobs(self, blobs):
        x, y = blobs
        clf = RidgeClassifier(alpha=1.0).fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.9
        assert np.allclose(clf.predict_proba(x).sum(axis=1), 1.0)

    def test_ridge_requires_fit(self):
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            RidgeClassifier().predict(np.zeros((1, 2)))

    def test_logistic_regression_blobs(self, blobs):
        x, y = blobs
        clf = LogisticRegression(lr=0.5, n_iter=200).fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.9

    def test_logistic_proba_normalised(self, blobs):
        x, y = blobs
        clf = LogisticRegression(n_iter=50).fit(x, y)
        proba = clf.predict_proba(x)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()


class TestSVM:
    def test_linear_svc_blobs(self, blobs):
        x, y = blobs
        clf = LinearSVC(n_iter=10, seed=0).fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.9

    def test_linear_svc_decision_shape(self, blobs):
        x, y = blobs
        clf = LinearSVC(n_iter=5).fit(x, y)
        assert clf.decision_function(x).shape == (len(x), 3)

    def test_ocsvm_scores_outliers_higher(self):
        rng = np.random.default_rng(7)
        inliers = rng.normal(0.0, 1.0, size=(300, 4))
        outliers = rng.normal(6.0, 1.0, size=(20, 4))
        model = OneClassSVM(nu=0.1, seed=0).fit(inliers)
        assert model.score_samples(outliers).mean() > model.score_samples(inliers).mean()

    def test_ocsvm_invalid_nu(self):
        with pytest.raises(ValueError):
            OneClassSVM(nu=0.0)

    def test_ocsvm_requires_fit(self):
        with pytest.raises(RuntimeError):
            OneClassSVM().decision_function(np.zeros((1, 2)))


class TestTrees:
    def test_decision_tree_blobs(self, blobs):
        x, y = blobs
        tree = DecisionTreeClassifier(max_depth=6, seed=0).fit(x, y)
        assert (tree.predict(x) == y).mean() > 0.95

    def test_decision_tree_respects_max_depth_one(self, blobs):
        x, y = blobs
        stump = DecisionStump(seed=0).fit(x, y)
        # A depth-1 tree can produce at most two distinct probability rows.
        rows = {tuple(np.round(r, 6)) for r in stump.predict_proba(x)}
        assert len(rows) <= 2

    def test_decision_tree_sample_weights_shift_decision(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        heavy_on_class1 = DecisionTreeClassifier(max_depth=1, seed=0).fit(
            x, y, sample_weight=np.array([0.01, 0.01, 10.0, 10.0])
        )
        proba = heavy_on_class1.predict_proba(np.array([[1.5]]))
        assert proba.shape == (1, 2)

    def test_decision_tree_requires_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_single_class_training(self):
        x = np.random.default_rng(8).normal(size=(10, 3))
        y = np.zeros(10, dtype=int)
        tree = DecisionTreeClassifier().fit(x, y)
        assert (tree.predict(x) == 0).all()


class TestEnsembles:
    def test_random_forest_blobs(self, blobs):
        x, y = blobs
        forest = RandomForestClassifier(n_estimators=15, max_depth=6, seed=0).fit(x, y)
        assert (forest.predict(x) == y).mean() > 0.95

    def test_random_forest_proba_normalised(self, blobs):
        x, y = blobs
        forest = RandomForestClassifier(n_estimators=5, seed=1).fit(x, y)
        assert np.allclose(forest.predict_proba(x).sum(axis=1), 1.0)

    def test_random_forest_requires_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((1, 2)))

    def test_adaboost_blobs(self, blobs):
        x, y = blobs
        boost = AdaBoostClassifier(n_estimators=30, seed=0).fit(x, y)
        assert (boost.predict(x) == y).mean() > 0.8

    def test_adaboost_binary_easy(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.normal(-3, 0.5, size=(50, 2)), rng.normal(3, 0.5, size=(50, 2))])
        y = np.repeat([0, 1], 50)
        boost = AdaBoostClassifier(n_estimators=10, seed=0).fit(x, y)
        assert (boost.predict(x) == y).mean() > 0.95

    def test_adaboost_requires_fit(self):
        with pytest.raises(RuntimeError):
            AdaBoostClassifier().predict(np.zeros((1, 2)))


class TestClusteringAndPCA:
    def test_kmeans_recovers_blob_centres(self, blobs):
        x, _ = blobs
        km = KMeans(n_clusters=3, seed=0).fit(x)
        assert km.cluster_centers_.shape == (3, 2)
        # Every true centre should have a nearby learned centroid.
        for centre in [[0, 0], [5, 5], [-5, 5]]:
            dists = np.linalg.norm(km.cluster_centers_ - np.array(centre), axis=1)
            assert dists.min() < 1.0

    def test_kmeans_predict_consistent_with_labels(self, blobs):
        x, _ = blobs
        km = KMeans(n_clusters=3, seed=0).fit(x)
        assert np.array_equal(km.predict(x), km.labels_)

    def test_kmeans_transform_shape(self, blobs):
        x, _ = blobs
        km = KMeans(n_clusters=4, seed=0).fit(x)
        assert km.transform(x).shape == (len(x), 4)

    def test_kmeans_handles_fewer_points_than_clusters(self):
        x = np.random.default_rng(10).normal(size=(3, 2))
        km = KMeans(n_clusters=10, seed=0).fit(x)
        assert len(km.cluster_centers_) == 3

    def test_kmeans_requires_fit(self):
        with pytest.raises(RuntimeError):
            KMeans().predict(np.zeros((1, 2)))

    def test_pca_reconstruction_error_small_for_low_rank_data(self):
        rng = np.random.default_rng(11)
        basis = rng.normal(size=(2, 6))
        x = rng.normal(size=(100, 2)) @ basis
        pca = PCA(n_components=2).fit(x)
        assert pca.reconstruction_error(x).max() < 1e-9

    def test_pca_explained_variance_sums_below_one(self):
        x = np.random.default_rng(12).normal(size=(50, 5))
        pca = PCA(n_components=3).fit(x)
        assert 0 < pca.explained_variance_ratio_.sum() <= 1.0 + 1e-9

    def test_pca_transform_shape(self):
        x = np.random.default_rng(13).normal(size=(30, 8))
        assert PCA(n_components=4).fit_transform(x).shape == (30, 4)

    def test_pca_requires_fit(self):
        with pytest.raises(RuntimeError):
            PCA(n_components=2).transform(np.zeros((2, 4)))
