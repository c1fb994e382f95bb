"""``repro.ml`` — classical machine-learning algorithms built on NumPy.

These replace the scikit-learn estimators that the paper's baselines rely
on (KNN, SVC, AdaBoost, RandomForest, Ridge) plus the clustering /
decomposition / one-class tools that the TSAD detectors need.
"""

from .scalers import StandardScaler, zscore, zscore_rows
from .neighbors import KNeighborsClassifier, kneighbors, pairwise_sq_euclidean
from .linear import LogisticRegression, RidgeClassifier, RidgeRegression
from .svm import LinearSVC, OneClassSVM
from .tree import DecisionStump, DecisionTreeClassifier
from .ensemble import AdaBoostClassifier, RandomForestClassifier
from .cluster import KMeans, PCA

__all__ = [
    "StandardScaler", "zscore", "zscore_rows",
    "KNeighborsClassifier", "kneighbors", "pairwise_sq_euclidean",
    "LogisticRegression", "RidgeClassifier", "RidgeRegression",
    "LinearSVC", "OneClassSVM",
    "DecisionStump", "DecisionTreeClassifier",
    "AdaBoostClassifier", "RandomForestClassifier",
    "KMeans", "PCA",
]
