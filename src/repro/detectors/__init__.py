"""``repro.detectors`` — the 12-model TSAD candidate set from the paper.

Each detector is an unsupervised scorer: ``detect(series)`` returns one
anomaly score per point, normalised to [0, 1].  The set mirrors Table 5 of
the paper: IForest, IForest1, LOF, HBOS, MP, NORMA, PCA, AE, LSTM-AD, POLY,
CNN, OCSVM.
"""

from .base import (
    DEFAULT_MODEL_NAMES,
    AnomalyDetector,
    NonFiniteSeriesError,
    detector_names,
    make_default_model_set,
    make_detector,
    normalize_scores,
    register_detector,
    sliding_windows,
    window_scores_to_point_scores,
)
from .ensemble import DetectorEnsemble
from .iforest import IForest1Detector, IForestDetector, IsolationForest
from .lof import LOFDetector, local_outlier_factor
from .hbos import HBOSDetector, hbos_scores
from .matrix_profile import MatrixProfileDetector, matrix_profile
from .norma import NormaDetector
from .pca import PCADetector
from .autoencoder import AutoEncoderDetector
from .lstm_ad import LSTMADDetector
from .poly import PolyDetector
from .cnn_ad import CNNDetector
from .ocsvm import OCSVMDetector

__all__ = [
    "DEFAULT_MODEL_NAMES",
    "DetectorEnsemble",
    "AnomalyDetector", "NonFiniteSeriesError", "detector_names", "make_default_model_set", "make_detector",
    "normalize_scores", "register_detector", "sliding_windows", "window_scores_to_point_scores",
    "IForestDetector", "IForest1Detector", "IsolationForest",
    "LOFDetector", "local_outlier_factor",
    "HBOSDetector", "hbos_scores",
    "MatrixProfileDetector", "matrix_profile",
    "NormaDetector", "PCADetector", "AutoEncoderDetector", "LSTMADDetector",
    "PolyDetector", "CNNDetector", "OCSVMDetector",
]
