"""``repro.selectors`` — the selector zoo (15 selectors, NN and non-NN).

NN-based selectors (KDSelector-compatible): ConvNet, ResNet, InceptionTime,
Transformer, MLP, LSTMSelector.  Non-NN selectors: feature-based KNN, SVC,
AdaBoost, RandomForest, LogisticRegression, DecisionTree, Ridge, the
kernel-based Rocket, and a raw-window 1-NN.
"""

from .base import Selector, make_selector, register_selector, selector_names
from .encoders import (
    ConvNetEncoder,
    InceptionTimeEncoder,
    LSTMEncoder,
    MLPEncoder,
    ResNetEncoder,
    TransformerEncoder,
)
from .features import FEATURE_NAMES, extract_features
from .nn_selector import (
    ConvNetSelector,
    InceptionTimeSelector,
    LSTMSelector,
    MLPSelector,
    NNSelector,
    ResNetSelector,
    TransformerSelector,
)
from .classical import (
    AdaBoostSelector,
    DecisionTreeSelector,
    FeatureSelector,
    KNNSelector,
    LogisticRegressionSelector,
    NearestNeighborRawSelector,
    RandomForestSelector,
    RidgeSelector,
    SVCSelector,
)
from .ensemble_selector import SelectorEnsemble
from .rocket import RocketFeatureTransform, RocketSelector
from .student import StaticFeatureEncoder, StudentSelector
from .teacher_int8 import Int8TeacherSelector

__all__ = [
    "Selector", "make_selector", "register_selector", "selector_names",
    "ConvNetEncoder", "InceptionTimeEncoder", "LSTMEncoder", "MLPEncoder",
    "ResNetEncoder", "TransformerEncoder",
    "FEATURE_NAMES", "extract_features",
    "NNSelector", "ConvNetSelector", "ResNetSelector", "InceptionTimeSelector",
    "TransformerSelector", "MLPSelector", "LSTMSelector",
    "FeatureSelector", "KNNSelector", "SVCSelector", "AdaBoostSelector",
    "RandomForestSelector", "LogisticRegressionSelector", "DecisionTreeSelector",
    "RidgeSelector", "NearestNeighborRawSelector",
    "RocketFeatureTransform", "RocketSelector",
    "SelectorEnsemble",
    "StaticFeatureEncoder", "StudentSelector", "Int8TeacherSelector",
]
