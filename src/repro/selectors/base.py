"""Selector interface and registry.

A *selector* is a time-series classifier that maps a fixed-length window to
one of the TSAD models in the candidate set (Definition 2.1 in the paper).
The system supports two kinds:

* **NN-based selectors** (ConvNet, ResNet, InceptionTime, Transformer, MLP,
  LSTM) — an encoder ``E_T`` producing a feature vector ``z_T`` plus a
  linear classifier ``C_T``.  These are the selectors KDSelector improves.
* **non-NN selectors** (feature-based classical classifiers, Rocket,
  1-NN) — trained directly by their own ``fit``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Type

import numpy as np

from ..data.windows import SelectorDataset


class Selector(ABC):
    """Base class of every selector in the zoo."""

    #: registry name, filled by :func:`register_selector`
    name: str = "base"
    #: whether the selector is a neural network (and thus KDSelector-compatible)
    is_neural: bool = False

    @abstractmethod
    def fit(self, dataset: SelectorDataset, **kwargs) -> "Selector":
        """Train the selector on a windowed dataset."""

    @abstractmethod
    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """Return per-window probabilities over the TSAD model set (N, m)."""

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Return the per-window index of the selected TSAD model."""
        return self.predict_proba(windows).argmax(axis=1)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"


_SELECTOR_REGISTRY: Dict[str, Type[Selector]] = {}


def register_selector(name: str, neural: bool = False):
    """Class decorator registering a selector under ``name``."""

    def wrap(cls: Type[Selector]) -> Type[Selector]:
        cls.name = name
        cls.is_neural = neural
        _SELECTOR_REGISTRY[name] = cls
        return cls

    return wrap


def selector_names(neural: Optional[bool] = None) -> List[str]:
    """Names of registered selectors, optionally filtered by kind."""
    names = []
    for name, cls in _SELECTOR_REGISTRY.items():
        if neural is None or cls.is_neural == neural:
            names.append(name)
    return names


def make_selector(name: str, **kwargs) -> Selector:
    """Instantiate a registered selector by name."""
    if name not in _SELECTOR_REGISTRY:
        raise KeyError(f"unknown selector {name!r}; available: {sorted(_SELECTOR_REGISTRY)}")
    return _SELECTOR_REGISTRY[name](**kwargs)
