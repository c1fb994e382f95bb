"""Distilled student selectors — the serving fast path.

A :class:`StudentSelector` is a thin model over *static* window encodings:
the ~40-statistic feature catalogue of :mod:`repro.selectors.features`
and/or ROCKET (PPV, max) kernel features, followed by two small linear
layers.  It is trained from a teacher NN selector's soft labels by
:func:`repro.distill.distill_student` (reusing the PISL machinery), and
its feature extraction runs through the content-addressed transform cache
so repeated series skip it entirely.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .base import register_selector
from .features import FEATURE_NAMES, extract_features
from .nn_selector import NNSelector
from .rocket import RocketFeatureTransform

#: feature-set names accepted by the student encoder
STUDENT_FEATURE_SETS = ("stats", "rocket", "both")


def student_feature_dim(features: str, n_kernels: int) -> int:
    """Input dimensionality of the student for one feature-set choice."""
    if features == "stats":
        return len(FEATURE_NAMES)
    if features == "rocket":
        return 2 * n_kernels
    if features == "both":
        return len(FEATURE_NAMES) + 2 * n_kernels
    raise ValueError(f"unknown feature set {features!r}; expected one of {STUDENT_FEATURE_SETS}")


class StaticFeatureEncoder(nn.Module):
    """Static window encodings + one hidden layer.

    The trainable part is a single ``input_dim -> hidden`` linear + ReLU;
    everything upstream (statistics, ROCKET kernels, normalisation) is
    deterministic and gradient-free, which is what makes the student cheap
    enough for the serving fast path.  Normalisation statistics live in
    ``feat_mean`` / ``feat_scale`` buffers (set by :meth:`calibrate`) so
    they serialize with the model.  ROCKET kernels are *not* serialized:
    they are re-fit deterministically from ``(seed, n_kernels, window)``.
    """

    def __init__(self, window: int, hidden: int = 64, features: str = "stats",
                 n_kernels: int = 96, seed: int = 0) -> None:
        super().__init__()
        if features not in STUDENT_FEATURE_SETS:
            raise ValueError(f"unknown feature set {features!r}; expected one of {STUDENT_FEATURE_SETS}")
        self.window = int(window)
        self.features = features
        self.n_kernels = int(n_kernels)
        self.seed = int(seed)
        self.input_dim = student_feature_dim(features, self.n_kernels)
        self.feature_dim = int(hidden)
        self.register_buffer("feat_mean", np.zeros(self.input_dim, dtype=np.float64))
        self.register_buffer("feat_scale", np.ones(self.input_dim, dtype=np.float64))
        self.fc1 = nn.Linear(self.input_dim, self.feature_dim)
        self.act = nn.ReLU()

    # ------------------------------------------------------------------ #
    # static transforms
    # ------------------------------------------------------------------ #
    def _rocket(self) -> RocketFeatureTransform:
        rocket = self.__dict__.get("_rocket_transform")
        if rocket is None:
            rocket = RocketFeatureTransform(n_kernels=self.n_kernels, seed=self.seed).fit(self.window)
            self.__dict__["_rocket_transform"] = rocket
        return rocket

    def transform(self, windows: np.ndarray) -> np.ndarray:
        """Raw static features of a 2-D windows matrix (through the transform cache)."""
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected a (n, window) matrix, got shape {x.shape}")
        parts = []
        if self.features in ("stats", "both"):
            parts.append(self._cached(x, "stats_features", extract_features))
        if self.features in ("rocket", "both"):
            rocket = self._rocket()
            rocket_id = f"rocket:{self.seed}:{self.n_kernels}:{self.window}"
            parts.append(self._cached(x, rocket_id, rocket.transform))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    @staticmethod
    def _cached(x: np.ndarray, transform_id: str, fn) -> np.ndarray:
        from ..serving.transform_cache import cached_transform  # deferred: serving imports selectors

        return cached_transform(x, transform_id, fn)

    def calibrate(self, windows: np.ndarray) -> "StaticFeatureEncoder":
        """Fit the normalisation buffers on (training/calibration) windows."""
        feats = self.transform(np.asarray(windows, dtype=np.float64))
        mean = feats.mean(axis=0)
        scale = np.maximum(feats.std(axis=0), 1e-8)
        self.update_buffer("feat_mean", mean.astype(np.float64))
        self.update_buffer("feat_scale", scale.astype(np.float64))
        return self

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, feats: np.ndarray) -> nn.Tensor:
        """Hidden features of raw :meth:`transform` rows (the learnable rest)."""
        # normalising allocates a fresh array, so read-only cached transform
        # outputs are never mutated
        return self.act(self.fc1(nn.Tensor((feats - self.feat_mean) / self.feat_scale)))


@register_selector("Student", neural=True)
class StudentSelector(NNSelector):
    """Distilled fast-path selector: static features -> two thin layers."""

    def __init__(self, window: int = 128, n_classes: int = 12, epochs: int = 25,
                 batch_size: int = 64, lr: float = 1e-2, seed: int = 0,
                 hidden: int = 64, features: str = "stats", n_kernels: int = 96) -> None:
        super().__init__(window=window, n_classes=n_classes, epochs=epochs,
                         batch_size=batch_size, lr=lr, seed=seed,
                         hidden=hidden, features=features, n_kernels=n_kernels)

    def static_input(self, windows: np.ndarray) -> np.ndarray:
        """Raw static features of the windows as :meth:`_to_input` casts them.

        In float32 that is the float32-rounded windows, so the features a
        fit indexes are those a per-minibatch forward would compute.
        """
        return self.encoder.transform(self._to_input(windows).data[:, 0, :])

    def _make_encoder(self) -> nn.Module:
        return StaticFeatureEncoder(
            window=self.window,
            hidden=self.arch_kwargs.get("hidden", 64),
            features=self.arch_kwargs.get("features", "stats"),
            n_kernels=self.arch_kwargs.get("n_kernels", 96),
            seed=self.seed,
        )
