"""NN-based selectors: an encoder ``E_T`` plus a linear classifier ``C_T``.

These are the selectors that KDSelector improves.  Their ``fit`` delegates
to :class:`repro.core.trainer.SelectorTrainer`, so the same class covers the
"standard" learning framework (hard-label cross entropy, Fig. 2 top) and the
knowledge-enhanced / pruned variants (PISL, MKI, PA) simply by passing a
different trainer configuration.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..data.windows import SelectorDataset
from .base import Selector, register_selector
from .encoders import (
    ConvNetEncoder,
    InceptionTimeEncoder,
    LSTMEncoder,
    MLPEncoder,
    ResNetEncoder,
    TransformerEncoder,
)


class NNSelector(Selector):
    """Base class of every neural selector (encoder + linear classifier)."""

    is_neural = True
    #: windows per inference forward.  Measured on the conv selectors,
    #: 32-64 windows keep the im2col working set inside cache; larger
    #: chunks are slower per window, smaller ones pay Python overhead.
    predict_chunk = 64

    def __init__(
        self,
        window: int = 128,
        n_classes: int = 12,
        epochs: int = 10,
        batch_size: int = 64,
        lr: float = 1e-3,
        seed: int = 0,
        **arch_kwargs,
    ) -> None:
        self.window = window
        self.n_classes = n_classes
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.arch_kwargs = dict(arch_kwargs)
        self.encoder: Optional[nn.Module] = None
        self.classifier: Optional[nn.Linear] = None

    # ------------------------------------------------------------------ #
    # model construction
    # ------------------------------------------------------------------ #
    def _make_encoder(self) -> nn.Module:
        raise NotImplementedError

    def build(self, window: Optional[int] = None, n_classes: Optional[int] = None) -> "NNSelector":
        """Instantiate the encoder and classifier (idempotent)."""
        if window is not None:
            self.window = window
        if n_classes is not None:
            self.n_classes = n_classes
        if self.encoder is None:
            nn.init.set_seed(self.seed)
            self.encoder = self._make_encoder()
            self.classifier = nn.Linear(self.encoder.feature_dim, self.n_classes)
        return self

    @property
    def feature_dim(self) -> int:
        if self.encoder is None:
            raise RuntimeError("selector is not built yet; call build() or fit() first")
        return self.encoder.feature_dim

    def parameters(self):
        self.build()
        return self.encoder.parameters() + self.classifier.parameters()

    def train_mode(self, mode: bool = True) -> None:
        if self.encoder is not None:
            self.encoder.train(mode)
            self.classifier.train(mode)

    # ------------------------------------------------------------------ #
    # forward passes
    # ------------------------------------------------------------------ #
    @staticmethod
    def _to_input(windows: np.ndarray) -> nn.Tensor:
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[:, None, :]
        return nn.Tensor(windows)

    def static_input(self, windows: np.ndarray):
        """The gradient-free prefix of :meth:`forward`: what the encoder reads.

        Here it is the ``(N, 1, L)`` windows tensor in the policy dtype; the
        student's prefix is its static window features.  Row ``i`` depends
        on window ``i`` alone, so :class:`repro.core.trainer.SelectorTrainer`
        runs the prefix once per fit and indexes its rows per minibatch.
        """
        return self._to_input(windows)

    def forward_static(self, rows) -> Tuple[nn.Tensor, nn.Tensor]:
        """Return (logits, features) for rows of :meth:`static_input`."""
        features = self.encoder(rows)
        logits = self.classifier(features)
        return logits, features

    def forward(self, windows: np.ndarray) -> Tuple[nn.Tensor, nn.Tensor]:
        """Return (logits, features) for a batch of windows."""
        self.build()
        return self.forward_static(self.static_input(windows))

    def encode(self, windows: np.ndarray) -> np.ndarray:
        """Feature vectors ``z_T`` without gradient tracking."""
        self.build()
        self.train_mode(False)
        with nn.no_grad():
            features = self.encoder(self.static_input(windows))
        return features.numpy()

    # ------------------------------------------------------------------ #
    # Selector interface
    # ------------------------------------------------------------------ #
    def fit(self, dataset: SelectorDataset, config=None) -> "NNSelector":
        """Train with the standard framework, or with KDSelector modules.

        ``config`` is a :class:`repro.core.config.TrainerConfig`; when it is
        omitted a plain configuration (hard labels only, no pruning) built
        from this selector's ``epochs`` / ``batch_size`` / ``lr`` is used.
        """
        from ..core.config import TrainerConfig
        from ..core.trainer import SelectorTrainer

        if config is None:
            config = TrainerConfig(epochs=self.epochs, batch_size=self.batch_size, lr=self.lr, seed=self.seed)
        trainer = SelectorTrainer(self, config)
        self.last_report_ = trainer.fit(dataset)
        return self

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """Class probabilities, one forward per :attr:`predict_chunk` windows.

        Every layer of the no-grad forward computes each row on its own
        (per-sample conv GEMMs, row-wise norms and pooling, one single-row
        product per row in :meth:`repro.nn.Tensor.matmul`), so a window's
        bits never depend on how many windows arrived with it — which is
        what lets batch, serve, stream and shards agree bitwise.
        """
        self.build()
        self.train_mode(False)
        windows = np.asarray(windows)
        proba = np.empty((len(windows), self.n_classes), dtype=np.float64)
        with nn.no_grad():
            for start in range(0, len(windows), self.predict_chunk):
                chunk = windows[start:start + self.predict_chunk]
                logits, _ = self.forward(chunk)
                proba[start:start + len(chunk)] = nn.functional.softmax(
                    logits, axis=-1).numpy()
        return proba

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(window={self.window}, n_classes={self.n_classes})"


@register_selector("ConvNet", neural=True)
class ConvNetSelector(NNSelector):
    """Convolutional selector (spatial feature learning baseline)."""

    def _make_encoder(self) -> nn.Module:
        return ConvNetEncoder(**self.arch_kwargs)


@register_selector("ResNet", neural=True)
class ResNetSelector(NNSelector):
    """ResNet selector — the paper's default architecture."""

    def _make_encoder(self) -> nn.Module:
        return ResNetEncoder(**self.arch_kwargs)


@register_selector("InceptionTime", neural=True)
class InceptionTimeSelector(NNSelector):
    """InceptionTime selector (multi-scale convolutional kernels)."""

    def _make_encoder(self) -> nn.Module:
        return InceptionTimeEncoder(**self.arch_kwargs)


@register_selector("Transformer", neural=True)
class TransformerSelector(NNSelector):
    """Transformer selector with a convolutional stem (SiT-stem)."""

    def _make_encoder(self) -> nn.Module:
        kwargs = dict(self.arch_kwargs)
        kwargs.setdefault("seed", self.seed)
        return TransformerEncoder(**kwargs)


@register_selector("MLP", neural=True)
class MLPSelector(NNSelector):
    """Plain MLP selector over the flattened window."""

    def _make_encoder(self) -> nn.Module:
        return MLPEncoder(window=self.window, **self.arch_kwargs)


@register_selector("LSTMSelector", neural=True)
class LSTMSelector(NNSelector):
    """Recurrent selector using the final LSTM hidden state."""

    def _make_encoder(self) -> nn.Module:
        return LSTMEncoder(**self.arch_kwargs)
