"""The three neural detectors of the candidate set: AE, LSTM-AD and CNN.

Each trains a small ``repro.nn`` network on the series it scores, and all
three train it the same way (:meth:`NeuralDetector._fit_forward`): Adam on
the mean squared error over a seeded subsample of rows, then one no-grad
forward over every row.  AE reconstructs z-normalised windows and scores
a window by its reconstruction error.  LSTM-AD and CNN are one forecaster
(:class:`ForecastingDetector`) with different networks: each predicts a
point from the points before it and scores the point by the error.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..ml.scalers import zscore, zscore_rows
from .base import AnomalyDetector, register_detector, sliding_windows, window_scores_to_point_scores

#: Rows per no-grad scoring forward.  It bounds the forward's memory and
#: never changes a score: a no-grad ``Tensor.matmul`` runs one product per
#: row, so each row's output does not depend on the rows beside it.
_SCORE_CHUNK = 1024


class _AutoEncoder(nn.Module):
    """Small MLP autoencoder over fixed-length windows."""

    def __init__(self, window: int, latent: int = 8, hidden: int = 32) -> None:
        super().__init__()
        self.encoder = nn.Sequential(nn.Linear(window, hidden), nn.ReLU(), nn.Linear(hidden, latent))
        self.decoder = nn.Sequential(nn.Linear(latent, hidden), nn.ReLU(), nn.Linear(hidden, window))

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.decoder(self.encoder(x))


class _LSTMForecaster(nn.Module):
    """LSTM that predicts the next value from a context window."""

    def __init__(self, hidden: int = 16) -> None:
        super().__init__()
        self.lstm = nn.LSTM(1, hidden)
        self.head = nn.Linear(hidden, 1)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        # x: (N, T) -> one input feature per step (N, T, 1) -> prediction (N,)
        states = self.lstm(x.reshape(*x.shape, 1))
        last = states[:, -1, :]
        return self.head(last).reshape(-1)


class _CNNForecaster(nn.Module):
    """Two convolution blocks followed by a linear head predicting the next value."""

    def __init__(self, channels: int = 16) -> None:
        super().__init__()
        self.conv1 = nn.Conv1d(1, channels, kernel_size=3, padding=1)
        self.conv2 = nn.Conv1d(channels, channels, kernel_size=3, padding=1)
        self.head = nn.Linear(channels, 1)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        # x: (N, T) -> one input channel (N, 1, T) -> prediction (N,)
        h = self.conv1(x.reshape(x.shape[0], 1, x.shape[1])).relu()
        h = self.conv2(h).relu()
        pooled = h.mean(axis=2)
        return self.head(pooled).reshape(-1)


class NeuralDetector(AnomalyDetector):
    """A detector that trains a fresh network on every series it scores."""

    def __init__(self, window: int, epochs: int, batch_size: int, lr: float,
                 max_train_windows: int, seed: int) -> None:
        super().__init__(window)
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.max_train_windows = max_train_windows
        self.seed = seed

    def _network(self, width: int) -> nn.Module:
        """A freshly initialised network over rows of ``width`` values."""
        raise NotImplementedError

    def _fit_forward(self, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Fit a network from ``inputs`` rows to ``targets``; return its output on every row.

        It trains on up to ``max_train_windows`` rows drawn without
        replacement, each epoch in a fresh order from the same seeded
        generator.  The output keeps the network's dtype.
        """
        rng = np.random.default_rng(self.seed)
        train = np.arange(len(inputs))
        if len(inputs) > self.max_train_windows:
            train = rng.choice(len(inputs), size=self.max_train_windows, replace=False)

        nn.init.set_seed(self.seed)
        model = self._network(inputs.shape[1])
        opt = nn.Adam(model.parameters(), lr=self.lr)
        for _ in range(self.epochs):
            order = rng.permutation(train)
            for start in range(0, len(order), self.batch_size):
                batch = order[start:start + self.batch_size]
                loss = nn.mse_loss(model(nn.Tensor(inputs[batch])), targets[batch])
                opt.zero_grad()
                loss.backward()
                opt.step()

        model.eval()
        with nn.no_grad():
            return np.concatenate([model(nn.Tensor(inputs[start:start + _SCORE_CHUNK])).numpy()
                                   for start in range(0, len(inputs), _SCORE_CHUNK)])


@register_detector("AE")
class AutoEncoderDetector(NeuralDetector):
    """Project windows into a latent space and score by reconstruction error."""

    def __init__(
        self,
        window: int = 32,
        latent: int = 8,
        hidden: int = 32,
        epochs: int = 10,
        batch_size: int = 64,
        lr: float = 1e-2,
        max_train_windows: int = 512,
        seed: int = 0,
    ) -> None:
        super().__init__(window, epochs, batch_size, lr, max_train_windows, seed)
        self.latent = latent
        self.hidden = hidden

    def _network(self, width: int) -> nn.Module:
        return _AutoEncoder(width, latent=min(self.latent, width // 2), hidden=self.hidden)

    def score(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64).ravel()
        window = self.effective_window(series)
        z = zscore_rows(sliding_windows(series, window))
        window_scores = ((self._fit_forward(z, z) - z) ** 2).mean(axis=1)
        return window_scores_to_point_scores(window_scores, len(series), window)


class ForecastingDetector(NeuralDetector):
    """Predict each point from the ``context`` points before it; score by the absolute error.

    The series is z-normalised as a whole.  The context shrinks to a
    quarter of the series, but not below 4 points, and never to the whole
    series, so a 4-point series has one 3-point context.  The first
    ``context`` points, which no context precedes, take the first error.
    ``window`` is accepted and ignored.
    """

    def __init__(self, window: int, context: int, epochs: int, batch_size: int, lr: float,
                 max_train_windows: int, seed: int) -> None:
        super().__init__(window, epochs, batch_size, lr, max_train_windows, seed)
        self.context = context

    def score(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64).ravel()
        context = min(max(4, min(self.context, len(series) // 4)), len(series) - 1)
        blocks = sliding_windows(zscore(series), context + 1)
        targets = blocks[:, context]
        errors = np.abs(self._fit_forward(blocks[:, :context], targets) - targets)
        return np.concatenate([np.full(context, errors[0]), errors])


@register_detector("LSTM-AD")
class LSTMADDetector(ForecastingDetector):
    """Forecast with an LSTM; training subsamples the context windows to keep
    the oracle labelling pass fast."""

    def __init__(
        self,
        window: int = 32,
        context: int = 16,
        hidden: int = 16,
        epochs: int = 3,
        batch_size: int = 64,
        lr: float = 1e-2,
        max_train_windows: int = 256,
        seed: int = 0,
    ) -> None:
        super().__init__(window, context, epochs, batch_size, lr, max_train_windows, seed)
        self.hidden = hidden

    def _network(self, width: int) -> nn.Module:
        return _LSTMForecaster(hidden=self.hidden)


@register_detector("CNN")
class CNNDetector(ForecastingDetector):
    """Forecast with a small CNN."""

    def __init__(
        self,
        window: int = 32,
        context: int = 16,
        channels: int = 16,
        epochs: int = 5,
        batch_size: int = 64,
        lr: float = 1e-2,
        max_train_windows: int = 384,
        seed: int = 0,
    ) -> None:
        super().__init__(window, context, epochs, batch_size, lr, max_train_windows, seed)
        self.channels = channels

    def _network(self, width: int) -> nn.Module:
        return _CNNForecaster(channels=self.channels)
