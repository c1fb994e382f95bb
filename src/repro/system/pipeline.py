"""End-to-end TSAD model selection pipeline.

Wires the system components of Fig. 1 together: historical data → oracle
labelling (Selector Learning's training knowledge) → windowed selector
dataset → selector learning (optionally with KDSelector modules) → model
selection for new series → anomaly detection with the selected model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.config import TrainerConfig
from ..data.records import TimeSeriesRecord
from ..data.windows import SelectorDataset, build_selector_dataset
from ..detectors.base import AnomalyDetector, make_default_model_set
from ..eval.evaluation import predict_for_series
from ..eval.oracle import Oracle
from ..selectors.base import Selector, make_selector, selector_names
from ..selectors.nn_selector import NNSelector
from .anomaly_detection import DetectionResult, run_detection


@dataclass
class PipelineConfig:
    """Scale and protocol knobs of the end-to-end pipeline."""

    window: int = 64
    stride: Optional[int] = 32
    detector_window: int = 24
    metric: str = "auc_pr"
    max_windows_per_series: Optional[int] = None
    cache_dir: Optional[Union[str, Path]] = None
    seed: int = 0
    #: forked-worker count of oracle labelling (0 = sequential)
    max_workers: int = 0


class ModelSelectionPipeline:
    """Train selectors on historical data and apply them to new series."""

    def __init__(
        self,
        model_set: Optional[Dict[str, AnomalyDetector]] = None,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.model_set = model_set or make_default_model_set(window=self.config.detector_window, fast=True)
        self.oracle = Oracle(self.model_set, metric=self.config.metric, cache_dir=self.config.cache_dir,
                             max_workers=self.config.max_workers)
        self.selector: Optional[Selector] = None
        self.train_dataset: Optional[SelectorDataset] = None

    # ------------------------------------------------------------------ #
    # historical data preparation
    # ------------------------------------------------------------------ #
    @property
    def detector_names(self) -> List[str]:
        return self.oracle.detector_names

    def label_history(self, records: Sequence[TimeSeriesRecord]) -> np.ndarray:
        """Run the oracle over historical series (cached when possible)."""
        return self.oracle.performance_matrix(records)

    def prepare_training_data(
        self,
        records: Sequence[TimeSeriesRecord],
        performance_matrix: Optional[np.ndarray] = None,
    ) -> SelectorDataset:
        """Build (and remember) the windowed selector training dataset."""
        if performance_matrix is None:
            performance_matrix = self.label_history(records)
        self.train_dataset = build_selector_dataset(
            records,
            performance_matrix,
            self.detector_names,
            window=self.config.window,
            stride=self.config.stride,
            max_windows_per_series=self.config.max_windows_per_series,
            seed=self.config.seed,
        )
        return self.train_dataset

    # ------------------------------------------------------------------ #
    # selector learning
    # ------------------------------------------------------------------ #
    def train_selector(
        self,
        selector: Union[str, Selector],
        dataset: Optional[SelectorDataset] = None,
        trainer_config: Optional[TrainerConfig] = None,
        **selector_kwargs,
    ) -> Selector:
        """Train (and remember) a selector on the prepared dataset.

        ``selector`` may be a registry name or an already constructed
        instance.  ``trainer_config`` is forwarded to NN selectors to enable
        the KDSelector modules; non-NN selectors ignore it.
        """
        dataset = dataset or self.train_dataset
        if dataset is None:
            raise RuntimeError("call prepare_training_data() first or pass a dataset")
        if isinstance(selector, str):
            selector_kwargs.setdefault("n_classes", dataset.n_classes)
            if selector in selector_names(neural=True):
                selector_kwargs.setdefault("window", dataset.windows.shape[1])
            selector = make_selector(selector, **selector_kwargs)

        if isinstance(selector, NNSelector):
            selector.fit(dataset, config=trainer_config)
        else:
            selector.fit(dataset)
        self.selector = selector
        return selector

    # ------------------------------------------------------------------ #
    # model selection & anomaly detection
    # ------------------------------------------------------------------ #
    def select_model(self, record: TimeSeriesRecord, aggregation: str = "vote") -> Dict[str, object]:
        """Predict the best TSAD model for one series (with vote breakdown)."""
        if self.selector is None:
            raise RuntimeError("no trained selector; call train_selector() first")
        choice, votes = predict_for_series(self.selector, record, self.config.window, aggregation)
        return {
            "selected_index": choice,
            "selected_model": self.detector_names[choice],
            "votes": {name: float(votes[i]) for i, name in enumerate(self.detector_names)},
        }

    def detect(self, record: TimeSeriesRecord, aggregation: str = "vote") -> DetectionResult:
        """Select a model for the series and run it (steps 2 + 3 of the demo)."""
        selection = self.select_model(record, aggregation)
        detector = self.model_set[selection["selected_model"]]
        return run_detection(record, detector, detector_name=selection["selected_model"])

    # ------------------------------------------------------------------ #
    # serving hand-off
    # ------------------------------------------------------------------ #
    def as_service(self, **config_overrides):
        """Wrap the trained selector in a batched, cached serving front end.

        Returns a :class:`repro.serving.SelectionService` configured with
        this pipeline's window settings; keyword arguments override fields
        of :class:`repro.serving.ServingConfig` (e.g. ``cache_capacity``,
        ``aggregation``).  The service produces selections bitwise identical
        to :meth:`select_model`, but batched and cached.
        """
        from ..serving.service import SelectionService, ServingConfig

        if self.selector is None:
            raise RuntimeError("no trained selector; call train_selector() first")
        config_overrides.setdefault("window", self.config.window)
        return SelectionService(
            self.selector, self.detector_names, ServingConfig(**config_overrides)
        )

    def as_stream_engine(self, score: bool = False,
                         model_set: Optional[Dict[str, AnomalyDetector]] = None,
                         **config_overrides):
        """Wrap the trained selector in an incremental multi-stream engine.

        Returns a :class:`repro.streaming.StreamEngine` configured with this
        pipeline's window settings; keyword arguments override fields of
        :class:`repro.streaming.StreamingConfig` (e.g. ``drift``,
        ``keep_last_on_drift``, ``rescore_every``).  Online per-point
        scoring is opt-in: ``score=True`` scores with the pipeline's own
        model set, ``model_set=...`` with a custom one.  Note that
        globally-scored detectors re-run full detection over the whole
        prefix every ``rescore_every`` points — raise that knob for
        high-frequency streams.  As long as no drift re-selection narrows a
        stream's vote, the engine's selections are bitwise identical to
        :meth:`select_model` on the same prefix.
        """
        from ..streaming.engine import StreamEngine, StreamingConfig

        if self.selector is None:
            raise RuntimeError("no trained selector; call train_selector() first")
        # stride is intentionally left at None (= non-overlapping): that is
        # the prediction-time windowing of select_model/predict_for_series
        # (the pipeline's stride only shapes the *training* dataset).
        config_overrides.setdefault("window", self.config.window)
        if score and model_set is None:
            model_set = self.model_set
        return StreamEngine(
            self.selector,
            self.detector_names,
            StreamingConfig(**config_overrides),
            model_set=model_set,
        )
