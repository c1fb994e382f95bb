"""KDSelector reproduction.

A knowledge-enhanced and data-efficient model-selector learning framework
for time series anomaly detection (Liang et al., SIGMOD-Companion 2025),
rebuilt from scratch on NumPy.

Sub-packages
------------
``repro.nn``
    NumPy autodiff neural-network substrate (replaces PyTorch).
``repro.ml``
    Classical machine-learning algorithms (replaces scikit-learn).
``repro.detectors``
    The 12 candidate TSAD models of the paper's model set.
``repro.data``
    Synthetic TSB-UAD-style benchmark: 16 dataset families, windowing,
    metadata and train/test splits.
``repro.text``
    Frozen text encoder standing in for BERT embeddings (MKI input).
``repro.selectors``
    The selector zoo: NN classifiers (ConvNet/ResNet/InceptionTime/
    Transformer) and non-NN baselines (feature-based and Rocket).
``repro.core``
    The KDSelector framework itself: PISL, MKI, PA, InfoBatch and the
    selector trainer.
``repro.eval``
    Anomaly-detection metrics (AUC-PR, AUC-ROC, ...) and selection
    evaluation (oracle labelling, majority voting).
``repro.system``
    End-to-end system: selector store, model-selection pipeline and
    anomaly-detection runner.
``repro.serving``
    Batched, cached selection serving: content-addressed LRU result cache,
    batched window extraction + forward passes, forked oracle fan-out.
``repro.accel``
    Shared fast-kernel layer: diagonal/FFT matrix-profile kernels, tiled
    memory-budgeted distance kernels, the precision policy and runtime
    budgets that detectors, ``repro.ml`` and streaming route through.
``repro.streaming``
    Incremental selection + detection engine for live series: running
    votes, drift monitoring, online scoring.
``repro.service``
    Sharded multi-process service over the streaming engine: a fixed
    shard count with hash-modulo routing, shared-memory handoff,
    supervised recovery.
``repro.obs``
    Observability: metrics registry with Prometheus exposition, explicit-
    clock tracing, replayable selection audit trail, ``explain``.
"""

__version__ = "1.0.0"

from . import nn  # noqa: F401  (re-exported for convenience)

__all__ = ["nn", "__version__"]


def __getattr__(name):
    """Lazily import the heavier sub-packages on first attribute access.

    ``import repro`` stays cheap, while ``repro.core`` / ``repro.system``
    etc. remain available without explicit sub-imports.
    """
    import importlib

    if name in {"ml", "detectors", "data", "text", "selectors", "core", "eval", "system", "serving", "accel", "streaming", "service", "obs"}:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
