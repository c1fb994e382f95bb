"""Where the traced run puts its wrappers, and the per-layer metrics.

Every span is named after the ``src/repro`` module whose code it times
(``detectors``, ``eval``, ``data``, ``text``, ``core``, ``nn``,
``selectors``, ``cascade``, ``serving``, ``streaming``, ``distill``,
``system``).  Wrappers sit on the public functions and methods the
workloads drive; the ``nn`` wrappers sit on the selector's own module
instances only, so a neural detector's layers never count as ``nn``.
Counts and ratios are read from the program's public stats, never from
the spans.
"""

from __future__ import annotations

from typing import Dict

from tracer import Tracer

#: the paper's 12-model candidate set, in its reporting order
DETECTORS = ("IForest", "IForest1", "LOF", "HBOS", "MP", "NORMA",
             "PCA", "AE", "LSTM-AD", "POLY", "CNN", "OCSVM")

#: per-layer metric -> unit; every traced run prints all of them (a layer a
#: workload never enters reads 0)
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"detectors.{name}_s": "s" for name in DETECTORS},
    "eval.metric_s": "s",
    "eval.aggregate_s": "s",
    "data.windows_s": "s",
    "text.encode_s": "s",
    "core.pruner_s": "s",
    "core.loss_s": "s",
    "core.kept_ratio": "fraction",
    "nn.Conv1d_s": "s",
    "nn.BatchNorm1d_s": "s",
    "nn.Linear_s": "s",
    "nn.other_s": "s",
    "nn.backward_s": "s",
    "nn.optim_s": "s",
    "selectors.teacher_s": "s",
    "selectors.teacher_windows": "windows",
    "selectors.student_s": "s",
    "selectors.student_windows": "windows",
    "cascade.admit_s": "s",
    "cascade.mask_s": "s",
    "cascade.escalated_ratio": "fraction",
    "serving.fingerprint_s": "s",
    "serving.cache_hit_ratio": "fraction",
    "serving.transform_hit_ratio": "fraction",
    "streaming.flush_s": "s",
    "streaming.scorer_s": "s",
    "streaming.full_rescores": "count",
    "streaming.tail_rescores": "count",
    "streaming.forward_windows": "windows",
    "distill.student_s": "s",
    "system.store_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

_NN_LEAVES = {"Conv1d": "nn.Conv1d", "BatchNorm1d": "nn.BatchNorm1d", "Linear": "nn.Linear"}


def _rows(windows, *args, **kwargs) -> int:
    """Row count of the windows a selector's forward receives."""
    return len(windows)


def trace_detectors(tracer: Tracer, model_set) -> None:
    """Inclusive (opaque) span per detector call, ``detect`` or ``score``."""
    for name, detector in model_set.items():
        for method in ("detect", "score"):
            tracer.patch(detector, method, f"detectors.{name}", opaque=True)


def trace_selector(tracer: Tracer, selector, role: str) -> None:
    """Spans on one selector (``role`` is ``teacher`` or ``student``).

    The selector's ``predict_proba`` and ``forward`` are its own layer; each
    of its module instances gets an ``nn`` span by layer type.  A student's
    static feature transform is part of the student, not of ``nn``.
    """
    layer = f"selectors.{role}"
    selector.build()
    tracer.patch(selector, "predict_proba", layer)
    tracer.patch(selector, "forward", layer, count=_rows)
    for module in (selector.encoder, selector.classifier):
        for _, sub in module.named_modules():
            tracer.patch(sub, "forward", _NN_LEAVES.get(type(sub).__name__, "nn.other"))
    if hasattr(selector.encoder, "transform"):
        tracer.patch(selector.encoder, "transform", layer)


def trace_training(tracer: Tracer) -> None:
    """Class-level spans on the training loop's collaborators."""
    from repro import nn
    from repro.core.mki import MKIModule
    from repro.core.pisl import PISLLoss
    from repro.core.pruning import PAPruner
    from repro.text import HashingTextEncoder

    tracer.patch(HashingTextEncoder, "encode", "text.encode")
    for method in ("setup", "select", "update"):
        tracer.patch(PAPruner, method, "core.pruner")
    tracer.patch(PISLLoss, "__call__", "core.loss")
    tracer.patch(MKIModule, "loss", "core.loss")
    tracer.patch(nn.Tensor, "backward", "nn.backward")
    for method in ("zero_grad", "clip_grad_norm", "step"):
        tracer.patch(nn.Adam, method, "nn.optim")


def trace_data_and_eval(tracer: Tracer) -> None:
    """Module-level spans on windowing and vote aggregation call sites."""
    import repro.data.windows as windows
    import repro.eval.evaluation as evaluation
    import repro.serving.service as service
    import repro.streaming.buffer as buffer
    import repro.streaming.selector as streaming_selector

    tracer.patch(windows, "extract_windows", "data.windows")
    tracer.patch(evaluation, "extract_windows", "data.windows")
    tracer.patch(streaming_selector, "extract_windows", "data.windows")
    tracer.patch(service, "extract_windows_batch", "data.windows")
    tracer.patch(buffer, "extract_new_windows", "data.windows")
    for module in (evaluation, service, streaming_selector):
        tracer.patch(module, "aggregate_window_probas", "eval.aggregate")


def trace_serving(tracer: Tracer, service, router) -> None:
    tracer.patch(service, "fingerprint", "serving.fingerprint")
    tracer.patch(router, "admit", "cascade.admit")
    tracer.patch(router, "escalate_mask", "cascade.mask")


def trace_streaming(tracer: Tracer, engine) -> None:
    from repro.streaming.scorer import OnlineScorer

    tracer.patch(engine, "flush", "streaming.flush")
    tracer.patch(OnlineScorer, "update", "streaming.scorer")


def per_layer_metrics(tracer: Tracer, setup_tracer: Tracer, timed_s: float,
                      untraced_s: float, stats: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (unentered layers read 0).

    ``setup_tracer`` timed the set-up boundaries (``distill``, ``system``);
    ``stats`` carries the counts and ratios the workload read from the
    program's public stats.
    """
    totals = dict(tracer.self_times())
    for name, value in setup_tracer.self_times().items():
        totals[name] = totals.get(name, 0.0) + value
    values = {metric: float(totals.get(metric[:-2], 0.0)) if metric.endswith("_s") else 0.0
              for metric in PER_LAYER_UNITS}
    values["selectors.teacher_windows"] = float(tracer.counts.get("selectors.teacher", 0))
    values["selectors.student_windows"] = float(tracer.counts.get("selectors.student", 0))
    values.update({k: float(v) for k, v in stats.items()})
    values["trace.unattributed_s"] = max(timed_s - tracer.top_level_s(), 0.0)
    values["trace.overhead_ratio"] = timed_s / untraced_s if untraced_s > 0 else 0.0
    return values
