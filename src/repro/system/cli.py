"""Command-line interface to the TSAD model-selection system.

Exposes the demo system's workflow as sub-commands so that the pipeline can
be driven without writing Python:

* ``generate-data`` — synthesise benchmark series to CSV files.
* ``label``         — run the detector oracle over a directory of series and
  store the performance matrix.
* ``train``         — train a selector (optionally with PISL / MKI / PA) on
  labelled historical data and save it to a selector store.
* ``evaluate``      — evaluate a stored selector on labelled series.
* ``select``        — predict the best TSAD model for one series.
* ``detect``        — select a model and run it, printing the metrics.
* ``distill``       — distill a stored teacher selector into a fast student
  and save it next to the teacher, with a calibrated cascade margin
  threshold stamped on its metadata.
* ``train-cost-model`` — harvest ``cost_observation`` events from recorded
  audit logs and fit the cascade's per-tier latency cost model.
* ``batch-select``  — serve a whole directory of series through the batched,
  cached selection service and report throughput + cache statistics.
* ``serve``         — long-running mode: read series file paths from stdin,
  answer each with one JSON line (cache kept warm across queries).
* ``stream``        — incremental mode: replay series files (or stdin ticks)
  as live streams through the streaming engine, one JSON line per update.
* ``serve-sharded`` — run the streaming engine across N supervised shard
  processes: replay series files through the sharded service, or listen on
  a TCP port for length-prefixed JSON requests.
* ``explain``       — explain a stream's selection (vote breakdown, winner
  margin, drift trajectory) from a recorded audit log or a running
  ``serve-sharded`` front end.
* ``metrics``       — fetch Prometheus text metrics from a running
  ``serve-sharded`` front end (router + every shard).
* ``list-selectors`` — show the contents of a selector store.

Run ``python -m repro.system.cli --help`` for details; ``docs/cli.md`` has a
worked example for every command.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import zipfile
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from ..core.config import MKIConfig, PISLConfig, PruningConfig, TrainerConfig
from ..data import generate_series
from ..data.loaders import load_series_directory, load_series_file, save_series_file
from ..data.records import DATASET_NAMES
from ..data.windows import build_selector_dataset, extract_windows
from ..detectors import make_default_model_set
from ..detectors.base import DEFAULT_MODEL_NAMES, NonFiniteSeriesError
from ..eval import Oracle, evaluate_selection, predict_for_series
from ..selectors import make_selector, selector_names
from ..selectors.nn_selector import NNSelector
from .anomaly_detection import run_detection
from .reporting import format_table
from .selector_store import CorruptSelectorError, SelectorStore


def _add_runtime_args(parser: argparse.ArgumentParser, workers: bool = False) -> None:
    """Shared runtime flags: precision and (``label``'s) worker fan-out.

    Defaults come from the environment (``REPRO_PRECISION``,
    ``REPRO_MAX_WORKERS``); the flags override it.
    """
    group = parser.add_argument_group("runtime")
    group.add_argument("--precision", choices=["float32", "float64"], default=None,
                       help="kernel precision (default: $REPRO_PRECISION or float64)")
    if workers:
        group.add_argument("--workers", type=int, default=None,
                           help="forked worker count, 0 = sequential "
                                "(default: $REPRO_MAX_WORKERS or 0)")


def _apply_runtime_args(args: argparse.Namespace) -> None:
    """Resolve the runtime flags against the environment, set the precision."""
    from ..accel import config as accel_config
    from ..accel.precision import set_default_precision

    if getattr(args, "precision", None) is not None:
        set_default_precision(args.precision)
    if hasattr(args, "workers"):
        args.workers = accel_config.default_max_workers(args.workers)


#: suffix appended to a teacher's store name per serving tier
_TIER_SUFFIX = {"teacher": "", "teacher-int8": "-int8", "student": "-student"}


def _tier_name(name: str, tier: str) -> str:
    """Store name of the selector serving one tier (``distill`` naming)."""
    return name + _TIER_SUFFIX[tier]


def _load_tier_selector(store: SelectorStore, name: str, tier: str):
    """Load the selector backing one serving tier, with a helpful error."""
    stored = _tier_name(name, tier)
    try:
        return store.load(stored)
    except KeyError:
        if tier == "teacher":
            raise SystemExit(f"no stored selector named {name!r}")
        if tier == "teacher-int8":
            raise SystemExit(
                f"no stored selector named {stored!r} — run the "
                f"quantize-teacher command on {name!r} first to produce "
                f"the int8 teacher tier")
        raise SystemExit(
            f"no stored selector named {stored!r} — run the distill command "
            f"on {name!r} first to produce the {tier} tier")


def _add_tier_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--selector-tier", default="teacher",
                        choices=list(_TIER_SUFFIX),
                        help="serve the named selector itself (teacher), its "
                             "quantized twin NAME-int8 produced by the "
                             "quantize-teacher command, or its distilled "
                             "companion NAME-student produced by the distill "
                             "command")


def _add_cascade_args(parser: argparse.ArgumentParser) -> None:
    """Cascade routing + SLO admission flags (batch-select/serve/stream/serve-sharded)."""
    group = parser.add_argument_group("cascade")
    group.add_argument("--cascade", action="store_true",
                       help="confidence-gated cascade: the distilled student "
                            "NAME-student answers windows whose top-1 margin "
                            "clears the calibrated threshold, the rest "
                            "escalate to the teacher (--selector-tier "
                            "teacher-int8 escalates to the quantized teacher "
                            "NAME-int8 instead)")
    group.add_argument("--cascade-threshold", type=float, default=None,
                       help="margin threshold override (default: the value "
                            "calibrated by the distill command, else 0.1)")
    group.add_argument("--cascade-seed", type=int, default=0,
                       help="seed of the deterministic tie-break for windows "
                            "landing exactly on the threshold")
    group.add_argument("--latency-slo-ms", type=float, default=None,
                       help="per-batch latency SLO in ms: admission picks the "
                            "best predicted-quality plan (teacher/cascade/fast) "
                            "fitting it, falling back to the cheapest "
                            "(audited + metered) when nothing fits")
    group.add_argument("--cost-model", type=Path, default=None,
                       help="cost-model JSON fitted by train-cost-model "
                            "(default: deterministic analytic coefficients)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdselector",
        description="TSAD model selection with the KDSelector learning framework",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-data", help="synthesise benchmark series to CSV files")
    gen.add_argument("output_dir", type=Path)
    gen.add_argument("--datasets", nargs="*", default=DATASET_NAMES, choices=DATASET_NAMES,
                     metavar="DATASET")
    gen.add_argument("--per-dataset", type=int, default=2)
    gen.add_argument("--length", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)

    label = sub.add_parser("label", help="run the detector oracle over labelled series")
    label.add_argument("data_dir", type=Path)
    label.add_argument("output", type=Path, help="where to write the performance matrix (.npz)")
    label.add_argument("--detector-window", type=int, default=24)
    label.add_argument("--metric", default="auc_pr", choices=["auc_pr", "auc_roc", "best_f1"])
    label.add_argument("--cache-dir", type=Path, default=None)
    _add_runtime_args(label, workers=True)

    train = sub.add_parser("train", help="train a selector on labelled historical data")
    train.add_argument("data_dir", type=Path)
    train.add_argument("performance", type=Path, help=".npz produced by the label command")
    train.add_argument("--selector", default="ResNet", choices=selector_names())
    train.add_argument("--store", type=Path, default=Path("selector_store"))
    train.add_argument("--name", default=None, help="name inside the store (default: selector type)")
    train.add_argument("--window", type=int, default=96)
    train.add_argument("--stride", type=int, default=48)
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--lr", type=float, default=1e-3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--pisl", action="store_true", help="enable performance-informed soft labels")
    train.add_argument("--alpha", type=float, default=0.4)
    train.add_argument("--t-soft", type=float, default=0.25)
    train.add_argument("--mki", action="store_true", help="enable meta-knowledge integration")
    train.add_argument("--mki-weight", type=float, default=0.78)
    train.add_argument("--projection-dim", type=int, default=64)
    train.add_argument("--pruning", default="none", choices=["none", "infobatch", "pa"])
    train.add_argument("--pruning-ratio", type=float, default=0.8)
    train.add_argument("--lsh-bits", type=int, default=14)
    train.add_argument("--bins", type=int, default=8)

    distill = sub.add_parser("distill",
                             help="distill a stored teacher selector into a fast "
                                  "student")
    distill.add_argument("data_dir", type=Path,
                         help="directory of series used as the transfer set")
    distill.add_argument("--store", type=Path, default=Path("selector_store"))
    distill.add_argument("--name", required=True,
                         help="teacher selector name; the student is saved as "
                              "NAME-student")
    distill.add_argument("--window", type=int, default=96)
    distill.add_argument("--stride", type=int, default=48)
    distill.add_argument("--hidden", type=int, default=64,
                         help="student hidden width")
    distill.add_argument("--features", default="stats",
                         choices=["stats", "rocket", "both"],
                         help="static encodings feeding the student")
    distill.add_argument("--kernels", type=int, default=96,
                         help="ROCKET kernels when --features includes rocket")
    distill.add_argument("--epochs", type=int, default=25)
    distill.add_argument("--batch-size", type=int, default=64)
    distill.add_argument("--lr", type=float, default=1e-2)
    distill.add_argument("--alpha", type=float, default=0.9,
                         help="soft-label weight of the distillation objective")
    distill.add_argument("--t-soft", type=float, default=0.5,
                         help="temperature sharpening the teacher's probabilities")
    distill.add_argument("--calibration-fraction", type=float, default=0.25,
                         help="windows held out to measure agreement and "
                              "calibrate the cascade threshold")
    distill.add_argument("--cascade-target-agreement", type=float, default=0.995,
                         help="teacher-agreement target of the cascade margin "
                              "threshold calibrated on the held-out windows "
                              "(stamped on the student's store metadata)")
    distill.add_argument("--seed", type=int, default=0)

    quantize = sub.add_parser("quantize-teacher",
                              help="quantize a stored teacher's conv encoder to "
                                   "int8 and save it as the NAME-int8 tier")
    quantize.add_argument("data_dir", type=Path,
                          help="directory of series used as the calibration set")
    quantize.add_argument("--store", type=Path, default=Path("selector_store"))
    quantize.add_argument("--name", required=True,
                          help="teacher selector name; the quantized twin is "
                               "saved as NAME-int8")
    quantize.add_argument("--window", type=int, default=96)
    quantize.add_argument("--stride", type=int, default=48)
    quantize.add_argument("--min-agreement", type=float, default=0.97,
                          help="int8-vs-teacher selection agreement the "
                               "quantized teacher must reach (the "
                               "dequantize-compare gate)")

    evaluate = sub.add_parser("evaluate", help="evaluate a stored selector on labelled series")
    evaluate.add_argument("data_dir", type=Path)
    evaluate.add_argument("performance", type=Path)
    evaluate.add_argument("--store", type=Path, default=Path("selector_store"))
    evaluate.add_argument("--name", required=True)
    evaluate.add_argument("--window", type=int, default=96)

    select = sub.add_parser("select", help="predict the best TSAD model for one series")
    select.add_argument("series_file", type=Path)
    select.add_argument("--store", type=Path, default=Path("selector_store"))
    select.add_argument("--name", required=True)
    select.add_argument("--window", type=int, default=96)

    detect = sub.add_parser("detect", help="select a model, run it and print metrics")
    detect.add_argument("series_file", type=Path)
    detect.add_argument("--store", type=Path, default=Path("selector_store"))
    detect.add_argument("--name", required=True)
    detect.add_argument("--window", type=int, default=96)
    detect.add_argument("--detector-window", type=int, default=24)
    detect.add_argument("--scores-output", type=Path, default=None,
                        help="optional CSV to write the point-wise anomaly scores to")
    _add_runtime_args(detect)

    batch = sub.add_parser("batch-select",
                           help="batched, cached model selection over a directory of series")
    batch.add_argument("data_dir", type=Path)
    batch.add_argument("--store", type=Path, default=Path("selector_store"))
    batch.add_argument("--name", required=True)
    batch.add_argument("--window", type=int, default=96)
    batch.add_argument("--aggregation", default="vote", choices=["vote", "mean"])
    batch.add_argument("--cache-capacity", type=int, default=4096)
    batch.add_argument("--max-batch-windows", type=int, default=8192,
                       help="micro-batch size cap, in selector windows")
    batch.add_argument("--repeat", type=int, default=1,
                       help="serve the directory this many times (>1 shows warm-cache speed)")
    _add_tier_arg(batch)
    _add_cascade_args(batch)
    _add_runtime_args(batch)

    serve = sub.add_parser("serve",
                           help="read series file paths from stdin, answer each as a JSON line")
    serve.add_argument("--store", type=Path, default=Path("selector_store"))
    serve.add_argument("--name", required=True)
    serve.add_argument("--window", type=int, default=96)
    serve.add_argument("--aggregation", default="vote", choices=["vote", "mean"])
    serve.add_argument("--cache-capacity", type=int, default=4096)
    _add_tier_arg(serve)
    _add_cascade_args(serve)
    _add_runtime_args(serve)

    stream = sub.add_parser("stream",
                            help="replay series files (or stdin ticks) through the "
                                 "incremental streaming engine")
    stream.add_argument("series_files", type=Path, nargs="*",
                        help="series files replayed as concurrent streams; "
                             "none means read ticks from stdin")
    stream.add_argument("--store", type=Path, default=Path("selector_store"))
    stream.add_argument("--name", required=True)
    stream.add_argument("--window", type=int, default=96)
    stream.add_argument("--stride", type=int, default=None,
                        help="window stride (default: non-overlapping)")
    stream.add_argument("--chunk", type=int, default=32,
                        help="points appended per stream per replayed tick")
    stream.add_argument("--aggregation", default="vote", choices=["vote", "mean"])
    stream.add_argument("--drift-threshold", type=float, default=None,
                        help="total-variation drift threshold enabling re-selection "
                             "(default: drift monitoring off)")
    stream.add_argument("--score", action="store_true",
                        help="maintain per-point anomaly scores with the selected detector")
    stream.add_argument("--detector-window", type=int, default=24)
    stream.add_argument("--emit", default="all", choices=["all", "changes"],
                        help="print every tick update or only selection changes")
    stream.add_argument("--audit", type=Path, default=None,
                        help="append a JSONL audit trail of selections, drift "
                             "events and re-selections to this file")
    stream.add_argument("--trace", type=Path, default=None,
                        help="append JSONL spans (flush/forward/score timing) "
                             "to this file")
    stream.add_argument("--metrics-output", type=Path, default=None,
                        help="write Prometheus text metrics to this file on exit")
    _add_tier_arg(stream)
    stream.add_argument("--refresh-min-agreement", type=float, default=None,
                        help="enable drift-triggered student refresh: probe "
                             "student-vs-teacher agreement on drift and fine-tune "
                             "the student when it falls below this threshold "
                             "(needs --selector-tier student or --cascade)")
    _add_cascade_args(stream)
    _add_runtime_args(stream)

    sharded = sub.add_parser("serve-sharded",
                             help="run the streaming engine across supervised "
                                  "shard processes")
    sharded.add_argument("series_files", type=Path, nargs="*",
                         help="series files replayed as concurrent streams; "
                              "none requires --port (TCP server mode)")
    sharded.add_argument("--store", type=Path, default=Path("selector_store"))
    sharded.add_argument("--name", required=True)
    sharded.add_argument("--shards", type=int, default=2,
                         help="number of shard processes")
    sharded.add_argument("--window", type=int, default=96)
    sharded.add_argument("--stride", type=int, default=None,
                         help="window stride (default: non-overlapping)")
    sharded.add_argument("--chunk", type=int, default=32,
                         help="points appended per stream per replayed tick")
    sharded.add_argument("--aggregation", default="vote", choices=["vote", "mean"])
    sharded.add_argument("--drift-threshold", type=float, default=None,
                         help="total-variation drift threshold enabling "
                              "re-selection (default: drift monitoring off)")
    sharded.add_argument("--port", type=int, default=None,
                         help="listen on this TCP port for length-prefixed "
                              "JSON requests instead of replaying files "
                              "(0 picks a free port)")
    sharded.add_argument("--host", default="127.0.0.1",
                         help="bind address for --port mode")
    sharded.add_argument("--request-timeout", type=float, default=10.0,
                         help="per-shard request timeout in seconds before "
                              "the supervisor restarts a shard")
    sharded.add_argument("--audit", type=Path, default=None,
                         help="append a JSONL audit trail of selections, drift "
                              "events, re-selections and shard restarts to "
                              "this file")
    sharded.add_argument("--metrics-output", type=Path, default=None,
                         help="write Prometheus text metrics (router + every "
                              "shard) to this file on exit")
    _add_tier_arg(sharded)
    sharded.add_argument("--refresh-min-agreement", type=float, default=None,
                         help="enable drift-triggered student refresh inside "
                              "each shard: fine-tune the student when its "
                              "agreement with the teacher falls below this "
                              "threshold (needs --selector-tier student or "
                              "--cascade)")
    _add_cascade_args(sharded)

    cost = sub.add_parser("train-cost-model",
                          help="fit the cascade cost model from cost_observation "
                               "events harvested out of recorded audit logs")
    cost.add_argument("audit_files", type=Path, nargs="+",
                      help="JSONL audit logs recorded with --audit")
    cost.add_argument("--output", type=Path, default=None,
                      help="where to write the fitted cost-model JSON "
                           "(required unless --harvest-only)")
    cost.add_argument("--window", type=int, default=96)
    cost.add_argument("--harvest-only", action="store_true",
                      help="print the harvested observations as JSON lines "
                           "without fitting anything")

    explain = sub.add_parser("explain",
                             help="explain a stream's selection: vote breakdown, "
                                  "winner margin, drift trajectory")
    explain.add_argument("stream", help="stream id to explain")
    explain.add_argument("--audit", type=Path, default=None,
                         help="read this recorded audit log instead of "
                              "querying a running front end")
    explain.add_argument("--host", default="127.0.0.1",
                         help="serve-sharded front-end host")
    explain.add_argument("--port", type=int, default=None,
                         help="serve-sharded front-end port")
    explain.add_argument("--json", action="store_true",
                         help="print the raw explain record as JSON")

    metrics = sub.add_parser("metrics",
                             help="fetch Prometheus text metrics from a running "
                                  "serve-sharded front end")
    metrics.add_argument("--host", default="127.0.0.1",
                         help="serve-sharded front-end host")
    metrics.add_argument("--port", type=int, required=True,
                         help="serve-sharded front-end port")

    list_cmd = sub.add_parser("list-selectors", help="show the contents of a selector store")
    list_cmd.add_argument("--store", type=Path, default=Path("selector_store"))

    return parser


# --------------------------------------------------------------------------- #
# command implementations
# --------------------------------------------------------------------------- #
def _cmd_generate_data(args: argparse.Namespace) -> int:
    args.output_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for dataset in args.datasets:
        for index in range(args.per_dataset):
            record = generate_series(dataset, index, args.length, args.seed)
            save_series_file(record, args.output_dir / f"{record.name}.csv")
            count += 1
    print(f"wrote {count} series to {args.output_dir}")
    return 0


def _detector_names_path(performance_path: Path) -> Path:
    return performance_path.with_suffix(".detectors.json")


def _cmd_label(args: argparse.Namespace) -> int:
    _apply_runtime_args(args)
    records = _load_series_directory_or_exit(args.data_dir)
    model_set = make_default_model_set(window=args.detector_window, fast=True)
    oracle = Oracle(model_set, metric=args.metric, cache_dir=args.cache_dir, verbose=True,
                    max_workers=args.workers)
    matrix = oracle.performance_matrix(records)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    np.savez(args.output, performance=matrix, names=np.array([r.name for r in records], dtype="U64"))
    _detector_names_path(args.output).write_text(json.dumps(oracle.detector_names))
    print(f"labelled {len(records)} series with {len(model_set)} detectors -> {args.output}")
    best = matrix.max(axis=1).mean()
    print(f"mean best-{args.metric}: {best:.4f}")
    return 0


def _load_labelled(data_dir: Path, performance_path: Path):
    """The labelled series, performance matrix and detector names ``label`` wrote.

    A missing or unreadable data directory, archive or ``.detectors.json``
    exits with a message naming it.
    """
    records = _load_series_directory_or_exit(data_dir)
    archive_path = performance_path.with_suffix(".npz")
    try:
        with np.load(archive_path, allow_pickle=False) as archive:
            matrix = archive["performance"]
            names = [str(n) for n in archive["names"]]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as error:
        raise SystemExit(f"cannot read performance archive {archive_path}: {error}")
    by_name = {record.name: record for record in records}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise SystemExit(f"series missing from {data_dir}: {missing[:5]} ...")
    ordered = [by_name[name] for name in names]
    names_path = _detector_names_path(performance_path)
    try:
        detector_names = json.loads(names_path.read_text())
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot read detector names {names_path}: {error}")
    return ordered, matrix, detector_names


def _cmd_train(args: argparse.Namespace) -> int:
    records, matrix, detector_names = _load_labelled(args.data_dir, args.performance)
    dataset = build_selector_dataset(records, matrix, detector_names,
                                     window=args.window, stride=args.stride, seed=args.seed)
    selector = make_selector(args.selector, n_classes=dataset.n_classes, seed=args.seed,
                             **({"window": args.window}
                                if args.selector in selector_names(neural=True) else {}))

    if isinstance(selector, NNSelector):
        config = TrainerConfig(
            epochs=args.epochs, batch_size=args.batch_size, lr=args.lr, seed=args.seed,
            pisl=PISLConfig(enabled=args.pisl, alpha=args.alpha, t_soft=args.t_soft),
            mki=MKIConfig(enabled=args.mki, weight=args.mki_weight, projection_dim=args.projection_dim),
            pruning=PruningConfig(method=args.pruning, ratio=args.pruning_ratio,
                                  lsh_bits=args.lsh_bits, n_bins=args.bins),
            verbose=True,
        )
        selector.fit(dataset, config=config)
        summary = selector.last_report_.summary()
    else:
        selector.fit(dataset)
        summary = {"selector": args.selector}

    store = SelectorStore(args.store)
    name = args.name or args.selector
    store.save(name, selector, metadata={"window": args.window, **{k: str(v) for k, v in summary.items()}},
               overwrite=True)
    print(f"saved selector {name!r} to {args.store}")
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    from ..cascade import calibrate_margin_threshold
    from ..distill import DistillConfig, calibration_split, distill_student

    records = _load_series_directory_or_exit(args.data_dir)
    store = SelectorStore(args.store)
    teacher = _load_tier_selector(store, args.name, "teacher")
    detector_names = (list(DEFAULT_MODEL_NAMES)
                      if teacher.n_classes == len(DEFAULT_MODEL_NAMES)
                      else [f"model-{i}" for i in range(teacher.n_classes)])
    windows = np.vstack([extract_windows(record.series, args.window, stride=args.stride)
                         for record in records])

    config = DistillConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        alpha=args.alpha, t_soft=args.t_soft,
        hidden=args.hidden, features=args.features, n_kernels=args.kernels,
        calibration_fraction=args.calibration_fraction, seed=args.seed,
    )
    student, report = distill_student(teacher, windows, detector_names, config)
    _, calib_idx = calibration_split(len(windows), config.calibration_fraction, config.seed)
    calib_windows = windows[calib_idx] if len(calib_idx) else windows

    # calibrate the cascade margin threshold on the held-out windows: the
    # smallest threshold whose kept (confident) rows still agree with the
    # teacher at the requested rate
    cal = calibrate_margin_threshold(
        student.predict_proba(calib_windows), teacher.predict_proba(calib_windows),
        target_agreement=args.cascade_target_agreement)
    store.save(_tier_name(args.name, "student"), student,
               metadata={"teacher": args.name, "window": str(args.window),
                         "features": args.features, "hidden": str(args.hidden),
                         "cascade_threshold": f"{cal.threshold:.6f}",
                         "cascade_escalation_rate": f"{cal.escalation_rate:.6f}",
                         "cascade_kept_agreement": f"{cal.kept_agreement:.6f}",
                         "cascade_overall_agreement": f"{cal.overall_agreement:.6f}",
                         "agreement_vs_teacher": f"{report.student_agreement:.4f}"},
               overwrite=True)

    rows = [
        ["transfer windows", report.n_windows],
        ["calibration windows", report.n_calibration],
        ["teacher parameters", report.teacher_parameters],
        ["student parameters", report.student_parameters],
        ["student vs teacher agreement", f"{report.student_agreement:.4f}"],
        ["cascade threshold", f"{cal.threshold:.4f}"],
        ["cascade escalation rate", f"{cal.escalation_rate:.4f}"],
        ["cascade kept agreement", f"{cal.kept_agreement:.4f}"],
    ]
    print(format_table(["distillation", "value"], rows))
    print(f"saved {_tier_name(args.name, 'student')!r} to {args.store}")
    return 0


def _cmd_quantize_teacher(args: argparse.Namespace) -> int:
    from ..distill import quantize_teacher

    records = _load_series_directory_or_exit(args.data_dir)
    store = SelectorStore(args.store)
    teacher = _load_tier_selector(store, args.name, "teacher")
    windows = np.vstack([extract_windows(record.series, args.window, stride=args.stride)
                         for record in records])
    try:
        quantized, gate = quantize_teacher(teacher, windows,
                                           min_agreement=args.min_agreement)
    except ValueError as error:
        raise SystemExit(f"quantization gate failed: {error}")

    store.save(_tier_name(args.name, "teacher-int8"), quantized,
               metadata={"teacher": args.name, "window": str(args.window)},
               overwrite=True)
    rows = [
        ["calibration windows", gate["n_calibration"]],
        ["quantized convs", gate["n_quantized_convs"]],
        ["folded batch norms", gate["n_folded_bns"]],
        ["int8 vs teacher agreement", f"{gate['agreement']:.4f}"],
        ["int8 max |dproba|", f"{gate['max_proba_diff']:.4f}"],
        ["activation scales hash", gate["act_scales_hash"]],
    ]
    print(format_table(["quantization", "value"], rows))
    print(f"saved {_tier_name(args.name, 'teacher-int8')!r} to {args.store}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    records, matrix, detector_names = _load_labelled(args.data_dir, args.performance)
    selector = _load_tier_selector(SelectorStore(args.store), args.name, "teacher")
    evaluation = evaluate_selection(selector, records, matrix, detector_names, window=args.window)
    rows = sorted(evaluation.per_dataset_score.items())
    print(format_table(["Dataset", "AUC-PR of selected model"], rows))
    print(f"average: {evaluation.average_score:.4f}  "
          f"selection accuracy: {evaluation.selection_accuracy:.4f}")
    return 0


def _load_series_or_exit(path):
    """``load_series_file``, with an unreadable or malformed file as a clean exit."""
    try:
        return load_series_file(path)
    except (OSError, ValueError) as error:
        raise SystemExit(str(error) or type(error).__name__)


def _load_series_directory_or_exit(directory):
    """``load_series_directory``, with a missing directory, one holding no
    series or an unreadable series file as a clean exit."""
    try:
        return load_series_directory(directory)
    except (FileNotFoundError, NotADirectoryError) as error:
        raise SystemExit(f"no such directory: {error}")
    except (OSError, ValueError) as error:
        raise SystemExit(str(error))


def _cmd_select(args: argparse.Namespace) -> int:
    record = _load_series_or_exit(args.series_file)
    selector = _load_tier_selector(SelectorStore(args.store), args.name, "teacher")
    choice, votes = predict_for_series(selector, record, args.window)
    print(f"selected model for {record.name}: {DEFAULT_MODEL_NAMES[choice]}")
    rows = sorted(zip(DEFAULT_MODEL_NAMES, votes), key=lambda kv: -kv[1])
    print(format_table(["Model", "Vote share"], rows))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    _apply_runtime_args(args)
    record = _load_series_or_exit(args.series_file)
    selector = _load_tier_selector(SelectorStore(args.store), args.name, "teacher")
    model_set = make_default_model_set(window=args.detector_window, fast=True)
    chosen = list(model_set)[predict_for_series(selector, record, args.window)[0]]
    result = run_detection(record, model_set[chosen], detector_name=chosen)
    print(f"selected model: {chosen}")
    print(format_table(["metric", "value"], sorted(result.metrics.items())))
    if args.scores_output is not None:
        args.scores_output.parent.mkdir(parents=True, exist_ok=True)
        np.savetxt(args.scores_output, result.scores, delimiter=",", header="anomaly_score")
        print(f"wrote scores to {args.scores_output}")
    return 0


def _meta_float(metadata, key: str, default: float) -> float:
    try:
        return float(metadata.get(key, default))
    except (TypeError, ValueError):
        return default


def _resolve_cascade(args: argparse.Namespace, store: SelectorStore, window: int):
    """Build the CascadeRouter the --cascade flags describe (or ``None``).

    With the cascade on, the serving selector is the fast tier — the
    distilled student — and the router carries the slow tier for
    escalations: the float teacher, unless ``--selector-tier teacher-int8``
    swaps in the quantized teacher (the router prices the agreement its
    gate measured as the slow tier's quality).  The margin threshold resolves
    ``--cascade-threshold`` → distill-calibrated store metadata → default.
    """
    if not args.cascade:
        if args.latency_slo_ms is not None:
            raise SystemExit("--latency-slo-ms needs --cascade")
        return None
    from ..cascade import DEFAULT_THRESHOLD, CascadeRouter, CostModel

    slow_tier = "teacher-int8" if args.selector_tier == "teacher-int8" else "teacher"
    teacher = _load_tier_selector(store, args.name, slow_tier)
    try:
        metadata = dict(store.info(_tier_name(args.name, "student")).metadata or {})
    except KeyError:
        metadata = {}
    threshold = (args.cascade_threshold if args.cascade_threshold is not None
                 else _meta_float(metadata, "cascade_threshold", DEFAULT_THRESHOLD))
    if args.cost_model is not None:
        try:
            cost_model = CostModel.load(args.cost_model)
        except (OSError, ValueError, KeyError) as error:
            raise SystemExit(f"cannot load cost model {args.cost_model}: {error}")
    else:
        cost_model = CostModel.default(window)
    return CascadeRouter(
        teacher,
        threshold=float(threshold),
        seed=args.cascade_seed,
        cost_model=cost_model,
        slow_tier=slow_tier,
        escalation_rate=_meta_float(metadata, "cascade_escalation_rate", 0.1),
        kept_agreement=_meta_float(metadata, "cascade_kept_agreement", 0.995),
        fast_quality=_meta_float(metadata, "cascade_overall_agreement", 0.97),
        window=window,
    )


def _load_served(args: argparse.Namespace, store: SelectorStore):
    """``(selector, tier, router)``: what the tier and cascade flags serve.

    With ``--cascade`` the served selector is the student (the fast tier)
    and ``router`` carries the slow tier; otherwise ``router`` is ``None``
    and the served selector is ``--selector-tier``'s.
    """
    router = _resolve_cascade(args, store, args.window)
    tier = "student" if router is not None else args.selector_tier
    return _load_tier_selector(store, args.name, tier), tier, router


def _make_service(args: argparse.Namespace) -> "SelectionService":
    from ..serving import SelectionService, ServingConfig

    selector, tier, router = _load_served(args, SelectorStore(args.store))
    try:
        config = ServingConfig(
            window=args.window,
            aggregation=args.aggregation,
            cache_capacity=args.cache_capacity,
            selector_tier=tier,
            latency_slo_ms=args.latency_slo_ms,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    return SelectionService(selector, DEFAULT_MODEL_NAMES, config, cascade=router)


def _cmd_batch_select(args: argparse.Namespace) -> int:
    import time

    _apply_runtime_args(args)

    from ..serving import microbatches
    from .reporting import format_cache_stats

    if args.max_batch_windows < 1:
        raise SystemExit("--max-batch-windows must be >= 1")
    records = _load_series_directory_or_exit(args.data_dir)
    service = _make_service(args)

    throughput = {}
    results = []
    for pass_index in range(max(args.repeat, 1)):
        start = time.perf_counter()
        results = []
        for batch in microbatches(records, args.window, max_windows=args.max_batch_windows):
            results.extend(service.select_batch(batch))
        elapsed = time.perf_counter() - start
        label = "pass 1 (cold)" if pass_index == 0 else f"pass {pass_index + 1} (warm)"
        throughput[label] = len(records) / max(elapsed, 1e-9)

    rows = [[r.series_name, r.selected_model, r.n_windows, "yes" if r.from_cache else "no"]
            for r in results]
    print(format_table(["Series", "Selected model", "Windows", "Cached"], rows))
    print()
    print(format_cache_stats(service.stats, throughput))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .reporting import format_cache_stats

    _apply_runtime_args(args)
    service = _make_service(args)
    for line in sys.stdin:
        path = line.strip()
        if not path:
            continue
        try:
            record = load_series_file(Path(path))
            answer = service.select(record).as_dict()
        except (OSError, ValueError) as error:
            # unreadable files and non-finite series answer with an error
            # line; the loop keeps reading
            message = str(error) or type(error).__name__
            if isinstance(error, FileNotFoundError):
                message = f"no such file: {error}"
            print(json.dumps({"series": path, "error": message}), flush=True)
            continue
        print(json.dumps(answer), flush=True)
    print(format_cache_stats(service.stats), file=sys.stderr)
    return 0


def _load_refresh_parts(args: argparse.Namespace, store: SelectorStore, tier: str):
    """``(teacher, refresh_config)`` for --refresh-min-agreement, or Nones.

    The refresher fine-tunes the served selector, so it must be the student.
    """
    if args.refresh_min_agreement is None:
        return None, None
    if tier != "student":
        raise SystemExit("--refresh-min-agreement needs --selector-tier "
                         "student (or --cascade)")
    from ..distill import RefreshConfig

    teacher = _load_tier_selector(store, args.name, "teacher")
    return teacher, RefreshConfig(min_agreement=args.refresh_min_agreement)


def _make_engine_factory(args: argparse.Namespace, model_set=None):
    """The engine builder of ``stream`` (called once, in process) and
    ``serve-sharded`` (called inside every shard): the served tier, the
    cascade router and the student refresher the flags describe.  A flag
    value the engine's configuration rejects exits with its message.
    """
    from ..service import make_engine_factory
    from ..streaming import DriftConfig, StreamingConfig

    store = SelectorStore(args.store)
    selector, tier, router = _load_served(args, store)
    try:
        config = StreamingConfig(
            window=args.window,
            stride=args.stride,
            aggregation=args.aggregation,
            drift=(DriftConfig(threshold=args.drift_threshold)
                   if args.drift_threshold is not None else None),
            selector_tier=tier,
            latency_slo_ms=args.latency_slo_ms,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    teacher, refresh_config = _load_refresh_parts(args, store, tier)
    return make_engine_factory(selector, DEFAULT_MODEL_NAMES, config, model_set=model_set,
                               teacher=teacher, refresh_config=refresh_config,
                               cascade=router)


def _format_stream_stats(stats) -> str:
    rows = [
        ["streams", stats.n_streams],
        ["flushes", stats.flushes],
        ["points in", stats.points],
        ["windows emitted", stats.windows],
        ["forward-pass windows", stats.forward_windows],
        ["drift re-selections", stats.drift_triggers],
        ["tail re-scores", stats.tail_rescores],
        ["full re-scores", stats.full_rescores],
        ["cascade-escalated windows", stats.escalated_windows],
        ["SLO fallbacks", stats.slo_fallbacks],
    ]
    return format_table(["counter", "value"], rows)


def _setup_obs(args: argparse.Namespace):
    """Enable the requested observability surfaces (before engine construction).

    Returns ``(audit, tracer, previous_tracer)``; pass them back to
    :func:`_teardown_obs` when the command finishes.  The metrics registry
    must be enabled *before* engines/services are built (components bind
    their counters at construction time, and forked shards inherit the
    enabled state).
    """
    from .. import obs

    audit = tracer = previous_tracer = None
    if getattr(args, "metrics_output", None) is not None:
        obs.enable()
    if getattr(args, "audit", None) is not None:
        audit = obs.AuditLog(args.audit)
    if getattr(args, "trace", None) is not None:
        tracer = obs.Tracer(sink=args.trace)
        previous_tracer = obs.set_default_tracer(tracer)
    return audit, tracer, previous_tracer


def _teardown_obs(args: argparse.Namespace, audit, tracer, previous_tracer,
                  metrics_text: Optional[str] = None) -> None:
    """Flush/close the surfaces opened by :func:`_setup_obs`.

    ``metrics_text`` overrides the default registry rendering (the sharded
    service concatenates the router's and every shard's sections).
    """
    from .. import obs

    if getattr(args, "metrics_output", None) is not None:
        if metrics_text is None:
            metrics_text = obs.default_registry().render_prometheus()
        args.metrics_output.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_output.write_text(metrics_text)
        print(f"wrote metrics to {args.metrics_output}", file=sys.stderr)
    if tracer is not None:
        obs.set_default_tracer(previous_tracer)
        tracer.close()
    if audit is not None:
        audit.close()
        print(f"wrote {len(audit)} audit events to {args.audit}", file=sys.stderr)


def _cmd_stream(args: argparse.Namespace) -> int:
    from ..streaming import parse_tick_line, replay_records

    _apply_runtime_args(args)
    if args.chunk < 1:
        raise SystemExit("--chunk must be >= 1")

    def emit(update) -> None:
        if args.emit == "changes" and not (update.changed or update.drift_triggered):
            return
        print(json.dumps(update.as_dict()), flush=True)

    audit, tracer, previous_tracer = _setup_obs(args)
    try:
        # built inside the try: a flag the engine rejects exits through the
        # teardown, which restores the default tracer and closes the audit file
        model_set = (make_default_model_set(window=args.detector_window, fast=True)
                     if args.score else None)
        engine = _make_engine_factory(args, model_set=model_set)()
        if audit is not None:
            engine.audit = audit
        if args.series_files:
            records = [_load_series_or_exit(path) for path in args.series_files]
            for updates in replay_records(engine, records, chunk=args.chunk):
                for update in updates.values():
                    emit(update)
        else:
            for line in sys.stdin:
                if not line.strip():
                    continue
                try:
                    stream_id, values = parse_tick_line(line)
                    engine.append(stream_id, values)
                except ValueError as error:  # a malformed or non-finite tick
                    print(json.dumps({"error": str(error)}), flush=True)
                    continue
                emit(engine.flush()[stream_id])
        print(_format_stream_stats(engine.stats), file=sys.stderr)
        return 0
    finally:
        _teardown_obs(args, audit, tracer, previous_tracer)


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    # SIGTERM (how a service manager stops a process) ends the command as
    # Ctrl-C does, so the shards are stopped either way
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return _serve_sharded(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _serve_sharded(args: argparse.Namespace) -> int:
    from ..service import ServiceConfig, ShardedService
    from ..streaming import replay_records

    if args.port is None and not args.series_files:
        raise SystemExit("serve-sharded needs series files to replay, "
                         "or --port to listen for requests")
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.chunk < 1:
        raise SystemExit("--chunk must be >= 1")
    audit, tracer, previous_tracer = _setup_obs(args)
    service = None
    try:
        # built inside the try: a flag error exits through the teardown
        service = ShardedService(_make_engine_factory(args), ServiceConfig(
            n_shards=args.shards, request_timeout_s=args.request_timeout), audit=audit)
        if args.port is not None:
            import asyncio

            from ..service import ServiceFrontend

            frontend = ServiceFrontend(service, host=args.host, port=args.port)

            async def run() -> None:
                port = await frontend.start()
                print(json.dumps({"listening": {"host": args.host, "port": port,
                                                "shards": args.shards}}),
                      flush=True)
                await frontend.serve_forever()

            try:
                asyncio.run(run())
            except KeyboardInterrupt:
                pass
            return 0

        records = [_load_series_or_exit(path) for path in args.series_files]
        for updates in replay_records(service, records, chunk=args.chunk):
            for update in updates.values():
                print(json.dumps(update), flush=True)
        stats = service.stats()
        rows = sorted(stats["totals"].items()) + [
            ("shards", stats["shards"]),
            ("restarts", stats["restarts"]),
        ]
        print(format_table(["counter", "value"], rows), file=sys.stderr)
        return 0
    finally:
        _teardown_obs(args, audit, tracer, previous_tracer,
                      metrics_text=(service.metrics_text()
                                    if service is not None and args.metrics_output is not None
                                    else None))
        if service is not None:
            service.close()


def _frontend_request(host: str, port: int, op: str, **fields: object):
    """One length-prefixed JSON request to a running serve-sharded front end."""
    import socket

    from ..service.transport import FrameReader, encode_message

    try:
        with socket.create_connection((host, port), timeout=30.0) as sock:
            sock.sendall(encode_message({"op": op, **fields}))
            response = FrameReader(sock).read_frame(30.0)
    except OSError as error:
        raise SystemExit(f"cannot reach {host}:{port}: {error}")
    if response is None:
        raise SystemExit("connection closed by the server")
    if isinstance(response, dict) and "error" in response:
        raise SystemExit(f"server error: {response['error']}")
    return response


def _cmd_train_cost_model(args: argparse.Namespace) -> int:
    from ..cascade import CostModel, harvest_cost_observations
    from ..obs import AuditLog

    events = []
    for path in args.audit_files:
        try:
            events.extend(AuditLog.read(path))
        except OSError as error:
            raise SystemExit(str(error))
        except ValueError as error:
            raise SystemExit(f"malformed audit log {path}: {error}")
    observations = harvest_cost_observations(events)
    if not observations:
        raise SystemExit("no cost_observation events found — record some by "
                         "running stream or serve-sharded with --audit")

    if args.harvest_only:
        for obs in observations:
            print(json.dumps(obs.as_dict()))
        print(f"harvested {len(observations)} cost observations from "
              f"{len(args.audit_files)} audit file(s)", file=sys.stderr)
        return 0

    if args.output is None:
        raise SystemExit("--output is required (or pass --harvest-only)")
    model = CostModel.fit(observations, window=args.window)
    model.save(args.output)
    forwards = sum(1 for o in observations if o.kind == "selector_forward")
    rows = [[tier, f"{a:.4f}", f"{b:.6f}"]
            for tier, (a, b) in sorted(model.latency.items())]
    print(format_table(["tier", "intercept ms", "ms per window"], rows))
    print(f"fitted cost model on {forwards} forward observations "
          f"({len(observations) - forwards} of other kinds ignored) -> {args.output}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from ..obs import AuditLog, explain_from_audit, format_explain

    if args.audit is not None:
        try:
            events = AuditLog.read(args.audit)
        except OSError as error:
            raise SystemExit(str(error))
        try:
            info = explain_from_audit(events, args.stream)
        except ValueError as error:
            raise SystemExit(str(error))
    elif args.port is not None:
        info = _frontend_request(args.host, args.port, "explain",
                                 stream=args.stream).get("explain")
        if info is None:
            raise SystemExit(f"unknown stream: {args.stream}")
    else:
        raise SystemExit("explain needs --audit FILE or --port PORT")
    if args.json:
        print(json.dumps(info))
    else:
        print(format_explain(info))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    text = str(_frontend_request(args.host, args.port, "metrics").get("metrics", ""))
    sys.stdout.write(text if text.endswith("\n") or not text else text + "\n")
    return 0


def _cmd_list_selectors(args: argparse.Namespace) -> int:
    store = SelectorStore(args.store)
    infos = store.list()
    if not infos:
        print(f"no selectors stored in {args.store}")
        return 0
    rows = [[info.name, info.selector_type, "NN" if info.is_neural else "non-NN", info.created_at]
            for info in infos]
    print(format_table(["Name", "Type", "Kind", "Created"], rows))
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "label": _cmd_label,
    "train": _cmd_train,
    "distill": _cmd_distill,
    "quantize-teacher": _cmd_quantize_teacher,
    "evaluate": _cmd_evaluate,
    "select": _cmd_select,
    "detect": _cmd_detect,
    "batch-select": _cmd_batch_select,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
    "serve-sharded": _cmd_serve_sharded,
    "train-cost-model": _cmd_train_cost_model,
    "explain": _cmd_explain,
    "metrics": _cmd_metrics,
    "list-selectors": _cmd_list_selectors,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CorruptSelectorError, NonFiniteSeriesError) as error:
        raise SystemExit(str(error))


if __name__ == "__main__":
    sys.exit(main())
