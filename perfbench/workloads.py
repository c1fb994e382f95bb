"""The benchmark's three workloads: ``offline``, ``serve`` and ``stream``.

Each workload is a closed loop driven through the program's public entry
points only (``Oracle``, ``build_selector_dataset``, ``NNSelector.fit``,
``evaluate_selection``, ``distill_student``, ``calibrate_margin_threshold``,
``CascadeRouter``, ``SelectionService``, ``StreamEngine``,
``SelectorStore``).  Its inputs come from the seed alone (serve and stream
traffic is made once, before any timing; offline loads its split in the
timed set-up, as the pipeline's first step); the amount of work comes
from ``--seconds`` alone, so two runs with one seed do the same work and
must give the same answers.

* ``offline`` is the paper pipeline a user runs once per history: label a
  seeded TSB-UAD split with the 12-detector oracle, train the ResNet
  selector with full KDSelector (PISL + MKI + PA), evaluate it on the
  held-out series.  Its time is detectors, then NN training; it is the
  only workload with backward passes.
* ``serve`` is one caller sending single-series requests to a
  ``SelectionService`` whose cascade escalates low-margin windows from the
  distilled float student to the float teacher.  Forward-only and free of
  detectors; a seeded minority of requests repeats an earlier series.
* ``stream`` replays a handful of concurrent streams, 32 points per tick,
  into one ``StreamEngine`` with the teacher alone and online scoring on.
  It runs the same forward layer in many tiny batches and detectors on
  growing prefixes; the cascade is bypassed.

``setup`` builds the program's side (timed as ``setup_s``), ``run`` times
every operation with an :class:`~timing.OpTimer` and returns a
:class:`Pass`, and ``check`` compares the program's answers with a
recomputation through the same public functions, outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cascade import CascadeRouter, calibrate_margin_threshold
from repro.core import TrainerConfig, kdselector_config
from repro.data import TSBUADBenchmark, build_selector_dataset, generate_series
from repro.data.records import DATASET_NAMES, TEST_DATASET_NAMES
from repro.data.windows import extract_windows
from repro.detectors import DEFAULT_MODEL_NAMES, make_default_model_set
from repro.distill import DistillConfig, distill_student
from repro.eval import Oracle, aggregate_window_probas, evaluate_selection, predict_for_series
from repro.eval.metrics import auc_pr
from repro.selectors import make_selector
from repro.serving import SelectionService, ServingConfig, configure_transform_cache
from repro.serving.transform_cache import transform_cache_stats
from repro.streaming import StreamEngine, StreamingConfig
from repro.system.selector_store import SelectorStore

import layers
from timing import (OpTimer, blended_reference, clock, conv_reference, mixed_reference,
                    tail_percentile)
from tracer import Tracer

#: selector input window (the harness scale) and the detectors' own window
WINDOW = 96
DETECTOR_WINDOW = 24
#: the paper's default selector: ResNet, sized as in the benchmark harness
RESNET = {"mid_channels": 12, "num_layers": 2}
NAMES = list(DEFAULT_MODEL_NAMES)

# offline ------------------------------------------------------------------
#: a series costs the oracle about the same at 360 points as at 1000 (the
#: neural detectors and the forests have per-series fixed work), so the run
#: is sized by the number of series: per family, one training series per
#: 6 s of run time and one test series per 12 s (46 series at 12 s)
OFFLINE_LENGTH = 360
OFFLINE_TRAIN_SECONDS = 6
OFFLINE_TEST_SECONDS = 12
OFFLINE_STRIDE = 24
OFFLINE_EPOCHS = 8

# serve / stream set-up ------------------------------------------------------
#: the deployed selectors do not depend on --seed: every seed measures the
#: same teacher, student and threshold, and the seed draws the traffic
SETUP_SEED = 0
TEACHER_LENGTH = 800
TEACHER_STRIDE = 96
TEACHER_EPOCHS = 12
TEACHER_LR = 0.01
TRANSFER_LENGTH = 1600
TRANSFER_STRIDE = 48
DISTILL_EPOCHS = 25
#: the teacher spreads its selections over nine detectors and the float
#: student agrees with it on about 80 % of windows, so the library's
#: default target (0.995) escalates 80 % of windows and nearly every
#: request.  At 0.82 about 3 % of windows and a third of the cache misses
#: escalate: the median request is answered by the student alone and the
#: tail by the teacher, the cascade regime ``bench_e2e_slo`` measures.
CASCADE_TARGET_AGREEMENT = 0.82

# serve --------------------------------------------------------------------
REQUESTS_PER_SECOND = 40
REQUEST_LENGTHS = (800, 1600, 3200)
#: share of requests that repeat an earlier series (cache hits)
REPEAT_SHARE = 0.15
#: requests whose answer is also compared with the teacher alone
AGREEMENT_SAMPLE = 150

# stream -------------------------------------------------------------------
STREAM_SLOTS = 7
STREAM_LENGTH = 1024
STREAM_CHUNK = 32
#: streams each slot replays per second of run time (at 12 s: 9 per slot,
#: 63 streams); the tail rests on the full re-score ticks, so it needs
#: many streams
STREAM_ROUNDS_PER_SECOND = 3 / 4
#: full re-scores of global detectors every this many points, as
#: ``as_stream_engine`` advises for high-frequency streams
RESCORE_EVERY = 256


def lsh_bits_for(n_windows: int) -> int:
    """PA's SimHash bits sized to the window count.

    The paper's 14 bits suit 10^4-10^5 windows; with a few hundred windows
    they would almost never collide and PA would degrade to InfoBatch.
    ``log2(n)`` bits keeps the expected bucket occupancy of the paper's
    setting (14 bits for ~16k windows, 8 bits for ~300).
    """
    return int(min(14, max(4, round(np.log2(max(n_windows, 2))))))


@dataclass
class Pass:
    """Measurements and outputs of one timed pass of a workload."""

    #: one entry per operation (series labelled, request, tick)
    timer: OpTimer
    #: input points processed by those operations
    points: int = 0
    #: wall time of the timed region, per-operation reference samples excluded
    wall_s: float = 0.0
    #: ``(window visits, wall seconds)`` per selector training: the
    #: KDSelector fit (offline) or the set-up teachers (serve, stream).
    #: Reported in wall time on the record line, not as a gated metric: a
    #: training is one long operation that reference samples cannot follow
    #: (see ``timing.py``)
    trainings: List[Tuple[int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: program outputs the checks compare
    outputs: Dict[str, object] = field(default_factory=dict)
    #: counts and ratios read from public stats (traced runs report them)
    stats: Dict[str, float] = field(default_factory=dict)
    composition: Dict[str, object] = field(default_factory=dict)

    def close(self, start: float) -> None:
        self.wall_s = clock() - start - sum(self.timer.refs)


def _span(tracer: Optional[Tracer], name: str, fn):
    return tracer.wrap(name, fn) if tracer is not None else fn


def _histogram(indices) -> Dict[str, int]:
    counts = np.bincount(np.asarray(indices, dtype=int), minlength=len(NAMES))
    return {NAMES[i]: int(c) for i, c in enumerate(counts) if c}


# --------------------------------------------------------------------------- #
# offline
# --------------------------------------------------------------------------- #
class Offline:
    """Label, train with KDSelector, evaluate: the paper's pipeline."""

    name = "offline"
    #: the set-up takes about 10 ms, so many set-ups are cheap
    setup_repeats = 51
    reference = staticmethod(mixed_reference)

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.benchmark = TSBUADBenchmark(
            n_train_per_dataset=max(1, round(seconds / OFFLINE_TRAIN_SECONDS)),
            n_test_per_dataset=max(1, round(seconds / OFFLINE_TEST_SECONDS)),
            series_length=OFFLINE_LENGTH, seed=seed)

    def setup(self, workdir: Path, tracer: Optional[Tracer] = None) -> dict:
        """Load the split and build the uncached oracle over the 12-detector set.

        Loading the TSB-UAD split is the pipeline's first step, so it is
        set-up here; serve and stream traffic comes from their callers and
        is made outside the timed set-up.
        """
        split = self.benchmark.load()
        model_set = make_default_model_set(window=DETECTOR_WINDOW, fast=True)
        return {"train": split.train_records, "test": split.all_test_records,
                "model_set": model_set,
                "oracle": Oracle(model_set, metric="auc_pr", cache_dir=None, max_workers=0)}

    def run(self, art: dict, tracer: Optional[Tracer] = None) -> Pass:
        result = Pass(OpTimer(self.reference))
        oracle = art["oracle"]
        selector = make_selector("ResNet", window=WINDOW, n_classes=len(NAMES),
                                 seed=self.seed, **RESNET)
        selector.build()
        if tracer is not None:
            layers.trace_detectors(tracer, art["model_set"])
            tracer.patch(oracle, "metric_fn", "eval.metric")
            layers.trace_selector(tracer, selector, "teacher")
            layers.trace_training(tracer)
            layers.trace_data_and_eval(tracer)
        build_dataset = _span(tracer, "data.windows", build_selector_dataset)

        def label(record):
            # the full collection frees the autograd cycles the neural
            # detectors leave behind, so each series pays for its own garbage
            row = oracle.score_series(record)
            gc.collect()
            return row

        records = art["train"] + art["test"]
        rows = []
        start = clock()
        for record in records:
            if tracer is not None:
                tracer.op = f"series:{record.name}"
            try:
                rows.append(result.timer(label, record))
            except Exception:  # a failed operation is counted by check(), not fatal
                traceback.print_exc()
                rows.append(np.full(len(NAMES), np.nan))
        result.points = sum(len(r.series) for r in records)
        matrix = np.vstack(rows)
        n_train = len(art["train"])

        if tracer is not None:
            tracer.op = "train"
        t0 = clock()
        dataset = build_dataset(art["train"], matrix[:n_train], NAMES, window=WINDOW,
                                stride=OFFLINE_STRIDE, seed=self.seed)
        config = kdselector_config(epochs=OFFLINE_EPOCHS, batch_size=64,
                                   lsh_bits=lsh_bits_for(len(dataset)), seed=self.seed)
        selector.fit(dataset, config=config)
        result.trainings.append((len(dataset) * OFFLINE_EPOCHS, clock() - t0))

        if tracer is not None:
            tracer.op = "evaluate"
        evaluation = evaluate_selection(selector, art["test"], matrix[n_train:], NAMES,
                                        window=WINDOW)
        result.close(start)

        report = selector.last_report_
        result.attempted = len(records) + 1
        result.outputs.update(matrix=matrix, report=report, evaluation=evaluation)
        result.stats = {"core.kept_ratio": report.total_samples_processed
                        / (report.n_samples * OFFLINE_EPOCHS)}
        result.composition = {
            "series": len(records), "train_series": n_train, "series_length": OFFLINE_LENGTH,
            "train_windows": len(dataset), "lsh_bits": config.pruning.lsh_bits,
            "kept_ratio": result.stats["core.kept_ratio"],
            "selected": dict(sorted(Counter(evaluation.selected_models.values()).items())),
        }
        return result

    def check(self, art: dict, result: Pass) -> Dict[str, object]:
        """Performance-matrix entries lie in [0, 1]; training losses are finite."""
        matrix = result.outputs["matrix"]
        bad_rows = int(np.sum(~np.all(np.isfinite(matrix) & (matrix >= 0) & (matrix <= 1), axis=1)))
        losses = result.outputs["report"].epoch_losses
        train_ok = len(losses) == OFFLINE_EPOCHS and bool(np.all(np.isfinite(losses)))
        result.failed = bad_rows + (0 if train_ok else 1)
        evaluation = result.outputs["evaluation"]
        visits, train_s = result.trainings[0]
        return {
            "matrix_hash": hashlib.blake2b(np.ascontiguousarray(matrix).tobytes(),
                                           digest_size=16).hexdigest(),
            "workload_metrics": {
                "label_series_per_s": [len(result.timer.wall) / sum(result.timer.wall),
                                       "series/s"],
                "train_windows_per_s": [visits / train_s, "windows/s"],
                "selection_auc_pr": [float(evaluation.average_score), "AUC-PR"],
            },
        }


# --------------------------------------------------------------------------- #
# serve and stream set-up: the teacher on a seeded knowledge matrix
# --------------------------------------------------------------------------- #
def train_teacher(seed: int, workdir: Path, tracer: Optional[Tracer]):
    """Teacher ResNet on a seeded family -> detector knowledge matrix.

    Family ``i`` leans towards detector ``i % 12`` (the recipe of
    ``benchmarks/bench_serving_throughput``), over all 12 detectors, so
    selections spread across the candidate set.  The teacher round-trips
    through a :class:`SelectorStore`, as a deployed selector would.
    Returns the reloaded teacher and ``(window visits, wall seconds)`` of
    its training (dataset build + fit).
    """
    records = [generate_series(name, 0, TEACHER_LENGTH, seed) for name in DATASET_NAMES]
    rng = np.random.default_rng([seed, 1])
    matrix = rng.uniform(0.05, 0.4, size=(len(records), len(NAMES)))
    matrix[np.arange(len(records)), np.arange(len(records)) % len(NAMES)] += 0.5

    t0 = clock()
    dataset = build_selector_dataset(records, matrix, NAMES, window=WINDOW,
                                     stride=TEACHER_STRIDE, seed=seed)
    teacher = make_selector("ResNet", window=WINDOW, n_classes=len(NAMES), seed=seed, **RESNET)
    teacher.fit(dataset, config=TrainerConfig(epochs=TEACHER_EPOCHS, batch_size=64,
                                               lr=TEACHER_LR, seed=seed))
    training = (len(dataset) * TEACHER_EPOCHS, clock() - t0)
    store = SelectorStore(workdir / "store")
    _span(tracer, "system.store", store.save)("teacher", teacher, overwrite=True)
    return _span(tracer, "system.store", store.load)("teacher"), training


def stream_schedule(streams: list):
    """Yield, per tick, the ``(record, offset)`` chunks appended on it.

    ``STREAM_SLOTS`` slots each replay their share of ``streams`` back to
    back; odd slots join one tick after even ones.  A window completes
    every third tick of a stream, so the two groups put a forward pass on
    two ticks in three and the median tick is a forward tick.  With every
    slot in step, about half the ticks would do no work and the median
    would jump between the two kinds from seed to seed.  Within a group
    the streams stay in step, so their full re-scores share one tick and
    the tail is the summed re-score of a group.
    """
    slots = [streams[k::STREAM_SLOTS] for k in range(STREAM_SLOTS)]
    per_stream = -(-STREAM_LENGTH // STREAM_CHUNK)
    for tick in range(max(k % 2 + len(slot) * per_stream for k, slot in enumerate(slots))):
        chunks = []
        for k, slot in enumerate(slots):
            index, step = divmod(tick - k % 2, per_stream)
            if 0 <= index < len(slot):
                chunks.append((slot[index], step * STREAM_CHUNK))
        yield chunks


def _family_series(families, first_index: int, count: int, length: int, seed: int):
    return [generate_series(families[k % len(families)], first_index + k, length, seed)
            for k in range(count)]


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #
class Serve:
    """Single-series requests through the cascade-on selection service."""

    name = "serve"
    setup_repeats = 3
    reference = staticmethod(conv_reference)

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.requests = self._requests(max(30, int(round(REQUESTS_PER_SECOND * seconds))))
        self.trainings: List[tuple] = []

    def _requests(self, count: int) -> list:
        """Seeded mixed-length requests; a seeded minority repeats a series.

        The mix is exact, not drawn: every length and family takes its
        share of the distinct series and ``REPEAT_SHARE`` of the requests
        are repeats.  The seed orders the mix, picks the repeat positions
        and makes the series, so the work per request varies with the seed
        only through the series' content.
        """
        rng = np.random.default_rng([self.seed, 2])
        n_repeats = int(round(REPEAT_SHARE * count))
        lengths = rng.permutation(np.resize(REQUEST_LENGTHS, count - n_repeats))
        repeat_at = set(rng.choice(np.arange(1, count), size=n_repeats, replace=False).tolist())
        unique: list = []
        requests = []
        for position in range(count):
            if position in repeat_at:
                requests.append(unique[int(rng.integers(len(unique)))])
                continue
            family = TEST_DATASET_NAMES[len(unique) % len(TEST_DATASET_NAMES)]
            unique.append(generate_series(family, 1000 + len(unique),
                                          int(lengths[len(unique)]), self.seed))
            requests.append(unique[-1])
        return requests

    def setup(self, workdir: Path, tracer: Optional[Tracer] = None) -> dict:
        teacher, training = train_teacher(SETUP_SEED, workdir, tracer)
        self.trainings.append(training)
        train_families = list(DATASET_NAMES)
        transfer = np.vstack([
            extract_windows(r.series, WINDOW, stride=TRANSFER_STRIDE)
            for r in _family_series(train_families, 100, len(train_families),
                                    TRANSFER_LENGTH, SETUP_SEED)])
        student, _ = _span(tracer, "distill.student", distill_student)(
            teacher, transfer, NAMES, DistillConfig(epochs=DISTILL_EPOCHS, seed=SETUP_SEED))
        held_out = np.vstack([
            extract_windows(r.series, WINDOW)
            for r in _family_series(train_families, 200, len(train_families),
                                    TRANSFER_LENGTH, SETUP_SEED)])
        calibration = calibrate_margin_threshold(student.predict_proba(held_out),
                                                 teacher.predict_proba(held_out),
                                                 target_agreement=CASCADE_TARGET_AGREEMENT)
        router = CascadeRouter.from_calibration(teacher, calibration, seed=SETUP_SEED,
                                                fast_tier="student", slow_tier="teacher",
                                                window=WINDOW)
        return {"teacher": teacher, "student": student, "router": router,
                "calibration": calibration}

    def run(self, art: dict, tracer: Optional[Tracer] = None) -> Pass:
        result = Pass(OpTimer(self.reference), trainings=list(self.trainings))
        configure_transform_cache(None)
        service = SelectionService(art["student"], NAMES,
                                   ServingConfig(window=WINDOW, selector_tier="student"),
                                   cascade=art["router"])
        if tracer is not None:
            layers.trace_selector(tracer, art["student"], "student")
            layers.trace_selector(tracer, art["teacher"], "teacher")
            layers.trace_serving(tracer, service, art["router"])
            layers.trace_data_and_eval(tracer)
        answers, escalated, windows = [], [], []
        start = clock()
        for k, record in enumerate(self.requests):
            if tracer is not None:
                tracer.op = f"request:{k}"
            try:
                answer = result.timer(service.select_batch, [record])[0]
            except Exception as error:  # counted as failed by check()
                traceback.print_exc()
                answer = error
            answers.append(answer)
            hit = getattr(answer, "from_cache", True)
            escalated.append(0 if hit else service.last_cascade["escalated_windows"])
            windows.append(0 if hit else service.last_cascade["n_windows"])
        result.close(start)
        result.points = sum(len(r.series) for r in self.requests)
        result.attempted = len(self.requests)
        cache, transform = service.stats, transform_cache_stats()
        result.stats = {
            "cascade.escalated_ratio": sum(escalated) / max(sum(windows), 1),
            "serving.cache_hit_ratio": cache.hit_rate,
            "serving.transform_hit_ratio": transform.hit_rate if transform else 0.0,
        }
        result.outputs = {"answers": answers}
        selected = [a.selected_index for a in answers if not isinstance(a, Exception)]
        escalated_requests = int(sum(e > 0 for e in escalated))
        result.composition = {
            "requests": len(answers),
            "cache_hits": cache.hits,
            "escalated_requests": escalated_requests,
            "escalated_share_of_misses": escalated_requests / max(len(answers) - cache.hits, 1),
            "escalated_windows": int(sum(escalated)),
            "miss_windows": int(sum(windows)),
            "threshold": art["calibration"].threshold,
            "selected": _histogram(selected),
        }
        return result

    def check(self, art: dict, result: Pass) -> Dict[str, object]:
        """Answers equal the cascade recomputed from its public parts.

        Also measures agreement with the teacher alone on a seeded sample
        of the distinct requests.
        """
        student, teacher, router = art["student"], art["teacher"], art["router"]
        first: Dict[int, object] = {}
        failed = 0
        for record, answer in zip(self.requests, result.outputs["answers"]):
            if isinstance(answer, Exception):
                failed += 1
                continue
            key = id(record)
            if key in first:
                earlier = first[key]
                failed += int(answer.selected_index != earlier.selected_index
                              or answer.votes != earlier.votes)
                continue
            first[key] = answer
            windows = extract_windows(record.series, WINDOW)
            proba, _ = router.route(windows, student.predict_proba(windows))
            choice, aggregated = aggregate_window_probas(proba, "vote")
            failed += int(answer.selected_index != choice
                          or list(answer.votes.values()) != [float(v) for v in aggregated])
        result.failed = failed

        unique = list(first.items())
        rng = np.random.default_rng([self.seed, 3])
        sample = rng.choice(len(unique), size=min(AGREEMENT_SAMPLE, len(unique)), replace=False)
        records = {id(r): r for r in self.requests}
        agree = [predict_for_series(teacher, records[unique[i][0]], WINDOW)[0]
                 == unique[i][1].selected_index for i in sample]
        agreement = float(np.mean(agree))
        p, tail = tail_percentile(result.timer.wall)
        return {
            "agreement_sample": len(agree),
            "workload_metrics": {
                "select_p50_ms": [1e3 * float(np.median(result.timer.wall)), "ms"],
                "select_tail_ms": [1e3 * tail, "ms"],
                "select_tail_percentile": [p, "percentile"],
                "select_agreement": [agreement, "fraction"],
            },
        }


# --------------------------------------------------------------------------- #
# stream
# --------------------------------------------------------------------------- #
class Stream:
    """Concurrent streams, 32 points per tick, teacher-only engine with scoring."""

    name = "stream"
    setup_repeats = 3
    reference = staticmethod(blended_reference)

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        rounds = max(1, int(round(STREAM_ROUNDS_PER_SECOND * seconds)))
        self.streams = _family_series(TEST_DATASET_NAMES, 2000, STREAM_SLOTS * rounds,
                                      STREAM_LENGTH, seed)
        self.trainings: List[tuple] = []

    def setup(self, workdir: Path, tracer: Optional[Tracer] = None) -> dict:
        teacher, training = train_teacher(SETUP_SEED, workdir, tracer)
        self.trainings.append(training)
        return {"teacher": teacher,
                "model_set": make_default_model_set(window=DETECTOR_WINDOW, fast=True)}

    def run(self, art: dict, tracer: Optional[Tracer] = None) -> Pass:
        result = Pass(OpTimer(self.reference), trainings=list(self.trainings))
        configure_transform_cache(None)
        engine = StreamEngine(art["teacher"], NAMES,
                              StreamingConfig(window=WINDOW, rescore_every=RESCORE_EVERY),
                              model_set=art["model_set"])
        if tracer is not None:
            layers.trace_selector(tracer, art["teacher"], "teacher")
            layers.trace_streaming(tracer, engine)
            layers.trace_detectors(tracer, art["model_set"])
            layers.trace_data_and_eval(tracer)

        def tick(chunks):
            for record, offset in chunks:
                engine.append(record.name, record.series[offset:offset + STREAM_CHUNK])
            return engine.flush()

        tick_ok: List[bool] = []
        last_tick: Dict[str, int] = {}
        start = clock()
        for index, chunks in enumerate(stream_schedule(self.streams)):
            if tracer is not None:
                tracer.op = f"tick:{index}"
            try:
                updates = result.timer(tick, chunks)
            except Exception:  # the tick fails its check below
                traceback.print_exc()
                updates = {}
            tick_ok.append(len(updates) == len(chunks) and all(
                r.name in updates and updates[r.name].length == min(o + STREAM_CHUNK, STREAM_LENGTH)
                for r, o in chunks))
            for record, _ in chunks:
                last_tick[record.name] = index
        result.close(start)
        result.points = sum(len(r.series) for r in self.streams)
        result.attempted = len(result.timer.wall)
        stats = engine.stats
        result.stats = {
            "streaming.full_rescores": stats.full_rescores,
            "streaming.tail_rescores": stats.tail_rescores,
            "streaming.forward_windows": stats.forward_windows,
        }
        result.outputs = {"engine": engine, "tick_ok": tick_ok, "last_tick": last_tick}
        result.composition = {
            "streams": len(self.streams), "concurrent": STREAM_SLOTS,
            "ticks": len(result.timer.wall),
            "full_rescores": stats.full_rescores, "tail_rescores": stats.tail_rescores,
            "forward_windows": stats.forward_windows,
            "selected": _histogram([engine.selection(r.name).selected_index
                                    for r in self.streams]),
        }
        return result

    def check(self, art: dict, result: Pass) -> Dict[str, object]:
        """Final selections and scores equal the batch path, bit for bit."""
        engine, teacher = result.outputs["engine"], art["teacher"]
        bad_ticks = {i for i, ok in enumerate(result.outputs["tick_ok"]) if not ok}
        scores_auc = []
        for record in self.streams:
            ok = True
            view = engine.selection(record.name)
            choice, aggregated = predict_for_series(teacher, record, WINDOW)
            ok &= view.selected_index == choice and np.array_equal(view.aggregated, aggregated)
            scores = engine.scores(record.name)
            n = len(scores)
            detector = art["model_set"][NAMES[view.selected_index]]
            ok &= n > 0 and np.array_equal(scores, detector.detect(record.series[:n]))
            if n and record.labels[:n].any():
                scores_auc.append(auc_pr(record.labels[:n], scores))
            if not ok:
                bad_ticks.add(result.outputs["last_tick"][record.name])
        result.failed = len(bad_ticks)
        quality = float(np.mean(scores_auc)) if scores_auc else 0.0
        wall = result.timer.wall
        p, tail = tail_percentile(wall)
        return {
            "workload_metrics": {
                "tick_p50_ms": [1e3 * float(np.median(wall)), "ms"],
                "tick_tail_ms": [1e3 * tail, "ms"],
                "tick_tail_percentile": [p, "percentile"],
                "stream_points_per_s": [result.points / sum(wall), "points/s"],
                "stream_detection_auc_pr": [quality, "AUC-PR"],
            },
        }


WORKLOADS = {cls.name: cls for cls in (Offline, Serve, Stream)}
