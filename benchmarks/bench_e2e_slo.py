"""End-to-end SLO benchmark — the cascade's quality-vs-latency frontier.

The cascade router (``repro.cascade``) serves confident windows from the
distilled student and escalates only low-margin windows to the teacher, so
a request's latency should sit between the always-student floor and the
always-teacher ceiling while its selections stay teacher-faithful.  This
benchmark races the serving plans on identical per-request traffic:

* **always-teacher** — every window through the full selector (the
  quality ceiling and latency ceiling),
* **always-student** — every window through the distilled student (the
  latency floor; quality is whatever the student gives),
* **cascade**        — student first, teacher for windows whose top-1
  margin falls below the calibrated threshold,
* **cascade-int8**   — the same cascade, but escalations run through the
  **quantized teacher** (``quantize_teacher``) instead of the float one,
  shrinking the escalation tail that dominates the cascade's p99.

Each plan answers the same query series one request at a time with cold
caches, giving a per-request latency distribution (p50/p99) and a
window-level selection-agreement score against the teacher.  The
measured latencies are then fed back into a fitted
:class:`repro.cascade.CostModel` and swept across latency SLOs to print
the admission frontier: which plan the router would admit at each SLO,
at what predicted quality.

Acceptance (checked by assertions):

* the cascade's p50 per-request latency is **>= 2x** faster than
  always-teacher,
* its window-level agreement with the teacher drops **<= 1 %**
  (agreement >= 0.99),
* escalating windows never lowers agreement below the always-student
  floor,
* escalating to the int8 teacher does not inflate the cascade's p99
  (the int8 escalation tail is no worse than the float one, within
  measurement noise) while its window agreement drops **<= 1 %**
  relative to the float-teacher cascade.

Run modes:

* ``pytest benchmarks/bench_e2e_slo.py`` — full scale, asserts the
  contracts above.
* ``python benchmarks/bench_e2e_slo.py --smoke`` — CI gate at reduced
  scale: asserts the absolute contracts, then compares the measured
  speedups against the ``e2e_slo`` section of
  ``benchmarks/baselines.json`` and fails on a > 20 % regression.
  ``--record`` rewrites that section.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench_serving_throughput import (
    SERVING_SCALE,
    TIER_SCALE,
    _build_selector,
    _query_records,
    _transfer_windows,
)
from repro.cascade import (
    CascadeRouter,
    CostModel,
    CostObservation,
    calibrate_margin_threshold,
)
from repro.data import generate_series
from repro.data.records import DATASET_NAMES
from repro.data.windows import extract_windows
from repro.distill import (
    DistillConfig,
    distill_student,
    quantize_teacher,
    selection_agreement,
)
from repro.serving import SelectionService, ServingConfig, configure_transform_cache
from repro.system.reporting import format_table

BASELINES_PATH = Path(__file__).resolve().parent / "baselines.json"

#: Benchmark scale on top of the serving/tier scales (longer queries so
#: per-request time is forward-dominated, as production traffic is).
E2E_SCALE = {
    "query_length": 3200,
    "n_query_series": 32,
    "n_calibration_series": 8,
    "timing_repeats": 3,
    "calibration_target_agreement": 0.99,
}

#: the cascade must answer at least this much faster than always-teacher ...
MIN_CASCADE_SPEEDUP = 2.0
#: ... while agreeing with the teacher on at least this share of windows
MIN_CASCADE_AGREEMENT = 0.99

#: int8 escalation may cost at most this much extra p99 (measurement
#: noise guard — when escalations are rare the two cascades do near-identical
#: work and best-of-2 cold timings still jitter a few percent)
MAX_INT8_P99_RATIO = 1.05
#: ... and may drop window agreement by at most 1 % vs the float cascade
MAX_INT8_AGREEMENT_DROP = 0.01

#: smoke gate: speedups may regress at most 20 % below the baselines
REGRESSION_TOLERANCE = 0.8

#: latency SLOs swept for the admission frontier, as multiples of the
#: measured always-teacher p50 (1.0 = "as slow as the teacher")
SLO_SWEEP = (0.05, 0.15, 0.3, 0.6, 1.0, 2.0)


def _calibration_windows(scale, e2e_scale):
    """Held-out windows for margin-threshold calibration (never trained on)."""
    families = DATASET_NAMES[: scale["n_train_series"]]
    records = [
        generate_series(families[i % len(families)], i, e2e_scale["query_length"],
                        seed=scale["seed"] + 7)
        for i in range(e2e_scale["n_calibration_series"])
    ]
    return np.vstack([extract_windows(r.series, scale["window"]) for r in records])


def _build_tiers(scale, tier_scale, e2e_scale):
    """Teacher -> distilled student + int8 teacher -> calibrated routers."""
    teacher, detector_names = _build_selector(scale)
    config = DistillConfig(epochs=tier_scale["distill_epochs"],
                           features=tier_scale["features"],
                           seed=scale["seed"])
    transfer = _transfer_windows(scale, tier_scale)
    student, _ = distill_student(teacher, transfer, detector_names, config)
    teacher_int8, _ = quantize_teacher(teacher, transfer, min_agreement=0.0)

    calib = _calibration_windows(scale, e2e_scale)
    calibration = calibrate_margin_threshold(
        student.predict_proba(calib), teacher.predict_proba(calib),
        target_agreement=e2e_scale["calibration_target_agreement"])
    router = CascadeRouter.from_calibration(
        teacher, calibration, seed=scale["seed"], window=scale["window"])
    # same fast tier, same threshold, same escalation set — only the
    # selector answering the escalated rows changes
    router_int8 = CascadeRouter.from_calibration(
        teacher_int8, calibration, seed=scale["seed"], window=scale["window"],
        slow_tier="teacher-int8")
    return (teacher, student, router, router_int8, calibration,
            detector_names)


def _make_service(plan, teacher, student, routers, detector_names, window):
    if plan == "always-teacher":
        return SelectionService(teacher, detector_names,
                                ServingConfig(window=window))
    return SelectionService(student, detector_names,
                            ServingConfig(window=window, selector_tier="student"),
                            cascade=routers.get(plan))


def _per_request_latencies(plan, records, repeats, make_service):
    """Best-of-``repeats`` cold per-request latency for each query series."""
    best = np.full(len(records), np.inf)
    for _ in range(repeats):
        service = make_service(plan)  # fresh selection cache each pass
        configure_transform_cache(None)  # and a cold transform cache
        for i, record in enumerate(records):
            start = time.perf_counter()
            service.select_batch([record])
            best[i] = min(best[i], (time.perf_counter() - start) * 1000.0)
    return best


def run_e2e_slo_benchmark(scale=None, tier_scale=None, e2e_scale=None,
                          verbose=True):
    """Race the three plans per request, then sweep the admission frontier."""
    scale = dict(SERVING_SCALE, **(scale or {}))
    tier_scale = dict(TIER_SCALE, **(tier_scale or {}))
    e2e_scale = dict(E2E_SCALE, **(e2e_scale or {}))
    scale["query_length"] = e2e_scale["query_length"]
    scale["n_query_series"] = e2e_scale["n_query_series"]
    window = scale["window"]

    (teacher, student, router, router_int8, calibration,
     detector_names) = _build_tiers(scale, tier_scale, e2e_scale)
    records = _query_records(scale)
    routers = {"cascade": router, "cascade-int8": router_int8}

    def make_service(plan):
        return _make_service(plan, teacher, student, routers,
                             detector_names, window)

    plans = ("always-teacher", "always-student", "cascade", "cascade-int8")
    latencies = {
        plan: _per_request_latencies(plan, records, e2e_scale["timing_repeats"],
                                     make_service)
        for plan in plans
    }
    percentiles = {
        plan: {"p50": float(np.percentile(ms, 50)),
               "p99": float(np.percentile(ms, 99))}
        for plan, ms in latencies.items()
    }

    # quality: window-level selection agreement vs the teacher on the same
    # query windows the services just answered (route() is the exact math
    # the cascade service runs per batch)
    query_windows = np.vstack([extract_windows(r.series, window) for r in records])
    teacher_proba = teacher.predict_proba(query_windows)
    student_proba = student.predict_proba(query_windows)
    cascade_proba, escalated = router.route(query_windows, student_proba)
    cascade_int8_proba, escalated_int8 = router_int8.route(query_windows,
                                                           student_proba)
    assert np.array_equal(escalated, escalated_int8), \
        "the two cascades must escalate the exact same window rows"
    agreement = {
        "always-teacher": 1.0,
        "always-student": selection_agreement(student_proba, teacher_proba),
        "cascade": selection_agreement(cascade_proba, teacher_proba),
        "cascade-int8": selection_agreement(cascade_int8_proba, teacher_proba),
    }

    # admission frontier: fit the cost model from the measured latencies,
    # then let the router admit at SLOs swept around the teacher's p50.
    # Shorter probe queries give the fit a second window count — with a
    # single count the per-window slope is unidentifiable from the
    # intercept and escalating even one window would be priced at a full
    # teacher pass.
    n_windows = len(extract_windows(records[0].series, window))
    probe_records = _query_records(dict(
        scale, query_length=max(4 * window, e2e_scale["query_length"] // 4),
        n_query_series=max(4, e2e_scale["n_query_series"] // 2)))
    probe_windows = len(extract_windows(probe_records[0].series, window))
    probe_latencies = {
        plan: _per_request_latencies(plan, probe_records, 2, make_service)
        for plan in ("always-teacher", "always-student")
    }
    observations = [
        CostObservation(kind="selector_forward", target=tier,
                        n_windows=count, window=window, wall_ms=float(ms))
        for tier, plan in (("teacher", "always-teacher"),
                           ("student", "always-student"))
        for count, ms_array in ((n_windows, latencies[plan]),
                                (probe_windows, probe_latencies[plan]))
        for ms in ms_array
    ]
    router.cost_model = CostModel.fit(observations, window=window)
    teacher_p50 = percentiles["always-teacher"]["p50"]
    frontier = []
    for multiple in SLO_SWEEP:
        slo_ms = multiple * teacher_p50
        decision = router.admit(n_windows, latency_slo_ms=slo_ms)
        frontier.append({"slo_ms": slo_ms, **decision.as_dict()})

    out = {
        "n_requests": len(records),
        "windows_per_request": n_windows,
        "calibration": calibration.as_dict(),
        "escalation_rate": float(escalated.mean()),
        "percentiles": percentiles,
        "agreement": agreement,
        "speedup_p50": {
            plan: teacher_p50 / percentiles[plan]["p50"] for plan in plans
        },
        "int8_escalation_p99_speedup": (
            percentiles["cascade"]["p99"] / percentiles["cascade-int8"]["p99"]),
        "frontier": frontier,
    }

    if verbose:
        rows = [[plan,
                 f"{percentiles[plan]['p50']:.2f}",
                 f"{percentiles[plan]['p99']:.2f}",
                 f"{out['speedup_p50'][plan]:.2f}x",
                 f"{agreement[plan]:.4f}"]
                for plan in plans]
        print(format_table(
            ["plan", "p50 ms", "p99 ms", "p50 speedup", "window agreement"],
            rows))
        print(f"cascade: threshold {calibration.threshold:.4f}  "
              f"escalated {out['escalation_rate']:.1%} of "
              f"{len(query_windows)} query windows")
        print(f"int8 escalation: p99 {percentiles['cascade-int8']['p99']:.2f} ms "
              f"vs float {percentiles['cascade']['p99']:.2f} ms "
              f"({out['int8_escalation_p99_speedup']:.2f}x)")
        frontier_rows = [[f"{f['slo_ms']:.2f}", f["plan"],
                          f"{f['predicted_ms']:.2f}", f"{f['quality']:.4f}",
                          "yes" if f["fallback"] else ""]
                         for f in frontier]
        print(format_table(
            ["SLO ms", "admitted plan", "predicted ms", "quality", "fallback"],
            frontier_rows))
    return out


def _assert_e2e_contracts(out):
    """The scale-independent contracts (shared by pytest and smoke)."""
    speedup = out["speedup_p50"]["cascade"]
    assert speedup >= MIN_CASCADE_SPEEDUP, (
        f"cascade p50 only {speedup:.2f}x faster than always-teacher "
        f"(need >= {MIN_CASCADE_SPEEDUP}x)")
    agreement = out["agreement"]["cascade"]
    assert agreement >= MIN_CASCADE_AGREEMENT, (
        f"cascade agrees with the teacher on only {agreement:.4f} of query "
        f"windows (need >= {MIN_CASCADE_AGREEMENT})")
    assert out["agreement"]["cascade"] >= out["agreement"]["always-student"] - 1e-12, (
        "escalating windows to the teacher must not lower agreement below "
        "the always-student floor")
    p99 = {plan: out["percentiles"][plan]["p99"]
           for plan in ("cascade", "cascade-int8")}
    assert p99["cascade-int8"] <= MAX_INT8_P99_RATIO * p99["cascade"], (
        f"int8 escalation inflated the cascade p99: "
        f"{p99['cascade-int8']:.2f} ms vs float {p99['cascade']:.2f} ms "
        f"(allowed ratio {MAX_INT8_P99_RATIO})")
    int8_drop = out["agreement"]["cascade"] - out["agreement"]["cascade-int8"]
    assert int8_drop <= MAX_INT8_AGREEMENT_DROP, (
        f"int8 escalation dropped window agreement by {int8_drop:.4f} "
        f"(allowed <= {MAX_INT8_AGREEMENT_DROP})")
    # the frontier must be monotone: a looser SLO never admits a plan of
    # lower predicted quality, and an impossible SLO falls back (flagged)
    qualities = [f["quality"] for f in out["frontier"] if not f["fallback"]]
    assert qualities == sorted(qualities), (
        f"admission frontier is not quality-monotone: {qualities}")


@pytest.mark.benchmark(group="e2e-slo")
def test_e2e_slo_frontier(benchmark):
    """Cascade: >= 2x teacher p50 at <= 1 % window-agreement drop."""
    out = benchmark.pedantic(run_e2e_slo_benchmark, rounds=1, iterations=1)
    _assert_e2e_contracts(out)


# --------------------------------------------------------------------------- #
# smoke mode (CI gate against recorded baselines)
# --------------------------------------------------------------------------- #
def run_smoke(record: bool = False) -> int:
    out = run_e2e_slo_benchmark(
        scale={"n_train_series": 6, "epochs": 1},
        tier_scale={"n_transfer_series": 12, "distill_epochs": 15},
        e2e_scale={"n_query_series": 12, "query_length": 3200,
                   "n_calibration_series": 6, "timing_repeats": 2},
    )
    _assert_e2e_contracts(out)  # absolute contracts hold at any scale
    measured = {
        "cascade_p50_speedup": round(out["speedup_p50"]["cascade"], 3),
        "student_p50_speedup": round(out["speedup_p50"]["always-student"], 3),
        "int8_cascade_p50_speedup": round(out["speedup_p50"]["cascade-int8"], 3),
    }
    print(f"smoke measurements: {json.dumps(measured)}")

    if record:
        baselines_doc = json.loads(BASELINES_PATH.read_text()) \
            if BASELINES_PATH.exists() else {}
        baselines_doc["e2e_slo"] = {
            "description": ("bench_e2e_slo --smoke baselines "
                            "(plan p50 speedups; regenerate with --record)"),
            **measured,
        }
        BASELINES_PATH.write_text(json.dumps(baselines_doc, indent=2) + "\n")
        print(f"recorded baselines -> {BASELINES_PATH}")
        return 0

    baselines = json.loads(BASELINES_PATH.read_text())["e2e_slo"]
    failures = []
    for key, baseline in baselines.items():
        if key == "description":
            continue
        floor = REGRESSION_TOLERANCE * baseline
        if measured[key] < floor:
            failures.append(f"{key}: measured {measured[key]:.2f} < "
                            f"{floor:.2f} (80% of baseline {baseline:.2f})")
    if failures:
        print("SMOKE REGRESSION:\n  " + "\n  ".join(failures))
        return 1
    print("smoke: OK (within 20% of recorded baselines)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale run gated against baselines.json")
    parser.add_argument("--record", action="store_true",
                        help="with --smoke: rewrite the e2e_slo baselines")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(record=args.record)
    out = run_e2e_slo_benchmark()
    _assert_e2e_contracts(out)
    print("e2e SLO: all acceptance assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
