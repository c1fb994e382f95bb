"""Tests for cost-aware cascade selection (repro.cascade).

The load-bearing properties:

* **bitwise opt-in** — with no router attached (or a threshold that never
  escalates) serving and streaming answers are bitwise identical to the
  pre-cascade pipeline; with a threshold that always escalates they are
  bitwise identical to the teacher-only pipeline,
* **content-local determinism** — a window row's escalation verdict
  depends only on its contents, the threshold and the seed, so the
  escalation set is invariant across chunk sizes, tick boundaries and
  shard counts,
* **report-only costs** — clocks feed the audit trail and the cost
  model's training labels, never a routing decision.
"""

import json

import numpy as np
import pytest

from repro.cascade import (
    AdmitDecision,
    CascadeRouter,
    CostModel,
    CostObservation,
    calibrate_margin_threshold,
    harvest_cost_observations,
    margins,
)
from repro.core import TrainerConfig
from repro.data import build_selector_dataset, extract_windows, generate_series
from repro.eval import aggregate_window_probas
from repro.obs import AuditLog, replay_selection
from repro.obs.explain import explain_from_audit, explain_stream, format_explain
from repro.selectors import make_selector
from repro.service import ServiceConfig, ShardedService, make_engine_factory
from repro.serving import SelectionService, ServingConfig
from repro.streaming import DriftConfig, StreamEngine, StreamingConfig
from repro.system.cli import main


# --------------------------------------------------------------------------- #
# shared world: a teacher, an imperfect fast tier, deterministic traffic
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cascade_world():
    """Two trained selectors + live traffic, as in test_streaming."""
    train_records = [generate_series(name, 0, 400, seed=4)
                     for name in ("ECG", "IOPS", "MGAB", "SMD")]
    detector_names = ["IForest", "HBOS", "MP", "POLY"]
    gen = np.random.default_rng(9)
    matrix = gen.uniform(0.05, 0.4, size=(len(train_records), len(detector_names)))
    matrix[np.arange(len(train_records)), np.arange(len(train_records))] += 0.5
    dataset = build_selector_dataset(train_records, matrix, detector_names,
                                     window=64, stride=64)

    teacher = make_selector("MLP", window=64, n_classes=4, hidden=16,
                            feature_dim=8, seed=0)
    teacher.fit(dataset, config=TrainerConfig(epochs=2, batch_size=32))
    # a thinner, differently-seeded selector stands in for the distilled
    # student: same interface, imperfect agreement, so escalations happen
    fast = make_selector("MLP", window=64, n_classes=4, hidden=8,
                         feature_dim=8, seed=1)
    fast.fit(dataset, config=TrainerConfig(epochs=1, batch_size=32))

    queries = [generate_series(name, 3, 700, seed=6)
               for name in ("ECG", "IOPS", "MGAB", "SMD", "NAB")]
    streams = {record.name: np.asarray(record.series) for record in queries}
    return {"teacher": teacher, "fast": fast,
            "detector_names": detector_names, "streams": streams}


def _router(world, threshold=0.1, seed=0, **kwargs):
    return CascadeRouter(world["teacher"], threshold=threshold, seed=seed,
                         window=64, **kwargs)


def _drive(target, streams, chunk=100):
    """Feed every stream in fixed-size ticks; returns updates per stream."""
    updates = {}
    length = max(len(s) for s in streams.values())
    for start in range(0, length, chunk):
        for sid, series in streams.items():
            piece = series[start:start + chunk]
            if len(piece):
                target.append(sid, piece)
        for sid, update in target.flush().items():
            updates[sid] = update.as_dict() if hasattr(update, "as_dict") else update
    return updates


def _strip(update, *keys):
    return {k: v for k, v in update.items() if k not in keys}


# --------------------------------------------------------------------------- #
# cost model
# --------------------------------------------------------------------------- #
class TestCostModel:
    def test_fit_recovers_tier_line(self):
        observations = [
            CostObservation(kind="selector_forward", target="teacher",
                            n_windows=n, window=96, wall_ms=2.0 + 0.5 * n)
            for n in (1, 4, 16, 64, 256)
        ]
        model = CostModel.fit(observations, window=96)
        assert model.predict_latency_ms("teacher", 100) == pytest.approx(52.0, rel=0.01)

    def test_unseen_tier_keeps_analytic_default(self):
        model = CostModel.fit([], window=96)
        default = CostModel.default(96)
        assert model.predict_latency_ms("student", 40) \
            == default.predict_latency_ms("student", 40)

    def test_predictions_are_non_negative(self):
        observations = [
            CostObservation(kind="selector_forward", target="teacher",
                            n_windows=n, window=96, wall_ms=ms)
            for n, ms in ((10, 50.0), (100, 5.0))  # absurd negative slope
        ]
        model = CostModel.fit(observations, window=96)
        assert model.predict_latency_ms("teacher", 10_000) >= 0.0

    def test_save_load_round_trip(self, tmp_path):
        observations = [
            CostObservation(kind="selector_forward", target="student",
                            n_windows=n, window=64, wall_ms=1.0 + 0.1 * n)
            for n in (2, 8, 32)
        ]
        model = CostModel.fit(observations, window=64)
        path = tmp_path / "cost_model.json"
        model.save(path)
        loaded = CostModel.load(path)
        assert loaded.to_dict() == model.to_dict()
        assert loaded.predict_latency_ms("student", 20) \
            == model.predict_latency_ms("student", 20)

    def test_older_files_with_a_memory_table_load(self, tmp_path):
        path = tmp_path / "older.json"
        path.write_text(json.dumps({
            "window": 64,
            "latency_ms": {"teacher": [1.5, 0.2]},
            "memory_mb": {"teacher": [2.0, 0.012]}}))
        model = CostModel.load(path)
        assert model.predict_latency_ms("teacher", 10) == pytest.approx(3.5)
        assert "memory_mb" not in model.to_dict()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"not\": \"a cost model\"}")
        with pytest.raises((KeyError, ValueError)):
            CostModel.load(path)


class TestHarvest:
    def test_harvest_round_trips_and_skips_malformed(self):
        obs = CostObservation(kind="selector_forward", target="teacher",
                              n_windows=12, window=64, wall_ms=3.25)
        events = [
            {"event": "selection", "stream": "s0"},
            {"event": "cost_observation", **obs.as_dict()},
            {"event": "cost_observation", "kind": "detection"},  # malformed
            # older logs carry a memory peak, which is ignored
            {"event": "cost_observation", **obs.as_dict(), "peak_mb": 1.5},
        ]
        harvested = harvest_cost_observations(events)
        assert harvested == [obs, obs]


# --------------------------------------------------------------------------- #
# margins + threshold calibration
# --------------------------------------------------------------------------- #
class TestCalibration:
    def test_margins_are_top1_minus_top2(self):
        proba = np.array([[0.7, 0.2, 0.1], [0.4, 0.4, 0.2]])
        assert margins(proba) == pytest.approx([0.5, 0.0])

    def test_calibration_meets_target_on_kept_windows(self):
        gen = np.random.default_rng(0)
        slow = gen.dirichlet(np.ones(4) * 0.5, size=400)
        noise = gen.normal(scale=0.12, size=slow.shape)
        fast = np.abs(slow + noise)
        fast /= fast.sum(axis=1, keepdims=True)
        cal = calibrate_margin_threshold(fast, slow, target_agreement=0.99)
        kept = margins(fast) > cal.threshold
        fast_pick = fast[kept].argmax(axis=1)
        slow_pick = slow[kept].argmax(axis=1)
        assert (fast_pick == slow_pick).mean() >= 0.99
        assert 0.0 < cal.escalation_rate < 1.0

    def test_perfect_agreement_escalates_nothing(self):
        proba = np.eye(4)[np.array([0, 1, 2, 3, 0, 1])]
        cal = calibrate_margin_threshold(proba, proba, target_agreement=0.99)
        assert cal.escalation_rate == 0.0
        assert cal.kept_agreement == 1.0

    def test_hopeless_fast_tier_escalates_everything(self):
        # fast always disagrees with slow -> no prefix can reach the target
        fast = np.tile([0.9, 0.1], (50, 1))
        slow = np.tile([0.1, 0.9], (50, 1))
        cal = calibrate_margin_threshold(fast, slow, target_agreement=0.99)
        assert cal.escalation_rate == 1.0
        assert (margins(fast) < cal.threshold).all()

    def test_tied_margins_move_together(self):
        # four identical rows (one margin value): the cut may not split them
        fast = np.tile([0.6, 0.4], (4, 1))
        slow = np.array([[0.7, 0.3], [0.7, 0.3], [0.3, 0.7], [0.3, 0.7]])
        cal = calibrate_margin_threshold(fast, slow, target_agreement=0.99)
        mask = margins(fast) < cal.threshold
        assert mask.all() or not mask.any()


# --------------------------------------------------------------------------- #
# router: deterministic, content-local escalation
# --------------------------------------------------------------------------- #
class TestRouterDeterminism:
    @pytest.fixture(scope="class")
    def query_windows(self, cascade_world):
        return np.vstack([extract_windows(s, 64, stride=64)
                          for s in cascade_world["streams"].values()])

    def test_escalation_is_chunk_invariant(self, cascade_world, query_windows):
        router = _router(cascade_world)
        fast_proba = cascade_world["fast"].predict_proba(query_windows)
        full_mask = router.escalate_mask(fast_proba, query_windows)
        for chunk in (1, 7, 16, len(query_windows)):
            parts = [router.escalate_mask(fast_proba[i:i + chunk],
                                          query_windows[i:i + chunk])
                     for i in range(0, len(query_windows), chunk)]
            assert np.array_equal(np.concatenate(parts), full_mask)

    def test_same_seed_reproduces_routing(self, cascade_world, query_windows):
        fast_proba = cascade_world["fast"].predict_proba(query_windows)
        mask_a = _router(cascade_world, seed=7).escalate_mask(fast_proba,
                                                              query_windows)
        mask_b = _router(cascade_world, seed=7).escalate_mask(fast_proba,
                                                              query_windows)
        assert np.array_equal(mask_a, mask_b)

    def test_route_preserves_confident_rows_bitwise(self, cascade_world,
                                                    query_windows):
        router = _router(cascade_world)
        fast_proba = cascade_world["fast"].predict_proba(query_windows)
        routed, mask = router.route(query_windows, fast_proba)
        assert np.array_equal(routed[~mask], fast_proba[~mask])
        if mask.any():
            teacher_rows = cascade_world["teacher"].predict_proba(
                query_windows[mask])
            assert np.array_equal(routed[mask], teacher_rows)

    def test_threshold_extremes_select_pure_tiers(self, cascade_world,
                                                  query_windows):
        fast_proba = cascade_world["fast"].predict_proba(query_windows)
        never, none_mask = _router(cascade_world, threshold=-1.0).route(
            query_windows, fast_proba)
        assert not none_mask.any()
        assert never is fast_proba  # no escalation -> fast rows untouched
        always, all_mask = _router(cascade_world, threshold=2.0).route(
            query_windows, fast_proba)
        assert all_mask.all()
        assert np.array_equal(
            always, cascade_world["teacher"].predict_proba(query_windows))


class TestAdmission:
    def test_no_slo_admits_cascade(self, cascade_world):
        decision = _router(cascade_world).admit(100)
        assert isinstance(decision, AdmitDecision)
        assert decision.plan == "cascade" and not decision.fallback

    def test_loose_slo_admits_teacher(self, cascade_world):
        decision = _router(cascade_world).admit(100, latency_slo_ms=1e9)
        assert decision.plan == "teacher" and decision.quality == 1.0

    def test_impossible_slo_falls_back_to_cheapest(self, cascade_world):
        decision = _router(cascade_world).admit(100, latency_slo_ms=1e-6)
        assert decision.fallback
        assert decision.plan == "fast"  # cheapest predicted plan

    def test_admission_never_consults_a_clock(self, cascade_world):
        router = _router(cascade_world)
        first = router.admit(64, latency_slo_ms=5.0)
        again = router.admit(64, latency_slo_ms=5.0)
        assert first.as_dict() == again.as_dict()


# --------------------------------------------------------------------------- #
# serving integration
# --------------------------------------------------------------------------- #
class TestServingCascade:
    def _service(self, world, cascade=None, **cfg):
        config = ServingConfig(window=64, selector_tier="student", **cfg)
        return SelectionService(world["fast"], world["detector_names"],
                                config, cascade=cascade)

    def _records(self, world):
        return [generate_series(name, 5, 600, seed=11)
                for name in ("ECG", "IOPS", "MGAB")]

    def test_disabled_cascade_is_bitwise_identical(self, cascade_world):
        records = self._records(cascade_world)
        plain = self._service(cascade_world).select_batch(records)
        never = self._service(
            cascade_world,
            cascade=_router(cascade_world, threshold=-1.0)).select_batch(records)
        assert [r.votes for r in never] == [r.votes for r in plain]
        assert [r.selected_index for r in never] == [r.selected_index for r in plain]

    def test_always_escalating_matches_teacher_service(self, cascade_world):
        records = self._records(cascade_world)
        teacher_service = SelectionService(
            cascade_world["teacher"], cascade_world["detector_names"],
            ServingConfig(window=64))
        expected = teacher_service.select_batch(records)
        routed = self._service(
            cascade_world,
            cascade=_router(cascade_world, threshold=2.0)).select_batch(records)
        assert [r.votes for r in routed] == [r.votes for r in expected]

    def test_audit_records_costs_and_cascade(self, cascade_world):
        audit = AuditLog()
        service = SelectionService(
            cascade_world["fast"], cascade_world["detector_names"],
            ServingConfig(window=64, selector_tier="student"),
            audit=audit, cascade=_router(cascade_world, threshold=2.0))
        service.select_batch(self._records(cascade_world))
        costs = audit.events(event="cost_observation")
        assert costs and all(e["kind"] == "selector_forward" for e in costs)
        tiers = {e["target"] for e in costs}
        assert "teacher" in tiers  # the escalation forward was measured too
        assert service.last_cascade["plan"] == "cascade"
        assert service.last_cascade["escalated_windows"] > 0

    def test_slo_fallback_is_audited_and_answers_anyway(self, cascade_world):
        audit = AuditLog()
        service = SelectionService(
            cascade_world["fast"], cascade_world["detector_names"],
            ServingConfig(window=64, selector_tier="student",
                          latency_slo_ms=1e-6),
            audit=audit, cascade=_router(cascade_world))
        results = service.select_batch(self._records(cascade_world))
        assert len(results) == 3  # degraded, never refused
        fallbacks = audit.events(event="slo_fallback")
        assert fallbacks and fallbacks[0]["fallback"] is True


# --------------------------------------------------------------------------- #
# streaming integration
# --------------------------------------------------------------------------- #
class TestStreamingCascade:
    def _engine(self, world, cascade=None, audit=None, **cfg):
        cfg.setdefault("window", 64)
        cfg.setdefault("stride", 64)
        return StreamEngine(world["fast"], world["detector_names"],
                            StreamingConfig(**cfg), audit=audit,
                            cascade=cascade)

    def test_disabled_cascade_is_bitwise_identical(self, cascade_world):
        plain = _drive(self._engine(cascade_world), cascade_world["streams"])
        never = _drive(self._engine(cascade_world,
                                    cascade=_router(cascade_world,
                                                    threshold=-1.0)),
                       cascade_world["streams"])
        assert never == plain  # escalated_windows stays 0 on both sides

    def test_always_escalating_matches_teacher_engine(self, cascade_world):
        teacher_engine = StreamEngine(
            cascade_world["teacher"], cascade_world["detector_names"],
            StreamingConfig(window=64, stride=64))
        expected = _drive(teacher_engine, cascade_world["streams"])
        routed = _drive(self._engine(cascade_world,
                                     cascade=_router(cascade_world,
                                                     threshold=2.0)),
                        cascade_world["streams"])
        for sid, update in routed.items():
            assert _strip(update, "escalated_windows") \
                == _strip(expected[sid], "escalated_windows")
            assert update["escalated_windows"] > 0
            assert expected[sid]["escalated_windows"] == 0

    def test_escalation_set_is_tick_invariant(self, cascade_world):
        runs = {}
        for chunk in (32, 100, 700):
            engine = self._engine(cascade_world,
                                  cascade=_router(cascade_world))
            _drive(engine, cascade_world["streams"], chunk=chunk)
            runs[chunk] = {
                "escalated": engine.stats.escalated_windows,
                "selections": {sid: engine.selection(sid).selected_index
                               for sid in cascade_world["streams"]},
            }
        assert runs[32] == runs[100] == runs[700]
        assert runs[32]["escalated"] > 0  # the invariance is not vacuous

    def test_same_seed_reproduces_run(self, cascade_world):
        first = _drive(self._engine(cascade_world,
                                    cascade=_router(cascade_world, seed=3)),
                       cascade_world["streams"])
        second = _drive(self._engine(cascade_world,
                                     cascade=_router(cascade_world, seed=3)),
                        cascade_world["streams"])
        assert first == second

    def test_slo_fallback_counted_and_audited(self, cascade_world):
        audit = AuditLog()
        engine = self._engine(cascade_world, audit=audit,
                              cascade=_router(cascade_world),
                              latency_slo_ms=1e-6)
        _drive(engine, cascade_world["streams"])
        assert engine.stats.slo_fallbacks > 0
        fallbacks = audit.events(event="slo_fallback")
        assert fallbacks and fallbacks[0]["layer"] == "streaming"
        # degraded to the cheapest plan, but every stream still answered
        for sid in cascade_world["streams"]:
            assert engine.selection(sid) is not None

    def test_selection_audit_carries_cascade_fields(self, cascade_world):
        audit = AuditLog()
        engine = self._engine(cascade_world, audit=audit,
                              cascade=_router(cascade_world))
        _drive(engine, cascade_world["streams"])
        selections = audit.events(event="selection")
        assert selections
        assert all("cascade" in e for e in selections)
        assert {e["cascade"]["plan"] for e in selections} <= {"cascade", "fast"}

    def test_concurrent_streams_under_drift_match_lone_streams(self, cascade_world,
                                                               drifting_streams):
        drift = {"drift": DriftConfig(reference_size=3, recent_size=3, threshold=0.05,
                                      release=0.01, cooldown=3),
                 "keep_last_on_drift": 3}
        together = self._engine(cascade_world, cascade=_router(cascade_world), **drift)
        updates = _drive(together, drifting_streams, chunk=64)
        assert together.stats.drift_triggers >= 1
        assert together.stats.escalated_windows > 0
        for sid, series in drifting_streams.items():
            alone = self._engine(cascade_world, cascade=_router(cascade_world), **drift)
            assert _drive(alone, {sid: series}, chunk=64)[sid] == updates[sid]


# --------------------------------------------------------------------------- #
# the three admitted plans, pinned on both layers
# --------------------------------------------------------------------------- #
#: ``latency_slo_ms`` and the plan admission picks for it: every plan fits a
#: huge SLO (the teacher has the best quality), none fits a tiny one (the
#: fast tier is the cheapest fallback), and no SLO admits the cascade
ADMITTED_PLANS = [(1e9, "teacher"), (None, "cascade"), (1e-6, "fast")]


def _routed_answer(world, router, windows):
    """``(selected_index, votes)`` of the cascade plan, recomputed by hand."""
    proba, _ = router.route(windows, world["fast"].predict_proba(windows))
    choice, aggregated = aggregate_window_probas(proba, "vote")
    return choice, [float(v) for v in aggregated]


class TestAdmittedPlans:
    """Each admitted plan answers exactly like the path it names."""

    @pytest.mark.parametrize("slo,plan", ADMITTED_PLANS)
    def test_service_answers_like_admitted_plan(self, cascade_world, slo, plan):
        names = cascade_world["detector_names"]
        records = [generate_series(name, 5, 600, seed=11)
                   for name in ("ECG", "IOPS", "MGAB")]
        router = _router(cascade_world)
        service = SelectionService(
            cascade_world["fast"], names,
            ServingConfig(window=64, selector_tier="student", latency_slo_ms=slo),
            cascade=router)
        got = [(r.selected_index, list(r.votes.values()))
               for r in service.select_batch(records)]
        assert service.last_cascade["plan"] == plan
        if plan == "cascade":
            expected = [_routed_answer(cascade_world, router,
                                       extract_windows(r.series, 64))
                        for r in records]
        else:
            alone = SelectionService(cascade_world[plan], names,
                                     ServingConfig(window=64))
            expected = [(r.selected_index, list(r.votes.values()))
                        for r in alone.select_batch(records)]
        assert got == expected

    @pytest.mark.parametrize("slo,plan", ADMITTED_PLANS)
    def test_engine_answers_like_admitted_plan(self, cascade_world, slo, plan):
        names, streams = cascade_world["detector_names"], cascade_world["streams"]
        router = _router(cascade_world)
        engine = StreamEngine(
            cascade_world["fast"], names,
            StreamingConfig(window=64, stride=64, latency_slo_ms=slo),
            cascade=router)
        got = _drive(engine, streams)
        assert {explain_stream(engine, sid)["cascade"]["plan"]
                for sid in streams} == {plan}
        if plan == "cascade":
            for sid, series in streams.items():
                choice, votes = _routed_answer(
                    cascade_world, router, extract_windows(series, 64, stride=64))
                assert got[sid]["selected_index"] == choice
                assert list(got[sid]["votes"].values()) == votes
        else:
            alone = StreamEngine(cascade_world[plan], names,
                                 StreamingConfig(window=64, stride=64))
            assert got == _drive(alone, streams)


# --------------------------------------------------------------------------- #
# sharded service: escalation is shard-count invariant
# --------------------------------------------------------------------------- #
class TestShardedCascade:
    @pytest.fixture(scope="class")
    def single_process_run(self, cascade_world):
        engine = StreamEngine(cascade_world["fast"],
                              cascade_world["detector_names"],
                              StreamingConfig(window=64, stride=64),
                              cascade=_router(cascade_world))
        updates = _drive(engine, cascade_world["streams"])
        return {"updates": updates,
                "escalated": engine.stats.escalated_windows}

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_escalation_invariant_across_shard_counts(self, cascade_world,
                                                      single_process_run,
                                                      n_shards):
        factory = make_engine_factory(
            cascade_world["fast"], cascade_world["detector_names"],
            StreamingConfig(window=64, stride=64),
            cascade=_router(cascade_world))
        with ShardedService(factory,
                            ServiceConfig(n_shards=n_shards)) as service:
            updates = _drive(service, cascade_world["streams"])
            totals = service.stats()["totals"]
        assert updates == single_process_run["updates"]
        assert totals["escalated_windows"] == single_process_run["escalated"]
        assert totals["escalated_windows"] > 0
        assert totals["slo_fallbacks"] == 0


# --------------------------------------------------------------------------- #
# one audit path: shards ship the events their engine recorded
# --------------------------------------------------------------------------- #
#: drift settings under which the conftest's flipping streams re-select
DRIFT = {"drift": DriftConfig(reference_size=3, recent_size=3, threshold=0.05,
                              release=0.01, cooldown=3),
         "keep_last_on_drift": 3}

#: cascade fields that depend on how many windows one flush held (the
#: admission price) and on the clock — everything else must match
FLUSH_DEPENDENT = ("predicted_ms", "actual_forward_ms")


def _decisions(events, stream):
    """One stream's selection/drift/reselection events, minus ``seq`` and
    the flush-dependent cascade costs."""
    kept = []
    for event in events:
        if event.get("stream") != stream \
                or event["event"] not in ("selection", "drift", "reselection"):
            continue
        event = {k: v for k, v in event.items() if k != "seq"}
        if "cascade" in event:
            event["cascade"] = {k: v for k, v in event["cascade"].items()
                                if k not in FLUSH_DEPENDENT}
        kept.append(event)
    return kept


def _audited_runs(world, streams, cascade):
    """``(in_process_events, sharded_events)`` of the same drifting traffic."""
    config = StreamingConfig(window=64, stride=64, **DRIFT)
    in_process = AuditLog()
    _drive(StreamEngine(world["fast"], world["detector_names"], config,
                        audit=in_process, cascade=cascade), streams, chunk=64)
    sharded = AuditLog()
    factory = make_engine_factory(world["fast"], world["detector_names"], config,
                                  cascade=cascade)
    with ShardedService(factory, ServiceConfig(n_shards=2), audit=sharded) as service:
        assert len({service.owner(sid) for sid in streams}) == 2
        _drive(service, streams, chunk=64)
    return in_process.events(), sharded.events()


class TestShardedAudit:
    @pytest.fixture(scope="class")
    def cascade_logs(self, cascade_world, drifting_streams):
        return _audited_runs(cascade_world, drifting_streams, _router(cascade_world))

    def test_same_event_kinds_as_in_process(self, cascade_logs):
        in_process, sharded = cascade_logs
        kinds = {e["event"] for e in in_process}
        assert {"selection", "drift", "cost_observation"} <= kinds
        assert {e["event"] for e in sharded} == kinds

    def test_decisions_equal_field_by_field(self, cascade_logs, drifting_streams):
        in_process, sharded = cascade_logs
        for sid in drifting_streams:
            expected = _decisions(in_process, sid)
            assert any("cascade" in e for e in expected)
            assert _decisions(sharded, sid) == expected

    def test_sharded_log_trains_and_explains_the_cascade(self, cascade_logs,
                                                         drifting_streams):
        _, sharded = cascade_logs
        assert harvest_cost_observations(sharded)
        for sid in drifting_streams:
            assert explain_from_audit(sharded, sid)["cascade"]["plan"] == "cascade"

    def test_sharded_selections_replay_bitwise(self, cascade_world,
                                               drifting_streams):
        _, sharded = _audited_runs(cascade_world, drifting_streams, None)
        for sid, series in drifting_streams.items():
            final = [e for e in sharded if e["event"] == "selection"
                     and e["stream"] == sid and not e["provisional"]][-1]
            assert final["inputs"]["vote_start"] > 0  # drift narrowed the vote
            replayed = replay_selection(final, series, cascade_world["fast"])
            assert replayed["selected_index"] == final["selected_index"]
            assert replayed["votes"] == final["votes"]
            assert replayed["n_windows"] == final["n_windows"]


class TestCascadeReplay:
    def test_replay_refuses_an_escalated_vote(self, cascade_world):
        audit = AuditLog()
        engine = StreamEngine(cascade_world["fast"],
                              cascade_world["detector_names"],
                              StreamingConfig(window=64, stride=64),
                              audit=audit, cascade=_router(cascade_world))
        _drive(engine, cascade_world["streams"])
        escalated = [sid for sid in cascade_world["streams"]
                     if explain_stream(engine, sid)["cascade"]["escalated_total"]]
        assert escalated
        sid = escalated[0]
        final = audit.events(event="selection", stream=sid)[-1]
        # no drift: the vote covers every window, the escalated ones included
        assert final["inputs"]["vote_start"] == 0
        with pytest.raises(ValueError, match="cascade"):
            replay_selection(final, engine.series(sid), cascade_world["fast"])


# --------------------------------------------------------------------------- #
# explain + train-cost-model CLI
# --------------------------------------------------------------------------- #
class TestExplainCascade:
    def test_live_explain_reports_stage_and_margin(self, cascade_world):
        engine = StreamEngine(cascade_world["fast"],
                              cascade_world["detector_names"],
                              StreamingConfig(window=64, stride=64),
                              cascade=_router(cascade_world))
        _drive(engine, cascade_world["streams"])
        sid = next(iter(cascade_world["streams"]))
        info = explain_stream(engine, sid)
        block = info["cascade"]
        assert block["enabled"] and block["stage"] in ("student", "escalated")
        assert block["threshold"] == pytest.approx(0.1)
        assert block["min_margin"] is not None
        assert "cascade:" in format_explain(info)

    def test_explain_without_cascade_omits_block(self, cascade_world):
        engine = StreamEngine(cascade_world["fast"],
                              cascade_world["detector_names"],
                              StreamingConfig(window=64, stride=64))
        _drive(engine, cascade_world["streams"])
        sid = next(iter(cascade_world["streams"]))
        info = explain_stream(engine, sid)
        assert info["cascade"] is None
        assert "cascade:" not in format_explain(info)

    def test_explain_from_audit_reconstructs_decision(self, cascade_world):
        audit = AuditLog()
        engine = StreamEngine(cascade_world["fast"],
                              cascade_world["detector_names"],
                              StreamingConfig(window=64, stride=64),
                              audit=audit, cascade=_router(cascade_world))
        _drive(engine, cascade_world["streams"])
        sid = next(iter(cascade_world["streams"]))
        live = explain_stream(engine, sid)["cascade"]
        replayed = explain_from_audit(audit.events(), sid)["cascade"]
        assert replayed["plan"] == live["plan"]
        assert replayed["escalated_total"] == live["escalated_total"]


class TestTrainCostModelCLI:
    def _audit_file(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        audit = AuditLog(path=path)
        for n, ms in ((4, 4.0), (16, 10.0), (64, 34.0)):
            audit.record("cost_observation", **CostObservation(
                kind="selector_forward", target="teacher",
                n_windows=n, window=64, wall_ms=ms).as_dict())
        audit.record("selection", stream="s0")  # foreign events are ignored
        audit.close()
        return path

    def test_fits_and_saves_model(self, tmp_path, capsys):
        audit_path = self._audit_file(tmp_path)
        output = tmp_path / "cost_model.json"
        assert main(["train-cost-model", str(audit_path),
                     "--output", str(output), "--window", "64"]) == 0
        model = CostModel.load(output)
        assert model.predict_latency_ms("teacher", 32) == pytest.approx(
            18.0, rel=0.05)
        assert "teacher" in capsys.readouterr().out

    def test_detection_labels_of_older_logs_are_ignored(self, tmp_path):
        plain = self._audit_file(tmp_path)
        older = tmp_path / "older.jsonl"
        older.write_text(plain.read_text() + json.dumps({
            "seq": 99, "event": "cost_observation", "kind": "detection",
            "target": "IForest", "n_windows": 0, "window": 64,
            "wall_ms": 250.0, "peak_mb": None, "length": 1600}) + "\n")
        models = []
        for path in (plain, older):
            output = tmp_path / f"{path.stem}.json"
            assert main(["train-cost-model", str(path), "--output", str(output),
                         "--window", "64"]) == 0
            models.append(CostModel.load(output).to_dict())
        assert models[0] == models[1]

    def test_harvest_only_prints_observations(self, tmp_path, capsys):
        audit_path = self._audit_file(tmp_path)
        assert main(["train-cost-model", str(audit_path),
                     "--harvest-only"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 3
        assert all(line["target"] == "teacher" for line in lines)

    def test_rejects_audit_without_observations(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        audit = AuditLog(path=path)
        audit.record("selection", stream="s0")
        audit.close()
        with pytest.raises(SystemExit, match="no cost_observation"):
            main(["train-cost-model", str(path),
                  "--output", str(tmp_path / "out.json")])

    def test_output_required_without_harvest_only(self, tmp_path):
        with pytest.raises(SystemExit, match="--output"):
            main(["train-cost-model", str(self._audit_file(tmp_path))])
