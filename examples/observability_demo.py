"""Observability walkthrough: metrics, tracing, audit replay and explain.

Runs the streaming engine under full instrumentation (``repro.obs``) and
demonstrates each surface:

1. **Metrics** — the process-wide registry collects cache, engine and
   serving counters/histograms and renders Prometheus text.
2. **Tracing** — explicit-clock spans (``engine.flush`` with nested
   ``engine.forward`` / ``engine.score``) exported as JSONL.
3. **Audit trail** — every selection/drift/re-selection is recorded with
   content-hashed inputs; a recorded selection is then **replayed
   bit-for-bit** from the log + the series bytes alone.
4. **Explain** — the per-window vote breakdown, winner margin and drift
   trajectory, from live engine state *and* from the audit log.
5. **Sharded audit** — the same ticks through a 2-shard
   ``ShardedService``: each shard ships the events its engine recorded,
   so the sharded log explains exactly like the in-process one.

The invariant on display: with everything enabled, selections and scores
are bitwise identical to an uninstrumented run.

Run with:  python examples/observability_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.data import generate_series
from repro.service import ServiceConfig, ShardedService, make_engine_factory
from repro.streaming import DriftConfig, StreamEngine, StreamingConfig
from repro.system import ModelSelectionPipeline, PipelineConfig


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_obs_demo_"))

    # ------------------------------------------------------------------ #
    # 0. Train a small selector (the batch pipeline's job), then switch
    #    every observability surface on BEFORE building engines.
    # ------------------------------------------------------------------ #
    history = [generate_series(name, 0, 600, seed=1)
               for name in ("ECG", "IOPS", "MGAB", "SMD")]
    pipeline = ModelSelectionPipeline(
        config=PipelineConfig(window=64, stride=32, detector_window=16))
    print("[0] labelling history + training a ConvNet selector ...")
    pipeline.prepare_training_data(history)
    pipeline.train_selector("ConvNet", mid_channels=8, seed=0)

    registry = obs.enable()
    tracer = obs.Tracer(sink=workdir / "spans.jsonl")
    obs.set_default_tracer(tracer)
    audit = obs.AuditLog(workdir / "audit.jsonl")

    # ------------------------------------------------------------------ #
    # 1. Drive live streams through an instrumented engine.
    # ------------------------------------------------------------------ #
    config = StreamingConfig(window=64, stride=32,
                             drift=DriftConfig(reference_size=8, recent_size=8,
                                               threshold=0.35, release=0.15,
                                               cooldown=8))
    engine = StreamEngine(pipeline.selector, pipeline.detector_names, config,
                          audit=audit)
    streams = {
        "steady": generate_series("ECG", 5, 1500, seed=11).series,
        "drifting": np.concatenate([
            generate_series("IOPS", 6, 750, seed=12).series,
            generate_series("MGAB", 7, 750, seed=13).series,
        ]),
    }

    def drive(target) -> None:
        for start in range(0, 1500, 125):
            for stream_id, series in streams.items():
                target.append(stream_id, series[start:start + 125])
            target.flush()

    print("[1] replaying 2 streams in 125-point ticks ...")
    drive(engine)

    # ------------------------------------------------------------------ #
    # 2. Metrics: the registry saw every layer.
    # ------------------------------------------------------------------ #
    print("\n[2] Prometheus exposition (first lines):")
    for line in registry.render_prometheus().splitlines()[:12]:
        print("   ", line)

    # ------------------------------------------------------------------ #
    # 3. Tracing: nested spans with real durations.
    # ------------------------------------------------------------------ #
    flushes = [s for s in tracer.spans if s.name == "engine.flush"]
    forwards = [s for s in tracer.spans if s.name == "engine.forward"]
    print(f"\n[3] traced {len(tracer.spans)} spans: {len(flushes)} flushes, "
          f"{len(forwards)} nested forward passes "
          f"(JSONL at {workdir / 'spans.jsonl'})")

    # ------------------------------------------------------------------ #
    # 4. Audit replay: re-derive a recorded decision bit-for-bit.
    # ------------------------------------------------------------------ #
    audit.close()
    events = obs.AuditLog.read(workdir / "audit.jsonl")
    final = [e for e in events if e["event"] == "selection"
             and e["stream"] == "drifting" and not e["provisional"]][-1]
    replayed = obs.replay_selection(final, engine.series("drifting"),
                                    pipeline.selector)
    assert replayed["selected_index"] == final["selected_index"]
    assert replayed["votes"] == final["votes"]
    print(f"\n[4] replayed the final 'drifting' selection from the audit log: "
          f"{replayed['selected_model']} — votes bitwise-equal to the "
          f"recording ({len(events)} events on the trail)")

    # ------------------------------------------------------------------ #
    # 5. Explain: live state vs. the recording.
    # ------------------------------------------------------------------ #
    print("\n[5] explain (live engine state):")
    print(obs.format_explain(obs.explain_stream(engine, "drifting")))
    in_process = obs.explain_from_audit(events, "drifting")
    print("\n    explain (audit log alone):")
    print(obs.format_explain(in_process))
    obs.set_default_tracer(None)

    # ------------------------------------------------------------------ #
    # 6. The same ticks through 2 shard processes: each audited flush
    #    returns the events the shard's engine recorded.
    # ------------------------------------------------------------------ #
    sharded_audit = obs.AuditLog(workdir / "sharded_audit.jsonl")
    factory = make_engine_factory(pipeline.selector, pipeline.detector_names, config)
    with ShardedService(factory, ServiceConfig(n_shards=2),
                        audit=sharded_audit) as service:
        drive(service)
    sharded_audit.close()
    sharded_events = obs.AuditLog.read(workdir / "sharded_audit.jsonl")
    sharded = obs.explain_from_audit(sharded_events, "drifting")
    assert sharded == in_process
    print(f"\n[6] explain (2-shard audit log, {len(sharded_events)} events; "
          f"equal to the in-process log's):")
    print(obs.format_explain(sharded))

    obs.disable()
    print(f"\nartifacts kept in {workdir}")


if __name__ == "__main__":
    main()
