"""The ``explain`` surface: why did this stream pick that detector?

Two entry points answer the same question from two sources:

* :func:`explain_stream` interrogates a **live** :class:`StreamEngine` —
  the stream's running vote state, per-window argmax breakdown, winner
  margin, and the drift monitor's statistic trajectory,
* :func:`explain_from_audit` reconstructs the same report from an **audit
  log alone** (a list of recorded events or a JSONL file read with
  :meth:`AuditLog.read`) — no engine, no selector, no series required.

Both return the same JSON-ready shape, so the ``explain`` CLI command can
render either source identically::

    {"stream": ..., "selected_model": ..., "votes": {...},
     "margin": ..., "runner_up": ...,
     "drift": {"statistic": ..., "triggers": ..., "trajectory": [...]}}

:func:`format_explain` renders the report as the fixed-width tables the
rest of the CLI prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..selectors.teacher_int8 import quant_summary


def _margin(votes: Dict[str, float]) -> Dict[str, object]:
    """Winner margin + runner-up from a ``{model: share}`` vote map."""
    ranked = sorted(votes.items(), key=lambda kv: -kv[1])
    if not ranked:
        return {"margin": 0.0, "runner_up": None}
    if len(ranked) == 1:
        return {"margin": float(ranked[0][1]), "runner_up": None}
    return {"margin": float(ranked[0][1] - ranked[1][1]), "runner_up": ranked[1][0]}


def _quantization_block(engine) -> Optional[Dict[str, object]]:
    """Gate summary of whichever int8 selector is in the path: the served
    selector, or the cascade's slow (escalation) selector."""
    slow = getattr(engine.cascade, "slow_selector", None)
    return quant_summary(engine.selector) or quant_summary(slow)


def explain_stream(engine, stream_id: str) -> Dict[str, object]:
    """Explain a live stream's current selection from the engine state."""
    if stream_id not in engine:
        raise KeyError(f"unknown stream {stream_id!r}")
    state = engine._streams[stream_id]
    names: List[str] = list(engine.detector_names)
    view = engine.selection(stream_id)

    votes: Dict[str, float] = {}
    if view is not None:
        votes = {name: float(view.aggregated[k]) for k, name in enumerate(names)}

    # per-window argmax breakdown over the rows the running vote covers
    active = state.probas.values[state.vote_start:]
    window_votes = {name: 0 for name in names}
    if len(active):
        counts = np.bincount(active.argmax(axis=1), minlength=len(names))
        window_votes = {name: int(counts[k]) for k, name in enumerate(names)}

    drift: Optional[Dict[str, object]] = None
    if state.monitor is not None:
        drift = {
            "statistic": float(state.monitor.statistic),
            "triggers": int(state.monitor.triggers),
            "trajectory": [float(s) for s in state.monitor.history],
        }

    cascade: Optional[Dict[str, object]] = None
    if getattr(engine, "cascade", None) is not None:
        last = getattr(state, "last_cascade", None)
        cascade = _cascade_block(last,
                                 escalated_total=getattr(state, "escalated_windows", 0))

    return {
        "source": "engine",
        "stream": stream_id,
        "selector_tier": getattr(engine.config, "selector_tier", "teacher"),
        "selected_index": None if view is None else int(view.selected_index),
        "selected_model": (None if view is None
                           else names[int(view.selected_index)]),
        "n_windows": 0 if view is None else int(view.n_windows),
        "vote_start": int(state.vote_start),
        "provisional": bool(view.provisional) if view is not None else False,
        "votes": votes,
        "window_votes": window_votes,
        **_margin(votes),
        "drift": drift,
        "cascade": cascade,
        "quantization": _quantization_block(engine),
    }


def _cascade_block(last: Optional[Dict[str, object]],
                   escalated_total: int = 0) -> Dict[str, object]:
    """The cascade section of an explain report: which stage answered, the
    fast tier's weakest margin vs the threshold, predicted-vs-actual cost."""
    if not last:
        return {"enabled": True, "stage": None, "escalated_total": int(escalated_total)}
    escalated = int(last.get("escalated_windows") or 0)
    plan = last.get("plan")
    if plan == "teacher":
        stage = "teacher"
    elif escalated:
        stage = "escalated"
    else:
        stage = "student"
    return {
        "enabled": True,
        "stage": stage,
        "plan": plan,
        "slow_tier": last.get("slow_tier", "teacher"),
        "escalated_windows": escalated,
        "n_new_windows": int(last.get("n_new_windows") or last.get("n_windows") or 0),
        "escalated_total": int(escalated_total),
        "threshold": last.get("threshold"),
        "min_margin": last.get("min_margin"),
        "predicted_ms": last.get("predicted_ms"),
        "actual_forward_ms": last.get("actual_forward_ms"),
        "fallback": bool(last.get("fallback")),
    }


def explain_from_audit(events: List[Dict[str, object]],
                       stream_id: str) -> Dict[str, object]:
    """Explain a stream's last recorded selection from audit events alone."""
    selections = [e for e in events
                  if e.get("event") == "selection" and e.get("stream") == stream_id]
    if not selections:
        raise ValueError(f"no selection events recorded for stream {stream_id!r}")
    last = selections[-1]
    votes = {str(k): float(v) for k, v in dict(last.get("votes") or {}).items()}

    drift_events = [e for e in events
                    if e.get("event") == "drift" and e.get("stream") == stream_id]
    trajectory = [float(e.get("drift_statistic", 0.0)) for e in selections]
    drift = {
        "statistic": trajectory[-1] if trajectory else 0.0,
        "triggers": len(drift_events),
        "trajectory": trajectory,
    }

    return {
        "source": "audit",
        "stream": stream_id,
        "selector_tier": str(last.get("selector_tier") or "teacher"),
        "selected_index": last.get("selected_index"),
        "selected_model": last.get("selected_model"),
        "n_windows": int(last.get("n_windows") or 0),
        "vote_start": int((last.get("inputs") or {}).get("vote_start", 0)),
        "provisional": bool(last.get("provisional")),
        "votes": votes,
        "window_votes": None,  # per-window rows are not audited, only votes
        **_margin(votes),
        "drift": drift,
        "cascade": (_cascade_block(
                        dict(last["cascade"]),
                        escalated_total=sum(int((e.get("cascade") or {})
                                                .get("escalated_windows") or 0)
                                            for e in selections))
                    if last.get("cascade") else None),
        "updates": len(selections),
        "reselections": sum(1 for e in selections if e.get("changed")),
    }


def format_explain(info: Dict[str, object]) -> str:
    """Render one explain report as fixed-width text (the CLI output)."""
    from ..system.reporting import format_table  # deferred: system imports obs-using layers

    tier = info.get("selector_tier") or "teacher"
    lines = [
        f"stream {info['stream']}: selected {info['selected_model']} "
        f"(index {info['selected_index']})"
        + (" [provisional]" if info.get("provisional") else "")
        + (f" [tier: {tier}]" if tier != "teacher" else ""),
        f"windows voting: {info['n_windows']} (vote starts at window "
        f"{info.get('vote_start', 0)})  margin: {info['margin']:.4f}"
        + (f"  runner-up: {info['runner_up']}" if info.get("runner_up") else ""),
    ]
    votes: Dict[str, float] = info.get("votes") or {}
    window_votes = info.get("window_votes")
    if votes:
        if window_votes:
            rows = [[name, share, window_votes.get(name, 0)]
                    for name, share in sorted(votes.items(), key=lambda kv: -kv[1])]
            lines.append(format_table(["Model", "Vote share", "Window votes"], rows))
        else:
            rows = sorted(votes.items(), key=lambda kv: -kv[1])
            lines.append(format_table(["Model", "Vote share"], rows))
    drift = info.get("drift")
    if drift:
        trajectory = drift.get("trajectory") or []
        tail = ", ".join(f"{s:.3f}" for s in trajectory[-8:]) or "-"
        lines.append(f"drift statistic: {drift['statistic']:.4f}  "
                     f"re-selections: {drift['triggers']}  trajectory (last 8): {tail}")
    cascade = info.get("cascade")
    if cascade:
        if cascade.get("stage") is None:
            lines.append("cascade: enabled (no routed flush yet)")
        else:
            margin_txt = ("-" if cascade.get("min_margin") is None
                          else f"{cascade['min_margin']:.4f}")
            threshold_txt = ("-" if cascade.get("threshold") is None
                             else f"{cascade['threshold']:.4f}")
            cost_bits = []
            if cascade.get("predicted_ms") is not None:
                cost_bits.append(f"predicted {cascade['predicted_ms']:.2f} ms")
            if cascade.get("actual_forward_ms") is not None:
                cost_bits.append(f"actual {cascade['actual_forward_ms']:.2f} ms")
            lines.append(
                f"cascade: stage {cascade['stage']} (plan {cascade.get('plan')}"
                + (f", slow tier {cascade['slow_tier']}"
                   if cascade.get("slow_tier") not in (None, "teacher") else "")
                + (", SLO fallback" if cascade.get("fallback") else "")
                + f")  escalated {cascade.get('escalated_windows', 0)}"
                f"/{cascade.get('n_new_windows', 0)} new windows "
                f"({cascade.get('escalated_total', 0)} total)  "
                f"min margin {margin_txt} vs threshold {threshold_txt}"
                + (f"  cost: {', '.join(cost_bits)}" if cost_bits else ""))
    quant = info.get("quantization")
    if quant:
        lines.append(
            f"quantization: agreement {float(quant.get('agreement', 0.0)):.4f} "
            f"on {quant.get('n_calibration', 0)} calibration windows  "
            f"scales hash {quant.get('act_scales_hash', '-')}  "
            f"({quant.get('n_quantized_convs', 0)} int8 convs, "
            f"{quant.get('n_folded_bns', 0)} folded norms)")
    return "\n".join(lines)
