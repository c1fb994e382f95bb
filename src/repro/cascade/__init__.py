"""Cost-aware cascade selection (the learned-optimizer layer).

``repro.cascade`` routes selector traffic by *predicted cost as well as
quality*, in the spirit of BAO/MSCN-style learned query optimizers:

* :mod:`repro.cascade.cost_model` — a learned per-tier latency predictor
  (one line per tier), trained from the ``cost_observation`` events of
  audit logs, with a deterministic analytic fallback;
* :mod:`repro.cascade.router` — the confidence-gated cascade (fast tier
  answers confident windows, uncertain ones escalate to the teacher) and
  latency-SLO admission over priced plans;
* :mod:`repro.cascade.executor` — :class:`ForwardPlan`, the one
  selector-forward step serving, streaming and every shard run: admission,
  the admitted plan, escalation metering and timed cost observations.
"""

from .cost_model import CostModel, CostObservation, harvest_cost_observations
from .executor import ForwardPlan, PlanOutput
from .router import (
    DEFAULT_THRESHOLD,
    PLAN_NAMES,
    AdmitDecision,
    CalibrationResult,
    CascadeRouter,
    calibrate_margin_threshold,
    margins,
)

__all__ = [
    "CostModel",
    "CostObservation",
    "ForwardPlan",
    "PlanOutput",
    "harvest_cost_observations",
    "DEFAULT_THRESHOLD",
    "PLAN_NAMES",
    "AdmitDecision",
    "CalibrationResult",
    "CascadeRouter",
    "calibrate_margin_threshold",
    "margins",
]
