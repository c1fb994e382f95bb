"""Cost-aware cascade selection (the learned-optimizer layer).

``repro.cascade`` routes selector traffic by *predicted cost as well as
quality*, in the spirit of BAO/MSCN-style learned query optimizers:

* :mod:`repro.cascade.cost_model` — a learned per-tier runtime +
  peak-memory predictor, trained from audited measurements, with a
  deterministic analytic fallback;
* :mod:`repro.cascade.router` — the confidence-gated cascade (fast tier
  answers confident windows, uncertain ones escalate to the teacher) and
  multi-objective SLO admission over priced plans;
* :mod:`repro.cascade.executor` — :class:`ForwardPlan`, the one
  selector-forward step serving, streaming and every shard run: admission,
  the admitted plan, escalation metering and cost observations;
* :mod:`repro.cascade.harvest` — measuring cost observations at the
  forward sites and harvesting training labels from audit logs.
"""

from .cost_model import CostModel, CostObservation
from .executor import ForwardPlan, PlanOutput
from .harvest import harvest_cost_observations, observed_cost
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
    "observed_cost",
    "DEFAULT_THRESHOLD",
    "PLAN_NAMES",
    "AdmitDecision",
    "CalibrationResult",
    "CascadeRouter",
    "calibrate_margin_threshold",
    "margins",
]
