"""Cost-model-driven contraction planner (auto-scheduler).

Per contraction signature, the planner derives O(1) operand statistics
(:mod:`repro.planner.stats`), predicts stage-level seconds and
Table-2-style traffic with offline-calibrated coefficients
(:mod:`repro.planner.cost_model`, :mod:`repro.planner.calibration`),
scores the discrete schedule space and returns an explainable
:class:`PlanDecision` (:mod:`repro.planner.decision`). Decisions cache
in an LRU beside the HtY/plan/kernel caches and surface through the
tracer (a ``plan`` span) and ``MetricsRegistry`` (``planner.*``
metrics, ``cache.planner.*``).

Entry points: ``contract(plan="auto")`` (the only planner — explicit
configurations run as requested), ``ContractionSequence.run(plan=...)``
with greedy pairwise path search (:mod:`repro.planner.path`), and
``ttt --plan auto --explain-plan``.
"""

from repro.planner.calibration import (
    CALIBRATION_VERSION,
    COEFFICIENT_NAMES,
    CalibrationProfile,
    builtin_calibration,
    default_calibration,
)
from repro.planner.cost_model import CostEstimate, CostModel
from repro.planner.decision import (
    PlanCandidate,
    PlanDecision,
    ScoredCandidate,
    choose_plan,
    default_planner_cache,
    enumerate_plans,
    plan_contraction,
    planner_cache_stats,
    predicted_accumulator,
)
from repro.planner.ooc import OocDecision, estimate_in_core_peak, plan_ooc
from repro.planner.stats import ContractionStats, contraction_stats

__all__ = [
    "CALIBRATION_VERSION",
    "COEFFICIENT_NAMES",
    "CalibrationProfile",
    "ContractionStats",
    "CostEstimate",
    "CostModel",
    "OocDecision",
    "PlanCandidate",
    "PlanDecision",
    "ScoredCandidate",
    "builtin_calibration",
    "choose_plan",
    "contraction_stats",
    "default_calibration",
    "default_planner_cache",
    "enumerate_plans",
    "estimate_in_core_peak",
    "plan_contraction",
    "plan_ooc",
    "planner_cache_stats",
    "predicted_accumulator",
]
