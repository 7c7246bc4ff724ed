"""Trace analyses reproducing Section 5's tables and figures.

* :mod:`~repro.analysis.stats` — ECDF, histogram and bootstrap helpers;
* :mod:`~repro.analysis.causes` — Table 2 (unavailability by cause);
* :mod:`~repro.analysis.intervals` — Figure 6 (interval-length CDFs);
* :mod:`~repro.analysis.daily` — Figure 7 (hour-of-day occurrence profile
  and its cross-day deviation, the paper's predictability evidence);
* :mod:`~repro.analysis.report` — plain-text rendering of all results;
* :mod:`~repro.analysis.compare` — programmatic checks of our measurements
  against the paper's published landmarks.
"""

from .accumulators import (
    FleetAccumulator,
    FleetAnalysis,
    StreamingIntervalDistribution,
)
from .capacity import CapacityReport, capacity_report
from .causes import CauseBreakdown, cause_breakdown
from .compare import LandmarkCheck, check_paper_landmarks, evaluate_landmarks
from .daily import DailyPattern, daily_pattern
from .hazard import HazardCurve, hazard_curve
from .intervals import IntervalDistribution, interval_distribution
from .predictability import PredictabilityReport, predictability_report
from .stats import bootstrap_ci, ecdf, summarize
from .streaming import analyze_columns, analyze_shards
from .transitions import TransitionStats, state_transitions
from .weekly import WeekdayProfile, weekday_profile

__all__ = [
    "CapacityReport",
    "CauseBreakdown",
    "DailyPattern",
    "FleetAccumulator",
    "FleetAnalysis",
    "HazardCurve",
    "IntervalDistribution",
    "LandmarkCheck",
    "PredictabilityReport",
    "StreamingIntervalDistribution",
    "TransitionStats",
    "WeekdayProfile",
    "analyze_columns",
    "analyze_shards",
    "bootstrap_ci",
    "capacity_report",
    "cause_breakdown",
    "check_paper_landmarks",
    "daily_pattern",
    "ecdf",
    "evaluate_landmarks",
    "hazard_curve",
    "interval_distribution",
    "predictability_report",
    "state_transitions",
    "summarize",
    "weekday_profile",
]
