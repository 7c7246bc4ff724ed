"""Availability prediction (the paper's stated goal and future work).

Section 5.3 concludes that "it is feasible to predict resource availability
over an arbitrary future time window, if the prediction uses history data
for the corresponding time windows from previous weekdays or weekends."
This package implements exactly that predictor, several baselines it must
beat for the claim to hold, and an evaluation harness over held-out trace
days.

* :mod:`~repro.prediction.base` — query/count-matrix plumbing shared by all
  predictors;
* :mod:`~repro.prediction.history` — the paper's history-window predictor;
* :mod:`~repro.prediction.baselines` — global-rate, hourly-mean, last-day
  and EWMA baselines;
* :mod:`~repro.prediction.markov` — an interval-based semi-Markov baseline;
* :mod:`~repro.prediction.evaluate` — train/test evaluation (count MAE,
  survival Brier score, calibration).
"""

from .._lazy import attach as _attach

#: Public name -> the submodule that defines it, resolved on first access
#: (PEP 562): a serve process that needs only ``PredictionQuery`` never
#: imports the evaluation harness or the other predictors.
_EXPORTS = {
    "ChangePointAdaptivePredictor": ".adaptive",
    "detect_change_points": ".adaptive",
    "AvailabilityPredictor": ".base",
    "CountMatrix": ".base",
    "PredictionQuery": ".base",
    "EwmaPredictor": ".baselines",
    "GlobalRatePredictor": ".baselines",
    "HourlyMeanPredictor": ".baselines",
    "LastDayPredictor": ".baselines",
    "EnsemblePredictor": ".ensemble",
    "EvaluationResult": ".evaluate",
    "evaluate_by_duration": ".evaluate",
    "evaluate_machine_ranking": ".evaluate",
    "evaluate_predictors": ".evaluate",
    "FactoredPredictor": ".factored",
    "HistoryWindowPredictor": ".history",
    "IntervalExponentialPredictor": ".markov",
    "RenewalAgePredictor": ".renewal",
    "SemiMarkovModel": ".semimarkov",
}

__getattr__, __dir__, __all__ = _attach(globals(), _EXPORTS)
