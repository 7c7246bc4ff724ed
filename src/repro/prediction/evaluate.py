"""Predictor evaluation over held-out trace days.

Splits a dataset chronologically (train on the first ``train_days``, test
on the rest), queries every predictor with sliding windows on the test
days, and scores:

* **count MAE** — mean absolute error of the predicted event count;
* **Brier score** — squared error of the survival probability against the
  binary "window was event-free" outcome (lower is better);
* **calibration** — predicted vs empirical survival by probability decile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import PredictionError, ReproError
from ..obs.metrics import span
from ..traces.dataset import TraceDataset
from .base import AvailabilityPredictor, CountMatrix, PredictionQuery

__all__ = ["EvaluationResult", "PredictorScore", "evaluate_predictors"]


@dataclass(frozen=True)
class PredictorScore:
    """Aggregate scores of one predictor."""

    name: str
    count_mae: float
    brier: float
    n_queries: int
    calibration: tuple[tuple[float, float, int], ...] = field(default=())

    def __str__(self) -> str:
        return (
            f"{self.name:<34s} count MAE {self.count_mae:.3f}   "
            f"Brier {self.brier:.4f}   ({self.n_queries} windows)"
        )


@dataclass(frozen=True)
class EvaluationResult:
    """Scores of all predictors on the same query set."""

    scores: tuple[PredictorScore, ...]
    train_days: int
    test_days: int

    def best_by_brier(self) -> PredictorScore:
        return min(self.scores, key=lambda s: s.brier)

    def score_of(self, name: str) -> PredictorScore:
        for s in self.scores:
            if s.name == name:
                return s
        raise KeyError(name)


def make_queries(
    dataset: TraceDataset,
    *,
    first_day: int,
    durations_hours: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    start_hours: Sequence[float] = tuple(range(0, 24, 2)),
    machines: Sequence[int] | None = None,
) -> list[PredictionQuery]:
    """Sliding windows over the test days."""
    machines = list(machines) if machines is not None else list(
        range(dataset.n_machines)
    )
    queries = []
    for day in range(first_day, dataset.n_days):
        for h in start_hours:
            for dur in durations_hours:
                if day * 24 + h + dur > dataset.n_days * 24:
                    continue
                for m in machines:
                    queries.append(
                        PredictionQuery(
                            machine_id=m,
                            day=day,
                            start_hour=h,
                            duration_hours=dur,
                        )
                    )
    return queries


def check_train_days(
    n_days: int, train_days: int, error: type[ReproError] = PredictionError
) -> None:
    """Reject a split of ``n_days`` whole days that leaves no training
    day or no test day: a trace needs at least two whole days."""
    if not 1 <= train_days < n_days:
        raise error(
            f"train_days must be at least 1 and leave a test day; got "
            f"{train_days} for a trace of {n_days} whole day(s), and a split "
            "needs at least 2"
        )


def evaluate_predictors(
    dataset: TraceDataset,
    predictors: Iterable[AvailabilityPredictor],
    *,
    train_days: int,
    durations_hours: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    start_hours: Sequence[float] = tuple(range(0, 24, 2)),
    machines: Sequence[int] | None = None,
    calibration_bins: int = 10,
) -> EvaluationResult:
    """Fit on the training prefix; score on windows over the test days.

    Predictors see only the training slice: history queries into test days
    are answered from the trailing edge of training data (queries carry
    absolute day indices, and the count matrix simply has no rows past the
    training span, so lookups clamp there).
    """
    check_train_days(dataset.n_days, train_days)
    train = dataset.slice_days(0, train_days)
    with span("predict.queries"):
        queries = make_queries(
            dataset,
            first_day=train_days,
            durations_hours=durations_hours,
            start_hours=start_hours,
            machines=machines,
        )
        if not queries:
            raise PredictionError("no evaluation queries (test span too short)")

        # Ground truth from the full dataset.
        truth_matrix = CountMatrix(dataset)
        actual_counts = np.array(
            [truth_matrix.window_count(q.machine_id, q.day, q) for q in queries]
        )
        event_free = (actual_counts < 0.5).astype(float)

    scores = []
    for predictor in predictors:
        with span(f"predict.{predictor.name}"):
            predictor.fit(train)
            pred_counts = np.array([predictor.predict_count(q) for q in queries])
            pred_survival = np.clip(
                np.array([predictor.predict_survival(q) for q in queries]),
                0.0,
                1.0,
            )
            mae = float(np.abs(pred_counts - actual_counts).mean())
            brier = float(((pred_survival - event_free) ** 2).mean())
            calibration = _calibration(pred_survival, event_free, calibration_bins)
        scores.append(
            PredictorScore(
                name=predictor.name,
                count_mae=mae,
                brier=brier,
                n_queries=len(queries),
                calibration=calibration,
            )
        )
    return EvaluationResult(
        scores=tuple(scores),
        train_days=train_days,
        test_days=dataset.n_days - train_days,
    )


def evaluate_by_duration(
    dataset: TraceDataset,
    predictor: AvailabilityPredictor,
    *,
    train_days: int,
    durations_hours: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 12.0),
    start_hours: Sequence[float] = tuple(range(0, 24, 3)),
    machines: Sequence[int] | None = None,
) -> dict[float, PredictorScore]:
    """Score one predictor separately per window duration.

    The paper claims predictability "over an arbitrary future time
    window"; this shows how accuracy degrades (or not) as the window
    grows — long windows saturate toward "something will happen", short
    ones toward "nothing will".
    """
    out: dict[float, PredictorScore] = {}
    for duration in durations_hours:
        result = evaluate_predictors(
            dataset,
            [predictor],
            train_days=train_days,
            durations_hours=(duration,),
            start_hours=start_hours,
            machines=machines,
        )
        out[duration] = result.scores[0]
    return out


def evaluate_machine_ranking(
    dataset: TraceDataset,
    predictor: AvailabilityPredictor,
    *,
    train_days: int,
    duration_hours: float = 3.0,
    start_hours: Sequence[float] = tuple(range(0, 24, 3)),
) -> dict[str, float]:
    """How well the predictor *ranks machines* for placement decisions.

    A placement policy only needs relative ordering: which machine is
    likeliest to survive this window?  For every (test day, start hour) we
    rank machines by predicted survival and check against the realized
    outcome: the fraction of windows where the predictor's top-ranked
    machine was event-free ("top-1 hit"), versus the same for a random
    pick (the base rate), plus the mean Spearman correlation between
    predicted survival and realized cleanliness.
    """
    import scipy.stats

    check_train_days(dataset.n_days, train_days)
    predictor.fit(dataset.slice_days(0, train_days))
    truth = CountMatrix(dataset)

    top1_hits, base_rates, spearmans = [], [], []
    for day in range(train_days, dataset.n_days):
        for h in start_hours:
            if day * 24 + h + duration_hours > dataset.n_days * 24:
                continue
            preds, clean = [], []
            for m in range(dataset.n_machines):
                q = PredictionQuery(m, day, float(h), duration_hours)
                preds.append(predictor.predict_survival(q))
                clean.append(
                    1.0 if truth.window_count(m, day, q) < 0.5 else 0.0
                )
            preds_arr = np.asarray(preds)
            clean_arr = np.asarray(clean)
            if clean_arr.min() == clean_arr.max():
                continue  # uninformative window: all clean or all dirty
            top1_hits.append(clean_arr[int(np.argmax(preds_arr))])
            base_rates.append(clean_arr.mean())
            if preds_arr.min() < preds_arr.max():
                rho = scipy.stats.spearmanr(preds_arr, clean_arr).statistic
                if rho == rho:
                    spearmans.append(rho)

    if not top1_hits:
        raise PredictionError("no informative windows in the test span")
    return {
        "top1_hit_rate": float(np.mean(top1_hits)),
        "random_hit_rate": float(np.mean(base_rates)),
        "mean_spearman": float(np.mean(spearmans)) if spearmans else 0.0,
        "n_windows": float(len(top1_hits)),
    }


def _calibration(
    predicted: np.ndarray, outcome: np.ndarray, bins: int
) -> tuple[tuple[float, float, int], ...]:
    """(mean predicted, empirical rate, n) per probability bin."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (predicted >= lo) & (predicted < hi if hi < 1.0 else predicted <= hi)
        if mask.sum() == 0:
            continue
        rows.append(
            (
                float(predicted[mask].mean()),
                float(outcome[mask].mean()),
                int(mask.sum()),
            )
        )
    return tuple(rows)
