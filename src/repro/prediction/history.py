"""The paper's history-window predictor.

"It is feasible to predict resource availability over an arbitrary future
time window, if the prediction uses history data for the corresponding
time windows from previous weekdays or weekends.  ...  An aggressive
prediction algorithm would accommodate the small deviations of resource
availability among related time windows.  One approach is to use
statistics on history trace to alleviate the effects of 'irregular'
data."  (Section 5.3)

For a query window, the predictor looks at the same wall-clock window on
the most recent ``history_days`` days of the same type (weekday/weekend)
on the same machine.  The expected count is a robust statistic over those
history counts; survival is the empirical fraction of history windows that
were event-free, with optional Laplace smoothing.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..errors import PredictionError
from .base import AvailabilityPredictor, PredictionQuery

__all__ = ["HistoryWindowPredictor"]


class HistoryWindowPredictor(AvailabilityPredictor):
    """Predict a window from the same window on recent same-type days.

    Parameters
    ----------
    history_days:
        How many past days of the matching type to use.
    statistic:
        ``"mean"``, ``"median"`` or ``"trimmed"`` (20% trimmed mean) over
        the history counts — the paper's suggestion to damp irregular days.
    laplace:
        Smoothing pseudo-count for the survival estimate: with ``k``
        event-free days out of ``n``, survival = ``(k + laplace) /
        (n + 2 * laplace)``.
    pool_machines:
        Also average over all machines (the testbed is homogeneous); with
        False only the queried machine's history is used.
    """

    def __init__(
        self,
        history_days: int = 8,
        *,
        statistic: Literal["mean", "median", "trimmed"] = "mean",
        laplace: float = 0.5,
        pool_machines: bool = False,
    ) -> None:
        super().__init__()
        if history_days < 1:
            raise PredictionError("history_days must be >= 1")
        if statistic not in ("mean", "median", "trimmed"):
            raise PredictionError(f"unknown statistic {statistic!r}")
        if laplace < 0:
            raise PredictionError("laplace must be >= 0")
        self.history_days = history_days
        self.statistic = statistic
        self.laplace = laplace
        self.pool_machines = pool_machines

    # -- internals -----------------------------------------------------------

    def _history_counts(self, query: PredictionQuery) -> np.ndarray:
        m = self.matrix
        days = m.same_type_days_before(min(query.day, m.n_days), self.history_days)
        if not days:
            raise PredictionError(
                f"no same-type history before day {query.day}; "
                "train on a longer trace"
            )
        machines = (
            range(m.n_machines) if self.pool_machines else [query.machine_id]
        )
        counts = [
            m.window_count(mid, d, query) for d in days for mid in machines
        ]
        return np.asarray(counts, dtype=float)

    def _reduce(self, counts: np.ndarray) -> float:
        if self.statistic == "median":
            return float(np.median(counts))
        if self.statistic == "trimmed":
            k = int(0.2 * counts.size)
            trimmed = np.sort(counts)[k : counts.size - k or None]
            return float(trimmed.mean())
        return float(counts.mean())

    # -- API ----------------------------------------------------------------------

    def predict_count(self, query: PredictionQuery) -> float:
        return self._reduce(self._history_counts(query))

    def clean_windows(self, query: PredictionQuery) -> tuple[int, int]:
        """``(clean, n)``: how many of the ``n`` history windows saw no
        unavailability start."""
        counts = self._history_counts(query)
        return int(np.count_nonzero(counts < 0.5)), counts.size

    def predict_survival(self, query: PredictionQuery) -> float:
        clean, n = self.clean_windows(query)
        return (clean + self.laplace) / (n + 2 * self.laplace)

    def predict_survival_interval(
        self, query: PredictionQuery, *, confidence: float = 0.9
    ) -> tuple[float, float]:
        """A (lo, hi) credible interval for the survival probability.

        Beta posterior from the history's clean/dirty window counts (the
        Laplace prior doubles as the Beta prior).  Risk-averse schedulers
        place by the lower bound: a machine with 8/8 clean history days
        beats one with 2/2, even though both have point estimate ~1.
        """
        if not 0 < confidence < 1:
            raise PredictionError("confidence must be in (0, 1)")
        import scipy.stats

        clean, n = self.clean_windows(query)
        a = clean + self.laplace
        b = (n - clean) + self.laplace
        alpha = (1 - confidence) / 2
        dist = scipy.stats.beta(a, b)
        return (float(dist.ppf(alpha)), float(dist.ppf(1 - alpha)))

    @property
    def name(self) -> str:
        pooled = "+pool" if self.pool_machines else ""
        return (
            f"HistoryWindow(d={self.history_days},{self.statistic}{pooled})"
        )
