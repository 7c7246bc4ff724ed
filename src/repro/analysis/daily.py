"""Figure 7: occurrences of unavailability during each hour of a day.

For every (day, hour-of-day) cell, count the unavailability events across
all machines that overlap that one-hour interval — events spanning
multiple hours are counted in each interval they overlap, as the paper
specifies.  Per day type (weekday/weekend) report the mean and range over
days for each hour.

The headline observation lives in :meth:`DailyPattern.deviation_summary`:
the deviation of the per-hour counts across days of the same type is
small, which is what makes history-based prediction feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces.dataset import TraceDataset
from ..units import HOUR

__all__ = ["DailyPattern", "daily_pattern"]


@dataclass(frozen=True)
class DailyPattern:
    """Hour-of-day unavailability occurrence statistics.

    ``counts`` is a ``(n_days, 24)`` matrix of event-overlap counts summed
    over all machines; ``day_type`` flags each day as weekend or not.
    """

    counts: np.ndarray
    is_weekend_day: np.ndarray

    def _select(self, weekend: bool) -> np.ndarray:
        return self.counts[self.is_weekend_day == weekend]

    def mean_profile(self, *, weekend: bool) -> np.ndarray:
        """Mean occurrences per hour of day (the Figure 7 bars); NaN when
        the trace holds no day of that type."""
        sel = self._select(weekend)
        return sel.mean(axis=0) if len(sel) else np.full(24, np.nan)

    def range_profile(self, *, weekend: bool) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) occurrences per hour over days (the range whiskers)."""
        sel = self._select(weekend)
        return sel.min(axis=0), sel.max(axis=0)

    def std_profile(self, *, weekend: bool) -> np.ndarray:
        """Per-hour standard deviation across days of the same type; NaN
        with fewer than two such days."""
        sel = self._select(weekend)
        if len(sel) < 2:
            return np.full(24, np.nan)
        return sel.std(axis=0, ddof=1)

    def deviation_summary(self, *, weekend: bool) -> dict[str, float]:
        """How repeatable the daily pattern is — the predictability claim.

        ``mean_cv`` is the count-weighted coefficient of variation across
        days: small values mean a given hour looks like the same hour on
        other days of the same type.
        """
        mean = self.mean_profile(weekend=weekend)
        std = self.std_profile(weekend=weekend)
        weights = mean / mean.sum() if mean.sum() > 0 else np.full(24, 1 / 24)
        with np.errstate(invalid="ignore", divide="ignore"):
            cv = np.where(mean > 0, std / mean, 0.0)
        return {
            "mean_cv": float((cv * weights).sum()),
            "max_std": float(std.max()),
            "mean_std": float(std.mean()),
        }

    def updatedb_spike(self, hour: int = 4) -> dict[str, float]:
        """The 4–5 AM anomaly: mean count in that hour per day type.

        The paper finds it equals the number of machines (20) on both
        weekdays and weekends, because the cron job hits every machine
        every day.
        """
        return {
            "weekday": float(self.mean_profile(weekend=False)[hour]),
            "weekend": float(self.mean_profile(weekend=True)[hour]),
        }


def daily_pattern(dataset: TraceDataset) -> DailyPattern:
    """Compute the Figure 7 matrix for a trace dataset."""
    n_days = dataset.n_days
    counts = np.zeros((n_days, 24), dtype=np.int64)
    for e in dataset.events:
        h_first = int(e.start // HOUR)
        h_last = int((min(e.end, dataset.span) - 1e-9) // HOUR)
        for h_abs in range(h_first, h_last + 1):
            day, hour = divmod(h_abs, 24)
            if day < n_days:
                counts[day, hour] += 1
    weekend = np.array(
        [(d + dataset.start_weekday) % 7 >= 5 for d in range(n_days)], dtype=bool
    )
    return DailyPattern(counts=counts, is_weekend_day=weekend)
