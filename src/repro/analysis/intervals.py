"""Figure 6: cumulative distribution of availability-interval lengths.

Intervals are split by the day type (weekday/weekend) of their *start*;
censored boundary intervals are excluded.  The paper's landmarks: weekday
mean close to 3 hours vs above 5 on weekends; about 60% of mass in 2–4 h
(weekday) / 4–6 h (weekend); roughly 5% of intervals shorter than 5
minutes; and nearly flat CDFs between 5 minutes and 2 hours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import HOUR, MINUTE
from ..traces.dataset import TraceDataset
from .stats import Ecdf, ecdf, exact_mean, exact_sum

__all__ = ["IntervalDistribution", "interval_distribution"]


@dataclass(frozen=True)
class IntervalDistribution:
    """Weekday and weekend interval-length distributions (hours)."""

    weekday_hours: np.ndarray
    weekend_hours: np.ndarray

    @property
    def weekday_count(self) -> int:
        """Number of weekday intervals (shared gate with the streaming
        distribution, which has counts but no raw arrays)."""
        return int(self.weekday_hours.size)

    @property
    def weekend_count(self) -> int:
        return int(self.weekend_hours.size)

    @property
    def weekday_cdf(self) -> Ecdf:
        return ecdf(self.weekday_hours)

    @property
    def weekend_cdf(self) -> Ecdf:
        return ecdf(self.weekend_hours)

    def landmarks(self) -> dict[str, float]:
        """The quantities the paper reads off Figure 6.

        The two means are exact sums rounded once (:func:`exact_mean`),
        the same arithmetic as the streamed fold's.
        """
        wk, we = self.weekday_hours, self.weekend_hours
        five_min = 5 * MINUTE / HOUR
        both = np.concatenate([wk, we])
        return {
            "weekday_mean_h": exact_mean(exact_sum(wk), wk.size),
            "weekend_mean_h": exact_mean(exact_sum(we), we.size),
            "weekday_frac_2_4h": _fraction((wk >= 2) & (wk <= 4)),
            "weekend_frac_4_6h": _fraction((we >= 4) & (we <= 6)),
            "frac_below_5min": _fraction(both < five_min),
            "weekday_frac_5min_2h": _fraction((wk >= five_min) & (wk < 2)),
            "weekend_frac_5min_2h": _fraction((we >= five_min) & (we < 2)),
        }

    def cdf_series(
        self, grid_hours: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(grid, weekday CDF, weekend CDF) — the two curves of Figure 6."""
        if grid_hours is None:
            grid_hours = np.linspace(0.0, 12.0, 49)
        return (
            grid_hours,
            self.weekday_cdf.at(grid_hours),
            self.weekend_cdf.at(grid_hours),
        )


def _fraction(mask: np.ndarray) -> float:
    """The share of true entries, the streamed fold's integer quotient;
    NaN, without a warning, for an empty side."""
    return np.count_nonzero(mask) / mask.size if mask.size else float("nan")


def interval_distribution(dataset: TraceDataset) -> IntervalDistribution:
    """Extract the Figure 6 distributions from a trace dataset."""
    weekday, weekend = [], []
    for iv in dataset.all_intervals(include_censored=False):
        hours = iv.length / HOUR
        if dataset.is_weekend_time(iv.start):
            weekend.append(hours)
        else:
            weekday.append(hours)
    return IntervalDistribution(
        weekday_hours=np.asarray(weekday, dtype=float),
        weekend_hours=np.asarray(weekend, dtype=float),
    )
