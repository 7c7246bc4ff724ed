"""Shared plumbing for availability predictors.

All predictors consume a :class:`CountMatrix` — per (machine, day, hour)
counts of unavailability occurrences (by event start time) — and answer
:class:`PredictionQuery` objects about future windows with two numbers:

* ``predict_count`` — expected unavailability occurrences in the window;
* ``predict_survival`` — probability that **no** unavailability starts in
  the window (the quantity a proactive scheduler needs: will a guest job
  launched now survive its runtime?).

This module is also the one home of the start-cell binning that turns an
event start into its (day, hour) cell: :func:`start_cell` for one event
and :func:`counts_from_event_rows` for an event table.  The batch
predictors and the serving layer (:mod:`repro.serve`, which imports no
other prediction module) both bin through them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import PredictionError
from ..traces.dataset import TraceDataset
from ..traces.records import events_to_columns
from ..units import DAY, HOUR

__all__ = [
    "AvailabilityPredictor",
    "CountMatrix",
    "PredictionQuery",
    "counts_from_event_rows",
    "start_cell",
]


def start_cell(start: float) -> int:
    """The cell ``24 * day + hour`` an event starting at ``start`` counts
    in: ``day, rem = divmod(start, DAY)``, ``hour = rem // HOUR``, with
    CPython's exact float ``divmod``."""
    day, rem = divmod(start, DAY)
    return 24 * int(day) + int(rem // HOUR)


def counts_from_event_rows(
    rows: np.ndarray, n_machines: int, n_days: int, machine_base: int = 0
) -> np.ndarray:
    """Bin event rows into an ``(n_machines, n_days, 24)`` count block.

    :func:`start_cell` applied to every row of an event table whose
    machine ids start at ``machine_base``, events past the last whole
    day dropped: the whole count matrix for a full table, its
    block-restricted form for a slice of one.

    It is computed as one floor-and-correct division: ``cell =
    floor(start / HOUR)``, minus one where ``cell * HOUR > start``.  The
    rounded quotient is never below the true quotient's floor and at
    most reaches the next integer, and for any start below 2⁵³ the
    product and the comparison are exact, so ``cell`` is the exact floor
    of ``start / HOUR``.  Since ``DAY = 24 * HOUR`` exactly, that is
    ``24 * day + hour`` for CPython's exact ``divmod``, cell for cell —
    property-tested at every ``k·HOUR`` (so every ``k·DAY``) and one ulp
    either side.  A start beyond 2⁵³ seconds lies past any trace's last
    day and is dropped by both.
    """
    start = rows["start"]
    cell = start / HOUR
    np.floor(cell, out=cell)
    cell -= cell * HOUR > start
    flat = rows["machine_id"].astype(np.int64)
    flat -= machine_base
    flat *= n_days * 24
    flat += cell.astype(np.int64)
    keep = cell < n_days * 24
    if not keep.all():
        flat = flat[keep]
    return np.bincount(flat, minlength=n_machines * n_days * 24).reshape(
        n_machines, n_days, 24
    )


@dataclass(frozen=True)
class PredictionQuery:
    """A future time window on one machine.

    ``day`` is the absolute day index; the window spans
    ``[start_hour, start_hour + duration_hours)`` within (or past) it.
    Fractional hours are allowed.
    """

    machine_id: int
    day: int
    start_hour: float
    duration_hours: float

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise PredictionError("duration_hours must be positive")
        if not 0 <= self.start_hour < 24:
            raise PredictionError("start_hour must be in [0, 24)")

    @property
    def start_time(self) -> float:
        return self.day * DAY + self.start_hour * HOUR

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration_hours * HOUR

    def hour_cells(self) -> list[tuple[int, int, float]]:
        """(day, hour-of-day, overlap fraction) cells the window covers."""
        cells = []
        h = self.start_hour + self.day * 24
        end = h + self.duration_hours
        while h < end - 1e-9:
            cell_start = np.floor(h)
            overlap = min(end, cell_start + 1) - h
            day, hour = divmod(int(cell_start), 24)
            cells.append((day, hour, float(overlap)))
            h = cell_start + 1
        return cells


class CountMatrix:
    """Per (machine, day, hour) unavailability-start counts for a dataset."""

    def __init__(self, dataset: TraceDataset) -> None:
        self.n_machines = dataset.n_machines
        self.n_days = dataset.n_days
        self.start_weekday = dataset.start_weekday
        self.counts = counts_from_event_rows(
            events_to_columns(dataset.events), self.n_machines, self.n_days
        )

    def is_weekend_day(self, day: int) -> bool:
        return (day + self.start_weekday) % 7 >= 5

    def same_type_days_before(self, day: int, limit: int | None = None) -> list[int]:
        """Day indices before ``day`` with the same weekday/weekend type,
        most recent first."""
        target = self.is_weekend_day(day)
        days = [d for d in range(day - 1, -1, -1) if self.is_weekend_day(d) == target]
        return days if limit is None else days[:limit]

    def window_count(self, machine_id: int, day: int, query: PredictionQuery) -> float:
        """Fractional-overlap count of events in the query window shape,
        transplanted onto ``day`` (for history lookups)."""
        total = 0.0
        for cell_day_offset, hour, overlap in _shifted_cells(query, day):
            if 0 <= cell_day_offset < self.n_days:
                total += overlap * self.counts[machine_id, cell_day_offset, hour]
        return total


def _shifted_cells(query: PredictionQuery, day: int) -> list[tuple[int, int, float]]:
    """The query's hour cells with its anchor day replaced by ``day``."""
    shift = day - query.day
    return [(d + shift, h, o) for (d, h, o) in query.hour_cells()]


class AvailabilityPredictor(abc.ABC):
    """Base class: fit on a trace dataset, answer window queries."""

    def __init__(self) -> None:
        self._matrix: CountMatrix | None = None

    def fit(self, dataset: TraceDataset) -> "AvailabilityPredictor":
        """Learn from a (training) trace dataset.  Returns self."""
        self._matrix = CountMatrix(dataset)
        self._fit(self._matrix)
        return self

    def _fit(self, matrix: CountMatrix) -> None:
        """Subclass hook; default does nothing beyond storing the matrix."""

    @property
    def matrix(self) -> CountMatrix:
        if self._matrix is None:
            raise PredictionError(f"{type(self).__name__} is not fitted")
        return self._matrix

    @abc.abstractmethod
    def predict_count(self, query: PredictionQuery) -> float:
        """Expected number of unavailability occurrences in the window."""

    def predict_survival(self, query: PredictionQuery) -> float:
        """P(no unavailability starts in the window).

        Default: treat the predicted count as a Poisson mean.  Subclasses
        with direct empirical estimates override this.
        """
        lam = max(self.predict_count(query), 0.0)
        return float(np.exp(-lam))

    @property
    def name(self) -> str:
        return type(self).__name__
