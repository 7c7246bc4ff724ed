"""Mergeable accumulators for the paper's fleet analyses.

Every Section 5 artifact — Table 2 cause counts, the Figure 6
interval-length CDFs and the Figure 7 hourly occurrence histogram — is
computed by folding :class:`~repro.traces.records.EventColumns` units
(a whole trace or one shard of it) through
:class:`FleetAccumulator`.  Each accumulator supports

* ``update_columns(columns, ...)`` (or ``update_hours`` with the unit's
  :func:`interval_columns`) — fold one unit in, with no per-event
  objects;
* ``merge(other)`` — combine two partial accumulators;
* ``finalize()`` — produce the analysis result object.

so a fleet far too large to hold in memory is analyzed one shard at a
time (constant memory) or reduced across workers.  The reference the
fold must equal is the per-event analysis over event objects
(:func:`~repro.analysis.causes.cause_breakdown`,
:func:`~repro.analysis.intervals.interval_distribution`,
:func:`~repro.analysis.daily.daily_pattern`).

Exactness contract
------------------
The fold equals the per-event reference by ``==``, for any partition
into units and any merge order:

* every count — the per-machine Table 2 arrays, the Figure 7
  ``(n_days, 24)`` matrix, the Figure 6 cumulative counts and landmark
  brackets — is an integer sum, so every CDF value and landmark
  fraction is the same integer quotient;
* the interval-length sums are exact integers in units of 2**-1074
  (:func:`~repro.analysis.stats.exact_sum`), and both paths divide them
  once, correctly rounded (:func:`~repro.analysis.stats.exact_mean`), so
  the weekday and weekend means agree to the last bit.

The property suite (``tests/test_accumulators_property.py``) pins both.

The Figure 6 CDF is kept as cumulative counts on :data:`FIG6_GRID`, the
union of the two grids the renderers evaluate (the 49-point table grid
of :func:`repro.analysis.report.render_figure6` and the 64-point chart
grid of :func:`repro.analysis.ascii.render_figure6_chart`); evaluating a
streamed CDF anywhere else raises, rather than silently interpolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ReproError
from ..traces.records import EventColumns
from ..units import DAY, HOUR, MINUTE
from .causes import CauseBreakdown
from .daily import DailyPattern
from .stats import exact_mean, exact_sum

__all__ = [
    "FIG6_GRID",
    "CauseAccumulator",
    "DailyPatternAccumulator",
    "FleetAccumulator",
    "FleetAnalysis",
    "IntervalCdfAccumulator",
    "StreamingIntervalDistribution",
    "interval_columns",
]

#: The fixed evaluation grid (hours) for streamed Figure 6 CDFs: the
#: union of the 49-point table grid and the 64-point chart grid, so both
#: renderers read exact integer-count values.
FIG6_GRID: np.ndarray = np.union1d(
    np.linspace(0.0, 12.0, 49), np.linspace(0.0, 12.0, 64)
)
FIG6_GRID.setflags(write=False)

_FIVE_MIN_H = 5 * MINUTE / HOUR


class CauseAccumulator:
    """Streams :func:`repro.analysis.causes.cause_breakdown` (Table 2).

    Holds the four per-machine ``int64`` count arrays for the *whole*
    fleet (a few bytes per machine); each shard fills its machine range.
    Integer-exact under any partition and merge order.
    """

    def __init__(self, n_machines: int) -> None:
        if n_machines <= 0:
            raise ReproError("CauseAccumulator needs n_machines > 0")
        self.n_machines = n_machines
        self.cpu = np.zeros(n_machines, dtype=np.int64)
        self.memory = np.zeros(n_machines, dtype=np.int64)
        self.revocation = np.zeros(n_machines, dtype=np.int64)
        self.reboots = np.zeros(n_machines, dtype=np.int64)

    def update_columns(self, cols: EventColumns, machine_lo: int = 0) -> None:
        """Fold in one shard whose machine 0 is fleet machine ``machine_lo``:
        bincounts over the state codes.

        Bit-identical to :func:`~repro.analysis.causes.cause_breakdown` —
        every statistic here is an integer count and integer addition
        commutes.
        """
        from ..core.events import REBOOT_MAX_DURATION

        if machine_lo < 0 or machine_lo + cols.n_machines > self.n_machines:
            raise ReproError(
                f"shard range [{machine_lo}, "
                f"{machine_lo + cols.n_machines}) outside fleet "
                f"[0, {self.n_machines})"
            )
        ev = cols.events
        mid = ev["machine_id"].astype(np.int64) + machine_lo
        state = ev["state"]

        def counts(mask: np.ndarray) -> np.ndarray:
            return np.bincount(mid[mask], minlength=self.n_machines)

        self.cpu += counts(state == 3)
        self.memory += counts(state == 4)
        urr = state == 5
        self.revocation += counts(urr)
        self.reboots += counts(urr & (ev["end"] - ev["start"] < REBOOT_MAX_DURATION))

    def merge(self, other: "CauseAccumulator") -> "CauseAccumulator":
        if other.n_machines != self.n_machines:
            raise ReproError("cannot merge accumulators of different fleets")
        self.cpu += other.cpu
        self.memory += other.memory
        self.revocation += other.revocation
        self.reboots += other.reboots
        return self

    def finalize(self) -> CauseBreakdown:
        return CauseBreakdown(
            totals=self.cpu + self.memory + self.revocation,
            cpu=self.cpu.copy(),
            memory=self.memory.copy(),
            revocation=self.revocation.copy(),
            reboots=self.reboots.copy(),
        )


class _SideCounts:
    """One day type's streamed interval statistics (weekday or weekend).

    ``total_h`` is the exact sum of the interval lengths in hours, as an
    integer count of 2**-1074 (:func:`~repro.analysis.stats.exact_sum`).
    """

    __slots__ = ("n", "total_h", "cum", "c_2_4", "c_4_6", "c_lt_5min", "c_5min_2")

    def __init__(self, grid_size: int) -> None:
        self.n = 0
        self.total_h = 0
        self.cum = np.zeros(grid_size, dtype=np.int64)
        self.c_2_4 = 0
        self.c_4_6 = 0
        self.c_lt_5min = 0
        self.c_5min_2 = 0

    def add(self, hours: np.ndarray, grid: np.ndarray) -> None:
        if hours.size == 0:
            return
        self.n += int(hours.size)
        self.total_h += exact_sum(hours)
        # count(v <= x) per grid point — the same comparison Ecdf.at
        # makes, so summed counts reproduce the per-event CDF exactly.
        self.cum += np.searchsorted(np.sort(hours), grid, side="right")
        self.c_2_4 += int(np.count_nonzero((hours >= 2) & (hours <= 4)))
        self.c_4_6 += int(np.count_nonzero((hours >= 4) & (hours <= 6)))
        self.c_lt_5min += int(np.count_nonzero(hours < _FIVE_MIN_H))
        self.c_5min_2 += int(
            np.count_nonzero((hours >= _FIVE_MIN_H) & (hours < 2))
        )

    def merge(self, other: "_SideCounts") -> None:
        self.n += other.n
        self.total_h += other.total_h
        self.cum += other.cum
        self.c_2_4 += other.c_2_4
        self.c_4_6 += other.c_4_6
        self.c_lt_5min += other.c_lt_5min
        self.c_5min_2 += other.c_5min_2


@dataclass(frozen=True)
class StreamingIntervalDistribution:
    """Figure 6 distributions reconstructed from streamed counts.

    Duck-type compatible with
    :class:`repro.analysis.intervals.IntervalDistribution` where the
    renderers and landmark checks need it (``cdf_series``,
    ``landmarks``, the side counts) — but CDFs exist only on the fixed
    :data:`FIG6_GRID` and raw interval arrays are gone.
    """

    grid: np.ndarray
    weekday_cum: np.ndarray
    weekend_cum: np.ndarray
    weekday_n: int
    weekend_n: int
    weekday_total_h: int
    weekend_total_h: int
    weekday_brackets: dict
    weekend_brackets: dict

    @property
    def weekday_count(self) -> int:
        return self.weekday_n

    @property
    def weekend_count(self) -> int:
        return self.weekend_n

    def landmarks(self) -> dict[str, float]:
        """The Figure 6 landmark dict (same keys as the per-event one).

        Fractions are integer-count quotients and the two means exact
        sums rounded once, so every value equals the per-event
        reference's.  Empty sides yield NaN, as there.
        """
        wk_n, we_n = self.weekday_n, self.weekend_n
        both_n = wk_n + we_n
        nan = float("nan")
        below = self.weekday_brackets["lt_5min"] + self.weekend_brackets["lt_5min"]
        return {
            "weekday_mean_h": exact_mean(self.weekday_total_h, wk_n),
            "weekend_mean_h": exact_mean(self.weekend_total_h, we_n),
            "weekday_frac_2_4h": self.weekday_brackets["2_4"] / wk_n
            if wk_n
            else nan,
            "weekend_frac_4_6h": self.weekend_brackets["4_6"] / we_n
            if we_n
            else nan,
            "frac_below_5min": below / both_n if both_n else nan,
            "weekday_frac_5min_2h": self.weekday_brackets["5min_2"] / wk_n
            if wk_n
            else nan,
            "weekend_frac_5min_2h": self.weekend_brackets["5min_2"] / we_n
            if we_n
            else nan,
        }

    def cdf_series(
        self, grid_hours: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(grid, weekday CDF, weekend CDF) on (a subset of) the fixed grid.

        Every requested point must lie exactly on :data:`FIG6_GRID` —
        the streamed CDF holds counts only there, and interpolating
        would silently break the exactness contract.
        """
        if self.weekday_n == 0 or self.weekend_n == 0:
            raise ReproError("streamed CDF needs observations on both sides")
        if grid_hours is None:
            grid_hours = np.linspace(0.0, 12.0, 49)
        grid_hours = np.asarray(grid_hours, dtype=float)
        idx = np.searchsorted(self.grid, grid_hours)
        ok = (idx < self.grid.size) & (
            self.grid[np.minimum(idx, self.grid.size - 1)] == grid_hours
        )
        if not bool(np.all(ok)):
            raise ReproError(
                "streamed Figure 6 CDF evaluated off its fixed grid; "
                "use points of repro.analysis.accumulators.FIG6_GRID"
            )
        return (
            grid_hours,
            self.weekday_cum[idx] / self.weekday_n,
            self.weekend_cum[idx] / self.weekend_n,
        )


class IntervalCdfAccumulator:
    """Streams :func:`repro.analysis.intervals.interval_distribution`.

    Per day type it keeps the interval count, the exact sum of lengths,
    cumulative counts on :data:`FIG6_GRID`, and the landmark bracket
    counts — constant memory regardless of fleet size.
    """

    def __init__(self, grid: Optional[np.ndarray] = None) -> None:
        self.grid = FIG6_GRID if grid is None else np.asarray(grid, dtype=float)
        self._weekday = _SideCounts(self.grid.size)
        self._weekend = _SideCounts(self.grid.size)

    def update_hours(self, hours: np.ndarray, weekend: np.ndarray) -> None:
        """Fold in one unit's interval lengths (see :func:`interval_columns`)."""
        self._weekday.add(hours[~weekend], self.grid)
        self._weekend.add(hours[weekend], self.grid)

    def merge(self, other: "IntervalCdfAccumulator") -> "IntervalCdfAccumulator":
        if other.grid.size != self.grid.size or not np.array_equal(
            other.grid, self.grid
        ):
            raise ReproError("cannot merge accumulators with different grids")
        self._weekday.merge(other._weekday)
        self._weekend.merge(other._weekend)
        return self

    def finalize(self) -> StreamingIntervalDistribution:
        def brackets(s: _SideCounts) -> dict:
            return {
                "2_4": s.c_2_4,
                "4_6": s.c_4_6,
                "lt_5min": s.c_lt_5min,
                "5min_2": s.c_5min_2,
            }

        return StreamingIntervalDistribution(
            grid=self.grid,
            weekday_cum=self._weekday.cum.copy(),
            weekend_cum=self._weekend.cum.copy(),
            weekday_n=self._weekday.n,
            weekend_n=self._weekend.n,
            weekday_total_h=self._weekday.total_h,
            weekend_total_h=self._weekend.total_h,
            weekday_brackets=brackets(self._weekday),
            weekend_brackets=brackets(self._weekend),
        )


class DailyPatternAccumulator:
    """Streams :func:`repro.analysis.daily.daily_pattern` (Figure 7).

    The ``(n_days, 24)`` count matrix is integer-additive across shards
    (events are partitioned by machine), so the streamed pattern is
    bit-identical to the per-event one.
    """

    def __init__(self, n_days: int, start_weekday: int) -> None:
        # n_days == 0 is legal: a sub-day trace has an empty (0, 24)
        # matrix, exactly like the per-event daily_pattern.
        if n_days < 0:
            raise ReproError("DailyPatternAccumulator needs n_days >= 0")
        self.n_days = n_days
        self.start_weekday = start_weekday
        self.counts = np.zeros((n_days, 24), dtype=np.int64)

    def update_columns(self, cols: EventColumns) -> None:
        """Fold in one shard via a difference-array sweep.

        An event overlapping wall-clock hours ``[first, last]`` adds one
        to each cell — contiguous on the flattened ``(day, hour)`` grid,
        so all events become +1/-1 boundary marks and one ``cumsum``.
        The hour indices use the same float arithmetic as
        :func:`repro.analysis.daily.daily_pattern`, and the counts are
        integers, so the result is bit-identical to it.
        """
        if cols.n_days != self.n_days or cols.start_weekday != self.start_weekday:
            raise ReproError(
                "shard span/start_weekday disagrees with the accumulator"
            )
        n_hours = self.n_days * 24
        if n_hours == 0 or len(cols) == 0:
            return
        ev = cols.events
        h_first = (ev["start"] // HOUR).astype(np.int64)
        h_last = ((np.minimum(ev["end"], cols.span) - 1e-9) // HOUR).astype(
            np.int64
        )
        keep = (h_last >= h_first) & (h_first < n_hours)
        lo = h_first[keep]
        hi = np.minimum(h_last[keep], n_hours - 1)
        marks = np.zeros(n_hours + 1, dtype=np.int64)
        np.add.at(marks, lo, 1)
        np.add.at(marks, hi + 1, -1)
        self.counts += np.cumsum(marks[:-1]).reshape(self.n_days, 24)

    def merge(self, other: "DailyPatternAccumulator") -> "DailyPatternAccumulator":
        if (
            other.n_days != self.n_days
            or other.start_weekday != self.start_weekday
        ):
            raise ReproError("cannot merge accumulators of different spans")
        self.counts += other.counts
        return self

    def finalize(self) -> DailyPattern:
        weekend = np.array(
            [(d + self.start_weekday) % 7 >= 5 for d in range(self.n_days)],
            dtype=bool,
        )
        return DailyPattern(counts=self.counts.copy(), is_weekend_day=weekend)


def interval_columns(cols: EventColumns) -> tuple[np.ndarray, np.ndarray]:
    """Non-censored availability intervals of a shard, from its columns.

    Returns ``(hours, is_weekend)`` in exactly the order
    ``TraceDataset.all_intervals(include_censored=False)`` yields —
    machines ascending, intervals time-ordered within each machine — and
    with its float arithmetic: each length is ``iv.length / HOUR`` bit for
    bit and each weekend flag ``is_weekend_time(iv.start)``.

    Mirrors :func:`repro.core.intervals.availability_intervals` per
    machine: an interval opens at the running maximum of clipped event
    ends (the cursor) and closes at the next event's start; the
    leading and trailing boundary intervals are censored and dropped.
    """
    ev = cols.events
    span = cols.span
    bounds = cols.machine_bounds()
    hours_parts: list[np.ndarray] = []
    weekend_parts: list[np.ndarray] = []
    for m in range(cols.n_machines):
        a, b = int(bounds[m]), int(bounds[m + 1])
        if a == b:
            continue  # no events: the single [0, span] interval is censored
        starts = ev["start"][a:b]
        ends = ev["end"][a:b]
        overlap = starts[1:] < ends[:-1] - 1e-9
        if overlap.any():
            i = int(np.argmax(overlap))
            from ..errors import TraceError

            raise TraceError(
                f"overlapping events: [{starts[i]},{ends[i]}] and "
                f"[{starts[i + 1]},{ends[i + 1]}]"
            )
        clipped = np.minimum(ends, span)
        cursor = np.empty_like(clipped)
        cursor[0] = 0.0
        np.maximum.accumulate(clipped[:-1], out=cursor[1:])
        lo = np.maximum(starts, 0.0)
        emit = (lo > cursor + 1e-9) & (cursor < span)
        emit[0] = False  # the interval before the first event is censored
        if not emit.any():
            continue
        iv_start = cursor[emit]
        iv_len = np.minimum(lo[emit], span) - iv_start
        hours_parts.append(iv_len / HOUR)
        day = (iv_start // DAY).astype(np.int64)
        weekend_parts.append((day + cols.start_weekday) % 7 >= 5)
    if not hours_parts:
        empty = np.empty(0, dtype=float)
        return empty, np.empty(0, dtype=bool)
    return np.concatenate(hours_parts), np.concatenate(weekend_parts)


@dataclass(frozen=True)
class FleetAnalysis:
    """Everything the streaming analysis produces for a fleet."""

    breakdown: CauseBreakdown
    intervals: StreamingIntervalDistribution
    pattern: DailyPattern
    n_machines: int
    span: float
    start_weekday: int


class FleetAccumulator:
    """The three Section 5 accumulators folded together per unit."""

    def __init__(self, n_machines: int, span: float, start_weekday: int) -> None:
        self.n_machines = n_machines
        self.span = span
        self.start_weekday = start_weekday
        self.causes = CauseAccumulator(n_machines)
        self.intervals = IntervalCdfAccumulator()
        self.daily = DailyPatternAccumulator(int(span // DAY), start_weekday)

    @classmethod
    def for_fleet(cls, fleet) -> "FleetAccumulator":
        """Sized for any object with n_machines/span/start_weekday."""
        return cls(fleet.n_machines, fleet.span, fleet.start_weekday)

    def update_columns(self, cols: EventColumns, machine_lo: int = 0) -> None:
        """Fold in one shard (local machine ids; fleet offset given)
        straight from its (possibly memory-mapped) event columns.

        No per-event objects are materialized; every statistic equals
        the per-event reference exactly.
        """
        if cols.span != self.span:
            raise ReproError("shard span disagrees with the fleet accumulator")
        self.causes.update_columns(cols, machine_lo)
        hours, weekend = interval_columns(cols)
        self.intervals.update_hours(hours, weekend)
        self.daily.update_columns(cols)

    def merge(self, other: "FleetAccumulator") -> "FleetAccumulator":
        if (
            other.n_machines != self.n_machines
            or other.span != self.span
            or other.start_weekday != self.start_weekday
        ):
            raise ReproError("cannot merge accumulators of different fleets")
        self.causes.merge(other.causes)
        self.intervals.merge(other.intervals)
        self.daily.merge(other.daily)
        return self

    def finalize(self) -> FleetAnalysis:
        return FleetAnalysis(
            breakdown=self.causes.finalize(),
            intervals=self.intervals.finalize(),
            pattern=self.daily.finalize(),
            n_machines=self.n_machines,
            span=self.span,
            start_weekday=self.start_weekday,
        )

