"""Mergeable streaming accumulators for the paper's fleet analyses.

Every Section 5 artifact — Table 2 cause counts, the Figure 6
interval-length CDFs, the Figure 7 hourly occurrence histogram, and the
interval summary statistics — can be computed shard-by-shard: each
accumulator supports

* ``update_columns(shard_columns, ...)`` (or ``update_hours`` with the
  shard's :func:`interval_columns`) — fold one shard's
  :class:`~repro.traces.records.EventColumns` in, with no per-event
  objects;
* ``merge(other)`` — combine two partial accumulators;
* ``finalize()`` — produce the analysis result object.

so a fleet far too large to hold in memory is analyzed one shard at a
time (constant memory) or reduced across workers.  Every shard folds
this one way, whether it is a binary or JSONL shard file or a virtual
shard of a loaded trace; the reference the folds must equal is the
monolithic analysis over event objects
(:func:`repro.core.intervals.availability_intervals`,
:func:`~repro.analysis.causes.cause_breakdown`,
:func:`~repro.analysis.daily.daily_pattern`).

Exactness contract
------------------
The streaming results are *numerically identical* to the monolithic
single-pass analyses, with one documented exception:

* **exact (bit-identical):** every integer-counted statistic — the
  per-machine Table 2 arrays, the Figure 7 ``(n_days, 24)`` count
  matrix, every CDF value on the fixed grid (an integer count divided
  once by ``n``), and every landmark *fraction* (``frac_below_5min``,
  the 2–4 h / 4–6 h masses, …).  Integer addition commutes, so any
  shard partition and any merge order gives the same counts, hence the
  same quotients.
* **float-tolerance:** interval-length *means* (``weekday_mean_h``,
  ``weekend_mean_h``) and the summary mean/std.  These are float sums
  whose grouping differs between the monolithic ``np.mean`` (pairwise
  summation over one array) and the streamed per-shard partial sums, so
  they agree only to relative tolerance :data:`MEAN_RTOL` (~1e-9 —
  far below the 2-decimal rendering the reports use).  The property
  suite (``tests/test_accumulators_property.py``) pins both behaviors.

The Figure 6 CDF is kept as cumulative counts on :data:`FIG6_GRID`, the
union of the two grids the renderers evaluate (the 49-point table grid
of :func:`repro.analysis.report.render_figure6` and the 64-point chart
grid of :func:`repro.analysis.ascii.render_figure6_chart`); evaluating a
streamed CDF anywhere else raises, rather than silently interpolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ReproError
from ..traces.records import EventColumns
from ..units import DAY, HOUR, MINUTE
from .causes import CauseBreakdown
from .daily import DailyPattern

__all__ = [
    "FIG6_GRID",
    "MEAN_RTOL",
    "CauseAccumulator",
    "DailyPatternAccumulator",
    "FleetAccumulator",
    "FleetAnalysis",
    "IntervalCdfAccumulator",
    "StreamingIntervalDistribution",
    "StreamingSummary",
    "SummaryAccumulator",
    "interval_columns",
    "merge_reduce",
]

#: Documented relative tolerance for float-summed statistics (means,
#: std); integer-counted statistics are exact.  See the module docstring.
MEAN_RTOL = 1e-9

#: The fixed evaluation grid (hours) for streamed Figure 6 CDFs: the
#: union of the 49-point table grid and the 64-point chart grid, so both
#: renderers read exact integer-count values.
FIG6_GRID: np.ndarray = np.union1d(
    np.linspace(0.0, 12.0, 49), np.linspace(0.0, 12.0, 64)
)
FIG6_GRID.setflags(write=False)

_FIVE_MIN_H = 5 * MINUTE / HOUR


def merge_reduce(accumulators: Sequence["_MergeableT"]) -> "_MergeableT":
    """Tree-reduce a sequence of accumulators with pairwise ``merge``.

    Associativity is the whole point of the accumulator design, so the
    reduction shape is free to be a balanced tree (what a parallel
    reduction over workers produces) rather than a left fold.  Raises on
    an empty sequence.
    """
    accs = list(accumulators)
    if not accs:
        raise ReproError("merge_reduce needs at least one accumulator")
    while len(accs) > 1:
        nxt = []
        for i in range(0, len(accs) - 1, 2):
            accs[i].merge(accs[i + 1])
            nxt.append(accs[i])
        if len(accs) % 2:
            nxt.append(accs[-1])
        accs = nxt
    return accs[0]


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
    """One day type's streamed interval statistics (weekday or weekend)."""

    __slots__ = ("n", "total_h", "cum", "c_2_4", "c_4_6", "c_lt_5min", "c_5min_2")

    def __init__(self, grid_size: int) -> None:
        self.n = 0
        self.total_h = 0.0
        self.cum = np.zeros(grid_size, dtype=np.int64)
        self.c_2_4 = 0
        self.c_4_6 = 0
        self.c_lt_5min = 0
        self.c_5min_2 = 0

    def add(self, hours: np.ndarray, grid: np.ndarray) -> None:
        if hours.size == 0:
            return
        self.n += int(hours.size)
        self.total_h += float(hours.sum())
        # count(v <= x) per grid point — the same comparison Ecdf.at
        # makes, so summed counts reproduce the monolithic CDF exactly.
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
    weekday_total_h: float
    weekend_total_h: float
    weekday_brackets: dict
    weekend_brackets: dict

    @property
    def weekday_count(self) -> int:
        return self.weekday_n

    @property
    def weekend_count(self) -> int:
        return self.weekend_n

    def landmarks(self) -> dict[str, float]:
        """The Figure 6 landmark dict (same keys as the monolithic one).

        Fractions are exact integer-count quotients; the two means are
        float sums (tolerance :data:`MEAN_RTOL` vs monolithic).  Empty
        sides yield NaN, matching ``np.mean`` of an empty array.
        """
        wk_n, we_n = self.weekday_n, self.weekend_n
        both_n = wk_n + we_n
        nan = float("nan")
        below = self.weekday_brackets["lt_5min"] + self.weekend_brackets["lt_5min"]
        return {
            "weekday_mean_h": self.weekday_total_h / wk_n if wk_n else nan,
            "weekend_mean_h": self.weekend_total_h / we_n if we_n else nan,
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

    Per day type it keeps the interval count, the float sum of lengths,
    cumulative counts on :data:`FIG6_GRID`, and the landmark bracket
    counts — constant memory regardless of fleet size.
    """

    def __init__(self, grid: Optional[np.ndarray] = None) -> None:
        self.grid = FIG6_GRID if grid is None else np.asarray(grid, dtype=float)
        self._weekday = _SideCounts(self.grid.size)
        self._weekend = _SideCounts(self.grid.size)

    def update_hours(self, hours: np.ndarray, weekend: np.ndarray) -> None:
        """Fold in one shard's interval lengths (see :func:`interval_columns`).

        ``hours`` must be in ``TraceDataset.all_intervals`` order
        (machines ascending, intervals time-ordered within a machine) so
        the float-summed side totals repeat the monolithic arithmetic.
        """
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
    bit-identical to the monolithic one.
    """

    def __init__(self, n_days: int, start_weekday: int) -> None:
        # n_days == 0 is legal: a sub-day trace has an empty (0, 24)
        # matrix, exactly like the monolithic daily_pattern.
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


@dataclass(frozen=True)
class StreamingSummary:
    """Mergeable summary of availability-interval lengths (hours).

    The median of :class:`repro.analysis.stats.SummaryStats` is absent —
    an exact median cannot be merged in constant memory; quantiles are
    available to grid resolution via the streamed CDF instead.
    """

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float


class SummaryAccumulator:
    """Chan-style mergeable mean/variance/min/max of interval lengths."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def update_hours(self, hours: np.ndarray) -> None:
        """Fold in one shard's interval lengths (see :func:`interval_columns`).

        ``hours`` must be in ``TraceDataset.all_intervals`` order — the
        per-shard mean/M2 are float reductions over the same array, so
        the Chan merge sees the partials the monolithic order gives.
        """
        if hours.size == 0:
            return
        other = SummaryAccumulator()
        other.n = int(hours.size)
        other.mean = float(hours.mean())
        other.m2 = float(((hours - other.mean) ** 2).sum())
        other.minimum = float(hours.min())
        other.maximum = float(hours.max())
        self.merge(other)

    def merge(self, other: "SummaryAccumulator") -> "SummaryAccumulator":
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        # Chan et al. parallel update of (n, mean, M2).
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean += delta * other.n / n
        self.m2 += other.m2 + delta * delta * self.n * other.n / n
        self.n = n
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def finalize(self) -> StreamingSummary:
        if self.n == 0:
            nan = float("nan")
            return StreamingSummary(n=0, mean=nan, std=nan, minimum=nan, maximum=nan)
        std = (self.m2 / (self.n - 1)) ** 0.5 if self.n > 1 else 0.0
        return StreamingSummary(
            n=self.n,
            mean=self.mean,
            std=std,
            minimum=self.minimum,
            maximum=self.maximum,
        )


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
    summary: StreamingSummary
    n_machines: int
    span: float
    start_weekday: int


class FleetAccumulator:
    """All four Section 5 accumulators folded together per shard."""

    def __init__(self, n_machines: int, span: float, start_weekday: int) -> None:
        from ..units import DAY

        self.n_machines = n_machines
        self.span = span
        self.start_weekday = start_weekday
        self.causes = CauseAccumulator(n_machines)
        self.intervals = IntervalCdfAccumulator()
        self.daily = DailyPatternAccumulator(int(span // DAY), start_weekday)
        self.summary = SummaryAccumulator()

    @classmethod
    def for_fleet(cls, fleet) -> "FleetAccumulator":
        """Sized for any object with n_machines/span/start_weekday."""
        return cls(fleet.n_machines, fleet.span, fleet.start_weekday)

    def update_columns(self, cols: EventColumns, machine_lo: int = 0) -> None:
        """Fold in one shard (local machine ids; fleet offset given)
        straight from its (possibly memory-mapped) event columns.

        No per-event objects are materialized; integer statistics equal
        the monolithic analysis exactly, and interval lengths repeat its
        float arithmetic in its order.  The availability intervals are
        derived once and shared by the CDF and summary accumulators.
        """
        if cols.span != self.span:
            raise ReproError("shard span disagrees with the fleet accumulator")
        self.causes.update_columns(cols, machine_lo)
        hours, weekend = interval_columns(cols)
        self.intervals.update_hours(hours, weekend)
        self.daily.update_columns(cols)
        self.summary.update_hours(hours)

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
        self.summary.merge(other.summary)
        return self

    def finalize(self) -> FleetAnalysis:
        return FleetAnalysis(
            breakdown=self.causes.finalize(),
            intervals=self.intervals.finalize(),
            pattern=self.daily.finalize(),
            summary=self.summary.finalize(),
            n_machines=self.n_machines,
            span=self.span,
            start_weekday=self.start_weekday,
        )


_MergeableT = object  # documentation alias: anything with .merge(other)
