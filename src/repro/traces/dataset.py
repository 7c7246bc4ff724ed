"""The in-memory trace dataset with the slicing the analyses need."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.events import AvailabilityInterval, UnavailabilityEvent
from ..core.intervals import availability_intervals
from ..errors import TraceError
from ..units import DAY, HOUR, is_weekend

__all__ = ["TraceDataset"]


def _float_eq(a: float, b: float) -> bool:
    """Exact float equality with NaN == NaN (NaN marks 'unobserved')."""
    return a == b or (a != a and b != b)


@dataclass
class TraceDataset:
    """Unavailability events for a testbed over a traced span.

    Attributes
    ----------
    events:
        All events, sorted by (machine_id, start).
    n_machines:
        Machines are ids ``0 .. n_machines - 1``.
    span:
        Traced duration in seconds starting at time 0 (midnight, day 0).
    start_weekday:
        Day-of-week of day 0 (0 = Monday).
    hourly_load:
        Optional ``(n_machines, n_hours)`` mean host load per wall-clock
        hour; prediction baselines use it as a feature signal.
    """

    events: list[UnavailabilityEvent]
    n_machines: int
    span: float
    start_weekday: int = 0
    hourly_load: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_machines <= 0 or self.span <= 0:
            raise TraceError("dataset needs n_machines > 0 and span > 0")
        self.events = sorted(self.events, key=lambda e: (e.machine_id, e.start))
        for e in self.events:
            if not 0 <= e.machine_id < self.n_machines:
                raise TraceError(f"event machine_id {e.machine_id} out of range")
            if e.start < 0 or e.end > self.span + 1e-6:
                raise TraceError(
                    f"event [{e.start}, {e.end}] outside span [0, {self.span}]"
                )
        if self.hourly_load is not None:
            expect = (self.n_machines, int(self.span // HOUR))
            if tuple(self.hourly_load.shape) != expect:
                raise TraceError(
                    f"hourly_load shape {self.hourly_load.shape} != {expect}"
                )

    @classmethod
    def from_validated(
        cls,
        events: list[UnavailabilityEvent],
        *,
        n_machines: int,
        span: float,
        start_weekday: int = 0,
        hourly_load: Optional[np.ndarray] = None,
        metadata: Optional[dict] = None,
    ) -> "TraceDataset":
        """Trusted constructor for pre-sorted, pre-validated events.

        Skips ``__post_init__``'s re-sort and per-event range checks, so
        the caller must already have proven what they enforce — in
        practice that means the events came out of a column table that
        passed :func:`repro.traces.records.validate_columns` (which
        checks ids, spans, and ``(machine_id, start)`` order vectorized).
        This is the binary loader's fast path; everything else should use
        the ordinary constructor.
        """
        if n_machines <= 0 or span <= 0:
            raise TraceError("dataset needs n_machines > 0 and span > 0")
        ds = cls.__new__(cls)
        ds.events = events
        ds.n_machines = n_machines
        ds.span = span
        ds.start_weekday = start_weekday
        ds.hourly_load = hourly_load
        ds.metadata = {} if metadata is None else metadata
        return ds

    # -- basic access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_days(self) -> int:
        return int(self.span // DAY)

    @property
    def machine_days(self) -> float:
        """Total machine-days of trace (the paper reports ~1800)."""
        return self.n_machines * self.span / DAY

    def events_for(self, machine_id: int) -> list[UnavailabilityEvent]:
        """One machine's events, time-ordered."""
        return [e for e in self.events if e.machine_id == machine_id]

    # -- intervals ----------------------------------------------------------------

    def intervals_for(self, machine_id: int) -> list[AvailabilityInterval]:
        """One machine's availability intervals over the full span."""
        return availability_intervals(
            self.events_for(machine_id),
            span_start=0.0,
            span_end=self.span,
            machine_id=machine_id,
        )

    def all_intervals(self, *, include_censored: bool = False) -> list[
        AvailabilityInterval
    ]:
        """Availability intervals of every machine."""
        out: list[AvailabilityInterval] = []
        for m in range(self.n_machines):
            for iv in self.intervals_for(m):
                if include_censored or not iv.censored:
                    out.append(iv)
        return out

    # -- day-type helpers -------------------------------------------------------------

    def is_weekend_time(self, t: float) -> bool:
        return is_weekend(t, self.start_weekday)

    def weekday_indices(self) -> list[int]:
        """Day numbers that are weekdays."""
        return [d for d in range(self.n_days) if (d + self.start_weekday) % 7 < 5]

    def weekend_indices(self) -> list[int]:
        return [d for d in range(self.n_days) if (d + self.start_weekday) % 7 >= 5]

    # -- split -------------------------------------------------------------------------

    def slice_days(self, first_day: int, last_day: int) -> "TraceDataset":
        """A sub-dataset covering days ``[first_day, last_day)``.

        Event times are shifted so the slice starts at 0, and the start
        weekday is adjusted; events spanning the boundary are clipped.
        """
        if not 0 <= first_day < last_day <= self.n_days:
            raise TraceError(f"bad day range [{first_day}, {last_day})")
        t0, t1 = first_day * DAY, last_day * DAY
        events = []
        for e in self.events:
            if e.end <= t0 or e.start >= t1:
                continue
            start = max(e.start, t0) - t0
            end = min(e.end, t1) - t0
            events.append(
                UnavailabilityEvent(
                    machine_id=e.machine_id,
                    start=start,
                    end=end,
                    state=e.state,
                    mean_host_load=e.mean_host_load,
                    mean_free_mb=e.mean_free_mb,
                )
            )
        hourly = None
        if self.hourly_load is not None:
            h0, h1 = first_day * 24, last_day * 24
            hourly = self.hourly_load[:, h0:h1].copy()
        return TraceDataset(
            events=events,
            n_machines=self.n_machines,
            span=t1 - t0,
            start_weekday=(self.start_weekday + first_day) % 7,
            hourly_load=hourly,
            metadata=dict(self.metadata),
        )

    # -- equality -------------------------------------------------------------------------

    def equals(self, other: "TraceDataset") -> bool:
        """Exact equality: same events, shape, metadata, and hourly load.

        Plain dataclass ``==`` is unusable here because the optional
        ``hourly_load`` array has no unambiguous truth value; this compares
        it with :func:`numpy.array_equal` treating NaNs as equal (NaN marks
        hours the machine was down).  Used by the determinism tests to
        assert ``jobs=N`` output matches ``jobs=1`` and cache round-trips.
        """
        if not isinstance(other, TraceDataset):
            return False
        if (
            self.n_machines != other.n_machines
            or self.span != other.span
            or self.start_weekday != other.start_weekday
            or self.metadata != other.metadata
            or len(self.events) != len(other.events)
        ):
            return False
        for a, b in zip(self.events, other.events):
            if (
                a.machine_id != b.machine_id
                or a.start != b.start
                or a.end != b.end
                or a.state is not b.state
                or not _float_eq(a.mean_host_load, b.mean_host_load)
                or not _float_eq(a.mean_free_mb, b.mean_free_mb)
            ):
                return False
        if (self.hourly_load is None) != (other.hourly_load is None):
            return False
        if self.hourly_load is not None:
            return bool(
                np.array_equal(self.hourly_load, other.hourly_load, equal_nan=True)
            )
        return True

    # -- summaries ------------------------------------------------------------------------

    def counts_by_cause(self, machine_id: Optional[int] = None) -> dict[str, int]:
        """Event counts by Table 2 cause, optionally for one machine."""
        counts = {"cpu": 0, "memory": 0, "revocation": 0}
        for e in self.events:
            if machine_id is not None and e.machine_id != machine_id:
                continue
            counts[e.cause] += 1
        return counts
