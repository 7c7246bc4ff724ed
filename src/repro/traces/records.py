"""Flat, serializable trace records: row codec and batch column codec.

:class:`EventRecord` is the row-at-a-time form one JSONL/CSV line maps
to.  The column codec below is its batch counterpart: a whole event
table as one NumPy structured array (:data:`EVENT_DTYPE`, also the
event block of the binary format, :mod:`repro.traces.binio`), converted
to and from event lists in bulk and validated vectorized — no
per-event Python objects on the hot path.  :class:`EventColumns` is the
form every trace is read, written, sharded and folded in.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.events import UnavailabilityEvent
from ..core.states import AvailState
from ..errors import TraceError

__all__ = [
    "EVENT_DTYPE",
    "EventColumns",
    "EventRecord",
    "columns_to_events",
    "events_to_columns",
    "validate_columns",
]


@dataclass(frozen=True)
class EventRecord:
    """One unavailability occurrence as stored in a trace file.

    Field-for-field what the paper's traces record: start/end time, the
    failure state, and the resources that were available around the event.
    """

    machine_id: int
    start: float
    end: float
    state: str  # "S3" | "S4" | "S5"
    mean_host_load: float
    mean_free_mb: float

    def __post_init__(self) -> None:
        if self.state not in ("S3", "S4", "S5"):
            raise TraceError(f"invalid failure state {self.state!r}")
        if not self.end > self.start:
            raise TraceError("event record needs end > start")

    @classmethod
    def from_event(cls, event: UnavailabilityEvent) -> "EventRecord":
        return cls(
            machine_id=event.machine_id,
            start=event.start,
            end=event.end,
            state=event.state.value,
            mean_host_load=event.mean_host_load,
            mean_free_mb=event.mean_free_mb,
        )

    def to_event(self) -> UnavailabilityEvent:
        return UnavailabilityEvent(
            machine_id=self.machine_id,
            start=self.start,
            end=self.end,
            state=AvailState(self.state),
            mean_host_load=self.mean_host_load,
            mean_free_mb=self.mean_free_mb,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        # JSON has no NaN; use None.
        for key in ("mean_host_load", "mean_free_mb"):
            if isinstance(d[key], float) and math.isnan(d[key]):
                d[key] = None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EventRecord":
        d = dict(d)
        for key in ("mean_host_load", "mean_free_mb"):
            if d.get(key) is None:
                d[key] = float("nan")
        return cls(
            machine_id=int(d["machine_id"]),
            start=float(d["start"]),
            end=float(d["end"]),
            state=str(d["state"]),
            mean_host_load=float(d["mean_host_load"]),
            mean_free_mb=float(d["mean_free_mb"]),
        )


# -- batch column codec ----------------------------------------------------

#: One event as a packed little-endian structured-array row (37 bytes).
#: The layout is the on-disk event block of the binary trace format and
#: must never change without bumping its schema version.
EVENT_DTYPE = np.dtype(
    [
        ("machine_id", "<i4"),
        ("start", "<f8"),
        ("end", "<f8"),
        ("state", "u1"),
        ("mean_host_load", "<f8"),
        ("mean_free_mb", "<f8"),
    ]
)

#: Failure states encode as their paper numeral (S3 -> 3, ...).
STATE_TO_CODE: dict[AvailState, int] = {
    AvailState.S3: 3,
    AvailState.S4: 4,
    AvailState.S5: 5,
}
CODE_TO_STATE: dict[int, AvailState] = {v: k for k, v in STATE_TO_CODE.items()}


def events_to_columns(events: Sequence[UnavailabilityEvent]) -> np.ndarray:
    """Pack an event list into one :data:`EVENT_DTYPE` structured array.

    Order is preserved; NaN resource observations stay NaN (the binary
    format needs no None sentinel).
    """
    columns = np.empty(len(events), dtype=EVENT_DTYPE)
    columns["machine_id"] = [e.machine_id for e in events]
    columns["start"] = [e.start for e in events]
    columns["end"] = [e.end for e in events]
    columns["state"] = [STATE_TO_CODE[e.state] for e in events]
    columns["mean_host_load"] = [e.mean_host_load for e in events]
    columns["mean_free_mb"] = [e.mean_free_mb for e in events]
    return columns


#: State objects indexed by on-disk code (``None`` marks invalid codes),
#: so a whole state column decodes with one fancy-index pass.
_STATE_LUT = np.full(256, None, dtype=object)
for _code, _state in CODE_TO_STATE.items():
    _STATE_LUT[_code] = _state


def columns_to_events(columns: np.ndarray) -> list[UnavailabilityEvent]:
    """Unpack a structured column array into the event-object list.

    The inverse of :func:`events_to_columns` — no :class:`EventRecord`
    intermediates and no JSON; ``.tolist()`` converts each column to
    native Python scalars in one C pass.  The invariants
    ``UnavailabilityEvent.__post_init__`` enforces (positive duration, a
    failure state) are checked here once, vectorized, and the objects
    are then assembled directly without re-running per-event ``__init__``
    validation — the difference between this and row-at-a-time decoding
    is most of the binary loader's speed.
    """
    codes = columns["state"]
    states = _STATE_LUT[codes]
    bad_state = states == None  # noqa: E711 (elementwise)
    if bad_state.any():
        raise TraceError(
            f"invalid state code {int(codes[int(np.argmax(bad_state))])!r}"
        )
    bad_span = ~(columns["end"] > columns["start"])
    if bad_span.any():
        i = int(np.argmax(bad_span))
        raise TraceError(
            "event must have positive duration: "
            f"[{float(columns['start'][i])}, {float(columns['end'][i])}]"
        )

    new = UnavailabilityEvent.__new__
    set_attr = object.__setattr__

    def _build(m, s, e, st, load, mb):
        ev = new(UnavailabilityEvent)
        set_attr(
            ev,
            "__dict__",
            {
                "machine_id": m,
                "start": s,
                "end": e,
                "state": st,
                "mean_host_load": load,
                "mean_free_mb": mb,
            },
        )
        return ev

    return list(
        map(
            _build,
            columns["machine_id"].tolist(),
            columns["start"].tolist(),
            columns["end"].tolist(),
            states.tolist(),
            columns["mean_host_load"].tolist(),
            columns["mean_free_mb"].tolist(),
        )
    )


def validate_columns(
    columns: np.ndarray, *, n_machines: int, span: float
) -> None:
    """Vectorized event-table validation.

    Enforces exactly what the row codec and :class:`TraceDataset`
    enforce per event — machine ids in range, ``end > start``, valid
    state codes, events inside the span — plus ``(machine_id, start)``
    sort order, which the batch paths rely on for machine slicing.
    Raises :class:`TraceError` naming the first offending row.
    """
    if columns.dtype != EVENT_DTYPE:
        raise TraceError(f"event columns have dtype {columns.dtype}, "
                         f"expected {EVENT_DTYPE}")
    if columns.size == 0:
        return
    mid = columns["machine_id"]
    start = columns["start"]
    end = columns["end"]

    def _first(bad: np.ndarray, what: str) -> None:
        if bad.any():
            i = int(np.argmax(bad))
            raise TraceError(f"event row {i}: {what} "
                             f"(machine {int(mid[i])}, start {float(start[i])!r})")

    _first((mid < 0) | (mid >= n_machines), f"machine_id outside [0, {n_machines})")
    _first(~(end > start), "needs end > start")
    _first((start < 0) | (end > span + 1e-6), f"event outside span [0, {span}]")
    valid_states = np.isin(columns["state"], list(CODE_TO_STATE))
    _first(~valid_states, "invalid failure-state code")
    unsorted = (mid[1:] < mid[:-1]) | (
        (mid[1:] == mid[:-1]) & (start[1:] < start[:-1])
    )
    if unsorted.any():
        i = int(np.argmax(unsorted)) + 1
        raise TraceError(
            f"event row {i}: table not sorted by (machine_id, start)"
        )


@dataclass
class EventColumns:
    """A trace's (or a shard's) event table as columns, plus its frame.

    What :func:`repro.traces.io.load_columns` returns and
    :func:`repro.traces.io.save_columns` writes: ``events`` may be a
    read-only memmap straight off a binary file, and the accumulators
    fold it without materializing any per-event objects
    (:meth:`repro.analysis.accumulators.FleetAccumulator.update_columns`).
    """

    events: np.ndarray
    n_machines: int
    span: float
    start_weekday: int = 0
    metadata: dict = field(default_factory=dict)
    #: Optional ``(n_machines, n_hours)`` hourly-load matrix, so a whole
    #: dataset travels as one object-free unit: generation attaches it,
    #: and :func:`repro.traces.io.load_columns` reads it with the events.
    hourly_load: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.n_machines <= 0 or self.span <= 0:
            raise TraceError("event columns need n_machines > 0 and span > 0")

    def __len__(self) -> int:
        return int(self.events.size)

    @property
    def n_days(self) -> int:
        from ..units import DAY

        return int(self.span // DAY)

    def machine_bounds(self) -> np.ndarray:
        """Row boundaries per machine: machine ``m`` owns rows
        ``bounds[m]:bounds[m+1]`` (events are sorted by machine)."""
        return np.searchsorted(
            self.events["machine_id"], np.arange(self.n_machines + 1)
        )

    def slice_machines(self, lo: int, hi: int) -> "EventColumns":
        """Machines ``[lo, hi)`` as their own unit, renumbered ``0 .. hi-lo-1``.

        The event rows are copied with shifted machine ids; the hourly
        rows are a view.  Span, start weekday and a copy of the metadata
        carry over.
        """
        if not 0 <= lo < hi <= self.n_machines:
            raise TraceError(f"bad shard machine range [{lo}, {hi})")
        a, b = np.searchsorted(self.events["machine_id"], [lo, hi])
        events = np.array(self.events[a:b])
        events["machine_id"] -= lo
        return EventColumns(
            events=events,
            n_machines=hi - lo,
            span=self.span,
            start_weekday=self.start_weekday,
            metadata=dict(self.metadata),
            hourly_load=None if self.hourly_load is None else self.hourly_load[lo:hi],
        )

    @classmethod
    def from_dataset(cls, dataset) -> "EventColumns":
        """Columns for an in-memory dataset (events are already sorted)."""
        return cls(
            events=events_to_columns(dataset.events),
            n_machines=dataset.n_machines,
            span=dataset.span,
            start_weekday=dataset.start_weekday,
            metadata=dict(dataset.metadata),
            hourly_load=dataset.hourly_load,
        )

    def to_dataset(self):
        """Materialize the columns as an ordinary :class:`TraceDataset`."""
        from .dataset import TraceDataset

        return TraceDataset(
            events=columns_to_events(self.events),
            n_machines=self.n_machines,
            span=self.span,
            start_weekday=self.start_weekday,
            hourly_load=self.hourly_load,
            metadata=dict(self.metadata),
        )
