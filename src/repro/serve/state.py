"""Live per-machine predictor state for the serving daemon.

The batch prediction path (:mod:`repro.prediction`) fits a
:class:`~repro.prediction.base.CountMatrix` over a frozen trace and
answers :class:`~repro.prediction.base.PredictionQuery` windows.  A
deployed forecast service cannot refit per request: it needs the same
per-(machine, day, hour) unavailability-start counts held as *live*
state — cheap to read thousands of times a second, updatable in place as
new events stream in, and small enough (or pageable enough) that a
million-machine fleet fits under a fixed RSS ceiling.

:class:`ServeState` is that state, split into two tiers:

* **base tier** — count blocks built from the bootstrap trace, each in
  the narrowest unsigned dtype that holds its largest count
  (:func:`~repro.serve.paging.build_count_block`).  A state
  bootstrapped from in-memory columns holds one resident block; a
  store-backed state pages **fixed-size machine-range blocks** in and
  out through a :class:`~repro.serve.paging.BlockPager` (each rebuilt
  from positioned reads of its rows in a binary shard, LRU-bounded
  by blocks and/or bytes), so the fleet's total state never has to be
  resident at once — the block grain is what lets a 10⁵–10⁶-machine
  fleet serve under a fixed RSS ceiling.  A point query touches its
  machine's block once, however many cells its window spans.
* **overlay tier** — a sparse ``(machine, day) -> 24-vector`` of counts
  from *streamed* events (``POST /v1/ingest`` or stdin JSONL).  The
  overlay is always resident (it only holds what was streamed) and is
  never evicted, so eviction can never lose live data: a machine's
  effective counts are always ``base + overlay``.  The overlay (plus
  the ingest tails) is what :meth:`save_overlay_snapshot` persists so
  restarts don't lose streamed events.

A state may own only a **machine range** of the fleet: the scale-out
router (:mod:`repro.serve.router`) gives each worker process a
contiguous run of shards, and the worker's state answers for exactly
those machines (``machine_lo``/``machine_hi``), raising
:class:`~repro.errors.WorkerRangeError` for the rest.  Fleet-vectorized
queries return per-owned-machine arrays the router scatter-gathers.

Exactness contract
------------------
For a state built from a trace with no streamed events, every answer is
*value-identical* to the batch path on the same trace: the base tier
and ``CountMatrix.counts`` are binned by the one
:func:`~repro.prediction.base.counts_from_event_rows`, streamed events
by its per-event form :func:`~repro.prediction.base.start_cell`, and
the query methods replicate
:class:`~repro.prediction.history.HistoryWindowPredictor`'s arithmetic
operation for operation — per-cell ``total += overlap * count``
accumulation in cell order, ``np.mean`` over the same-shaped history
vector, the same Laplace-smoothed survival quotient.  The fleet-wide
vectorized path (:meth:`ServeState.survival_fleet`) keeps the identical
per-cell accumulation order across machines, and block paging commutes
with counting (integer restriction to a machine sub-range), so capacity
and ranking answers agree with the scalar path bit for bit through any
block size, eviction churn, routing split, or snapshot/restore cycle.
The differential suites (``tests/test_serve_api.py``,
``tests/test_serve_paging.py``, ``tests/test_serve_router.py``) pin
this.

Ingest contract
---------------
Streamed delivery is not trusted to be clean.  At the ingest boundary,
per machine:

* event start times must be **non-decreasing** — an event starting
  before the machine's newest accepted event raises
  :class:`~repro.errors.IngestOrderError` and rejects the whole batch
  atomically (no partial application, so readers never observe a torn
  batch);
* an event **identical** to the machine's newest accepted event
  (same start, end, and state) is a duplicate delivery: it is dropped
  deterministically and counted, never double-ingested;
* events sharing a start time with different payloads are distinct
  events (simultaneous detections) and all accepted.

Validation and application are split (:meth:`validate_events` /
:meth:`apply_batch`) so the asynchronous ingest queue
(:mod:`repro.serve.ingest`) can decide a batch's fate synchronously at
the enqueue boundary — same contract, same result — and apply the
pre-validated counts later without re-deciding anything.

The batch path freezes its day horizon at the trace span; the live path
extends it as events arrive (``horizon_day``), so "now" queries keep
working past the end of the bootstrap trace.  Every query takes an
optional ``horizon`` that overrides it: a router pins the fleet horizon
(the max over its workers), so each worker anchors history where one
process holding the whole fleet would.
"""

from __future__ import annotations

import math
import os
import threading
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..errors import (
    IngestOrderError,
    NoHistoryError,
    ServeError,
    WorkerRangeError,
)
from ..prediction.base import PredictionQuery, start_cell
from ..traces.records import CODE_TO_STATE, EventColumns
from ..traces.shards import ShardedTraceDataset
from .paging import BlockPager, build_count_block
from .server import mean_survival

__all__ = [
    "IngestResult",
    "ServeState",
    "TierStats",
    "ValidatedBatch",
]

#: Failure-state names accepted on the ingest boundary, by on-disk code.
_STATE_NAMES = {code: state.value for code, state in CODE_TO_STATE.items()}

#: Overlay-snapshot document version (bump on incompatible layout change).
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one atomically applied ingest batch."""

    accepted: int
    deduplicated: int


@dataclass(frozen=True)
class TierStats:
    """A snapshot of the hot/cold tier and ingest accounting."""

    hot_entries: int
    resident_bytes: int
    hits: int
    rebuilds: int
    evictions: int
    streamed_events: int
    deduplicated_events: int
    overlay_cells: int
    #: Total pageable blocks in the base tier (1 for in-memory states).
    n_blocks: int = 1
    #: Configured block size (``None`` = whole-shard blocks).
    block_machines: Optional[int] = None


class _ParsedEvent:
    """One validated ingest event (internal)."""

    __slots__ = ("machine_id", "start", "end", "state")

    def __init__(self, machine_id: int, start: float, end: float, state: int):
        self.machine_id = machine_id
        self.start = start
        self.end = end
        self.state = state

    def same_as(self, other: "_ParsedEvent") -> bool:
        return (
            self.start == other.start
            and self.end == other.end
            and self.state == other.state
        )


@dataclass(frozen=True)
class ValidatedBatch:
    """A batch whose fate was fully decided at the ingest boundary.

    ``accepted`` holds the events that will count (duplicates already
    dropped), ``tails`` the per-machine newest-event delta the batch
    leaves behind, and ``horizon_day`` the projected first-unobserved
    day once applied — everything a deferred apply or a queue's shadow
    state needs, with no re-validation.
    """

    accepted: tuple
    deduplicated: int
    tails: dict = field(default_factory=dict)
    horizon_day: int = 0

    @property
    def n_accepted(self) -> int:
        return len(self.accepted)

    def result(self) -> IngestResult:
        return IngestResult(
            accepted=len(self.accepted), deduplicated=self.deduplicated
        )


class ServeState:
    """The daemon's live, query-ready fleet state (thread-safe).

    Parameters
    ----------
    n_machines, n_days, start_weekday:
        The fleet frame.  ``n_days`` is the bootstrap trace's whole-day
        horizon; streamed events may extend it (see ``horizon_day``).
    store:
        Optional shard store backing the base tier.  Without one the
        state is overlay-only (pure streamed mode) unless bootstrapped
        via :meth:`from_columns`.
    shard_range:
        With a store: the contiguous shard range ``[lo, hi)`` this state
        owns (a scale-out worker's slice).  Default: every shard.
    hot_shards:
        Maximum base-tier blocks resident at once (``None`` = unbounded).
        With the default whole-shard blocks this bounds resident
        *shards*, which is what the flag has always meant.
    hot_bytes:
        Maximum base-tier resident bytes (``None`` = unbounded).  Both
        bounds may be active; eviction runs until both hold.
    block_machines:
        Machines per pageable base-tier block (``None`` = whole-shard
        blocks).  Smaller blocks page at a finer grain — the knob that
        holds a 10⁵⁺-machine fleet under a fixed RSS ceiling.
    history_days, statistic, laplace:
        Predictor knobs, matching
        :class:`~repro.prediction.history.HistoryWindowPredictor`.
    verify:
        Verify shard content fingerprints on first touch.
    """

    def __init__(
        self,
        n_machines: int,
        n_days: int,
        start_weekday: int = 0,
        *,
        store: Optional[ShardedTraceDataset] = None,
        shard_range: Optional[tuple] = None,
        hot_shards: Optional[int] = None,
        hot_bytes: Optional[int] = None,
        block_machines: Optional[int] = None,
        history_days: int = 8,
        statistic: str = "mean",
        laplace: float = 0.5,
        verify: bool = True,
    ) -> None:
        if n_machines <= 0:
            raise ServeError("ServeState needs n_machines > 0")
        if n_days < 0:
            raise ServeError("ServeState needs n_days >= 0")
        if history_days < 1:
            raise ServeError("history_days must be >= 1")
        if statistic not in ("mean", "median", "trimmed"):
            raise ServeError(f"unknown statistic {statistic!r}")
        if laplace < 0:
            raise ServeError("laplace must be >= 0")
        if hot_shards is not None and hot_shards < 1:
            raise ServeError("hot_shards must be >= 1")
        if hot_bytes is not None and hot_bytes <= 0:
            raise ServeError("hot_bytes must be positive")
        if shard_range is not None and store is None:
            raise ServeError("shard_range needs a backing store")
        self.n_machines = n_machines
        self.base_n_days = n_days
        self.start_weekday = start_weekday
        self.history_days = history_days
        self.statistic = statistic
        self.laplace = laplace
        self._store = store
        #: Resident base-tier counts for in-memory bootstraps
        #: (:meth:`from_columns`); ``None`` for store-backed states.
        self._base: Optional[np.ndarray] = None
        self._pager: Optional[BlockPager] = None
        if store is not None:
            if store.n_machines != n_machines:
                raise ServeError(
                    f"store holds {store.n_machines} machines, state "
                    f"declares {n_machines}"
                )
            lo, hi = shard_range if shard_range else (0, store.n_shards)
            self._pager = BlockPager(
                store,
                shard_lo=lo,
                shard_hi=hi,
                block_machines=block_machines,
                max_blocks=hot_shards,
                max_bytes=hot_bytes,
                verify=verify,
            )
            self.machine_lo = self._pager.machine_lo
            self.machine_hi = self._pager.machine_hi
        else:
            self.machine_lo = 0
            self.machine_hi = n_machines
        self._lock = threading.RLock()
        # Overlay tier: (machine, day) -> int64[24], plus a by-day index
        # for the fleet-vectorized path and per-machine tails for the
        # ingest ordering contract.
        self._overlay: dict[tuple[int, int], np.ndarray] = {}
        self._overlay_by_day: dict[int, dict[int, np.ndarray]] = {}
        self._last_event: dict[int, _ParsedEvent] = {}
        self._overlay_horizon = 0
        self._n_streamed = 0
        self._n_deduped = 0

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_store(
        cls, store: ShardedTraceDataset, **kwargs
    ) -> "ServeState":
        """State backed by an on-disk shard store (the cold tier)."""
        return cls(
            store.n_machines,
            store.n_days,
            store.start_weekday,
            store=store,
            **kwargs,
        )

    @classmethod
    def from_columns(cls, cols: EventColumns, **kwargs) -> "ServeState":
        """State bootstrapped from one in-memory event table (always hot)."""
        kwargs.pop("hot_shards", None)
        kwargs.pop("hot_bytes", None)
        kwargs.pop("block_machines", None)
        state = cls(cols.n_machines, cols.n_days, cols.start_weekday, **kwargs)
        state._base = build_count_block(
            lambda lo, hi: cols.events[lo:hi], cols.machine_bounds(), cols.n_days
        )
        return state

    # -- introspection --------------------------------------------------------

    @property
    def owned_machines(self) -> int:
        """Machines this state answers for (the fleet, or a worker slice)."""
        return self.machine_hi - self.machine_lo

    @property
    def horizon_day(self) -> int:
        """First unobserved day: the query clamp the batch path takes at
        ``n_days``, extended here by streamed events."""
        return max(self.base_n_days, self._overlay_horizon)

    @property
    def ready(self) -> bool:
        """True once any observed history exists.

        A bootstrap frame with ``n_days > 0`` counts even when it holds
        zero events — an event-free day is real (good) history, exactly
        as the batch path treats it.  A pure streamed state
        (``n_days == 0``, no store) stays not-ready until its first
        event arrives.
        """
        return (
            self.base_n_days > 0
            or self._pager is not None
            or self._base is not None
            or self._n_streamed > 0
        )

    def tier_stats(self) -> TierStats:
        with self._lock:
            if self._pager is not None:
                p = self._pager.stats()
                hot, resident = p.resident_blocks, p.resident_bytes
                hits, rebuilds, evictions = p.hits, p.rebuilds, p.evictions
                n_blocks, block_machines = p.n_blocks, p.block_machines
            elif self._base is not None:
                hot, resident = 1, self._base.nbytes
                hits = rebuilds = evictions = 0
                n_blocks, block_machines = 1, None
            else:
                hot = resident = hits = rebuilds = evictions = 0
                n_blocks, block_machines = 0, None
            return TierStats(
                hot_entries=hot,
                resident_bytes=resident,
                hits=hits,
                rebuilds=rebuilds,
                evictions=evictions,
                streamed_events=self._n_streamed,
                deduplicated_events=self._n_deduped,
                overlay_cells=len(self._overlay),
                n_blocks=n_blocks,
                block_machines=block_machines,
            )

    def is_weekend_day(self, day: int) -> bool:
        return (day + self.start_weekday) % 7 >= 5

    # -- base tier ------------------------------------------------------------

    def _base_segments(
        self,
    ) -> Iterator[tuple[int, int, Optional[np.ndarray]]]:
        """Owned machine segments ``(lo, hi, counts)`` in machine order.

        ``counts`` is the segment's base-tier block (``None`` when the
        state has no base tier — overlay-only).  Store-backed states
        yield one segment per pageable block, paging each in turn so a
        fleet sweep respects the resident bounds.  Callers hold
        ``self._lock``.
        """
        if self._base is not None:
            yield self.machine_lo, self.machine_hi, self._base
        elif self._pager is not None:
            for block in self._pager.blocks:
                yield block.lo, block.hi, self._pager.counts(block.index)
        else:
            yield self.machine_lo, self.machine_hi, None

    def _base_row(self, machine_id: int) -> Optional[np.ndarray]:
        """The machine's ``(base_n_days, 24)`` base-tier counts (``None``
        without a base tier): one pager touch.  Callers hold
        ``self._lock``."""
        if self._base is not None:
            return self._base[machine_id]
        if self._pager is not None:
            return self._pager.row(machine_id)
        return None

    def _window_totals(
        self,
        machine_id: int,
        cells: list[tuple[int, int, float]],
        shifts: Iterable[int],
        horizon: int,
    ) -> list[float]:
        """Per day shift, the window's ``total += overlap * count`` over
        its cells in cell order, each count base + overlay.

        The base row is fetched once, at the first cell that needs it,
        so the pager sees one touch per call (and none when every cell
        lies past the base tier).  Callers hold ``self._lock``.
        """
        base_days = self.base_n_days
        overlay = self._overlay
        row = None
        fetched = False
        totals = []
        for shift in shifts:
            total = 0.0
            for cell_day, hour, overlap in cells:
                day = cell_day + shift
                if not 0 <= day < horizon:
                    continue
                count = 0
                if day < base_days:
                    if not fetched:
                        row, fetched = self._base_row(machine_id), True
                    if row is not None:
                        count = int(row[day, hour])
                vec = overlay.get((machine_id, day))
                if vec is not None:
                    count += int(vec[hour])
                total += overlap * count
            totals.append(total)
        return totals

    # -- ingest ---------------------------------------------------------------

    def _parse_event(self, event: Union[dict, Sequence]) -> _ParsedEvent:
        if isinstance(event, dict):
            try:
                machine_id = event["machine_id"]
                start = event["start"]
                end = event["end"]
                state = event["state"]
            except KeyError as exc:
                raise ServeError(f"ingest event missing field {exc}") from exc
        else:
            try:
                machine_id, start, end, state = event[:4]
            except (TypeError, ValueError) as exc:
                raise ServeError(
                    "ingest event must be a dict or a "
                    "(machine_id, start, end, state) sequence"
                ) from exc
        try:
            machine_id = int(machine_id)
            start = float(start)
            end = float(end)
        except (TypeError, ValueError) as exc:
            raise ServeError(f"malformed ingest event: {exc}") from exc
        if isinstance(state, str):
            codes = {v: k for k, v in _STATE_NAMES.items()}
            if state not in codes:
                raise ServeError(f"invalid failure state {state!r}")
            state = codes[state]
        else:
            try:
                state = int(state)
            except (TypeError, ValueError) as exc:
                raise ServeError(f"malformed ingest event: {exc}") from exc
            if state not in _STATE_NAMES:
                raise ServeError(f"invalid failure-state code {state!r}")
        if not 0 <= machine_id < self.n_machines:
            raise ServeError(
                f"machine {machine_id} outside fleet [0, {self.n_machines})"
            )
        self._check_owned(machine_id)
        if not math.isfinite(start) or not math.isfinite(end) or start < 0:
            raise ServeError(
                f"ingest event needs finite start >= 0 and end (got "
                f"[{start}, {end}])"
            )
        if not end > start:
            raise ServeError(
                f"ingest event needs end > start (got [{start}, {end}])"
            )
        return _ParsedEvent(machine_id, start, end, state)

    def validate_events(
        self,
        events: Iterable[Union[dict, Sequence]],
        tail_of: Callable[[int], Optional[_ParsedEvent]],
    ) -> ValidatedBatch:
        """Parse and contract-check a batch without applying it.

        ``tail_of`` maps a machine to its newest accepted event *before*
        this batch — the applied tails for synchronous ingest, or the
        queue's shadow tails for asynchronous ingest.  Every event is
        parsed before any is judged.  Raises :class:`IngestOrderError`
        (whole batch, atomically) on an ordering violation; duplicates
        of the newest event are dropped and counted.
        """
        parsed = [self._parse_event(e) for e in events]
        tails: dict[int, _ParsedEvent] = {}
        accepted: list[_ParsedEvent] = []
        deduped = 0
        horizon = 0
        for ev in parsed:
            tail = tails.get(ev.machine_id)
            if tail is None:
                tail = tail_of(ev.machine_id)
            if tail is not None:
                if ev.start < tail.start:
                    raise IngestOrderError(
                        f"machine {ev.machine_id}: event start "
                        f"{ev.start} is older than the newest accepted "
                        f"event start {tail.start}; streamed starts "
                        "must be non-decreasing per machine (batch "
                        "rejected, nothing applied)"
                    )
                if ev.same_as(tail):
                    deduped += 1
                    continue
            tails[ev.machine_id] = ev
            accepted.append(ev)
            day = start_cell(ev.start) // 24
            if day + 1 > horizon:
                horizon = day + 1
        return ValidatedBatch(
            accepted=tuple(accepted),
            deduplicated=deduped,
            tails=tails,
            horizon_day=horizon,
        )

    def tail_of(self, machine_id: int) -> Optional[_ParsedEvent]:
        """The machine's newest *applied* event (thread-safe)."""
        with self._lock:
            return self._last_event.get(machine_id)

    def _apply_locked(self, batch: ValidatedBatch) -> None:
        for ev in batch.accepted:
            day, hour = divmod(start_cell(ev.start), 24)
            key = (ev.machine_id, day)
            vec = self._overlay.get(key)
            if vec is None:
                vec = np.zeros(24, dtype=np.int64)
                self._overlay[key] = vec
                self._overlay_by_day.setdefault(day, {})[
                    ev.machine_id
                ] = vec
            vec[hour] += 1
            if day + 1 > self._overlay_horizon:
                self._overlay_horizon = day + 1
        self._last_event.update(batch.tails)
        self._n_streamed += len(batch.accepted)
        self._n_deduped += batch.deduplicated

    def apply_batch(self, batch: ValidatedBatch) -> IngestResult:
        """Apply a pre-validated batch atomically (counts + tails).

        The batch's fate was decided at validation time; application
        cannot fail and readers never observe it half-applied.
        """
        with self._lock:
            self._apply_locked(batch)
        return batch.result()

    def ingest(self, events: Iterable[Union[dict, Sequence]]) -> IngestResult:
        """Apply a batch of streamed events atomically (synchronous).

        The whole batch is validated — shape, ranges, and the per-machine
        ordering contract (module docstring) — before any count changes;
        a rejected batch leaves the state untouched and queries running
        concurrently never observe a partially applied batch.
        """
        with self._lock:
            batch = self.validate_events(events, self._last_event.get)
            self._apply_locked(batch)
        return batch.result()

    # -- overlay snapshot/restore ---------------------------------------------

    def save_overlay_snapshot(self, path: Union[str, Path]) -> Path:
        """Persist the overlay tier atomically (write-temp-rename).

        The snapshot holds everything streamed since bootstrap: the
        overlay cells, the per-machine ingest tails (so the ordering
        contract survives a restart), and the counters.  The base tier
        is *not* saved — it rebuilds from the shard store, which is the
        durable copy of the bootstrap trace.
        """
        path = Path(path)
        with self._lock:
            keys = sorted(self._overlay)
            cells = len(keys)
            cell_machine = np.fromiter(
                (k[0] for k in keys), dtype=np.int64, count=cells
            )
            cell_day = np.fromiter(
                (k[1] for k in keys), dtype=np.int64, count=cells
            )
            cell_counts = (
                np.stack([self._overlay[k] for k in keys])
                if keys
                else np.zeros((0, 24), dtype=np.int64)
            )
            tail_keys = sorted(self._last_event)
            tails = [self._last_event[m] for m in tail_keys]
            payload = dict(
                meta=np.array(
                    [
                        SNAPSHOT_VERSION,
                        self.n_machines,
                        self.base_n_days,
                        self.start_weekday,
                        self.machine_lo,
                        self.machine_hi,
                        self._overlay_horizon,
                        self._n_streamed,
                        self._n_deduped,
                    ],
                    dtype=np.int64,
                ),
                cell_machine=cell_machine,
                cell_day=cell_day,
                cell_counts=cell_counts,
                tail_machine=np.array(tail_keys, dtype=np.int64),
                tail_start=np.array([t.start for t in tails], dtype=np.float64),
                tail_end=np.array([t.end for t in tails], dtype=np.float64),
                tail_state=np.array([t.state for t in tails], dtype=np.int64),
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return path

    def restore_overlay_snapshot(self, path: Union[str, Path]) -> int:
        """Restore a snapshot written by :meth:`save_overlay_snapshot`.

        Replaces the overlay tier wholesale (meant for boot, before any
        streaming).  The snapshot's fleet frame must match this state's;
        a frame mismatch raises :class:`ServeError` rather than serving
        counts for the wrong fleet.  Returns the streamed-event count
        restored.
        """
        path = Path(path)
        try:
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files}
        except (
            OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile
        ) as exc:
            raise ServeError(
                f"cannot read overlay snapshot {path}: {exc}"
            ) from exc
        try:
            meta = arrays["meta"]
            (
                version,
                n_machines,
                base_n_days,
                start_weekday,
                machine_lo,
                machine_hi,
                horizon,
                n_streamed,
                n_deduped,
            ) = (int(x) for x in meta)
        except (KeyError, ValueError) as exc:
            raise ServeError(
                f"malformed overlay snapshot {path}: {exc}"
            ) from exc
        if version != SNAPSHOT_VERSION:
            raise ServeError(
                f"overlay snapshot {path} has version {version}, "
                f"this build reads {SNAPSHOT_VERSION}"
            )
        frame = (n_machines, base_n_days, start_weekday, machine_lo, machine_hi)
        mine = (
            self.n_machines,
            self.base_n_days,
            self.start_weekday,
            self.machine_lo,
            self.machine_hi,
        )
        if frame != mine:
            raise ServeError(
                f"overlay snapshot {path} frame {frame} does not match "
                f"this state's {mine}; refusing to restore"
            )
        overlay: dict[tuple[int, int], np.ndarray] = {}
        by_day: dict[int, dict[int, np.ndarray]] = {}
        for machine, day, counts in zip(
            arrays["cell_machine"], arrays["cell_day"], arrays["cell_counts"]
        ):
            vec = np.asarray(counts, dtype=np.int64).copy()
            overlay[(int(machine), int(day))] = vec
            by_day.setdefault(int(day), {})[int(machine)] = vec
        tails = {
            int(m): _ParsedEvent(int(m), float(s), float(e), int(st))
            for m, s, e, st in zip(
                arrays["tail_machine"],
                arrays["tail_start"],
                arrays["tail_end"],
                arrays["tail_state"],
            )
        }
        with self._lock:
            self._overlay = overlay
            self._overlay_by_day = by_day
            self._last_event = tails
            self._overlay_horizon = horizon
            self._n_streamed = n_streamed
            self._n_deduped = n_deduped
        return n_streamed

    # -- queries --------------------------------------------------------------

    def _history_day_list(self, day: int, horizon: int) -> list[int]:
        """Same-type days before ``day``, newest first, batch-identical:
        ``CountMatrix.same_type_days_before(min(day, horizon), limit)``."""
        anchor = min(day, horizon)
        target = self.is_weekend_day(anchor)
        days = []
        d = anchor - 1
        while d >= 0 and len(days) < self.history_days:
            if self.is_weekend_day(d) == target:
                days.append(d)
            d -= 1
        return days

    def window_count(
        self, machine_id: int, day: int, start_hour: float, duration_hours: float
    ) -> float:
        """Observed (fractional-overlap) event count of one concrete window.

        The raw quantity history queries average over — exposed for
        consistency probes and monitoring, not a forecast.
        """
        self._check_machine(machine_id)
        query = PredictionQuery(
            machine_id=machine_id,
            day=day,
            start_hour=start_hour,
            duration_hours=duration_hours,
        )
        cells = query.hour_cells()
        with self._lock:
            return self._window_totals(
                machine_id, cells, (0,), self.horizon_day
            )[0]

    def _check_owned(self, machine_id: int) -> None:
        if not self.machine_lo <= machine_id < self.machine_hi:
            raise WorkerRangeError(
                f"machine {machine_id} not owned by this worker (owns "
                f"[{self.machine_lo}, {self.machine_hi}) of "
                f"{self.n_machines} machines)"
            )

    def _check_machine(self, machine_id: int) -> None:
        if not 0 <= machine_id < self.n_machines:
            raise ServeError(
                f"unknown machine {machine_id} (fleet is "
                f"[0, {self.n_machines}))"
            )
        self._check_owned(machine_id)

    def _check_ready(self) -> None:
        if not self.ready:
            raise NoHistoryError(
                "no data ingested yet: attach a trace or stream events "
                "before querying"
            )

    def history_counts(
        self, query: PredictionQuery, horizon: Optional[int] = None
    ) -> np.ndarray:
        """The per-history-day window counts the predictor reduces over.

        Value-identical to
        ``HistoryWindowPredictor._history_counts`` on the same data:
        same day list, same cell bounds, same ``total += overlap *
        count`` accumulation order.  ``horizon`` overrides
        :attr:`horizon_day` (module docstring).
        """
        self._check_machine(query.machine_id)
        self._check_ready()
        if horizon is None:
            horizon = self.horizon_day
        days = self._history_day_list(query.day, horizon)
        if not days:
            raise NoHistoryError(
                f"no same-type history before day {query.day}; "
                "ingest a longer trace first"
            )
        cells = query.hour_cells()
        with self._lock:
            counts = self._window_totals(
                query.machine_id, cells, [d - query.day for d in days], horizon
            )
        return np.asarray(counts, dtype=float)

    def _reduce(self, counts: np.ndarray) -> float:
        """``HistoryWindowPredictor._reduce``, verbatim."""
        if self.statistic == "median":
            return float(np.median(counts))
        if self.statistic == "trimmed":
            k = int(0.2 * counts.size)
            trimmed = np.sort(counts)[k : counts.size - k or None]
            return float(trimmed.mean())
        return float(counts.mean())

    def predict_count(
        self, query: PredictionQuery, horizon: Optional[int] = None
    ) -> float:
        """Expected unavailability occurrences in the window."""
        return self._reduce(self.history_counts(query, horizon))

    def predict_survival(
        self, query: PredictionQuery, horizon: Optional[int] = None
    ) -> float:
        """P(no unavailability starts in the window) — the serving
        layer's headline answer, batch-identical."""
        counts = self.history_counts(query, horizon)
        clean = float(np.count_nonzero(counts < 0.5))
        n = counts.size
        return (clean + self.laplace) / (n + 2 * self.laplace)

    # -- fleet-vectorized queries ---------------------------------------------

    def _history_matrix(
        self,
        day: int,
        start_hour: float,
        duration_hours: float,
        horizon: Optional[int] = None,
    ) -> np.ndarray:
        """``(owned_machines, n_history_days)`` window counts.

        Row ``m - machine_lo`` equals :meth:`history_counts` for machine
        ``m`` exactly: the per-cell accumulation happens in the same
        cell order, and each cell's base and overlay counts are summed
        as integers before the single float multiply, so the float
        result is bit-identical to the scalar path — per machine, for
        any block size, through any eviction or routing split.
        """
        self._check_ready()
        if horizon is None:
            horizon = self.horizon_day
        days = self._history_day_list(day, horizon)
        if not days:
            raise NoHistoryError(
                f"no same-type history before day {day}; "
                "ingest a longer trace first"
            )
        query = PredictionQuery(
            machine_id=0,
            day=day,
            start_hour=start_hour,
            duration_hours=duration_hours,
        )
        cells = query.hour_cells()
        shifts = [d - day for d in days]
        out = np.zeros((self.owned_machines, len(days)), dtype=float)
        with self._lock:
            streamed = self._streamed_days(
                {cell_day + shift for shift in shifts for cell_day, _, _ in cells}
            )
            for lo, hi, counts in self._base_segments():
                sub = out[lo - self.machine_lo : hi - self.machine_lo]
                local = {}
                for cd, (mids, vecs) in streamed.items():
                    a, b = np.searchsorted(mids, (lo, hi))
                    if a < b:
                        local[cd] = (mids[a:b] - lo, vecs[a:b])
                for i, shift in enumerate(shifts):
                    for cell_day, hour, overlap in cells:
                        cd = cell_day + shift
                        if not 0 <= cd < horizon:
                            continue
                        if counts is not None and cd < self.base_n_days:
                            # Widened before the overlay adds to it: a
                            # uint8 block's 255 plus one streamed event
                            # is 256, not 0.
                            cell = counts[:, cd, hour].astype(np.int64)
                        else:
                            cell = np.zeros(hi - lo, dtype=np.int64)
                        hit = local.get(cd)
                        if hit is not None:
                            cell[hit[0]] += hit[1][:, hour]
                        sub[:, i] += overlap * cell
        return out

    def _streamed_days(
        self, days: Iterable[int]
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per streamed day among ``days``: its overlay machines,
        ascending, and their ``(k, 24)`` hour counts as one array, built
        once per fleet query so each block finds its slice with
        ``searchsorted``.  Callers hold ``self._lock``."""
        out = {}
        for d in days:
            touched = self._overlay_by_day.get(d)
            if touched:
                mids = sorted(touched)
                out[d] = (
                    np.array(mids, dtype=np.int64),
                    np.array([touched[m] for m in mids]),
                )
        return out

    def clean_windows(
        self,
        day: int,
        start_hour: float,
        duration_hours: float,
        horizon: Optional[int] = None,
    ) -> tuple[np.ndarray, int]:
        """``(clean, n)``: per owned machine, how many of the ``n``
        same-type history windows saw no unavailability start."""
        matrix = self._history_matrix(day, start_hour, duration_hours, horizon)
        return np.count_nonzero(matrix < 0.5, axis=1), matrix.shape[1]

    def survival_fleet(
        self,
        day: int,
        start_hour: float,
        duration_hours: float,
        horizon: Optional[int] = None,
    ) -> np.ndarray:
        """Per-owned-machine survival probabilities for one window shape.

        Index ``m - machine_lo`` holds machine ``m``'s answer.
        """
        clean, n = self.clean_windows(day, start_hour, duration_hours, horizon)
        return (clean + self.laplace) / (n + 2 * self.laplace)

    def capacity(
        self,
        day: int,
        start_hour: float,
        duration_hours: float,
        *,
        threshold: float = 0.5,
        horizon: Optional[int] = None,
    ) -> dict:
        """How many owned machines forecast free for the whole window.

        A machine counts when its survival probability is >= ``threshold``.
        For a worker slice the answer covers only the owned range
        (``owned``/``machine_lo``/``machine_hi``); the router merges
        partials from integers only — it sums ``available`` and
        ``clean_windows`` and divides once in :func:`mean_survival`.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ServeError("threshold must be in [0, 1]")
        clean, n = self.clean_windows(day, start_hour, duration_hours, horizon)
        survival = (clean + self.laplace) / (n + 2 * self.laplace)
        available = int(np.count_nonzero(survival >= threshold))
        clean_total = int(clean.sum())
        return {
            "available": available,
            "n_machines": self.n_machines,
            "owned": self.owned_machines,
            "machine_lo": self.machine_lo,
            "machine_hi": self.machine_hi,
            "fraction": available / self.owned_machines,
            "threshold": threshold,
            "clean_windows": clean_total,
            "history_days": n,
            "mean_survival": mean_survival(
                clean_total, self.owned_machines, n, self.laplace
            ),
        }

    def rank(
        self,
        day: int,
        start_hour: float,
        duration_hours: float,
        *,
        k: int = 10,
        horizon: Optional[int] = None,
    ) -> list[tuple[int, float]]:
        """Top-``k`` owned machines by survival, ties broken by machine id.

        Machine ids are global, so worker partials merge by a plain
        ``(-survival, machine)`` sort at the router.
        """
        if k < 1:
            raise ServeError("k must be >= 1")
        survival = self.survival_fleet(day, start_hour, duration_hours, horizon)
        # Stable sort on -survival: equal survivals keep ascending id order.
        order = np.argsort(-survival, kind="stable")[:k]
        return [
            (int(m) + self.machine_lo, float(survival[m])) for m in order
        ]
