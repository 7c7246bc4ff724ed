"""Property suite for the live serving state (ISSUE 8).

Extends the ``tests/test_accumulators_property.py`` merge-equivalence
patterns to live-update state.  The contracts, for *any* small fleet:

* :func:`repro.prediction.base.counts_from_event_rows` (the one
  vectorized floor-and-correct binning, which both
  :class:`repro.prediction.base.CountMatrix` and the serving base tier
  use) equals an independent per-event loop over
  :func:`~repro.prediction.base.start_cell` (CPython's exact ``divmod``)
  **exactly** — every float start lands in the same (day, hour) cell,
  also at every hour and day boundary and one ulp either side of it;
* incremental ingest of the fleet's events one at a time (and in any
  batch split) answers every query identically to the batch state built
  from the same events in one shot — counts are integer sums, so
  ingestion order within the contract cannot perturb them;
* the ingest boundary's duplicate/out-of-order contract: exact
  duplicates of a machine's newest event dedupe deterministically, an
  older event rejects its whole batch atomically, and a rejected batch
  leaves every answer unchanged.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.errors import IngestOrderError
from repro.prediction.base import (
    CountMatrix,
    PredictionQuery,
    counts_from_event_rows,
    start_cell,
)
from repro.serve import ServeState
from repro.traces.dataset import TraceDataset
from repro.traces.records import EventColumns, STATE_TO_CODE
from repro.units import DAY, HOUR

_STATES = (AvailState.S3, AvailState.S4, AvailState.S5)


@st.composite
def fleets(draw) -> TraceDataset:
    """Small arbitrary fleets: whole-day spans, any start weekday, any
    mix of busy and event-free machines (mirrors the accumulator suite)."""
    n_machines = draw(st.integers(min_value=1, max_value=4))
    n_days = draw(st.integers(min_value=2, max_value=9))
    span = float(n_days * DAY)
    start_weekday = draw(st.integers(min_value=0, max_value=6))
    events = []
    for m in range(n_machines):
        n_ev = draw(st.integers(min_value=0, max_value=5))
        if not n_ev:
            continue
        bounds = sorted(
            draw(
                st.lists(
                    st.floats(
                        min_value=1.0,
                        max_value=span - 1.0,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    min_size=2 * n_ev,
                    max_size=2 * n_ev,
                    unique=True,
                )
            )
        )
        for i in range(n_ev):
            events.append(
                UnavailabilityEvent(
                    machine_id=m,
                    start=bounds[2 * i],
                    end=bounds[2 * i + 1],
                    state=draw(st.sampled_from(_STATES)),
                )
            )
    return TraceDataset(
        events=events,
        n_machines=n_machines,
        span=span,
        start_weekday=start_weekday,
        hourly_load=None,
        metadata={},
    )


def _as_ingest_events(dataset: TraceDataset) -> list[dict]:
    """The fleet's events as ingest payloads, in contract order (events
    are already sorted by (machine, start))."""
    return [
        {
            "machine_id": e.machine_id,
            "start": e.start,
            "end": e.end,
            "state": STATE_TO_CODE[e.state],
        }
        for e in dataset.events
    ]


def _probe_queries(state: ServeState) -> list[PredictionQuery]:
    """Windows that exercise clamping, fractions, and multi-day spans."""
    day = state.horizon_day
    queries = []
    for machine in range(state.n_machines):
        for d in (day, day + 3):
            for hour, duration in ((0.0, 6.0), (9.5, 1.5), (22.0, 28.0)):
                queries.append(
                    PredictionQuery(
                        machine_id=machine,
                        day=d,
                        start_hour=hour,
                        duration_hours=duration,
                    )
                )
    return queries


def _with_boundary_starts(fleet: TraceDataset) -> TraceDataset:
    """The fleet plus events starting at every ``k·HOUR`` of its span
    (so at every ``k·DAY`` too) and one ulp either side of it: where a
    binning that is one ulp off — a ``>=`` for a ``>``, an inclusive
    last-day cut — lands in the wrong cell."""
    events = list(fleet.events)
    for k in range(int(fleet.span // HOUR) + 1):
        edge = k * HOUR
        for start in (
            math.nextafter(edge, -math.inf),
            edge,
            math.nextafter(edge, math.inf),
        ):
            if not 0.0 <= start <= fleet.span:
                continue
            events.append(
                UnavailabilityEvent(
                    machine_id=k % fleet.n_machines,
                    start=start,
                    end=min(start + 60.0, fleet.span + 1e-6),
                    state=_STATES[k % len(_STATES)],
                )
            )
    return dataclasses.replace(fleet, events=events)


def _per_event_counts(dataset: TraceDataset) -> np.ndarray:
    """The oracle: each event binned on its own by :func:`start_cell`,
    events past the last whole day dropped."""
    n_cells = 24 * dataset.n_days
    counts = np.zeros((dataset.n_machines, n_cells), dtype=np.int64)
    for e in dataset.events:
        cell = start_cell(e.start)
        if cell < n_cells:
            counts[e.machine_id, cell] += 1
    return counts.reshape(dataset.n_machines, dataset.n_days, 24)


@given(fleet=fleets())
@settings(max_examples=60, deadline=None)
def test_vectorized_binning_equals_count_matrix(fleet: TraceDataset):
    for dataset in (fleet, _with_boundary_starts(fleet)):
        expected = _per_event_counts(dataset)
        rows = EventColumns.from_dataset(dataset).events
        binned = counts_from_event_rows(
            rows, dataset.n_machines, dataset.n_days
        )
        assert np.array_equal(binned, expected)
        assert np.array_equal(CountMatrix(dataset).counts, expected)


@given(fleet=fleets(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_incremental_ingest_equals_batch(fleet: TraceDataset, data):
    """One-at-a-time (and arbitrary-batch-split) ingest == batch fold."""
    batch_state = ServeState.from_columns(EventColumns.from_dataset(fleet))

    live = ServeState(fleet.n_machines, fleet.n_days, fleet.start_weekday)
    events = _as_ingest_events(fleet)
    i = 0
    while i < len(events):
        size = data.draw(
            st.integers(min_value=1, max_value=len(events) - i),
            label="batch size",
        )
        result = live.ingest(events[i : i + size])
        assert result.accepted == size
        i += size

    stats = live.tier_stats()
    assert stats.streamed_events == len(events)
    for query in _probe_queries(batch_state):
        try:
            expected = batch_state.predict_count(query)
        except Exception:
            continue  # no same-type history for this window shape
        assert live.predict_count(query) == expected, query
        assert live.predict_survival(query) == batch_state.predict_survival(
            query
        ), query


@given(fleet=fleets())
@settings(max_examples=40, deadline=None)
def test_duplicate_of_newest_dedupes(fleet: TraceDataset):
    events = _as_ingest_events(fleet)
    if not events:
        return
    clean = ServeState(fleet.n_machines, fleet.n_days, fleet.start_weekday)
    clean.ingest(events)
    noisy = ServeState(fleet.n_machines, fleet.n_days, fleet.start_weekday)
    # Deliver every event twice in a row: classic at-least-once delivery.
    doubled = [e for e in events for _ in range(2)]
    result = noisy.ingest(doubled)
    assert result.accepted == len(events)
    assert result.deduplicated == len(events)
    assert clean.tier_stats().streamed_events == len(events)
    for query in _probe_queries(clean):
        try:
            expected = clean.predict_count(query)
        except Exception:
            continue
        assert noisy.predict_count(query) == expected


@given(fleet=fleets())
@settings(max_examples=40, deadline=None)
def test_out_of_order_batch_rejected_atomically(fleet: TraceDataset):
    events = _as_ingest_events(fleet)
    if len(events) < 2:
        return
    state = ServeState(fleet.n_machines, fleet.n_days, fleet.start_weekday)
    state.ingest(events)
    snapshot = state.tier_stats()
    machine = events[-1]["machine_id"]
    newest = max(e["start"] for e in events if e["machine_id"] == machine)
    stale = {
        "machine_id": machine,
        "start": newest / 2.0,
        "end": newest / 2.0 + 1.0,
        "state": 3,
    }
    fresh = {
        "machine_id": machine,
        "start": newest + DAY,
        "end": newest + DAY + 1.0,
        "state": 3,
    }
    if stale["start"] >= newest:
        return  # degenerate: halving didn't go below the newest start
    # The valid event rides in the same batch as the stale one: atomic
    # rejection must drop BOTH, not apply the valid prefix.
    with pytest.raises(IngestOrderError):
        state.ingest([fresh, stale])
    after = state.tier_stats()
    assert after.streamed_events == snapshot.streamed_events
    assert after.overlay_cells == snapshot.overlay_cells
    assert state.horizon_day == fleet.n_days  # fresh's day never landed


@given(fleet=fleets())
@settings(max_examples=30, deadline=None)
def test_simultaneous_distinct_events_both_count(fleet: TraceDataset):
    """Same start, different payload = two real events, not a duplicate."""
    state = ServeState(fleet.n_machines, fleet.n_days, fleet.start_weekday)
    t = float(fleet.n_days * DAY)
    result = state.ingest(
        [
            {"machine_id": 0, "start": t, "end": t + 10.0, "state": 3},
            {"machine_id": 0, "start": t, "end": t + 99.0, "state": 5},
        ]
    )
    assert result.accepted == 2
    assert result.deduplicated == 0
    assert state.window_count(0, fleet.n_days, 0.0, 1.0) == 2.0
