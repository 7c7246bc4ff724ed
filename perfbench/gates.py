"""Correctness gates: served answers against the batch predictor.

The oracle is the batch ``HistoryWindowPredictor`` fitted on the same
input the daemon holds: the store's events for the machines asked about
(other machines cannot change a point answer), plus any acknowledged
streamed events, over a span ending at the daemon's horizon.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

DAY = 86400.0


def store_rows(store_path: Path, machines: set) -> np.ndarray:
    """The store's event rows of ``machines``, with global machine ids."""
    from repro.traces.shards import open_shards

    store = open_shards(store_path)
    wanted = np.array(sorted(machines), dtype=np.int64)
    parts = []
    for index, info in enumerate(store.manifest.shards):
        inside = wanted[(wanted >= info.machine_lo) & (wanted < info.machine_hi)]
        if not inside.size:
            continue
        events = store.shard_columns(index).events
        mask = np.isin(events["machine_id"], inside - info.machine_lo)
        rows = np.array(events[mask])
        rows["machine_id"] += info.machine_lo
        parts.append(rows)
    if not parts:
        from repro.traces.records import EVENT_DTYPE

        return np.empty(0, dtype=EVENT_DTYPE)
    return np.concatenate(parts)


def streamed_rows(events: list) -> np.ndarray:
    """``[machine, start, end, state]`` ingest events as event rows."""
    from repro.traces.records import EVENT_DTYPE

    rows = np.zeros(len(events), dtype=EVENT_DTYPE)
    if events:
        machine, start, end, state = zip(*events)
        rows["machine_id"] = machine
        rows["start"] = start
        rows["end"] = end
        rows["state"] = state
    rows["mean_host_load"] = np.nan
    rows["mean_free_mb"] = np.nan
    return rows


def oracle(
    rows: np.ndarray, n_machines: int, horizon_day: int, start_weekday: int
):
    """The batch predictor fitted on ``rows`` over ``horizon_day`` days."""
    from repro.prediction.history import HistoryWindowPredictor
    from repro.traces.dataset import TraceDataset
    from repro.traces.records import columns_to_events

    dataset = TraceDataset.from_validated(
        columns_to_events(rows),
        n_machines=n_machines,
        span=horizon_day * DAY,
        start_weekday=start_weekday,
    )
    return HistoryWindowPredictor().fit(dataset)


def expected(predictor, query: tuple) -> tuple[float, float]:
    """``(survival, expected_events)`` the batch path gives for one query."""
    from repro.prediction.base import PredictionQuery

    machine, day, hour, duration = query
    q = PredictionQuery(
        machine_id=machine, day=day, start_hour=hour, duration_hours=duration
    )
    return predictor.predict_survival(q), predictor.predict_count(q)


def mismatches(samples: list, predictor) -> list[str]:
    """Sampled ``(query, payload)`` answers that are not ``==`` the oracle."""
    bad = []
    for query, payload in samples:
        survival, count = expected(predictor, query)
        got: Optional[tuple] = None
        if isinstance(payload, dict) and payload.get("machine") == query[0]:
            got = (payload.get("survival"), payload.get("expected_events"))
        if got != (survival, count):
            bad.append(
                f"machine {query[0]} day {query[1]} hour {query[2]} "
                f"duration {query[3]}: served {got}, batch {(survival, count)}"
            )
    return bad
