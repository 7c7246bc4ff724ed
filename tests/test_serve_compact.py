"""Compact count blocks: narrow dtypes, exact answers.

Every base-tier count block is kept in the narrowest unsigned dtype that
holds its largest count (``repro.serve.paging.build_count_block``):
``uint8`` on any fleet with a handful of starts per machine-day, wider
only where a cell needs it.  These tests pin the dtype rule, that a
fleet shaped like the benchmark's serve store pages ``uint8`` blocks,
and that counts past ``uint8`` stay exact through eviction on a single
process and a 2-worker router: a stored cell of 300 starts, and a stored
cell of 255 starts plus one streamed into it, both answer ``==`` the
batch ``HistoryWindowPredictor`` over base plus streamed events.  A
fleet query's per-machine rows are the point path's window counts, by
bytes, over the same stores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.prediction.base import PredictionQuery, counts_from_event_rows
from repro.prediction.history import HistoryWindowPredictor
from repro.serve import (
    BlockPager,
    ServeClient,
    ServeState,
    start_router,
    start_server,
)
from repro.serve.paging import _BUILD_CHUNK_MACHINES, build_count_block
from repro.traces.dataset import TraceDataset
from repro.traces.records import EVENT_DTYPE, columns_to_events
from repro.traces.shards import open_shards, write_shards
from repro.units import DAY, HOUR


class TestBuildCountBlock:
    @pytest.mark.parametrize(
        "count,dtype",
        [(255, np.uint8), (256, np.uint16), (65_536, np.uint32)],
    )
    def test_dtype_holds_the_largest_count(self, count, dtype):
        # The machine lies in the block's second build chunk: past 255,
        # the chunks narrow to different dtypes and the block takes the
        # wider.
        n_machines, machine = 2 * _BUILD_CHUNK_MACHINES, _BUILD_CHUNK_MACHINES + 6
        rows = np.zeros(count, dtype=EVENT_DTYPE)
        rows["machine_id"] = machine
        rows["start"] = 3 * DAY + 9.5 * HOUR
        first_row = np.searchsorted(rows["machine_id"], np.arange(n_machines + 1))
        block = build_count_block(lambda lo, hi: rows[lo:hi], first_row, 5)
        assert block.dtype == dtype
        assert block.shape == (n_machines, 5, 24)
        assert block[machine, 3, 9] == count
        assert int(block.sum(dtype=np.int64)) == count

    def test_benchmark_shaped_store_pages_uint8_blocks(self, tmp_path):
        # One shard of the benchmark's serve store: 500 machines x 28
        # days, about 5 starts per machine-day on a diurnal profile, some
        # machines several times busier than the mean.
        rng = np.random.default_rng(11)
        n_machines, n_days = 500, 28
        profile = np.array([1.0] * 9 + [4.0] * 12 + [1.0] * 3)
        rate = (
            5.0
            * rng.gamma(4.0, 0.25, n_machines)[:, None, None]
            * (profile / profile.sum())
        )
        per_cell = rng.poisson(np.broadcast_to(rate, (n_machines, n_days, 24)))
        cell = np.repeat(np.arange(per_cell.size), per_cell.ravel())
        machine, rest = np.divmod(cell, n_days * 24)
        start = rest * HOUR + rng.uniform(0.0, HOUR - 60.0, cell.size)
        rows = np.zeros(cell.size, dtype=EVENT_DTYPE)
        rows["machine_id"] = machine
        rows["start"] = start
        rows["end"] = start + 30.0
        rows["state"] = 3
        rows = rows[np.lexsort((rows["start"], rows["machine_id"]))]
        dataset = TraceDataset.from_validated(
            columns_to_events(rows), n_machines=n_machines, span=n_days * DAY
        )
        write_shards(dataset, tmp_path / "fleet", 1, format="binary")

        pager = BlockPager(open_shards(tmp_path / "fleet"))
        block = pager.counts(0)
        assert block.dtype == np.uint8
        assert pager.stats().resident_bytes == n_machines * n_days * 24
        assert np.array_equal(
            block, counts_from_event_rows(rows, n_machines, n_days)
        )


# -- counts past uint8, served exactly ---------------------------------------

WIDE_MACHINES = 8
WIDE_DAYS = 14
#: The crowded cell ``(machine, day, hour)``: inside every history window
#: of ``WINDOWS``.
HOT = (5, 10, 9)
#: ``(day, start hour, duration)`` windows whose history includes day 10.
WINDOWS = [(15, 8.0, 4.0), (17, 9.5, 1.0)]
#: One more start in the crowded cell, and one that opens day 14.
STREAMED = [
    [5, 10 * DAY + 9 * HOUR + 3596.0, 10 * DAY + 9 * HOUR + 3599.0, 4],
    [1, 14 * DAY + 2 * HOUR, 14 * DAY + 2 * HOUR + 600.0, 3],
]
#: Case -> (starts stored in the crowded cell, events streamed on top).
CASES = {"300-stored": (300, []), "255-stored-plus-1-streamed": (255, STREAMED)}


def _wide_dataset(hot_starts: int, streamed: list, n_days: int) -> TraceDataset:
    """A sparse 8-machine fleet whose crowded cell holds ``hot_starts``
    stored starts, plus the ``streamed`` events, over ``n_days``."""
    events = []
    for m in range(WIDE_MACHINES):
        for d in range(WIDE_DAYS):
            if (m + d) % 3:
                start = d * DAY + (1, 9, 15, 20)[(m + d) % 4] * HOUR + 60.0 * m
                events.append(
                    UnavailabilityEvent(m, start, start + 600.0, AvailState.S3)
                )
    m, d, h = HOT
    step = HOUR / hot_starts
    for i in range(hot_starts):
        start = d * DAY + h * HOUR + i * step
        events.append(
            UnavailabilityEvent(m, start, start + step / 2, AvailState.S4)
        )
    for machine, start, end, _ in streamed:
        events.append(UnavailabilityEvent(machine, start, end, AvailState.S3))
    return TraceDataset(
        events=events, n_machines=WIDE_MACHINES, span=n_days * DAY
    )


@pytest.fixture(scope="module")
def wide_store(tmp_path_factory):
    """Case -> the root of its 2-shard binary store (base events only)."""
    roots = {}

    def build(case: str):
        if case not in roots:
            hot_starts, _ = CASES[case]
            root = tmp_path_factory.mktemp(case) / "fleet"
            dataset = _wide_dataset(hot_starts, [], WIDE_DAYS)
            write_shards(dataset, root, 2, format="binary")
            roots[case] = root
        return roots[case]

    return build


@pytest.mark.parametrize("case", sorted(CASES))
def test_crowded_block_dtype(wide_store, case):
    pager = BlockPager(open_shards(wide_store(case)), block_machines=2)
    hot_block = pager.block_of(HOT[0])
    dtypes = [pager.counts(b.index).dtype for b in pager.blocks]
    assert dtypes[hot_block] == (np.uint16 if case == "300-stored" else np.uint8)
    assert all(t == np.uint8 for i, t in enumerate(dtypes) if i != hot_block)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_wide_counts_served_exactly(wide_store, case, workers):
    hot_starts, streamed = CASES[case]
    root = wide_store(case)
    horizon = WIDE_DAYS + 1 if streamed else WIDE_DAYS
    oracle = HistoryWindowPredictor().fit(
        _wide_dataset(hot_starts, streamed, horizon)
    )
    # One resident block of two machines: every sweep evicts.
    knobs = dict(block_machines=2, hot_shards=1)
    if workers == 1:
        handle = start_server(ServeState.from_store(open_shards(root), **knobs))
    else:
        handle = start_router(root, n_workers=workers, **knobs)
    with handle, ServeClient(handle.url) as client:
        if streamed:
            assert client.ingest(streamed)["accepted"] == len(streamed)
            client.flush()
        for day, hour, duration in WINDOWS:
            queries = [
                PredictionQuery(m, day, hour, duration)
                for m in range(WIDE_MACHINES)
            ]
            survival = [oracle.predict_survival(q) for q in queries]
            for m, query in enumerate(queries):
                got = client.availability(m, duration, day=day, hour=hour)
                assert got["survival"] == survival[m]
                assert got["expected_events"] == oracle.predict_count(query)
            capacity = client.capacity(
                duration, threshold=0.5, day=day, hour=hour
            )
            assert capacity["available"] == sum(s >= 0.5 for s in survival)
            assert capacity["clean_windows"] == sum(
                oracle.clean_windows(q)[0] for q in queries
            )
            ranked = client.rank(duration, k=WIDE_MACHINES, day=day, hour=hour)
            assert [(e["machine"], e["survival"]) for e in ranked["machines"]] == (
                sorted(enumerate(survival), key=lambda e: (-e[1], e[0]))
            )
        stats = client.stats()
    tier = stats["tier"] if workers == 1 else stats["totals"]
    assert tier["evictions"] > 0


@pytest.mark.parametrize(
    "block_machines", [None, 7], ids=["shard-blocks", "7-machine-blocks"]
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_fleet_matrix_rows_equal_history_counts(wide_store, case, block_machines):
    # A fleet query gathers each block's cells for every (history day,
    # cell) pair at once; each machine's row must still be the scalar
    # path's window counts, byte for byte.  One block stays resident, so
    # every sweep evicts, and the 255-plus-1 case streams into the stored
    # uint8 cell and onto day 14, one past the base horizon.
    _, streamed = CASES[case]
    state = ServeState.from_store(
        open_shards(wide_store(case)), block_machines=block_machines, hot_shards=1
    )
    if streamed:
        assert state.ingest(streamed).accepted == len(streamed)
    # The last window crosses midnight, so some of its cells fall past the
    # horizon on the latest history days.
    for day, hour, duration in WINDOWS + [(16, 22.0, 4.0)]:
        matrix = state._history_matrix(day, hour, duration)
        assert matrix.shape[0] == WIDE_MACHINES
        for m in range(WIDE_MACHINES):
            want = state.history_counts(PredictionQuery(m, day, hour, duration))
            assert matrix[m].tobytes() == want.tobytes(), (m, day, hour)
    assert state._pager.stats().evictions > 0
