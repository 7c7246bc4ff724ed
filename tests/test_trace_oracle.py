"""Pinned trace bytes and the JSONL reader's row contract.

The oracle dataset below is built by hand from exact binary fractions,
with no random draws and no transcendental math, so its serialized
bytes cannot depend on the CPU or the NumPy build.  Its JSONL text is
committed verbatim and its binary file is pinned by SHA-256: any change
to the trace writers or readers must reproduce both exactly.  The
property test holds the JSONL reader's event rows to the row codec
(``EventRecord``) line by line.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.traces import (
    EventColumns,
    EventRecord,
    TraceDataset,
    events_to_columns,
    load_dataset,
    save_columns,
    save_dataset,
)
from repro.traces.io import load_columns
from repro.units import DAY

S3, S4, S5 = AvailState.S3, AvailState.S4, AvailState.S5
NAN = float("nan")

ORACLE_JSONL = (
    '{"schema": 1, "kind": "fgcs-trace", "n_machines": 3, "span": '
    '86400.0, "start_weekday": 5, "metadata": {"zebra": 1, "alpha": '
    '[2, 3], "mid": {"k": "v"}}, "hourly_load": [[0.0, 0.25, 0.5, '
    '0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.25, '
    '3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0, 5.25, 5.5, 5.75], [null, '
    'null, 6.5, 6.75, 7.0, 7.25, 7.5, 7.75, 8.0, 8.25, 8.5, 8.75, '
    '9.0, 9.25, 9.5, 9.75, 10.0, 10.25, 10.5, 10.75, 11.0, 11.25, '
    '11.5, 11.75], [12.0, 12.25, 12.5, 12.75, 13.0, 13.25, 13.5, '
    '13.75, 14.0, 14.25, 14.5, 14.75, 15.0, 15.25, 15.5, 15.75, '
    '16.0, 16.25, 16.5, 16.75, 17.0, 17.25, 17.5, null]]}\n'
    '{"machine_id": 0, "start": 600.0, "end": 960.0, "state": "S3", '
    '"mean_host_load": 0.75, "mean_free_mb": 310.5}\n'
    '{"machine_id": 0, "start": 3600.0, "end": 3630.0, "state": '
    '"S5", "mean_host_load": null, "mean_free_mb": null}\n'
    '{"machine_id": 0, "start": 45000.0, "end": 48600.0, "state": '
    '"S4", "mean_host_load": 0.125, "mean_free_mb": 12.25}\n'
    '{"machine_id": 1, "start": 0.0, "end": 1800.0, "state": "S5", '
    '"mean_host_load": null, "mean_free_mb": 200.0}\n'
    '{"machine_id": 1, "start": 43200.5, "end": 50400.25, "state": '
    '"S3", "mean_host_load": 1.5, "mean_free_mb": null}\n'
    '{"machine_id": 2, "start": 61200.0, "end": 86400.0, "state": '
    '"S4", "mean_host_load": 0.5, "mean_free_mb": 64.0}\n'
)

#: SHA-256 of the oracle dataset in the binary ``fgcs-bin`` format.
ORACLE_BINARY_SHA256 = (
    "34a4254b88601f43a8b4e4f6e777b47884ab39eb6527f2634d6b9760792986cd"
)


def oracle_dataset() -> TraceDataset:
    """3 machines, every failure state, NaN means, metadata keys out of
    sorted order and an hourly matrix with NaN hours.  The events are
    listed out of order; the dataset sorts them."""
    rows = [
        (2, 61200.0, 86400.0, S4, 0.5, 64.0),
        (0, 600.0, 960.0, S3, 0.75, 310.5),
        (1, 0.0, 1800.0, S5, NAN, 200.0),
        (0, 3600.0, 3630.0, S5, NAN, NAN),
        (1, 43200.5, 50400.25, S3, 1.5, NAN),
        (0, 45000.0, 48600.0, S4, 0.125, 12.25),
    ]
    hourly = np.arange(72, dtype=np.float64).reshape(3, 24) / 4.0
    hourly[1, :2] = np.nan
    hourly[2, 23] = np.nan
    return TraceDataset(
        events=[UnavailabilityEvent(*row) for row in rows],
        n_machines=3,
        span=DAY,
        start_weekday=5,
        hourly_load=hourly,
        metadata={"zebra": 1, "alpha": [2, 3], "mid": {"k": "v"}},
    )


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    def test_jsonl_text(self, tmp_path):
        ds = oracle_dataset()
        save_dataset(ds, tmp_path / "a.jsonl")
        save_columns(EventColumns.from_dataset(ds), tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_text(encoding="utf-8") == ORACLE_JSONL
        assert (tmp_path / "b.jsonl").read_text(encoding="utf-8") == ORACLE_JSONL

    def test_binary_sha256(self, tmp_path):
        ds = oracle_dataset()
        save_dataset(ds, tmp_path / "a.bin")
        save_columns(EventColumns.from_dataset(ds), tmp_path / "b.bin")
        assert _sha256(tmp_path / "a.bin") == ORACLE_BINARY_SHA256
        assert _sha256(tmp_path / "b.bin") == ORACLE_BINARY_SHA256

    def test_both_files_read_back_and_reencode(self, tmp_path):
        jsonl = tmp_path / "o.jsonl"
        jsonl.write_text(ORACLE_JSONL, encoding="utf-8")
        from_text = load_dataset(jsonl)
        assert from_text.equals(oracle_dataset())
        save_dataset(from_text, tmp_path / "o.bin")
        assert _sha256(tmp_path / "o.bin") == ORACLE_BINARY_SHA256
        from_binary = load_dataset(tmp_path / "o.bin")
        assert from_binary.equals(oracle_dataset())
        save_dataset(from_binary, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_text(encoding="utf-8") == ORACLE_JSONL

    def test_int_event_times_are_written_as_floats(self, tmp_path):
        # The writer renders every time as a float (``100.0``), whatever
        # Python number type the event held; the value round-trips.
        ds = TraceDataset(
            events=[UnavailabilityEvent(0, 100, 200, S3)],
            n_machines=1,
            span=DAY,
        )
        path = tmp_path / "t.jsonl"
        save_dataset(ds, path)
        row = path.read_text(encoding="utf-8").splitlines()[1]
        assert '"start": 100.0, "end": 200.0' in row
        assert load_dataset(path).equals(ds)


_ROW_KEYS = ("machine_id", "start", "end", "state", "mean_host_load", "mean_free_mb")


@st.composite
def jsonl_rows(draw):
    """A trace frame and its event rows as JSON dicts, in arbitrary order
    and key order, with ties on ``(machine_id, start)``, integer times
    and ``null`` means."""
    n_machines = draw(st.integers(min_value=1, max_value=4))
    half = draw(st.integers(min_value=1, max_value=3)) * DAY / 2
    times = st.one_of(
        st.sampled_from([0.0, 600.0, 3600.5]),
        st.floats(min_value=0.0, max_value=half),
        st.integers(min_value=0, max_value=int(half)),
    )
    lengths = st.one_of(
        st.floats(min_value=0.25, max_value=half),
        st.integers(min_value=1, max_value=int(half)),
    )
    means = st.one_of(st.none(), st.floats(min_value=0.0, max_value=512.0))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        start = draw(times)
        values = {
            "machine_id": draw(st.integers(min_value=0, max_value=n_machines - 1)),
            "start": start,
            "end": start + draw(lengths),
            "state": draw(st.sampled_from(["S3", "S4", "S5"])),
            "mean_host_load": draw(means),
            "mean_free_mb": draw(means),
        }
        order = draw(st.permutations(_ROW_KEYS))
        rows.append({key: values[key] for key in order})
    return n_machines, 4 * half, rows


class TestJsonlReaderRows:
    @given(case=jsonl_rows())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_row_codec(self, case, tmp_path_factory):
        n_machines, span, rows = case
        header = {
            "schema": 1,
            "kind": "fgcs-trace",
            "n_machines": n_machines,
            "span": span,
            "start_weekday": 0,
            "metadata": {},
            "hourly_load": None,
        }
        lines = [json.dumps(row) for row in rows]
        path = tmp_path_factory.mktemp("rows") / "t.jsonl"
        path.write_text(
            "\n".join([json.dumps(header), *lines]) + "\n", encoding="utf-8"
        )
        events = [EventRecord.from_dict(json.loads(line)).to_event() for line in lines]
        # The stable (machine_id, start) sort TraceDataset applies.
        events.sort(key=lambda e: (e.machine_id, e.start))
        got = load_columns(path).events
        assert got.dtype == events_to_columns(events).dtype
        assert got.tobytes() == events_to_columns(events).tobytes()
