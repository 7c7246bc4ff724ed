"""The binary columnar trace format and the JSONL↔binary contract.

Covers the ``fgcs-bin`` layer end to end: the column codec
(``repro.traces.records``), the binary block layout
(``repro.traces.binio``), format auto-detection in the one reader
(``load_columns``), format-aware shards and the store converter, the
column fold against the monolithic reference, and the cross-format
guarantees:

* **lossless** — JSONL↔binary conversion round-trips any dataset
  exactly, including NaN resource observations and event-free
  quarantined-shard placeholders (property-tested);
* **byte-identical analysis** — ``analyze`` renders the same text from
  either format, monolithic or streamed (golden differential);
* **byte-identical re-encode** — jsonl → binary → jsonl reproduces the
  original shard files byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cause_breakdown, daily_pattern
from repro.analysis.accumulators import FleetAccumulator, interval_columns
from repro.analysis.report import render_figure6, render_figure7, render_table2
from repro.analysis.streaming import analyze_shards
from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.errors import TraceError
from repro.traces import (
    EventColumns,
    TraceDataset,
    columns_to_events,
    convert_shards,
    detect_format,
    events_to_columns,
    load_columns,
    load_dataset,
    open_shards,
    save_dataset,
    validate_columns,
    write_shards,
)
from repro.traces.binio import (
    BIN_SCHEMA_VERSION,
    MAGIC,
    is_binary_trace,
    open_columns,
)
from repro.traces.records import EVENT_DTYPE
from repro.units import DAY, HOUR

_STATES = (AvailState.S3, AvailState.S4, AvailState.S5)


@st.composite
def datasets(draw) -> TraceDataset:
    """Arbitrary small datasets: NaN and finite resource observations,
    busy and event-free machines, optional hourly-load matrix."""
    n_machines = draw(st.integers(min_value=1, max_value=4))
    n_days = draw(st.integers(min_value=1, max_value=5))
    span = float(n_days * DAY)
    events = []
    for m in range(n_machines):
        n_ev = draw(st.integers(min_value=0, max_value=4))
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
                    mean_host_load=draw(
                        st.one_of(
                            st.just(float("nan")),
                            st.floats(min_value=0.0, max_value=4.0),
                        )
                    ),
                    mean_free_mb=draw(
                        st.one_of(
                            st.just(float("nan")),
                            st.floats(min_value=0.0, max_value=512.0),
                        )
                    ),
                )
            )
    hourly = None
    if draw(st.booleans()):
        hourly = draw(
            st.one_of(
                st.just(np.full((n_machines, n_days * 24), np.nan)),
                st.just(
                    np.linspace(
                        0.0, 1.0, n_machines * n_days * 24
                    ).reshape(n_machines, n_days * 24)
                ),
            )
        )
    return TraceDataset(
        events=events,
        n_machines=n_machines,
        span=span,
        start_weekday=draw(st.integers(min_value=0, max_value=6)),
        hourly_load=hourly,
        metadata={"seed": draw(st.integers(min_value=0, max_value=9))},
    )


# -- column codec ----------------------------------------------------------


class TestColumnCodec:
    def test_round_trip(self, small_dataset):
        cols = events_to_columns(small_dataset.events)
        assert cols.dtype == EVENT_DTYPE
        back = columns_to_events(cols)
        assert len(back) == len(small_dataset.events)
        for a, b in zip(small_dataset.events, back):
            assert (a.machine_id, a.start, a.end, a.state) == (
                b.machine_id,
                b.start,
                b.end,
                b.state,
            )

    def test_nan_preserved(self):
        ev = UnavailabilityEvent(
            machine_id=0,
            start=1.0,
            end=2.0,
            state=AvailState.S5,
            mean_host_load=float("nan"),
            mean_free_mb=float("nan"),
        )
        (back,) = columns_to_events(events_to_columns([ev]))
        assert np.isnan(back.mean_host_load) and np.isnan(back.mean_free_mb)

    def test_bad_state_code_rejected(self):
        cols = np.zeros(1, dtype=EVENT_DTYPE)
        cols["state"] = 9
        cols["end"] = 1.0
        with pytest.raises(TraceError, match="state code"):
            columns_to_events(cols)

    def test_validate_accepts_good_table(self, small_dataset):
        validate_columns(
            events_to_columns(small_dataset.events),
            n_machines=small_dataset.n_machines,
            span=small_dataset.span,
        )

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda c: c["machine_id"].__setitem__(0, 99), "machine_id"),
            (lambda c: c["end"].__setitem__(0, 0.0), "end > start"),
            (lambda c: c["state"].__setitem__(0, 7), "state"),
            (lambda c: c["start"].__setitem__(-1, -5.0), "span"),
        ],
    )
    def test_validate_rejects_bad_rows(self, small_dataset, mutate, match):
        cols = events_to_columns(small_dataset.events)
        mutate(cols)
        with pytest.raises(TraceError, match=match):
            validate_columns(
                cols,
                n_machines=small_dataset.n_machines,
                span=small_dataset.span,
            )

    def test_validate_rejects_unsorted(self, small_dataset):
        cols = events_to_columns(small_dataset.events)[::-1].copy()
        with pytest.raises(TraceError, match="sorted"):
            validate_columns(
                cols,
                n_machines=small_dataset.n_machines,
                span=small_dataset.span,
            )

    def test_machine_bounds_slices(self, small_dataset):
        cols = EventColumns.from_dataset(small_dataset)
        bounds = cols.machine_bounds()
        assert bounds[0] == 0 and bounds[-1] == len(cols)
        for m in range(small_dataset.n_machines):
            rows = cols.events[bounds[m] : bounds[m + 1]]
            assert (rows["machine_id"] == m).all()


# -- binary file format ----------------------------------------------------


class TestBinaryFormat:
    def test_round_trip(self, small_dataset, tmp_path):
        p = tmp_path / "t.bin"
        save_dataset(small_dataset, p)
        assert is_binary_trace(p)
        assert load_dataset(p).equals(small_dataset)

    def test_deterministic_bytes(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "a.bin")
        save_dataset(small_dataset, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (
            tmp_path / "b.bin"
        ).read_bytes()

    def test_open_columns_is_zero_copy(self, small_dataset, tmp_path):
        p = tmp_path / "t.bin"
        save_dataset(small_dataset, p)
        _, cols, hourly = open_columns(p)
        assert isinstance(cols.events, np.memmap)
        assert not cols.events.flags.writeable
        assert hourly is not None and isinstance(hourly, np.memmap)
        assert len(cols) == len(small_dataset.events)
        loaded = load_columns(p)
        assert isinstance(loaded.events, np.memmap)
        assert isinstance(loaded.hourly_load, np.memmap)
        owned = load_columns(p, mmap=False)
        assert not isinstance(owned.events, np.memmap)
        assert owned.hourly_load.flags.writeable
        assert owned.events.tobytes() == loaded.events.tobytes()

    def test_empty_events(self, tmp_path):
        ds = TraceDataset(
            events=[], n_machines=2, span=float(DAY), start_weekday=3
        )
        p = tmp_path / "empty.bin"
        save_dataset(ds, p)
        assert load_dataset(p).equals(ds)

    def test_truncated_rejected(self, small_dataset, tmp_path):
        p = tmp_path / "t.bin"
        save_dataset(small_dataset, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(TraceError, match="truncated"):
            load_dataset(p)

    def test_unknown_version_rejected(self, small_dataset, tmp_path):
        p = tmp_path / "t.bin"
        save_dataset(small_dataset, p)
        blob = bytearray(p.read_bytes())
        blob[len(MAGIC)] = BIN_SCHEMA_VERSION + 1
        p.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="version"):
            load_dataset(p)

    def test_not_binary_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        p.write_text("not a trace")
        assert not is_binary_trace(p)
        with pytest.raises(TraceError):
            open_columns(p)
        with pytest.raises(TraceError):
            load_columns(p)

    def test_metadata_order_preserved(self, small_dataset, tmp_path):
        ds = dataclasses.replace(
            small_dataset, metadata={"zebra": 1, "alpha": 2}
        )
        p = tmp_path / "t.bin"
        save_dataset(ds, p)
        assert list(load_dataset(p).metadata) == ["zebra", "alpha"]


# -- format dispatch in save/load ------------------------------------------


class TestFormatDispatch:
    def test_suffix_implies_binary(self, small_dataset, tmp_path):
        p = tmp_path / "t.bin"
        save_dataset(small_dataset, p)
        assert detect_format(p) == "binary"
        assert load_dataset(p).equals(small_dataset)

    def test_detection_ignores_name(self, small_dataset, tmp_path):
        disguised = tmp_path / "t.jsonl"
        save_dataset(small_dataset, disguised, format="binary")
        assert detect_format(disguised) == "binary"
        assert load_dataset(disguised).equals(small_dataset)

    def test_unknown_format_rejected(self, small_dataset, tmp_path):
        with pytest.raises(TraceError, match="unknown trace format"):
            save_dataset(small_dataset, tmp_path / "t.x", format="parquet")

    def test_bad_record_line_reported_with_snippet(
        self, small_dataset, tmp_path
    ):
        p = tmp_path / "t.jsonl"
        save_dataset(small_dataset, p)
        with p.open("a") as fh:
            fh.write('{"oops": 1}\n')
        lineno = 2 + len(small_dataset.events)
        with pytest.raises(
            TraceError, match=rf":{lineno}: .*offending line.*oops"
        ):
            load_dataset(p)

    @given(ds=datasets())
    @settings(max_examples=25, deadline=None)
    def test_conversion_lossless(self, ds, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fmt")
        save_dataset(ds, tmp / "a.jsonl", format="jsonl")
        save_dataset(load_dataset(tmp / "a.jsonl"), tmp / "b.bin", format="binary")
        save_dataset(load_dataset(tmp / "b.bin"), tmp / "c.jsonl", format="jsonl")
        assert load_dataset(tmp / "b.bin").equals(ds)
        assert (tmp / "a.jsonl").read_bytes() == (tmp / "c.jsonl").read_bytes()


# -- column fold against the monolithic reference --------------------------


class TestColumnFold:
    """The column fold equals the event-object reference it replaces:
    ``availability_intervals`` (through ``all_intervals``),
    ``cause_breakdown`` and ``daily_pattern``."""

    def _assert_matches_reference(self, ds):
        cols = EventColumns.from_dataset(ds)
        hours, weekend = interval_columns(cols)
        intervals = ds.all_intervals()
        ref_hours = np.array([iv.length / HOUR for iv in intervals], dtype=float)
        ref_weekend = np.array(
            [ds.is_weekend_time(iv.start) for iv in intervals], dtype=bool
        )
        # Element for element, bit for bit and in order.
        assert hours.dtype == ref_hours.dtype
        assert hours.tobytes() == ref_hours.tobytes()
        assert np.array_equal(weekend, ref_weekend)

        acc = FleetAccumulator.for_fleet(ds)
        acc.update_columns(cols)
        causes = cause_breakdown(ds)
        for name in ("cpu", "memory", "revocation", "reboots"):
            assert np.array_equal(getattr(acc.causes, name), getattr(causes, name))
        assert np.array_equal(acc.daily.counts, daily_pattern(ds).counts)
        for side, mask in (("_weekday", ~ref_weekend), ("_weekend", ref_weekend)):
            counts = getattr(acc.intervals, side)
            assert counts.n == int(mask.sum())
            # The exact total, in units of 2**-1074 hours.
            assert Fraction(counts.total_h, 2**1074) == sum(
                map(Fraction, ref_hours[mask].tolist()), Fraction(0)
            )

    def test_small_dataset_bit_identical(self, small_dataset):
        self._assert_matches_reference(small_dataset)

    @given(ds=datasets())
    @settings(max_examples=40, deadline=None)
    def test_property_bit_identical(self, ds):
        self._assert_matches_reference(ds)

    def test_overlapping_events_rejected(self):
        events = [
            UnavailabilityEvent(
                machine_id=0, start=0.0, end=2 * HOUR, state=AvailState.S3
            ),
            UnavailabilityEvent(
                machine_id=0, start=HOUR, end=3 * HOUR, state=AvailState.S3
            ),
        ]
        ds = TraceDataset(events=events, n_machines=1, span=float(DAY))
        acc = FleetAccumulator.for_fleet(ds)
        with pytest.raises(TraceError, match="overlapping"):
            acc.update_columns(EventColumns.from_dataset(ds))


# -- format-aware shards ---------------------------------------------------


class TestBinaryShards:
    def test_write_and_stream(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path / "s", 3, format="binary")
        sharded = open_shards(tmp_path / "s")
        assert all(s.format == "binary" for s in sharded.manifest.shards)
        assert all(
            s.path.endswith(".bin") for s in sharded.manifest.shards
        )
        assert sharded.load_full().equals(small_dataset)

    def test_shard_columns_zero_copy(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path / "s", 2, format="binary")
        sharded = open_shards(tmp_path / "s")
        cols = sharded.shard_columns(0)
        assert isinstance(cols.events, np.memmap)
        assert cols.n_machines == sharded.manifest.shards[0].n_machines
        # The hourly block comes with the events, also memory-mapped.
        assert isinstance(cols.hourly_load, np.memmap)
        np.testing.assert_array_equal(
            cols.hourly_load, small_dataset.hourly_load[: cols.n_machines]
        )

    def test_shard_columns_jsonl_fallback(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path / "s", 2, format="jsonl")
        sharded = open_shards(tmp_path / "s")
        cols = sharded.shard_columns(0)
        assert cols.events.dtype == EVENT_DTYPE
        assert len(cols) == sharded.manifest.shards[0].n_events

    def test_shard_columns_detects_corruption(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path / "s", 1, format="binary")
        sharded = open_shards(tmp_path / "s")
        path = sharded.shard_path(0)
        path.write_bytes(path.read_bytes()[:-8] + b"\x00" * 8)
        with pytest.raises(TraceError, match="fingerprint"):
            sharded.shard_columns(0)

    def test_v1_manifest_refused(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path / "s", 2, format="jsonl")
        mpath = tmp_path / "s" / "manifest.json"
        doc = json.loads(mpath.read_text())
        doc["schema"]["shards"] = 1
        for shard in doc["shards"]:
            del shard["format"]
        mpath.write_text(json.dumps(doc))
        with pytest.raises(TraceError, match="unsupported shard schema 1"):
            open_shards(tmp_path / "s")

    def test_unknown_shard_format_rejected(self, small_dataset, tmp_path):
        with pytest.raises(TraceError, match="unknown shard format"):
            write_shards(small_dataset, tmp_path / "s", 2, format="parquet")

    def test_convert_round_trip_byte_exact(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path / "sj", 3, format="jsonl")
        convert_shards(open_shards(tmp_path / "sj"), tmp_path / "sb", "binary")
        convert_shards(open_shards(tmp_path / "sb"), tmp_path / "sj2", "jsonl")
        for i in range(3):
            name = f"shard-{i:05d}.jsonl"
            assert (tmp_path / "sj" / name).read_bytes() == (
                tmp_path / "sj2" / name
            ).read_bytes()

    def test_convert_preserves_provenance(self, small_config, tmp_path):
        from repro.traces import generate_shards

        manifest = generate_shards(small_config, tmp_path / "sj", 2)
        conv = convert_shards(
            open_shards(tmp_path / "sj"), tmp_path / "sb", "binary"
        )
        assert conv.config_fingerprint == manifest.config_fingerprint
        assert conv.dataset_cache_key == manifest.dataset_cache_key
        assert [s.cache_key for s in conv.shards] == [
            s.cache_key for s in manifest.shards
        ]

    def test_quarantined_placeholder_survives_conversion(self, tmp_path):
        # An event-free placeholder shard (hourly rows all NaN) with the
        # quarantine recorded in the manifest metadata.
        ds = TraceDataset(
            events=[],
            n_machines=2,
            span=float(DAY),
            start_weekday=0,
            hourly_load=np.full((2, 24), np.nan),
            metadata={"quarantined_machines": [0, 1]},
        )
        write_shards(ds, tmp_path / "sj", 1, format="jsonl")
        conv = convert_shards(
            open_shards(tmp_path / "sj"), tmp_path / "sb", "binary"
        )
        assert conv.metadata["quarantined_machines"] == [0, 1]
        assert open_shards(tmp_path / "sb").load_full().equals(ds)

    def test_streaming_analysis_identical_across_formats(
        self, small_dataset, tmp_path
    ):
        write_shards(small_dataset, tmp_path / "sj", 3, format="jsonl")
        convert_shards(open_shards(tmp_path / "sj"), tmp_path / "sb", "binary")

        def render(analysis) -> str:
            return (
                render_table2(analysis.breakdown)
                + render_figure6(analysis.intervals)
                + render_figure7(analysis.pattern)
            )

        t_jsonl = render(analyze_shards(open_shards(tmp_path / "sj")))
        t_bin = render(analyze_shards(open_shards(tmp_path / "sb")))
        assert t_jsonl == t_bin

    def test_generate_shards_binary_equals_split(self, small_config, tmp_path):
        from repro.traces import generate_dataset, generate_shards

        generate_shards(small_config, tmp_path / "g", 2, format="binary")
        write_shards(
            generate_dataset(small_config), tmp_path / "w", 2, format="binary"
        )
        for i in range(2):
            name = f"shard-{i:05d}.bin"
            assert (tmp_path / "g" / name).read_bytes() == (
                tmp_path / "w" / name
            ).read_bytes()
