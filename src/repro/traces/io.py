"""Trace persistence: JSONL and binary columnar (lossless), CSV (events only).

Two lossless on-disk formats carry a full dataset (see
``docs/formats.md``):

* **jsonl** — the first line is a header object (schema version, span,
  machine count, start weekday, metadata, optional hourly-load array);
  every further line is one :class:`~repro.traces.records.EventRecord`.
  Human-greppable, diff-friendly, the interchange format.
* **binary** — the ``fgcs-bin`` columnar format of
  :mod:`repro.traces.binio`: the event table as one packed structured
  array plus a compact JSON header, read zero-copy.  The performance
  format for fleet-scale pipelines.

Either format is read by one reader and written by one writer, both on
:class:`~repro.traces.records.EventColumns`: :func:`load_columns`
detects the format by magic bytes, decodes it into columns with the
hourly block attached and validates them once; :func:`save_columns`
takes ``format=`` explicitly or infers ``binary`` from a ``.bin`` /
``.fgcsbin`` suffix.  :func:`load_dataset` and :func:`save_dataset` are
the same two calls plus the conversion to and from a
:class:`~repro.traces.dataset.TraceDataset`.  Both directions report I/O
telemetry — bytes and encode/decode timings per format — on the ambient
metrics registry (``io.bytes_read.<fmt>`` / ``io.bytes_written.<fmt>``
counters, ``io.decode_seconds.<fmt>`` / ``io.encode_seconds.<fmt>``
histograms), surfaced in the run manifest's ``io`` section.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..errors import TraceError
from ..obs.metrics import get_registry
from ..units import HOUR
from .dataset import TraceDataset
from .manifest import TRACE_FORMATS
from .records import (
    EVENT_DTYPE,
    EventColumns,
    EventRecord,
    columns_to_events,
    validate_columns,
)

__all__ = [
    "TRACE_FORMATS",
    "detect_format",
    "load_columns",
    "save_columns",
    "save_dataset",
    "load_dataset",
    "save_events_csv",
    "load_events_csv",
]

SCHEMA_VERSION = 1

#: File suffixes that imply the binary format when ``format`` is omitted.
_BINARY_SUFFIXES = (".bin", ".fgcsbin")

PathLike = Union[str, Path]


def _resolve_format(path: Path, format: Optional[str]) -> str:
    if format is None:
        return "binary" if path.suffix.lower() in _BINARY_SUFFIXES else "jsonl"
    if format not in TRACE_FORMATS:
        raise TraceError(
            f"unknown trace format {format!r} (expected one of {TRACE_FORMATS})"
        )
    return format


def detect_format(path: PathLike) -> str:
    """``"binary"`` or ``"jsonl"`` by the file's leading magic bytes."""
    from .binio import is_binary_trace

    return "binary" if is_binary_trace(path) else "jsonl"


def save_dataset(
    dataset: TraceDataset, path: PathLike, *, format: Optional[str] = None
) -> None:
    """Write a dataset losslessly in the given (or suffix-implied) format."""
    save_columns(EventColumns.from_dataset(dataset), path, format=format)


def save_columns(columns, path: PathLike, *, format: Optional[str] = None) -> None:
    """Write an :class:`~repro.traces.records.EventColumns` unit losslessly.

    The one trace writer: no event objects are ever built, which is what
    lets the columnar generation pipeline stay object-free from sampling
    to disk.  The bytes are a pure function of the columns.
    """
    path = Path(path)
    fmt = _resolve_format(path, format)
    registry = get_registry()
    with registry.timer(f"io.encode_seconds.{fmt}"):
        if fmt == "binary":
            from .binio import save_columns_binary

            save_columns_binary(columns, path)
        else:
            _save_columns_jsonl(columns, path)
    if registry.enabled:
        registry.inc(f"io.bytes_written.{fmt}", path.stat().st_size)


#: On-disk state codes to the JSONL state strings, and back.
_CODE_TO_STATE_STR = {3: "S3", 4: "S4", 5: "S5"}
_STATE_STR_TO_CODE = {v: k for k, v in _CODE_TO_STATE_STR.items()}


def _save_columns_jsonl(columns, path: Path) -> None:
    """The JSONL writer: one header line, then one line per event row.

    ``.tolist()`` yields native Python scalars, so ``json.dumps`` renders
    shortest-repr floats, and NaN means and hourly loads become ``null``.
    """
    import math

    hourly = columns.hourly_load
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "fgcs-trace",
        "n_machines": columns.n_machines,
        "span": columns.span,
        "start_weekday": columns.start_weekday,
        "metadata": columns.metadata,
        "hourly_load": (
            None
            if hourly is None
            else [
                [None if math.isnan(x) else x for x in row]
                for row in np.asarray(hourly, dtype=np.float64).tolist()
            ]
        ),
    }
    events = columns.events
    states = [_CODE_TO_STATE_STR.get(int(c)) for c in events["state"].tolist()]
    if None in states:
        raise TraceError("invalid failure-state code in event columns")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for mid, start, end, state, load, mb in zip(
            events["machine_id"].tolist(),
            events["start"].tolist(),
            events["end"].tolist(),
            states,
            events["mean_host_load"].tolist(),
            events["mean_free_mb"].tolist(),
        ):
            row = {
                "machine_id": mid,
                "start": start,
                "end": end,
                "state": state,
                "mean_host_load": None if math.isnan(load) else load,
                "mean_free_mb": None if math.isnan(mb) else mb,
            }
            fh.write(json.dumps(row) + "\n")


def load_columns(path: PathLike, *, mmap: bool = True) -> EventColumns:
    """Read a trace file of either format as validated event columns.

    The one trace reader.  The format is detected from the file's magic
    bytes, never from its name, so renamed or cached files always load
    correctly.  The hourly-load matrix comes attached.  With ``mmap=True``
    a binary file's event and hourly blocks are read-only memory maps
    over the file; ``mmap=False`` reads them into owned, writable arrays.
    JSONL rows are sorted by ``(machine_id, start)``, stably, so rows
    written in any order load as one table.  Every table is checked by
    :func:`~repro.traces.records.validate_columns` and against its
    hourly shape before it is returned.
    """
    path = Path(path)
    registry = get_registry()
    fmt = detect_format(path)
    with registry.timer(f"io.decode_seconds.{fmt}"):
        if fmt == "binary":
            from .binio import open_columns

            _, columns, hourly = open_columns(path, mmap=mmap)
            columns.hourly_load = hourly
        else:
            columns = _read_columns_jsonl(path)
        try:
            validate_columns(
                columns.events, n_machines=columns.n_machines, span=columns.span
            )
            hourly = columns.hourly_load
            expect = (columns.n_machines, int(columns.span // HOUR))
            if hourly is not None and hourly.shape != expect:
                raise TraceError(f"hourly_load shape {hourly.shape} != {expect}")
        except TraceError as exc:
            raise TraceError(f"{path}: {exc}") from exc
    if registry.enabled:
        registry.inc(f"io.bytes_read.{fmt}", path.stat().st_size)
    return columns


def load_dataset(path: PathLike) -> TraceDataset:
    """Read a dataset written by :func:`save_dataset`, either format.

    :func:`load_columns` plus the conversion to event objects; the
    hourly-load matrix is an owned, writable array.
    """
    columns = load_columns(path, mmap=False)
    # load_columns proved ids, spans and (machine_id, start) order, so
    # the trusted constructor can skip the per-event re-checks.
    return TraceDataset.from_validated(
        columns_to_events(columns.events),
        n_machines=columns.n_machines,
        span=columns.span,
        start_weekday=columns.start_weekday,
        hourly_load=columns.hourly_load,
        metadata=columns.metadata,
    )


def _read_columns_jsonl(path: Path) -> EventColumns:
    """Parse a JSONL trace straight into :data:`EVENT_DTYPE` rows.

    Each line converts its fields exactly as
    :meth:`EventRecord.from_dict <repro.traces.records.EventRecord.from_dict>`
    does; a line that does not parse fails with its 1-based line number
    and the line quoted.
    """
    nan = float("nan")
    mids, starts, ends, codes, loads, mbs = [], [], [], [], [], []
    try:
        fh = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    with fh:
        header_line = fh.readline()
        if not header_line:
            raise TraceError(f"{path}: empty trace file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: bad header: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != "fgcs-trace":
            raise TraceError(f"{path}: not an FGCS trace file")
        if header.get("schema") != SCHEMA_VERSION:
            raise TraceError(
                f"{path}: unsupported schema {header.get('schema')!r}"
            )
        try:
            n_machines = int(header["n_machines"])
            span = float(header["span"])
            start_weekday = int(header.get("start_weekday", 0))
            metadata = dict(header.get("metadata", {}))
            hourly = header.get("hourly_load")
            if hourly is not None:
                # JSON null converts to NaN.
                hourly = np.array(hourly, dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"{path}: bad header: {exc}") from exc
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                mid = int(d["machine_id"])
                start = float(d["start"])
                end = float(d["end"])
                state = str(d["state"])
                load = d.get("mean_host_load")
                mb = d.get("mean_free_mb")
                load = nan if load is None else float(load)
                mb = nan if mb is None else float(mb)
                code = _STATE_STR_TO_CODE.get(state)
                if code is None:
                    raise ValueError(f"invalid failure state {state!r}")
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise TraceError(
                    f"{path}:{lineno}: bad event record: {exc}: "
                    f"offending line {_snippet(line)}"
                ) from exc
            mids.append(mid)
            starts.append(start)
            ends.append(end)
            codes.append(code)
            loads.append(load)
            mbs.append(mb)
    events = np.empty(len(mids), dtype=EVENT_DTYPE)
    try:
        events["machine_id"] = mids
    except OverflowError as exc:
        raise TraceError(f"{path}: machine_id out of range: {exc}") from exc
    events["start"] = starts
    events["end"] = ends
    events["state"] = codes
    events["mean_host_load"] = loads
    events["mean_free_mb"] = mbs
    return EventColumns(
        events=events[np.lexsort((events["start"], events["machine_id"]))],
        n_machines=n_machines,
        span=span,
        start_weekday=start_weekday,
        metadata=metadata,
        hourly_load=hourly,
    )


def _snippet(line: str, limit: int = 120) -> str:
    """The offending line, truncated so error messages stay one screen."""
    return repr(line if len(line) <= limit else line[: limit - 1] + "…")


def save_events_csv(dataset: TraceDataset, path: PathLike) -> None:
    """Write the event table as CSV (for spreadsheets/other tools)."""
    path = Path(path)
    fields = ["machine_id", "start", "end", "state", "mean_host_load", "mean_free_mb"]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for ev in dataset.events:
            writer.writerow(EventRecord.from_event(ev).to_dict())


def load_events_csv(
    path: PathLike, *, n_machines: int, span: float, start_weekday: int = 0
) -> TraceDataset:
    """Read an event CSV back into a dataset (metadata must be supplied)."""
    path = Path(path)
    events = []
    with path.open("r", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            cleaned = {k: (None if v == "" else v) for k, v in row.items()}
            events.append(EventRecord.from_dict(cleaned).to_event())
    return TraceDataset(
        events=events,
        n_machines=n_machines,
        span=span,
        start_weekday=start_weekday,
    )
