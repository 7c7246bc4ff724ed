"""The ``fgcs-bin`` binary columnar trace format.

JSONL traces (:mod:`repro.traces.io`) pay one ``json.dumps`` /
``json.loads`` per event — at fleet scale that codec, not the analysis,
dominates wall time.  This module stores the same dataset losslessly as
three contiguous blocks so reads are zero-copy:

``magic + version + header length`` (14 bytes)
    Magic bytes ``\\x93FGCSBIN`` identify the format (and let
    :func:`repro.traces.io.load_columns` auto-detect it), a ``<u2``
    format version rejects incompatible layouts before any parsing, and
    a ``<u4`` gives the JSON header's byte length.

header (UTF-8 JSON)
    The dataset frame: schema versions, machine count, span, start
    weekday, metadata, event count, and the hourly-load shape.  Exactly
    the information of the JSONL header line; floats round-trip exactly
    through JSON's shortest-repr encoding.

event block
    The event table as one packed little-endian structured array
    (:data:`repro.traces.records.EVENT_DTYPE` — ``machine_id:i4,
    start:f8, end:f8, state:u1, mean_host_load:f8, mean_free_mb:f8``),
    64-byte aligned so it can be handed to NumPy as a read-only memmap:
    :func:`open_columns` never copies or decodes event bytes.  NaN
    resource observations are stored as NaN (no ``None`` sentinel).

hourly-load block (optional)
    The ``(n_machines, n_hours)`` float64 hourly-load matrix, also
    64-byte aligned.

Block offsets are a deterministic function of the header length, so a
file's bytes are a pure function of its dataset — the shard layer's
content fingerprints and the byte-identity guarantees of the chaos
harness hold for binary traces exactly as for JSONL.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from ..errors import TraceError
from .records import EVENT_DTYPE, EventColumns

__all__ = [
    "BIN_SCHEMA_VERSION",
    "MAGIC",
    "is_binary_trace",
    "open_columns",
    "save_columns_binary",
]

#: Leading magic bytes of every ``fgcs-bin`` file.  The ``\x93`` prefix
#: (borrowed from ``.npy``) guarantees the file can never parse as text.
MAGIC: bytes = b"\x93FGCSBIN"

#: Version of the binary layout (magic/header/block scheme and
#: :data:`~repro.traces.records.EVENT_DTYPE`).  Bump on any incompatible
#: change; readers reject versions they do not know.
BIN_SCHEMA_VERSION = 1

_KIND = "fgcs-trace-bin"
_PREAMBLE = struct.Struct("<8sHI")  # magic, version, header byte length
_ALIGN = 64

PathLike = Union[str, Path]


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def is_binary_trace(path: PathLike) -> bool:
    """True when ``path`` starts with the ``fgcs-bin`` magic bytes."""
    try:
        with Path(path).open("rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def save_columns_binary(columns: EventColumns, path: PathLike) -> None:
    """Write an event-column unit as one ``fgcs-bin`` file.

    The event table is dumped as-is, so no event objects are ever
    materialized.  Output bytes are a pure function of the columns.
    """
    path = Path(path)
    events = columns.events
    if events.dtype != EVENT_DTYPE:
        raise TraceError(
            f"event columns have dtype {events.dtype}, expected {EVENT_DTYPE}"
        )
    hourly = columns.hourly_load
    header = {
        "kind": _KIND,
        "schema": {"binary": BIN_SCHEMA_VERSION, "trace": _trace_schema()},
        "n_machines": columns.n_machines,
        "span": columns.span,
        "start_weekday": columns.start_weekday,
        "metadata": columns.metadata,
        "n_events": int(events.size),
        "hourly_shape": None if hourly is None else list(hourly.shape),
    }
    # No sort_keys: metadata key order is part of the dataset (JSONL
    # preserves it), so it must survive a binary round trip too.
    header_blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    events_off = _align(_PREAMBLE.size + len(header_blob))
    with path.open("wb") as fh:
        fh.write(_PREAMBLE.pack(MAGIC, BIN_SCHEMA_VERSION, len(header_blob)))
        fh.write(header_blob)
        _pad_to(fh, events_off)
        fh.write(events.tobytes())
        if hourly is not None:
            _pad_to(fh, _align(events_off + events.nbytes))
            fh.write(np.ascontiguousarray(hourly, dtype=np.float64).tobytes())


def _pad_to(fh: BinaryIO, offset: int) -> None:
    fh.write(b"\x00" * (offset - fh.tell()))


def _trace_schema() -> int:
    from .io import SCHEMA_VERSION

    return SCHEMA_VERSION


def _read_header(path: Path) -> tuple[dict, int]:
    """(header dict, event-block offset) of a binary trace file."""
    try:
        with path.open("rb") as fh:
            preamble = fh.read(_PREAMBLE.size)
            if len(preamble) < _PREAMBLE.size:
                raise TraceError(f"{path}: truncated binary trace preamble")
            magic, version, header_len = _PREAMBLE.unpack(preamble)
            if magic != MAGIC:
                raise TraceError(f"{path}: not an FGCS binary trace file")
            if version != BIN_SCHEMA_VERSION:
                raise TraceError(
                    f"{path}: unsupported binary format version {version} "
                    f"(expected {BIN_SCHEMA_VERSION})"
                )
            header_blob = fh.read(header_len)
    except OSError as exc:
        raise TraceError(f"cannot read binary trace {path}: {exc}") from exc
    if len(header_blob) < header_len:
        raise TraceError(f"{path}: truncated binary trace header")
    try:
        header = json.loads(header_blob.decode("utf-8"))
    except ValueError as exc:
        raise TraceError(f"{path}: bad binary trace header: {exc}") from exc
    if header.get("kind") != _KIND:
        raise TraceError(f"{path}: not an FGCS binary trace header")
    if header.get("schema", {}).get("trace") != _trace_schema():
        raise TraceError(
            f"{path}: unsupported trace schema "
            f"{header.get('schema', {}).get('trace')!r}"
        )
    return header, _align(_PREAMBLE.size + header_len)


def open_columns(
    path: PathLike, *, mmap: bool = True
) -> tuple[dict, EventColumns, Optional[np.ndarray]]:
    """Open a binary trace as ``(header, event columns, hourly load)``.

    With ``mmap=True`` (default) the event block and hourly matrix are
    read-only memory maps over the file — no bytes are copied or decoded
    until a consumer touches them.  This function only checks the frame;
    :func:`repro.traces.io.load_columns` wraps it and validates the event
    table and hourly shape.
    """
    path = Path(path)
    header, events_off = _read_header(path)
    n_events = int(header["n_events"])
    events_nbytes = n_events * EVENT_DTYPE.itemsize
    hourly_shape = header.get("hourly_shape")
    expected = events_off + events_nbytes
    if hourly_shape is not None:
        expected = _align(expected) + int(np.prod(hourly_shape)) * 8
    try:
        actual = path.stat().st_size
    except OSError as exc:
        raise TraceError(f"cannot read binary trace {path}: {exc}") from exc
    if actual < expected:
        raise TraceError(
            f"{path}: truncated binary trace "
            f"({actual} bytes, expected {expected})"
        )
    if n_events == 0:
        events = np.empty(0, dtype=EVENT_DTYPE)
    elif mmap:
        events = np.memmap(
            path, dtype=EVENT_DTYPE, mode="r", offset=events_off, shape=(n_events,)
        )
    else:
        with path.open("rb") as fh:
            fh.seek(events_off)
            events = np.frombuffer(
                fh.read(events_nbytes), dtype=EVENT_DTYPE
            ).copy()
    hourly = None
    if hourly_shape is not None:
        shape = tuple(int(x) for x in hourly_shape)
        hourly_off = _align(events_off + events_nbytes)
        if int(np.prod(shape)) == 0:
            hourly = np.empty(shape, dtype=np.float64)
        elif mmap:
            hourly = np.memmap(
                path, dtype=np.float64, mode="r", offset=hourly_off, shape=shape
            )
        else:
            with path.open("rb") as fh:
                fh.seek(hourly_off)
                hourly = (
                    np.frombuffer(
                        fh.read(int(np.prod(shape)) * 8), dtype=np.float64
                    )
                    .reshape(shape)
                    .copy()
                )
    columns = EventColumns(
        events=events,
        n_machines=int(header["n_machines"]),
        span=float(header["span"]),
        start_weekday=int(header.get("start_weekday", 0)),
        metadata=dict(header.get("metadata", {})),
    )
    return header, columns, hourly
