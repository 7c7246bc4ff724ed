"""Block-level paging of predictor count state over an on-disk shard store.

Paging *whole shards* means a touch of any machine rebuilds the shard's
full ``(machines, n_days, 24)`` count block.  At 10³ machines that is
fine; at 10⁵–10⁶ a single shard's block is tens to hundreds of
megabytes and the resident-set ceiling is effectively ``hot_shards ×
shard_block`` — far too coarse to serve a million-machine fleet under a
fixed RSS budget.

:class:`BlockPager` pages **fixed-size machine-range blocks** instead:
each shard's machine range is chopped into pieces of ``block_machines``
machines, and only the touched block's counts are (re)built.

A shard's first block touch verifies its SHA-256 against the manifest
and, in the same call, records where its rows live: the byte offset of
the event block and a machine → first-row index (``n_machines + 1``
integers, from the machine-sorted ``machine_id`` column).  From then on
a binary shard's block rebuild is **one positioned read** of exactly the
block's rows (``os.pread``), binned by one ``bincount``.  Nothing is
memory-mapped, so evicted state really leaves the resident set instead
of lingering as mapped file pages.  JSONL shards (no fixed row width)
slice the same index out of a one-deep parse cache.

Exactness: a block's counts are the corresponding machine rows of the
whole shard's count matrix — integer event counts binned by
:func:`repro.prediction.base.counts_from_event_rows`, which reproduces
CPython's float ``divmod`` exactly (see there), so restriction to a
machine sub-range commutes with counting and every answer served
through paging equals the unpaged (and batch) answer exactly.
``tests/test_serve_paging.py`` pins this, block size by block size,
through eviction churn.

Verification happens **once per shard**, not per rebuild — per-rebuild
hashing would re-read the whole file and defeat the point of paging.
A file truncated after its first touch still fails loudly, with
:class:`~repro.errors.TraceError` on the short read, and one replaced
since (a store rewritten in place renames new files over the old) fails
on its changed inode rather than being read through the old file's row
index.

``block_machines=None`` keeps whole-shard blocks: every block spans
exactly one shard, and ``max_blocks`` bounds resident *shards* — which
is what the ``--hot-shards`` flag still means.
"""

from __future__ import annotations

import bisect
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from ..errors import ServeError, TraceError
from ..prediction.base import counts_from_event_rows
from ..traces.records import EVENT_DTYPE, EventColumns
from ..traces.shards import ShardedTraceDataset, _sha256_file

__all__ = ["BlockInfo", "BlockPager", "PagerStats"]

#: Event rows per read (2.3 MiB) while a shard's first touch indexes its
#: machines, so indexing a large shard never holds its whole event block.
_INDEX_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class BlockInfo:
    """One pageable block: a machine sub-range of one shard."""

    index: int
    shard: int
    #: Global machine range ``[lo, hi)`` the block covers.
    lo: int
    hi: int

    @property
    def n_machines(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class PagerStats:
    """A snapshot of the pager's accounting."""

    #: Blocks currently resident.
    resident_blocks: int
    #: Bytes of resident count blocks.
    resident_bytes: int
    #: Block touches answered from a resident block.  A point query
    #: touches its machine's block once, however many cells it reads.
    hits: int
    #: Block (re)builds — the page-miss count.
    rebuilds: int
    #: Blocks dropped to satisfy the bounds.
    evictions: int
    #: Total blocks in the table.
    n_blocks: int
    #: Configured block size (``None`` = whole-shard blocks).
    block_machines: Optional[int]


class _ShardRows(NamedTuple):
    """Where a shard's event rows live, learned at its first touch."""

    path: Path
    #: ``(st_dev, st_ino)`` of the file that was verified and indexed.
    file_id: tuple[int, int]
    #: Byte offset of the event block (``None`` for JSONL shards).
    offset: Optional[int]
    #: ``first_row[m]`` is the first event row of shard-local machine
    #: ``m``; ``first_row[n_machines]`` is the row count.
    first_row: np.ndarray


def _file_id(path: Path) -> tuple[int, int]:
    try:
        st = os.stat(path)
    except OSError as exc:
        raise TraceError(f"cannot read shard {path}: {exc}") from exc
    return st.st_dev, st.st_ino


def _read_rows(
    path: Path, offset: int, row_lo: int, row_hi: int
) -> np.ndarray:
    """Event rows ``[row_lo, row_hi)`` of a binary shard, in one positioned
    read.  A short read means the file is shorter than its header says."""
    width = EVENT_DTYPE.itemsize
    nbytes = (row_hi - row_lo) * width
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            data = os.pread(fd, nbytes, offset + row_lo * width)
        finally:
            os.close(fd)
    except OSError as exc:
        raise TraceError(f"cannot read shard {path}: {exc}") from exc
    if len(data) != nbytes:
        raise TraceError(
            f"shard {path}: event rows [{row_lo}, {row_hi}) lie past the "
            f"end of the file (read {len(data)} of {nbytes} bytes); the "
            "file was truncated"
        )
    return np.frombuffer(data, dtype=EVENT_DTYPE)


class BlockPager:
    """An LRU of fixed-machine-range count blocks over a shard store.

    Parameters
    ----------
    store:
        The on-disk shard store blocks rebuild from.
    shard_lo, shard_hi:
        The contiguous shard range ``[shard_lo, shard_hi)`` this pager
        owns (a scale-out worker owns a slice of the fleet; the default
        is every shard).
    block_machines:
        Machines per block.  ``None`` keeps one block per shard.
    max_blocks:
        Resident-block ceiling (``None`` = unbounded).
    max_bytes:
        Resident-byte ceiling (``None`` = unbounded).  Both bounds may
        be active; eviction runs until both hold, always keeping at
        least one block resident.
    verify:
        Check each shard file's SHA-256 against the manifest on the
        shard's first block touch.

    Not internally locked: :class:`~repro.serve.state.ServeState` calls
    under its own lock, which also serializes the counters.
    """

    def __init__(
        self,
        store: ShardedTraceDataset,
        *,
        shard_lo: int = 0,
        shard_hi: Optional[int] = None,
        block_machines: Optional[int] = None,
        max_blocks: Optional[int] = None,
        max_bytes: Optional[int] = None,
        verify: bool = True,
    ) -> None:
        if block_machines is not None and block_machines < 1:
            raise ServeError("block_machines must be >= 1")
        if max_blocks is not None and max_blocks < 1:
            raise ServeError("max_blocks must be >= 1")
        if max_bytes is not None and max_bytes <= 0:
            raise ServeError("max_bytes must be positive")
        shard_hi = store.n_shards if shard_hi is None else shard_hi
        if not 0 <= shard_lo < shard_hi <= store.n_shards:
            raise ServeError(
                f"shard range [{shard_lo}, {shard_hi}) outside the store's "
                f"[0, {store.n_shards})"
            )
        self._store = store
        self._block_machines = block_machines
        self._max_blocks = max_blocks
        self._max_bytes = max_bytes
        self._verify = verify
        self.n_days = store.n_days
        self.blocks: list[BlockInfo] = []
        for s in range(shard_lo, shard_hi):
            info = store.manifest.shards[s]
            step = (
                info.n_machines
                if block_machines is None
                else block_machines
            )
            lo = info.machine_lo
            while lo < info.machine_hi:
                hi = min(lo + step, info.machine_hi)
                self.blocks.append(
                    BlockInfo(len(self.blocks), s, lo, hi)
                )
                lo = hi
        self.machine_lo = self.blocks[0].lo
        self.machine_hi = self.blocks[-1].hi
        self._block_los = [b.lo for b in self.blocks]
        self._lru: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._resident_bytes = 0
        self._hits = 0
        self._rebuilds = 0
        self._evictions = 0
        #: Per touched shard: where its rows live (see :meth:`_shard_rows`).
        self._rows: dict[int, _ShardRows] = {}
        # One-deep cache of parsed columns for JSONL shards, so scanning
        # consecutive blocks of the same (non-zero-copy) shard parses the
        # file once, not once per block.
        self._jsonl_cache: Optional[tuple[int, EventColumns]] = None
        self._jsonl_lock = threading.Lock()

    # -- lookup ---------------------------------------------------------------

    def block_of(self, machine_id: int) -> int:
        """The block index owning a (global) machine id."""
        if not self.machine_lo <= machine_id < self.machine_hi:
            raise ServeError(
                f"machine {machine_id} outside the paged range "
                f"[{self.machine_lo}, {self.machine_hi})"
            )
        return bisect.bisect_right(self._block_los, machine_id) - 1

    def counts(self, block_id: int) -> np.ndarray:
        """The block's ``(n_machines, n_days, 24)`` counts, paging it in."""
        block = self._lru.get(block_id)
        if block is not None:
            self._lru.move_to_end(block_id)
            self._hits += 1
            return block
        block = self._build(self.blocks[block_id])
        self._rebuilds += 1
        self._lru[block_id] = block
        self._resident_bytes += block.nbytes
        self._evict()
        return block

    def row(self, machine_id: int) -> np.ndarray:
        """One machine's ``(n_days, 24)`` counts (a view into its block):
        one touch of the block, paging it in."""
        block_id = self.block_of(machine_id)
        return self.counts(block_id)[machine_id - self.blocks[block_id].lo]

    def cell(self, machine_id: int, day: int, hour: int) -> int:
        """One machine-day-hour count, paging the owning block in."""
        return int(self.row(machine_id)[day, hour])

    def stats(self) -> PagerStats:
        return PagerStats(
            resident_blocks=len(self._lru),
            resident_bytes=self._resident_bytes,
            hits=self._hits,
            rebuilds=self._rebuilds,
            evictions=self._evictions,
            n_blocks=len(self.blocks),
            block_machines=self._block_machines,
        )

    # -- internals ------------------------------------------------------------

    def _evict(self) -> None:
        def over() -> bool:
            if self._max_blocks is not None and len(self._lru) > self._max_blocks:
                return True
            return (
                self._max_bytes is not None
                and self._resident_bytes > self._max_bytes
            )

        while len(self._lru) > 1 and over():
            _, evicted = self._lru.popitem(last=False)
            self._resident_bytes -= evicted.nbytes
            self._evictions += 1

    def _shard_rows(self, shard: int) -> _ShardRows:
        """Where the shard's rows live, recorded at its first touch.

        The first touch verifies the shard's fingerprint, then reads its
        ``machine_id`` column once (in bounded chunks, for binary
        shards) into the machine → first-row index.  The index equals a
        binary search of the machine-sorted column for every machine.
        """
        rows = self._rows.get(shard)
        if rows is not None:
            return rows
        from ..traces.binio import _read_header, is_binary_trace

        info = self._store.manifest.shards[shard]
        path = self._store.root / info.path
        file_id = _file_id(path)
        if self._verify:
            try:
                digest = _sha256_file(path)
            except OSError as exc:
                raise TraceError(f"cannot read shard {path}: {exc}") from exc
            if digest != info.sha256:
                raise TraceError(
                    f"shard {info.path} content fingerprint mismatch "
                    f"(expected {info.sha256[:12]}…, got {digest[:12]}…); "
                    "the file was corrupted or replaced"
                )
        machines = np.arange(info.n_machines + 1)
        if is_binary_trace(path):
            header, offset = _read_header(path)
            n_machines = int(header["n_machines"])
            n_events = int(header["n_events"])
            # Per chunk, each machine's binary search counts the chunk's
            # rows of lower machines; over a sorted column they add up.
            first_row = np.zeros(machines.size, dtype=np.int64)
            for lo in range(0, n_events, _INDEX_CHUNK_ROWS):
                hi = min(lo + _INDEX_CHUNK_ROWS, n_events)
                mids = _read_rows(path, offset, lo, hi)["machine_id"]
                first_row += np.searchsorted(mids, machines, side="left")
        else:
            offset = None
            columns = self._jsonl_columns(shard)
            n_machines = columns.n_machines
            first_row = np.searchsorted(
                columns.events["machine_id"], machines, side="left"
            )
        if n_machines != info.n_machines:
            raise TraceError(
                f"shard {info.path} holds {n_machines} machines, "
                f"manifest says {info.n_machines}"
            )
        rows = self._rows[shard] = _ShardRows(path, file_id, offset, first_row)
        return rows

    def _jsonl_columns(self, shard: int) -> EventColumns:
        """A JSONL shard's parsed columns, through a one-deep cache."""
        with self._jsonl_lock:
            cached = self._jsonl_cache
            if cached is not None and cached[0] == shard:
                return cached[1]
        from ..traces.io import load_columns

        info = self._store.manifest.shards[shard]
        columns = load_columns(self._store.root / info.path)
        with self._jsonl_lock:
            self._jsonl_cache = (shard, columns)
        return columns

    def _build(self, block: BlockInfo) -> np.ndarray:
        """(Re)build one block's counts from its shard file.

        A binary shard's block is one positioned read of exactly the
        block's rows; the returned counts own their memory and nothing
        stays mapped, so an evicted block leaves the resident set.  A
        shard file replaced since its first touch (a store regenerated
        in place writes new files) would not match the recorded row
        index, so it raises instead of serving misaligned rows.
        """
        shard = self._shard_rows(block.shard)
        if _file_id(shard.path) != shard.file_id:
            raise TraceError(
                f"shard {shard.path} was replaced after it was verified "
                "and indexed; restart the server to serve the new file"
            )
        base = block.lo - self._store.manifest.shards[block.shard].machine_lo
        row_lo = int(shard.first_row[base])
        row_hi = int(shard.first_row[base + block.n_machines])
        if shard.offset is None:
            rows = self._jsonl_columns(block.shard).events[row_lo:row_hi]
        else:
            rows = _read_rows(shard.path, shard.offset, row_lo, row_hi)
        return counts_from_event_rows(
            rows, block.n_machines, self.n_days, machine_base=base
        )
