"""Sharded on-disk fleet datasets: per-machine-range shards + a manifest.

A monolithic :class:`~repro.traces.dataset.TraceDataset` materializes the
whole fleet in memory, which caps every analysis at a few hundred
machines.  This module stores a fleet as *shards* — each shard is an
ordinary trace file (written by :mod:`repro.traces.io`, in either the
JSONL or the binary ``fgcs-bin`` format; see ``docs/formats.md``)
covering a contiguous machine range ``[machine_lo, machine_hi)`` with
machine ids renumbered to shard-local ``0 .. n-1`` — plus one
``manifest.json`` describing the fleet (read and written by the
NumPy-free :mod:`repro.traces.manifest`, whose names this module
re-exports):

* **schema-versioned** — the manifest carries the shard-layout version
  (:data:`SHARD_SCHEMA_VERSION`) alongside the trace-file and
  generation-code schema versions, so stale layouts are rejected rather
  than misread;
* **content-fingerprinted** — every shard entry records the SHA-256 of
  its file; reads verify it by default, so a truncated or tampered shard
  fails loudly instead of silently skewing fleet statistics;
* **cache-aware** — :func:`generate_shards` keys each shard in the
  on-disk :class:`~repro.parallel.cache.DatasetCache` (per-shard keys
  derived from the config fingerprint plus the machine range), and the
  manifest records both the per-shard cache keys and the monolithic
  dataset cache key for provenance;
* **fault-plan-aware** — sharded generation runs through the hardened
  :mod:`repro.parallel` map (unit keys ``generate.shard:<k>``, or
  ``scenario.shard:<k>`` for a composed scenario), so
  injected or real worker crashes retry per the execution config; a
  shard whose retries are exhausted is quarantined (its machine range
  lands in ``metadata["quarantined_machines"]`` and an event-free
  placeholder shard keeps the fleet tileable).

Shard files are byte-identical to slicing the monolithic dataset with
:func:`write_shards` — ``generate_shards`` then ``load_full`` equals
``generate_dataset`` exactly, for any ``jobs`` value and any fault plan
whose faults are cleared by retries.  Shards are read, written and
sliced only as :class:`~repro.traces.records.EventColumns`: streaming
consumers read :meth:`ShardedTraceDataset.shard_columns` one shard at a
time (constant memory); see :mod:`repro.analysis.accumulators` for the
mergeable analyses built on top.
"""

from __future__ import annotations

import hashlib
import logging
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from ..config import ExecutionConfig, FgcsConfig
from ..errors import TraceError
from .dataset import TraceDataset
from .io import load_columns, save_columns
from .manifest import (
    MANIFEST_NAME,
    SHARD_SCHEMA_VERSION,
    ShardInfo,
    ShardManifest,
    _check_format,
    is_shard_store,
)
from .records import EventColumns, columns_to_events, validate_columns

if TYPE_CHECKING:  # the generator stays out of shard readers' imports
    from .generate import Fleet

__all__ = [
    "MANIFEST_NAME",
    "SHARD_SCHEMA_VERSION",
    "ShardInfo",
    "ShardManifest",
    "ShardedTraceDataset",
    "convert_shards",
    "generate_shards",
    "is_shard_store",
    "open_shards",
    "partition_machines",
    "write_shards",
]

logger = logging.getLogger(__name__)


def partition_machines(n_machines: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced machine ranges ``[lo, hi)`` covering the fleet.

    ``n_shards`` is clamped to ``[1, n_machines]`` (a shard must hold at
    least one machine); the first ``n_machines % n_shards`` shards get one
    extra machine.
    """
    if n_machines <= 0:
        raise TraceError("partition_machines needs n_machines > 0")
    if n_shards <= 0:
        raise TraceError("partition_machines needs n_shards > 0")
    k = min(n_shards, n_machines)
    base, extra = divmod(n_machines, k)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _shard_metadata(base: dict, index: int, lo: int, hi: int, fleet: int) -> dict:
    """Shard-file metadata: the fleet metadata plus the shard identity.

    Built identically by :func:`write_shards` and the generation worker
    so split-from-monolithic and generated-sharded files are
    byte-identical.
    """
    return {
        **base,
        "shard": {
            "index": index,
            "machine_lo": lo,
            "machine_hi": hi,
            "fleet_machines": fleet,
        },
    }


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_save_columns(columns: EventColumns, path: Path, fmt: str) -> None:
    """Write a shard file atomically (temp + rename), like the cache does.

    The format is passed explicitly — the temp name's ``.tmp<pid>``
    suffix would defeat suffix-based inference.
    """
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        save_columns(columns, tmp, format=fmt)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


class ShardedTraceDataset:
    """A fleet dataset opened from a shard directory.

    Never materializes more than one shard at a time unless
    :meth:`load_full` is called.  ``verify=True`` (the default) checks
    every shard's SHA-256 content fingerprint and its header against the
    manifest on read.
    """

    def __init__(
        self,
        manifest: ShardManifest,
        root: Union[str, Path],
        *,
        verify: bool = True,
    ) -> None:
        self.manifest = manifest
        self.root = Path(root)
        self.verify = verify

    # -- manifest passthroughs ------------------------------------------------

    @property
    def n_machines(self) -> int:
        return self.manifest.n_machines

    @property
    def n_shards(self) -> int:
        return self.manifest.n_shards

    @property
    def n_events(self) -> int:
        return self.manifest.n_events

    @property
    def span(self) -> float:
        return self.manifest.span

    @property
    def start_weekday(self) -> int:
        return self.manifest.start_weekday

    @property
    def n_days(self) -> int:
        from ..units import DAY

        return int(self.span // DAY)

    @property
    def metadata(self) -> dict:
        return self.manifest.metadata

    @property
    def machine_days(self) -> float:
        from ..units import DAY

        return self.n_machines * self.span / DAY

    # -- shard access ---------------------------------------------------------

    def shard_path(self, index: int) -> Path:
        return self.root / self.manifest.shards[index].path

    def shard_columns(self, index: int) -> EventColumns:
        """One shard's event columns (local machine ids), hourly block
        attached; zero-copy memory maps when the shard is binary.

        The one shard reader: the content fingerprint (per ``verify``),
        then :func:`~repro.traces.io.load_columns`, which validates the
        table, then the header checks against the manifest (per
        ``verify``).
        """
        info = self.manifest.shards[index]
        path = self.root / info.path
        if self.verify:
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
        columns = load_columns(path)
        if self.verify:
            if columns.n_machines != info.n_machines:
                raise TraceError(
                    f"shard {info.path} holds {columns.n_machines} machines, "
                    f"manifest says {info.n_machines}"
                )
            if (
                columns.span != self.span
                or columns.start_weekday != self.start_weekday
            ):
                raise TraceError(
                    f"shard {info.path} span/start_weekday disagrees with "
                    "the manifest"
                )
        return columns

    # -- whole-fleet view -----------------------------------------------------

    def load_full(self) -> TraceDataset:
        """Materialize the whole fleet as one monolithic dataset.

        The result equals the dataset the shards were split from (or the
        monolithic generation of the same config) exactly, including
        metadata and hourly load.  Memory scales with the fleet — fold
        :meth:`shard_columns` into the accumulators for large fleets.
        """
        parts: list[np.ndarray] = []
        hourly_rows: list[Optional[np.ndarray]] = []
        for index, info in enumerate(self.manifest.shards):
            shard = self.shard_columns(index)
            # Owned copies, so no shard file stays mapped past its turn.
            rows = np.array(shard.events)
            rows["machine_id"] += info.machine_lo
            parts.append(rows)
            hourly_rows.append(
                None if shard.hourly_load is None else np.array(shard.hourly_load)
            )
        hourly = None
        if hourly_rows and all(r is not None for r in hourly_rows):
            hourly = np.vstack(hourly_rows)
        events = np.concatenate(parts)
        # Unverified shards need not match the fleet frame, so check the
        # whole table before the trusted constructor skips its checks.
        validate_columns(events, n_machines=self.n_machines, span=self.span)
        return TraceDataset.from_validated(
            columns_to_events(events),
            n_machines=self.n_machines,
            span=self.span,
            start_weekday=self.start_weekday,
            hourly_load=hourly,
            metadata=dict(self.metadata),
        )


def open_shards(
    path: Union[str, Path], *, verify: bool = True
) -> ShardedTraceDataset:
    """Open a shard directory (or its ``manifest.json``) for reading."""
    path = Path(path)
    root = path if path.is_dir() else path.parent
    return ShardedTraceDataset(ShardManifest.load(path), root, verify=verify)


def write_shards(
    dataset: TraceDataset,
    out_dir: Union[str, Path],
    n_shards: int,
    *,
    dataset_cache_key: Optional[str] = None,
    config_fingerprint: Optional[str] = None,
    format: str = "jsonl",
) -> ShardManifest:
    """Split an in-memory dataset into a shard directory.

    Returns the written manifest.  ``open_shards(out_dir).load_full()``
    round-trips to a dataset that compares equal to ``dataset``.
    """
    _check_format(format)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = EventColumns.from_dataset(dataset)
    infos = []
    for index, (lo, hi) in enumerate(
        partition_machines(dataset.n_machines, n_shards)
    ):
        shard = columns.slice_machines(lo, hi)
        shard.metadata = _shard_metadata(
            shard.metadata, index, lo, hi, dataset.n_machines
        )
        name = _shard_name(index, format)
        path = out_dir / name
        _atomic_save_columns(shard, path, format)
        infos.append(
            ShardInfo(
                index=index,
                path=name,
                machine_lo=lo,
                machine_hi=hi,
                n_events=len(shard),
                sha256=_sha256_file(path),
                format=format,
            )
        )
    manifest = ShardManifest(
        n_machines=dataset.n_machines,
        span=dataset.span,
        start_weekday=dataset.start_weekday,
        shards=tuple(infos),
        metadata=dict(dataset.metadata),
        config_fingerprint=config_fingerprint,
        dataset_cache_key=dataset_cache_key,
    )
    manifest.save(out_dir)
    return manifest


def _shard_name(index: int, fmt: str = "jsonl") -> str:
    return f"shard-{index:05d}.{'bin' if fmt == 'binary' else 'jsonl'}"


def convert_shards(
    source: "ShardedTraceDataset",
    out_dir: Union[str, Path],
    format: str,
    *,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ShardManifest:
    """Re-encode a shard store in another trace format.

    Each shard's columns are re-encoded in ``format`` and
    re-fingerprinted; the manifest's fleet frame — machine ranges,
    metadata (including any quarantine record), config fingerprint, and
    cache keys — carries over unchanged, so provenance survives
    conversion.  The converted store analyzes byte-identically to the
    source.
    """
    _check_format(format)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src = source.manifest
    infos: list[ShardInfo] = []
    for index, info in enumerate(src.shards):
        name = _shard_name(index, format)
        path = out_dir / name
        _atomic_save_columns(source.shard_columns(index), path, format)
        infos.append(
            ShardInfo(
                index=info.index,
                path=name,
                machine_lo=info.machine_lo,
                machine_hi=info.machine_hi,
                n_events=info.n_events,
                sha256=_sha256_file(path),
                cache_key=info.cache_key,
                format=format,
            )
        )
        if progress is not None:
            progress(index + 1, src.n_shards)
    manifest = ShardManifest(
        n_machines=src.n_machines,
        span=src.span,
        start_weekday=src.start_weekday,
        shards=tuple(infos),
        metadata=dict(src.metadata),
        config_fingerprint=src.config_fingerprint,
        dataset_cache_key=src.dataset_cache_key,
    )
    manifest.save(out_dir)
    logger.info(
        "converted %d shard(s) to %s format in %s",
        manifest.n_shards,
        format,
        out_dir,
    )
    return manifest


# -- sharded generation ---------------------------------------------------


def _generate_shard(
    payload: tuple["Fleet", ExecutionConfig, int, int, int, str, bool, str, bool],
) -> tuple[int, str, Optional[str], Optional[dict]]:
    """Generate one shard and write its file — the parallel work unit.

    Returns ``(n_events, sha256, cache_key, telemetry)``.  Runs entirely
    in the worker: per-machine generation draws from the same
    global-machine-id random streams as monolithic generation, so the
    shard's events are exactly the monolithic dataset's slice — the
    fleet's machine unit writes shard-local machine ids directly into the
    event rows, so no relocation pass or event objects exist here.  When
    the execution config has a cache directory, the shard columns are
    cached under a per-shard key (read and written here, in the worker);
    injected ``cache.read_corrupt`` / ``cache.write_fail`` faults degrade
    exactly as they do for the monolithic cache.

    ``telemetry`` carries the shard's summed synth/detect seconds and rng
    draw counters back to the parent (a pool worker's own registry is a
    disabled no-op); it is ``None`` on a cache hit.  Draws are counted
    only when the payload's ``count_draws`` says the parent registry is
    enabled: the counting proxy adds ~30% to planning a machine, and a
    disabled parent discards the counts.
    """
    from ..obs.metrics import get_registry

    (
        fleet, execution, index, lo, hi, out_dir, keep_hourly_load, fmt,
        count_draws,
    ) = payload
    registry = get_registry()
    cache = None
    key: Optional[str] = None
    columns = None
    telemetry: Optional[dict] = None
    if execution.cache_enabled:
        from ..parallel.cache import DatasetCache

        cache = DatasetCache(execution.cache_dir, fault_plan=execution.fault_plan)
        key = fleet.cache_key("shard", lo, hi, keep_hourly_load)
        with registry.span("shard.cache_lookup"):
            columns = cache.get_columns(key)
    if columns is None:
        per_machine = []
        telemetry = {"generate.synth_seconds": 0.0, "generate.detect_seconds": 0.0}
        for mid in range(lo, hi):
            rows, hourly_row, counters, synth_seconds, detect_seconds = (
                fleet.unit(
                    (fleet.source, mid, mid - lo, keep_hourly_load, count_draws)
                )
            )
            per_machine.append((rows, hourly_row))
            telemetry["generate.synth_seconds"] += synth_seconds
            telemetry["generate.detect_seconds"] += detect_seconds
            for name, n in (counters or {}).items():
                telemetry[name] = telemetry.get(name, 0) + n
        columns = fleet.assemble(
            per_machine,
            keep_hourly_load=keep_hourly_load,
            metadata=_shard_metadata(
                fleet.metadata, index, lo, hi, fleet.n_machines
            ),
        )
        if cache is not None and key is not None:
            with registry.span("shard.cache_write"):
                cache.put_columns(key, columns)
    path = Path(out_dir) / _shard_name(index, fmt)
    with registry.span("shard.encode"):
        _atomic_save_columns(columns, path, fmt)
    return len(columns), _sha256_file(path), key, telemetry


def generate_shards(
    config: Union[FgcsConfig, "Fleet", None],
    out_dir: Union[str, Path],
    n_shards: int,
    *,
    keep_hourly_load: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    execution: Optional[ExecutionConfig] = None,
    format: str = "jsonl",
) -> ShardManifest:
    """Generate a fleet directly into a shard directory.

    ``config`` is a stock config or any
    :class:`~repro.traces.generate.Fleet`.  Each shard is one parallel
    work unit (unit keys ``<site>.shard:<index>``, ``generate.shard`` for
    a stock config): the worker generates its machine range — drawing
    from the same per-machine random streams as
    :func:`~repro.traces.generate.generate_dataset`, so outputs are
    bit-identical to splitting a monolithic generation — writes the shard
    file atomically, and returns its event count and content
    fingerprint.  Memory in the parent stays at bookkeeping size; each
    worker holds one machine's samples plus its shard's events.

    Failed shards retry per ``execution``; a shard whose retries are
    exhausted is quarantined — an event-free placeholder file keeps the
    fleet tileable and the machine range is recorded in the manifest's
    ``metadata["quarantined_machines"]``.
    """
    from ..faults import QUARANTINED
    from ..obs.metrics import get_registry
    from ..parallel.backend import get_backend
    from ..units import DAY
    from .generate import _fleet_and_execution

    _check_format(format)
    fleet, execution = _fleet_and_execution(config, execution)
    registry = get_registry()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ranges = partition_machines(fleet.n_machines, n_shards)
    if len(ranges) != n_shards:
        logger.warning(
            "clamping n_shards from %d to %d (one machine per shard minimum)",
            n_shards,
            len(ranges),
        )
    logger.info(
        "generating sharded fleet: %d machines × %d days in %d shard(s) "
        "(seed %d, jobs=%d)",
        fleet.n_machines,
        fleet.span // DAY,
        len(ranges),
        fleet.metadata["seed"],
        execution.jobs,
    )
    backend = get_backend(execution)
    faults = execution.fault_context(f"{fleet.site}.shard", quarantine=True)
    payloads = [
        (fleet, execution, index, lo, hi, str(out_dir), keep_hourly_load,
         format, registry.enabled)
        for index, (lo, hi) in enumerate(ranges)
    ]
    with registry.span("generate.shards"):
        results = backend.map(
            _generate_shard, payloads, progress=progress, faults=faults
        )

    infos: list[ShardInfo] = []
    quarantined: list[int] = []
    for index, ((lo, hi), result) in enumerate(zip(ranges, results)):
        if result is QUARANTINED:
            # An event-free placeholder with NaN hourly rows, so the
            # fleet stays tileable and analyses degrade instead of failing.
            quarantined.extend(range(lo, hi))
            placeholder = fleet.assemble(
                [None] * (hi - lo),
                keep_hourly_load=keep_hourly_load,
                metadata=_shard_metadata(
                    fleet.metadata, index, lo, hi, fleet.n_machines
                ),
            )
            path = out_dir / _shard_name(index, format)
            _atomic_save_columns(placeholder, path, format)
            n_events, digest, key = 0, _sha256_file(path), None
        else:
            n_events, digest, key, telemetry = result
            if telemetry and registry.enabled:
                for name, value in telemetry.items():
                    if name.startswith("generate."):
                        registry.observe(name, value)
                    else:
                        registry.inc(name, value)
        registry.inc("shards.written")
        registry.observe("shards.events", n_events)
        infos.append(
            ShardInfo(
                index=index,
                path=_shard_name(index, format),
                machine_lo=lo,
                machine_hi=hi,
                n_events=n_events,
                sha256=digest,
                cache_key=key,
                format=format,
            )
        )

    metadata = dict(fleet.metadata)
    if quarantined:
        metadata["quarantined_machines"] = quarantined
        logger.error(
            "partial fleet: %d machine(s) quarantined after retries (ids %s)",
            len(quarantined),
            quarantined,
        )
    manifest = ShardManifest(
        n_machines=fleet.n_machines,
        span=fleet.span,
        start_weekday=fleet.start_weekday,
        shards=tuple(infos),
        metadata=metadata,
        config_fingerprint=fleet.fingerprint,
        dataset_cache_key=fleet.cache_key("dataset", keep_hourly_load),
    )
    manifest.save(out_dir)
    registry.record(
        "shards",
        phase="generate",
        count=manifest.n_shards,
        machines=manifest.n_machines,
        events=manifest.n_events,
        quarantined=len(quarantined),
    )
    logger.info(
        "wrote %d events across %d shard(s) to %s",
        manifest.n_events,
        manifest.n_shards,
        out_dir,
    )
    return manifest
