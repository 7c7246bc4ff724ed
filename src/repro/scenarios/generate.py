"""Generate trace datasets from compiled scenarios.

Two paths:

* **Trivial scenarios** (one class, no regimes/outages/flash crowds)
  delegate wholesale to the stock generators —
  :func:`repro.traces.generate.generate_dataset_columns` and
  :func:`repro.traces.shards.generate_shards` — so their output is
  byte-identical to hand-building the same config, and they share the
  stock dataset-cache entries.

* **Everything else** runs the scenario worker: per machine, generate
  each regime segment under its own virtual testbed (event times shifted
  by the segment offset, per-segment seeds; segment 0 keeps the base
  seed), then merge the machine's deterministic overlay windows
  (correlated outages → S5, flash crowds → S3) into the event stream —
  base events are clipped around the injected windows, so the merged
  per-machine timeline keeps the detector's invariants.  Machines stay
  independent work units drawing only from per-machine streams, so
  ``jobs=N`` output is byte-identical to ``jobs=1``.

Scenario datasets cache under keys derived from the compiled scenario's
fingerprint (``scenario-dataset`` / ``scenario-shard`` extras), exactly
parallel to the config-keyed stock entries.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from ..config import ExecutionConfig
from ..obs.metrics import get_registry
from ..units import HOUR
from .compile import CompiledScenario

__all__ = [
    "generate_scenario_columns",
    "generate_scenario_shards",
    "merge_overlay_rows",
    "scenario_dataset_cache_key",
    "scenario_metadata",
    "scenario_shard_cache_key",
]

logger = logging.getLogger(__name__)


def scenario_metadata(compiled: CompiledScenario) -> dict:
    """Dataset provenance metadata for a scenario-generated fleet.

    Same shape as :func:`repro.traces.generate.dataset_metadata` — the
    thresholds and monitor period are fleet-wide by construction (class
    overrides are restricted to lab-workload and per-machine-memory
    fields), and segment 0 carries the scenario seed.  The scenario
    *name* deliberately stays out of the dataset: it lands in the run
    manifest instead, so identical fleets from differently-named
    documents stay byte-identical.
    """
    from ..traces.generate import dataset_metadata

    return dataset_metadata(compiled.machine_config(0, compiled.segments()[0]))


def scenario_dataset_cache_key(
    compiled: CompiledScenario, *, keep_hourly_load: bool = True
) -> str:
    """Dataset-cache key for a monolithic scenario fleet."""
    from ..parallel.cache import config_fingerprint

    return config_fingerprint(
        compiled, extra=("scenario-dataset", keep_hourly_load)
    )


def scenario_shard_cache_key(
    compiled: CompiledScenario, lo: int, hi: int, *, keep_hourly_load: bool = True
) -> str:
    """Dataset-cache key for one generated scenario shard."""
    from ..parallel.cache import config_fingerprint

    return config_fingerprint(
        compiled, extra=("scenario-shard", lo, hi, keep_hourly_load)
    )


def merge_overlay_rows(base: np.ndarray, overlays: np.ndarray) -> np.ndarray:
    """Merge injected overlay rows into one machine's base event rows.

    ``base`` is the machine's detector output (sorted by start);
    ``overlays`` are its injected windows (sorted, mutually disjoint —
    :meth:`CompiledScenario.overlay_windows` guarantees both).  Base
    events are clipped around every overlay window (an event swallowed
    whole disappears; one straddling a window splits), the overlay rows
    are inserted, and the result is re-sorted by start, preserving the
    column invariants :func:`repro.traces.records.validate_columns`
    checks.
    """
    if not len(overlays):
        return base
    pieces: list[np.ndarray] = []
    bounds = [(float(w["start"]), float(w["end"])) for w in overlays]
    for row in base:
        spans = [(float(row["start"]), float(row["end"]))]
        for ws, we in bounds:
            clipped: list[tuple[float, float]] = []
            for s, e in spans:
                if we <= s or ws >= e:
                    clipped.append((s, e))
                    continue
                if s < ws:
                    clipped.append((s, ws))
                if we < e:
                    clipped.append((we, e))
            spans = clipped
            if not spans:
                break
        for s, e in spans:
            piece = row.copy()
            piece["start"] = s
            piece["end"] = e
            pieces.append(piece)
    merged = np.empty(len(pieces) + len(overlays), dtype=base.dtype)
    for i, piece in enumerate(pieces):
        merged[i] = piece
    merged[len(pieces):] = overlays
    return np.sort(merged, order=["start", "end", "state"], kind="stable")


def _fold_flash_into_hourly(hourly_row: np.ndarray, windows) -> None:
    """Blend flash-crowd load into the covered hourly-mean-load cells.

    Outage (S5) windows are skipped: the machine is down and the monitor
    silent, so the synthesized means stand.  NaN cells (quarantined or
    out-of-span) stay NaN.
    """
    for w in windows:
        if w.state != 3:
            continue
        h0 = max(int(w.start // HOUR), 0)
        h1 = min(int(math.ceil(w.end / HOUR)), len(hourly_row))
        for h in range(h0, h1):
            overlap = min(w.end, (h + 1) * HOUR) - max(w.start, h * HOUR)
            frac = overlap / HOUR
            if frac > 0 and not np.isnan(hourly_row[h]):
                hourly_row[h] = (
                    hourly_row[h] * (1.0 - frac) + w.mean_host_load * frac
                )


def _scenario_machine_columns(
    payload: tuple[CompiledScenario, int, int, bool, bool],
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[dict], float, float]:
    """One machine's scenario event rows — the parallel work unit.

    Same return shape as the stock
    :func:`repro.traces.generate._generate_machine_columns`, so the
    assembly/telemetry plumbing is shared.  Pure function of
    ``(compiled, machine_id)``: segments, per-segment configs, and
    overlay windows are all recomputed locally, so the unit runs in any
    worker process without parent-side state.
    """
    from ..traces.generate import _generate_machine_columns
    from ..traces.records import EVENT_DTYPE

    compiled, machine_id, event_machine_id, keep_hourly_load, count_draws = payload
    blocks: list[np.ndarray] = []
    hourly_parts: list[np.ndarray] = []
    counters: Optional[dict] = None
    synth_seconds = 0.0
    detect_seconds = 0.0
    for segment in compiled.segments():
        config = compiled.machine_config(machine_id, segment)
        rows, hourly_row, seg_counters, synth, detect = (
            _generate_machine_columns(
                (config, machine_id, event_machine_id, keep_hourly_load,
                 count_draws)
            )
        )
        if segment.offset:
            rows["start"] += segment.offset
            rows["end"] += segment.offset
        blocks.append(rows)
        if keep_hourly_load and hourly_row is not None:
            hourly_parts.append(hourly_row)
        synth_seconds += synth
        detect_seconds += detect
        if seg_counters:
            if counters is None:
                counters = dict(seg_counters)
            else:
                for name, n in seg_counters.items():
                    counters[name] = counters.get(name, 0) + n
    base = (
        np.concatenate(blocks) if blocks else np.empty(0, dtype=EVENT_DTYPE)
    )
    windows = compiled.overlay_windows(machine_id)
    merged = merge_overlay_rows(
        base, compiled.overlay_rows(machine_id, event_machine_id)
    )
    hourly_full = np.concatenate(hourly_parts) if hourly_parts else None
    if hourly_full is not None and windows:
        _fold_flash_into_hourly(hourly_full, windows)
    return merged, hourly_full, counters, synth_seconds, detect_seconds


def generate_scenario_columns(
    compiled: CompiledScenario,
    *,
    keep_hourly_load: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    execution: Optional[ExecutionConfig] = None,
):
    """Generate a scenario fleet as an event-column unit.

    Mirrors :func:`repro.traces.generate.generate_dataset_columns`:
    machines fan out over the configured backend (byte-identical for any
    ``jobs``), machines whose retries are exhausted are quarantined into
    ``metadata["quarantined_machines"]``, and complete results cache
    under the compiled scenario's fingerprint.  Trivial scenarios
    delegate to the stock generator and share its cache entries.
    """
    from ..traces.generate import generate_dataset_columns

    execution = execution if execution is not None else ExecutionConfig()
    if compiled.is_trivial:
        return generate_dataset_columns(
            compiled.config,
            keep_hourly_load=keep_hourly_load,
            progress=progress,
            execution=execution,
        )

    registry = get_registry()
    cache = None
    key = None
    if execution.cache_enabled:
        from ..parallel.cache import DatasetCache

        cache = DatasetCache(execution.cache_dir, fault_plan=execution.fault_plan)
        key = scenario_dataset_cache_key(
            compiled, keep_hourly_load=keep_hourly_load
        )
        with registry.span("generate.cache_lookup"):
            cached = cache.get_columns(key)
        if cached is not None:
            logger.info(
                "scenario dataset cache hit (%s…): %d events",
                key[:12],
                len(cached),
            )
            return cached

    columns = _generate_scenario_fleet(
        compiled,
        keep_hourly_load=keep_hourly_load,
        progress=progress,
        execution=execution,
    )
    quarantined = columns.metadata.get("quarantined_machines")
    if cache is not None and key is not None:
        if quarantined:
            logger.warning(
                "not caching partial scenario dataset (%d quarantined "
                "machine(s))",
                len(quarantined),
            )
        else:
            with registry.span("generate.cache_write"):
                cache.put_columns(key, columns)
    return columns


def _generate_scenario_fleet(
    compiled: CompiledScenario,
    *,
    keep_hourly_load: bool,
    progress: Optional[Callable[[int, int], None]],
    execution: ExecutionConfig,
):
    from ..faults import QUARANTINED
    from ..parallel.backend import get_backend
    from ..traces.generate import _fold_machine_telemetry
    from ..traces.records import EVENT_DTYPE, EventColumns

    registry = get_registry()
    n = compiled.n_machines
    n_hours = compiled.days * 24
    hourly = np.full((n, n_hours), np.nan) if keep_hourly_load else None

    logger.info(
        "generating scenario %r: %d machines × %d days, %d class(es), "
        "%d segment(s) (seed %d, jobs=%d)",
        compiled.spec.name,
        n,
        compiled.days,
        len(compiled.spec.classes),
        len(compiled.segments()),
        compiled.seed,
        execution.jobs,
    )
    backend = get_backend(execution)
    fault_context = execution.fault_context("scenario.machine", quarantine=True)
    count_draws = registry.enabled
    with registry.span("generate.machines"):
        per_machine = backend.map(
            _scenario_machine_columns,
            [
                (compiled, mid, mid, keep_hourly_load, count_draws)
                for mid in range(n)
            ],
            progress=progress,
            faults=fault_context,
        )

    with registry.span("generate.assemble"):
        row_blocks: list[np.ndarray] = []
        quarantined: list[int] = []
        for mid, result in enumerate(per_machine):
            if result is QUARANTINED:
                quarantined.append(mid)
                continue
            rows, hourly_row, counters, synth_seconds, detect_seconds = result
            _fold_machine_telemetry(
                registry, counters, synth_seconds, detect_seconds
            )
            row_blocks.append(rows)
            if hourly is not None and hourly_row is not None:
                hourly[mid, :] = hourly_row

        events = (
            np.concatenate(row_blocks)
            if row_blocks
            else np.empty(0, dtype=EVENT_DTYPE)
        )
        metadata = scenario_metadata(compiled)
        if quarantined:
            metadata["quarantined_machines"] = quarantined
        columns = EventColumns(
            events=events,
            n_machines=n,
            span=compiled.span,
            start_weekday=compiled.machine_config(
                0, compiled.segments()[0]
            ).testbed.start_weekday,
            metadata=metadata,
            hourly_load=hourly,
        )
    if quarantined:
        logger.error(
            "partial scenario trace: %d/%d machine(s) quarantined (ids %s)",
            len(quarantined),
            n,
            quarantined,
        )
    logger.info(
        "scenario %r: %d events over %d machine-days",
        compiled.spec.name,
        len(columns),
        n * compiled.days,
    )
    return columns


# -- sharded scenario generation -------------------------------------------


def _generate_scenario_shard(
    payload: tuple[
        CompiledScenario, ExecutionConfig, int, int, int, str, bool, str, bool
    ],
) -> tuple[int, str, Optional[str], Optional[dict]]:
    """Generate one scenario shard and write its file — the work unit.

    Mirrors :func:`repro.traces.shards._generate_shard`: runs wholly in
    the worker, writes shard-local machine ids directly, caches the
    shard columns under a per-range scenario key, and returns
    ``(n_events, sha256, cache_key, telemetry)``.  Draws are counted only
    when ``count_draws`` says the parent registry is enabled.
    """
    from ..traces.shards import (
        _atomic_save_columns,
        _shard_metadata,
        _shard_name,
        _sha256_file,
    )
    from ..traces.records import EVENT_DTYPE, EventColumns

    (
        compiled, execution, index, lo, hi, out_dir, keep_hourly_load, fmt,
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
        key = scenario_shard_cache_key(
            compiled, lo, hi, keep_hourly_load=keep_hourly_load
        )
        with registry.span("shard.cache_lookup"):
            columns = cache.get_columns(key)
    if columns is None:
        n_hours = compiled.days * 24
        row_blocks: list[np.ndarray] = []
        hourly = (
            np.full((hi - lo, n_hours), np.nan) if keep_hourly_load else None
        )
        telemetry = {
            "generate.synth_seconds": 0.0,
            "generate.detect_seconds": 0.0,
        }
        for mid in range(lo, hi):
            rows, hourly_row, counters, synth_seconds, detect_seconds = (
                _scenario_machine_columns(
                    (compiled, mid, mid - lo, keep_hourly_load, count_draws)
                )
            )
            row_blocks.append(rows)
            telemetry["generate.synth_seconds"] += synth_seconds
            telemetry["generate.detect_seconds"] += detect_seconds
            for name, n in (counters or {}).items():
                telemetry[name] = telemetry.get(name, 0) + n
            if hourly is not None and hourly_row is not None:
                hourly[mid - lo, :] = hourly_row
        columns = EventColumns(
            events=(
                np.concatenate(row_blocks)
                if row_blocks
                else np.empty(0, dtype=EVENT_DTYPE)
            ),
            n_machines=hi - lo,
            span=compiled.span,
            start_weekday=compiled.machine_config(
                lo, compiled.segments()[0]
            ).testbed.start_weekday,
            metadata=_shard_metadata(
                scenario_metadata(compiled), index, lo, hi, compiled.n_machines
            ),
            hourly_load=hourly,
        )
        if cache is not None and key is not None:
            with registry.span("shard.cache_write"):
                cache.put_columns(key, columns)
    path = Path(out_dir) / _shard_name(index, fmt)
    with registry.span("shard.encode"):
        _atomic_save_columns(columns, path, fmt)
    return len(columns), _sha256_file(path), key, telemetry


def generate_scenario_shards(
    compiled: CompiledScenario,
    out_dir: Union[str, Path],
    n_shards: int,
    *,
    keep_hourly_load: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    execution: Optional[ExecutionConfig] = None,
    format: str = "jsonl",
):
    """Generate a scenario fleet directly into a shard directory.

    Trivial scenarios delegate to
    :func:`repro.traces.shards.generate_shards` (byte-identical stores,
    shared cache entries); otherwise each shard is one hardened work
    unit (unit keys ``scenario.shard:<index>``), quarantined ranges
    degrade to event-free placeholder shards, and the manifest's
    ``config_fingerprint`` records the compiled scenario's fingerprint.
    """
    from ..faults import QUARANTINED
    from ..parallel.backend import get_backend
    from ..traces.shards import (
        ShardInfo,
        ShardManifest,
        _atomic_save,
        _check_format,
        _placeholder_shard,
        _shard_name,
        _sha256_file,
        generate_shards,
        partition_machines,
    )

    execution = execution if execution is not None else ExecutionConfig()
    if compiled.is_trivial:
        return generate_shards(
            compiled.config,
            out_dir,
            n_shards,
            keep_hourly_load=keep_hourly_load,
            progress=progress,
            execution=execution,
            format=format,
        )

    _check_format(format)
    registry = get_registry()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ranges = partition_machines(compiled.n_machines, n_shards)
    if len(ranges) != n_shards:
        logger.warning(
            "clamping n_shards from %d to %d (one machine per shard minimum)",
            n_shards,
            len(ranges),
        )
    backend = get_backend(execution)
    faults = execution.fault_context("scenario.shard", quarantine=True)
    payloads = [
        (compiled, execution, index, lo, hi, str(out_dir), keep_hourly_load,
         format, registry.enabled)
        for index, (lo, hi) in enumerate(ranges)
    ]
    with registry.span("generate.shards"):
        results = backend.map(
            _generate_scenario_shard, payloads, progress=progress, faults=faults
        )

    # A placeholder needs a plain FgcsConfig frame; any machine's
    # segment-0 config carries the right span/weekday/metadata, with the
    # fleet-wide testbed frame restored.
    import dataclasses as _dc

    frame_config = compiled.machine_config(0, compiled.segments()[0])
    frame_config = _dc.replace(
        frame_config,
        testbed=_dc.replace(
            frame_config.testbed,
            n_machines=compiled.n_machines,
            duration=compiled.span,
        ),
    )
    infos: list[ShardInfo] = []
    quarantined: list[int] = []
    for index, ((lo, hi), result) in enumerate(zip(ranges, results)):
        if result is QUARANTINED:
            quarantined.extend(range(lo, hi))
            placeholder = _placeholder_shard(
                frame_config, index, lo, hi, keep_hourly_load
            )
            path = out_dir / _shard_name(index, format)
            _atomic_save(placeholder, path, format)
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

    metadata = scenario_metadata(compiled)
    if quarantined:
        metadata["quarantined_machines"] = quarantined
        logger.error(
            "partial scenario fleet: %d machine(s) quarantined (ids %s)",
            len(quarantined),
            quarantined,
        )
    manifest = ShardManifest(
        n_machines=compiled.n_machines,
        span=compiled.span,
        start_weekday=frame_config.testbed.start_weekday,
        shards=tuple(infos),
        metadata=metadata,
        config_fingerprint=compiled.fingerprint,
        dataset_cache_key=scenario_dataset_cache_key(
            compiled, keep_hourly_load=keep_hourly_load
        ),
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
    return manifest
