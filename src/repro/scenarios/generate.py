"""Generate trace datasets from compiled scenarios.

A compiled scenario generates through the stock fleet, shard and cache
code (:func:`repro.traces.generate.generate_dataset_columns`,
:func:`repro.traces.shards.generate_shards`); this module supplies only
what differs, as one :class:`~repro.traces.generate.Fleet` value
(:func:`scenario_fleet`):

* **Trivial scenarios** (one class, no regimes/outages/flash crowds)
  are the stock fleet of their one config, so their output is
  byte-identical to hand-building the same config, and they share the
  stock dataset-cache entries.

* **Everything else** runs the scenario machine unit: per machine,
  generate each regime segment under its own virtual testbed (event
  times shifted by the segment offset, per-segment seeds; segment 0
  keeps the base seed), then merge the machine's deterministic overlay
  windows (correlated outages → S5, flash crowds → S3) into the event
  stream — base events are clipped around the injected windows, so the
  merged per-machine timeline keeps the detector's invariants.  Machines
  stay independent work units drawing only from per-machine streams, so
  ``jobs=N`` output is byte-identical to ``jobs=1``.

Scenario datasets cache under keys derived from the compiled scenario's
fingerprint (``scenario-dataset`` / ``scenario-shard`` extras), exactly
parallel to the config-keyed stock entries.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from ..config import ExecutionConfig
from ..units import HOUR
from .compile import CompiledScenario

__all__ = [
    "generate_scenario_columns",
    "generate_scenario_shards",
    "merge_overlay_rows",
    "scenario_fleet",
    "scenario_metadata",
]


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


def scenario_fleet(compiled: CompiledScenario):
    """The :class:`~repro.traces.generate.Fleet` a compiled scenario runs.

    A trivial scenario is the stock fleet of its one config, so it shares
    the stock cache keys and output bytes.  Any other runs
    :func:`_scenario_machine_columns` per machine, in the frame of
    segment 0's config, under ``scenario-*`` cache keys and
    ``scenario.*`` fault unit keys.
    """
    from ..traces.generate import Fleet

    if compiled.is_trivial:
        return Fleet.of_config(compiled.config)
    frame = compiled.machine_config(0, compiled.segments()[0])
    return Fleet(
        unit=_scenario_machine_columns,
        source=compiled,
        n_machines=compiled.n_machines,
        span=compiled.span,
        start_weekday=frame.testbed.start_weekday,
        metadata=scenario_metadata(compiled),
        tag="scenario",
        site="scenario",
    )


def generate_scenario_columns(
    compiled: CompiledScenario,
    *,
    keep_hourly_load: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    execution: Optional[ExecutionConfig] = None,
):
    """Generate a scenario fleet as an event-column unit.

    :func:`repro.traces.generate.generate_dataset_columns` run on
    :func:`scenario_fleet`: machines fan out over the configured backend
    (byte-identical for any ``jobs``), machines whose retries are
    exhausted are quarantined into ``metadata["quarantined_machines"]``,
    and complete results cache under the compiled scenario's fingerprint.
    """
    from ..traces.generate import generate_dataset_columns

    return generate_dataset_columns(
        scenario_fleet(compiled),
        keep_hourly_load=keep_hourly_load,
        progress=progress,
        execution=execution,
    )


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

    :func:`repro.traces.shards.generate_shards` run on
    :func:`scenario_fleet`: each shard is one hardened work unit (unit
    keys ``scenario.shard:<index>`` unless the scenario is trivial),
    quarantined ranges degrade to event-free placeholder shards, and the
    manifest's ``config_fingerprint`` records the compiled scenario's
    fingerprint.
    """
    from ..traces.shards import generate_shards

    return generate_shards(
        scenario_fleet(compiled),
        out_dir,
        n_shards,
        keep_hourly_load=keep_hourly_load,
        progress=progress,
        execution=execution,
        format=format,
    )
