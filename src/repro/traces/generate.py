"""End-to-end trace generation: the simulated three-month study.

For each machine: plan workload episodes, synthesize monitor samples, run
the unavailability detector, keep the events plus an hourly load summary,
and discard the raw samples.  Memory use stays at one machine's samples
regardless of testbed size — each worker builds only its own machine's
samples and returns events plus one hourly-load row.  A worker starts
from ~35 MiB of imports: the load model filters through scipy's
compiled kernel alone (:mod:`repro.workloads.iir`), not the ~78 MiB
``scipy.signal`` package.  For a 92-day machine at the 10 s monitor
period the shared per-config
:class:`~repro.workloads.loadmodel.SynthContext` raises a worker's
peak resident set by ~31 MiB and each machine by ~29 MiB more
(``tests/test_generate_memory.py`` bounds the growth and the peak).

Machines are independent units of work drawing from per-machine random
streams (``RngFactory(seed).generator(kind, machine_id)``), so generation
fans out over a process pool without changing a single byte of output:
``jobs=N`` produces exactly the ``jobs=1`` dataset.

Since the columnar refactor the hot path is object-free end to end: the
worker (:func:`_generate_machine_columns`) synthesizes samples through the
shared :class:`~repro.workloads.loadmodel.SynthContext`, detects events
straight into an ``EVENT_DTYPE`` row array
(:meth:`~repro.core.detector.BatchDetector.detect_columns`), and the fleet
is assembled by concatenating those arrays.
:func:`generate_dataset_columns` returns the assembled
:class:`~repro.traces.records.EventColumns` unit as-is (what the CLI and
the sharded writer consume); :func:`generate_dataset` materializes the
same columns into a classic :class:`TraceDataset`.  Both produce
byte-identical serialized output to the legacy per-event path, which
survives as :func:`_generate_machine` for differential tests and the
throughput benchmark.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Optional

import numpy as np

from ..config import ExecutionConfig, FgcsConfig
from ..core.detector import BatchDetector
from ..core.events import UnavailabilityEvent
from ..core.model import MultiStateModel
from ..faults import QUARANTINED
from ..obs.metrics import get_registry
from ..rng import CountingRng, RngFactory
from ..units import HOUR
from ..workloads.labuser import EpisodePlanner
from ..workloads.loadmodel import (
    MachineTraceGenerator,
    hourly_mean_load_columns,
    synth_context,
    synthesize_samples_columns,
)
from .dataset import TraceDataset
from .records import EVENT_DTYPE, EventColumns, columns_to_events

__all__ = ["dataset_metadata", "generate_dataset", "generate_dataset_columns"]

logger = logging.getLogger(__name__)


def dataset_metadata(config: FgcsConfig) -> dict:
    """The provenance metadata every generated dataset carries.

    Shared by monolithic generation and the sharded writer
    (:mod:`repro.traces.shards`) so a reassembled fleet compares equal —
    key order included, since JSONL headers are written without key
    sorting.
    """
    return {
        "seed": config.seed,
        "th1": config.thresholds.th1,
        "th2": config.thresholds.th2,
        "monitor_period": config.monitor.period,
    }


def _generate_machine(
    payload: tuple[FgcsConfig, int, bool],
) -> tuple[list[UnavailabilityEvent], Optional[np.ndarray]]:
    """One machine's (events, hourly-load row) — the legacy work unit.

    Kept as the per-event-object reference implementation: the columnar
    differential tests and ``bench_generate_throughput`` compare
    :func:`_generate_machine_columns` against it.  Deterministic per
    ``(config.seed, machine_id)``.
    """
    config, machine_id, keep_hourly_load = payload
    gen = MachineTraceGenerator(config)
    detector = BatchDetector(MultiStateModel(thresholds=config.thresholds))
    trace = gen.generate(machine_id)
    events = detector.detect(
        trace.samples, machine_id=machine_id, end_time=trace.span
    )
    hourly_row = None
    if keep_hourly_load:
        n_hours = int(config.testbed.duration // HOUR)
        hourly_row = gen.hourly_mean_load(trace)[:n_hours]
    return events, hourly_row


def _generate_machine_columns(
    payload: tuple[FgcsConfig, int, int, bool, bool],
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[dict], float, float]:
    """One machine's event rows — the columnar parallel work unit.

    Returns ``(event_rows, hourly_row, draw_counters, synth_seconds,
    detect_seconds)``.  ``event_rows`` is an ``EVENT_DTYPE`` array whose
    ``machine_id`` column is already ``event_machine_id`` (shard workers
    pass the shard-local id, so no relocation pass is needed), and the
    timings are measured here so the caller can fold them into whichever
    registry is ambient in the parent process — a pool worker's own
    registry is a disabled no-op.

    Draws from exactly the same ``RngFactory(seed).generator(kind,
    machine_id)`` streams in the same order as the legacy path, so output
    is bit-identical.
    """
    config, machine_id, event_machine_id, keep_hourly_load, count_draws = payload
    registry = get_registry()
    t0 = time.perf_counter()
    with registry.span("machine.synth"):
        ctx = synth_context(config)
        factory = RngFactory(config.seed)
        busyness = float(
            factory.generator("busyness", machine_id).uniform(0.86, 1.04)
        )
        plan_rng = factory.generator("plan", machine_id)
        counters: Optional[dict] = None
        if count_draws:
            counters = {"rng.draws.busyness": 1}
            plan_rng = CountingRng(plan_rng)
        episodes = EpisodePlanner(ctx.profile, plan_rng, busyness=busyness).plan()
        if counters is not None:
            counters["rng.draws.plan"] = plan_rng.draws
        samples = synthesize_samples_columns(
            episodes,
            config=config,
            ctx=ctx,
            rng=factory.generator("signal", machine_id),
            counters=counters,
        )
        synth_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    with registry.span("machine.detect"):
        detector = BatchDetector(MultiStateModel(thresholds=config.thresholds))
        rows = detector.detect_columns(
            samples, machine_id=event_machine_id, end_time=ctx.span
        )
        hourly_row = (
            hourly_mean_load_columns(samples, ctx) if keep_hourly_load else None
        )
        detect_seconds = time.perf_counter() - t1
    return rows, hourly_row, counters, synth_seconds, detect_seconds


def _fold_machine_telemetry(
    registry, counters: Optional[dict], synth_seconds: float, detect_seconds: float
) -> None:
    """Report one worker's timings/draw counts on the parent registry."""
    if not registry.enabled:
        return
    registry.observe("generate.synth_seconds", synth_seconds)
    registry.observe("generate.detect_seconds", detect_seconds)
    if counters:
        for name, n in counters.items():
            registry.inc(name, n)


def _generate_fleet_columns(
    config: FgcsConfig,
    *,
    keep_hourly_load: bool,
    progress: Optional[Callable[[int, int], None]],
    execution: ExecutionConfig,
) -> EventColumns:
    """Fan machines out over the backend and assemble the column unit.

    No cache interaction here — both public entry points wrap this with
    their own cache lookup/write.  Quarantined machines contribute no
    event rows and leave their hourly row NaN; their ids land in
    ``metadata["quarantined_machines"]``.
    """
    from ..parallel.backend import get_backend

    registry = get_registry()
    n = config.testbed.n_machines
    n_hours = int(config.testbed.duration // HOUR)
    hourly = np.full((n, n_hours), np.nan) if keep_hourly_load else None

    logger.info(
        "generating trace: %d machines × %d days (seed %d, jobs=%d)",
        n,
        config.testbed.n_days,
        config.seed,
        execution.jobs,
    )
    backend = get_backend(execution)
    fault_context = execution.fault_context("generate.machine", quarantine=True)
    count_draws = registry.enabled
    with registry.span("generate.machines"):
        per_machine = backend.map(
            _generate_machine_columns,
            [(config, mid, mid, keep_hourly_load, count_draws) for mid in range(n)],
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
        metadata = dataset_metadata(config)
        if quarantined:
            # Only present on degraded runs, so fault-free output bytes
            # are untouched.
            metadata["quarantined_machines"] = quarantined
        columns = EventColumns(
            events=events,
            n_machines=n,
            span=config.testbed.duration,
            start_weekday=config.testbed.start_weekday,
            metadata=metadata,
            hourly_load=hourly,
        )
    if quarantined:
        logger.error(
            "partial trace: %d/%d machine(s) quarantined after retries "
            "(ids %s); their events are missing from the dataset",
            len(quarantined),
            n,
            quarantined,
        )
    logger.info(
        "generated %d events over %.0f machine-days",
        len(columns),
        n * config.testbed.duration / (24 * HOUR),
    )
    return columns


def generate_dataset_columns(
    config: Optional[FgcsConfig] = None,
    *,
    keep_hourly_load: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    execution: Optional[ExecutionConfig] = None,
) -> EventColumns:
    """Generate the full testbed trace as an object-free column unit.

    Same semantics, caching, and quarantine behavior as
    :func:`generate_dataset`, but the result is the
    :class:`~repro.traces.records.EventColumns` table (hourly-load matrix
    attached) that :func:`repro.traces.io.save_columns` writes directly —
    no :class:`~repro.core.events.UnavailabilityEvent` objects exist
    anywhere on this path.  Cache entries are shared with the dataset
    path: same keys, same on-disk bytes.
    """
    config = config or FgcsConfig()
    execution = execution if execution is not None else config.execution
    registry = get_registry()

    cache = None
    key = None
    if execution.cache_enabled:
        from ..parallel.cache import DatasetCache, dataset_cache_key

        cache = DatasetCache(execution.cache_dir, fault_plan=execution.fault_plan)
        key = dataset_cache_key(config, keep_hourly_load=keep_hourly_load)
        with registry.span("generate.cache_lookup"):
            cached = cache.get_columns(key)
        if cached is not None:
            logger.info(
                "dataset cache hit (%s…): %d events", key[:12], len(cached)
            )
            return cached

    columns = _generate_fleet_columns(
        config,
        keep_hourly_load=keep_hourly_load,
        progress=progress,
        execution=execution,
    )
    quarantined = columns.metadata.get("quarantined_machines")
    if cache is not None and key is not None:
        if quarantined:
            logger.warning(
                "not caching partial dataset (%d quarantined machine(s))",
                len(quarantined),
            )
        else:
            with registry.span("generate.cache_write"):
                cache.put_columns(key, columns)
    return columns


def generate_dataset(
    config: Optional[FgcsConfig] = None,
    *,
    keep_hourly_load: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    execution: Optional[ExecutionConfig] = None,
) -> TraceDataset:
    """Generate the full testbed trace dataset.

    Parameters
    ----------
    config:
        Testbed/workload/threshold configuration (paper defaults).
    keep_hourly_load:
        Also record each machine's mean host load per wall-clock hour.
    progress:
        Optional callback ``progress(machine_index, n_machines)``, fired
        exactly once per machine, always in the calling process.  With a
        serial backend (``jobs=1``) it fires in submission order, *before*
        each machine is generated; with a process-pool backend it fires in
        completion order, *after* each machine's result arrives.  Every
        machine index in ``0 .. n_machines - 1`` is reported exactly once
        either way.
    execution:
        Worker-pool, cache, and fault-handling settings; defaults to
        ``config.execution``.  The result is bit-for-bit identical for
        every ``jobs`` value, and a cache hit returns a dataset equal to
        a freshly generated one.  Failed machines are retried per the
        execution config; a machine whose retries are exhausted is
        *quarantined* — its events are omitted, its hourly-load row stays
        NaN, the machine ids land in ``metadata["quarantined_machines"]``,
        and the (partial) dataset is not written to the cache.

    Returns
    -------
    TraceDataset
        Events detected from the generated monitor streams — the same
        pipeline the paper ran on live machines.
    """
    config = config or FgcsConfig()
    execution = execution if execution is not None else config.execution
    registry = get_registry()

    cache = None
    key = None
    if execution.cache_enabled:
        from ..parallel.cache import DatasetCache, dataset_cache_key

        cache = DatasetCache(execution.cache_dir, fault_plan=execution.fault_plan)
        key = dataset_cache_key(config, keep_hourly_load=keep_hourly_load)
        with registry.span("generate.cache_lookup"):
            cached = cache.get(key)
        if cached is not None:
            logger.info(
                "dataset cache hit (%s…): %d events", key[:12], len(cached)
            )
            return cached

    columns = _generate_fleet_columns(
        config,
        keep_hourly_load=keep_hourly_load,
        progress=progress,
        execution=execution,
    )
    # Rows come out (machine_id, start)-sorted and detect_columns enforced
    # event invariants, so the trusted constructors apply.
    dataset = TraceDataset.from_validated(
        columns_to_events(columns.events),
        n_machines=columns.n_machines,
        span=columns.span,
        start_weekday=columns.start_weekday,
        hourly_load=columns.hourly_load,
        metadata=columns.metadata,
    )
    quarantined = columns.metadata.get("quarantined_machines")
    if cache is not None and key is not None:
        if quarantined:
            logger.warning(
                "not caching partial dataset (%d quarantined machine(s))",
                len(quarantined),
            )
        else:
            with registry.span("generate.cache_write"):
                cache.put(key, dataset)
    return dataset
