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
the sharded writer consume) and is the one place the monolithic dataset
cache is read and written; :func:`generate_dataset` converts its result
into a classic :class:`TraceDataset`.  Both produce byte-identical
serialized output to the legacy per-event path, which survives as
:func:`_generate_machine` for differential tests and the throughput
benchmark.

The fleet, shard and cache code runs a :class:`Fleet`: the per-machine
unit plus the frame, metadata and keys around it.  A stock config is one
such value; a composed scenario
(:func:`repro.scenarios.generate.scenario_fleet`) is another, so
scenarios generate through exactly this code.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..config import ExecutionConfig, FgcsConfig
from ..core.detector import BatchDetector
from ..core.events import UnavailabilityEvent
from ..core.model import MultiStateModel
from ..faults import QUARANTINED
from ..obs.metrics import get_registry
from ..rng import CountingRng, RngFactory
from ..units import DAY, HOUR
from ..workloads.labuser import EpisodePlanner
from ..workloads.loadmodel import (
    MachineTraceGenerator,
    hourly_mean_load_columns,
    synth_context,
    synthesize_samples_columns,
)
from .dataset import TraceDataset
from .records import EVENT_DTYPE, EventColumns, columns_to_events

__all__ = [
    "Fleet",
    "dataset_metadata",
    "generate_dataset",
    "generate_dataset_columns",
]

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


@dataclass(frozen=True)
class Fleet:
    """What one fleet generation runs: a per-machine unit and its frame.

    The fleet, shard and cache code (:func:`generate_dataset_columns`,
    :func:`repro.traces.shards.generate_shards`) runs any such value.  A
    stock :class:`~repro.config.FgcsConfig` becomes one through
    :meth:`of_config`; a composed scenario builds its own
    (:func:`repro.scenarios.generate.scenario_fleet`).  Picklable: shard
    units receive it whole.
    """

    #: The per-machine work unit, a module-level function called as
    #: ``unit((source, machine_id, event_machine_id, keep_hourly_load,
    #: count_draws))`` with :func:`_generate_machine_columns`' return shape.
    unit: Callable
    #: What ``unit`` generates from.  Cache keys and the shard manifest's
    #: ``config_fingerprint`` derive from its fingerprint.
    source: object
    n_machines: int
    span: float
    start_weekday: int
    #: Provenance every generated dataset and shard of the fleet carries.
    metadata: dict
    #: Cache entries are keyed ``<tag>-dataset`` and ``<tag>-shard``.
    tag: str = "trace"
    #: Fault unit keys are ``<site>.machine:<i>`` and ``<site>.shard:<i>``.
    site: str = "generate"

    @classmethod
    def of_config(cls, config: FgcsConfig) -> "Fleet":
        """The stock fleet: every machine generated under ``config``."""
        return cls(
            unit=_generate_machine_columns,
            source=config,
            n_machines=config.testbed.n_machines,
            span=config.testbed.duration,
            start_weekday=config.testbed.start_weekday,
            metadata=dataset_metadata(config),
        )

    @property
    def n_hours(self) -> int:
        return int(self.span // HOUR)

    @property
    def fingerprint(self) -> str:
        from ..parallel.cache import config_fingerprint

        return config_fingerprint(self.source)

    def cache_key(self, artifact: str, *extra) -> str:
        """Dataset-cache key of one ``artifact`` (``dataset`` or ``shard``)."""
        from ..parallel.cache import config_fingerprint

        return config_fingerprint(
            self.source, extra=(f"{self.tag}-{artifact}", *extra)
        )

    def assemble(
        self,
        per_machine: list,
        *,
        keep_hourly_load: bool,
        metadata: dict,
    ) -> EventColumns:
        """Assemble ``(event_rows, hourly_row)`` per machine into one unit.

        A ``None`` entry is a machine without results: it contributes no
        rows and its hourly row stays NaN.
        """
        n = len(per_machine)
        hourly = np.full((n, self.n_hours), np.nan) if keep_hourly_load else None
        blocks: list[np.ndarray] = []
        for i, result in enumerate(per_machine):
            if result is None:
                continue
            rows, hourly_row = result
            blocks.append(rows)
            if hourly is not None and hourly_row is not None:
                hourly[i, :] = hourly_row
        return EventColumns(
            events=(
                np.concatenate(blocks) if blocks else np.empty(0, dtype=EVENT_DTYPE)
            ),
            n_machines=n,
            span=self.span,
            start_weekday=self.start_weekday,
            metadata=metadata,
            hourly_load=hourly,
        )


def _fleet_and_execution(
    config: Union[FgcsConfig, Fleet, None], execution: Optional[ExecutionConfig]
) -> tuple[Fleet, ExecutionConfig]:
    """The fleet a generation entry point runs, and how to execute it.

    Execution defaults to a config's own settings; a :class:`Fleet`
    carries none, so it runs with the defaults.
    """
    if isinstance(config, Fleet):
        return config, execution if execution is not None else ExecutionConfig()
    config = config or FgcsConfig()
    return (
        Fleet.of_config(config),
        execution if execution is not None else config.execution,
    )


def _generate_fleet_columns(
    fleet: Fleet,
    *,
    keep_hourly_load: bool,
    progress: Optional[Callable[[int, int], None]],
    execution: ExecutionConfig,
) -> EventColumns:
    """Fan machines out over the backend and assemble the column unit.

    No cache interaction here — :func:`generate_dataset_columns` wraps
    this with the cache lookup/write.  Quarantined machines contribute no
    event rows and leave their hourly row NaN; their ids land in
    ``metadata["quarantined_machines"]``.
    """
    from ..parallel.backend import get_backend

    registry = get_registry()
    n = fleet.n_machines
    logger.info(
        "generating trace: %d machines × %d days (seed %d, jobs=%d)",
        n,
        fleet.span // DAY,
        fleet.metadata["seed"],
        execution.jobs,
    )
    backend = get_backend(execution)
    fault_context = execution.fault_context(
        f"{fleet.site}.machine", quarantine=True
    )
    count_draws = registry.enabled
    with registry.span("generate.machines"):
        results = backend.map(
            fleet.unit,
            [
                (fleet.source, mid, mid, keep_hourly_load, count_draws)
                for mid in range(n)
            ],
            progress=progress,
            faults=fault_context,
        )

    with registry.span("generate.assemble"):
        per_machine: list = []
        quarantined: list[int] = []
        for mid, result in enumerate(results):
            if result is QUARANTINED:
                quarantined.append(mid)
                per_machine.append(None)
                continue
            rows, hourly_row, counters, synth_seconds, detect_seconds = result
            _fold_machine_telemetry(
                registry, counters, synth_seconds, detect_seconds
            )
            per_machine.append((rows, hourly_row))
        metadata = dict(fleet.metadata)
        if quarantined:
            # Only present on degraded runs, so fault-free output bytes
            # are untouched.
            metadata["quarantined_machines"] = quarantined
        columns = fleet.assemble(
            per_machine, keep_hourly_load=keep_hourly_load, metadata=metadata
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
        n * fleet.span / DAY,
    )
    return columns


def generate_dataset_columns(
    config: Union[FgcsConfig, Fleet, None] = None,
    *,
    keep_hourly_load: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    execution: Optional[ExecutionConfig] = None,
) -> EventColumns:
    """Generate the full testbed trace as an object-free column unit.

    ``config`` is a stock config or any :class:`Fleet`.  The result is
    the :class:`~repro.traces.records.EventColumns` table (hourly-load
    matrix attached) that :func:`repro.traces.io.save_columns` writes
    directly — no :class:`~repro.core.events.UnavailabilityEvent`
    objects exist anywhere on this path.  See :func:`generate_dataset`
    for the parameters, caching and quarantine behavior.
    """
    fleet, execution = _fleet_and_execution(config, execution)
    registry = get_registry()

    cache = None
    key = None
    if execution.cache_enabled:
        from ..parallel.cache import DatasetCache

        cache = DatasetCache(execution.cache_dir, fault_plan=execution.fault_plan)
        key = fleet.cache_key("dataset", keep_hourly_load)
        with registry.span("generate.cache_lookup"):
            cached = cache.get_columns(key)
        if cached is not None:
            logger.info(
                "dataset cache hit (%s…): %d events", key[:12], len(cached)
            )
            return cached

    columns = _generate_fleet_columns(
        fleet,
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
    config: Union[FgcsConfig, Fleet, None] = None,
    *,
    keep_hourly_load: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    execution: Optional[ExecutionConfig] = None,
) -> TraceDataset:
    """Generate the full testbed trace dataset.

    Parameters
    ----------
    config:
        Testbed/workload/threshold configuration (paper defaults), or
        any :class:`Fleet`.
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
    columns = generate_dataset_columns(
        config,
        keep_hourly_load=keep_hourly_load,
        progress=progress,
        execution=execution,
    )
    # Rows come out (machine_id, start)-sorted, and both detect_columns
    # and the cache reader enforce the event invariants, so the trusted
    # constructor applies.
    return TraceDataset.from_validated(
        columns_to_events(columns.events),
        n_machines=columns.n_machines,
        span=columns.span,
        start_weekday=columns.start_weekday,
        hourly_load=columns.hourly_load,
        metadata=columns.metadata,
    )
