"""Drivers that run the mergeable accumulators over traces.

Every trace folds one way: its :class:`~repro.traces.records.EventColumns`
go through
:meth:`~repro.analysis.accumulators.FleetAccumulator.update_columns`,
with no per-event objects.  Two entry points:

* :func:`analyze_shards` — stream an on-disk
  :class:`~repro.traces.shards.ShardedTraceDataset` one shard at a time
  (:meth:`~repro.traces.shards.ShardedTraceDataset.shard_columns`:
  memory-mapped for binary shards, parsed for JSONL ones).  With
  ``jobs=1`` this is a serial fold holding a single shard in memory
  (the constant-memory path the fleet-scaling bench asserts); with
  ``jobs>1`` each worker accumulates one shard and the parent merges the
  partial accumulators in shard order.
* :func:`analyze_columns` — one fold of one column unit: a flat trace
  file (:func:`repro.traces.io.load_columns`) or a freshly generated
  trace (:func:`repro.traces.generate.generate_dataset_columns`).

Both return a :class:`~repro.analysis.accumulators.FleetAnalysis` equal
to the per-event reference for any partition and merge order; see
:mod:`repro.analysis.accumulators` for the exactness contract.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional, Union

from ..config import ExecutionConfig
from ..obs.metrics import get_registry
from ..traces.records import EventColumns
from ..traces.shards import ShardedTraceDataset, open_shards

from .accumulators import FleetAccumulator, FleetAnalysis

__all__ = ["analyze_columns", "analyze_shards"]

logger = logging.getLogger(__name__)

ProgressFn = Callable[[int, int], None]


def analyze_columns(columns: EventColumns) -> FleetAnalysis:
    """Fold one column unit — a whole trace — through the accumulators."""
    acc = FleetAccumulator.for_fleet(columns)
    acc.update_columns(columns)
    return acc.finalize()


def _fold_shard(
    acc: FleetAccumulator, sharded: ShardedTraceDataset, index: int
) -> None:
    """Fold shard ``index`` of a store into ``acc``, either format."""
    info = sharded.manifest.shards[index]
    acc.update_columns(sharded.shard_columns(index), info.machine_lo)


def _accumulate_shard(payload: tuple[str, int, bool]) -> FleetAccumulator:
    """One shard folded into a fresh fleet accumulator — the work unit."""
    root, index, verify = payload
    sharded = open_shards(root, verify=verify)
    acc = FleetAccumulator.for_fleet(sharded)
    _fold_shard(acc, sharded, index)
    return acc


def analyze_shards(
    sharded: Union[ShardedTraceDataset, str],
    *,
    execution: Optional[ExecutionConfig] = None,
    progress: Optional[ProgressFn] = None,
) -> FleetAnalysis:
    """Stream a sharded fleet through the Section 5 accumulators.

    ``jobs=1`` (default): a serial fold — one shard resident at a time,
    per-shard spans (``analyze.shard[k]``) and an ``analyze.shard_seconds``
    histogram on the ambient registry.  ``jobs>1``: workers accumulate
    shards independently and the parent merges in shard order; results
    are identical either way.
    """
    if not isinstance(sharded, ShardedTraceDataset):
        sharded = open_shards(sharded)
    execution = execution or ExecutionConfig()
    registry = get_registry()
    n = sharded.n_shards

    from ..parallel.backend import get_backend, resolve_jobs

    jobs = resolve_jobs(execution.jobs)
    with registry.span("analyze.stream") as stream_span:
        if stream_span is not None:
            stream_span["shards"] = n
        if jobs == 1 or n <= 1:
            acc = FleetAccumulator.for_fleet(sharded)
            for i in range(n):
                if progress is not None:
                    progress(i, n)
                info = sharded.manifest.shards[i]
                with registry.timer("analyze.shard_seconds"):
                    with registry.span(f"analyze.shard[{i}]") as rec:
                        _fold_shard(acc, sharded, i)
                        if rec is not None:
                            rec["n_events"] = info.n_events
        else:
            backend = get_backend(execution)
            root = str(sharded.root)
            partials = backend.map(
                _accumulate_shard,
                [(root, i, sharded.verify) for i in range(n)],
                progress=progress,
            )
            acc = partials[0]
            for part in partials[1:]:
                acc.merge(part)
    registry.record(
        "shards",
        phase="analyze",
        count=n,
        machines=sharded.n_machines,
        events=sharded.n_events,
    )
    logger.info(
        "streamed %d shard(s) (%d machines, %d events) with jobs=%d",
        n,
        sharded.n_machines,
        sharded.n_events,
        jobs,
    )
    return acc.finalize()
