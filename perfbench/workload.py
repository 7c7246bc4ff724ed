"""Shared run context, result record and metric units."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WORKLOADS = ("batch", "serve-read", "serve-ingest")

#: What the generic end-to-end names measure on each workload.
OPERATIONS = {
    "batch": ("one generate_shards -> analyze_shards pass", "its analyze_shards part"),
    "serve-read": ("fixed-rate point read", "fixed-rate capacity/rank"),
    "serve-ingest": ("fixed-rate skewed point read", "fixed-rate ingest acknowledgement"),
}

#: Unit of every metric the benchmark can report (BENCHMARK.json repeats these).
UNITS = {
    # end to end
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "main_p50_ms": "ms",
    # per layer: the side operation, the tails and the closed loop, then
    # the program's layers
    "side_p50_ms": "ms",
    "main_p99_ms": "ms",
    "side_p99_ms": "ms",
    "read_qps": "req/s",
    "cli.import_s": "s",
    "workloads.synth_s": "s",
    "workloads.machines": "count",
    "core.detect_s": "s",
    "traces.encode_s": "s",
    "traces.decode_s": "s",
    "traces.events": "count",
    "traces.bytes_written": "bytes",
    "analysis.fold_s": "s",
    "analysis.finalize_s": "s",
    "batch.unaccounted_s": "s",
    "serve.server.point_app_p50_ms": "ms",
    "serve.server.point_app_p99_ms": "ms",
    "serve.server.shell_p50_ms": "ms",
    "serve.server.cpu_ms_per_read": "ms",
    "serve.state.build_s": "s",
    "serve.state.point_p50_ms": "ms",
    "serve.state.point_p99_ms": "ms",
    "serve.state.fleet_p50_ms": "ms",
    "serve.state.fleet_p99_ms": "ms",
    "serve.state.lock_wait_p99_ms": "ms",
    "serve.state.overlay_cells": "count",
    "serve.paging.hit_ratio": "ratio",
    "serve.paging.rebuilds": "count",
    "serve.paging.evictions": "count",
    "serve.paging.rebuild_p50_ms": "ms",
    "serve.paging.rebuild_p99_ms": "ms",
    "serve.paging.resident_mb": "MiB",
    "serve.router.spawn_s": "s",
    "serve.router.forward_p50_ms": "ms",
    "serve.router.forward_p99_ms": "ms",
    "serve.router.self_p50_ms": "ms",
    "serve.router.ingest_p50_ms": "ms",
    "serve.router.ingest_p99_ms": "ms",
    "serve.router.ingest_forwards": "calls/batch",
    "serve.ingest.submit_p50_ms": "ms",
    "serve.ingest.submit_p99_ms": "ms",
    "serve.ingest.apply_p50_ms": "ms",
    "serve.ingest.apply_p99_ms": "ms",
    "serve.ingest.snapshot_p50_ms": "ms",
    "serve.ingest.snapshot_max_ms": "ms",
    "serve.ingest.queue_depth_max": "events",
    "serve.ingest.backpressure_429": "count",
    "serve.ingest.drain_ms": "ms",
    "loadgen.late_share": "ratio",
    "loadgen.late_p99_ms": "ms",
    "loadgen.cpu_ms_per_req": "ms",
    "host.steal_share": "ratio",
    "host.calib_ms": "ms",
    "host.attempts": "count",
}

#: End-to-end metrics, reported by every workload (with ``--trace 0``).
#: ``main`` and ``side`` are each workload's two operations (OPERATIONS).
#: The side operation's p50, the p99 latencies and the closed-loop
#: ``read_qps`` are measured on every run but declared per-layer (no
#: bound): on a shared 2-vCPU host their run-to-run spread reaches the
#: largest bound a metric may have.
END_TO_END = ("setup_s", "peak_rss_mb", "main_p50_ms")

#: Per-layer metrics, reported by every workload (with ``--trace 1``); a
#: layer the workload does not run reads 0.
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)

#: Generator health: a run whose requests were sent late this often is invalid.
MAX_LATE_SHARE = 0.05

#: Set-up launches per run; setup_s is their median.
SETUP_LAUNCHES = 3


@dataclass
class Ctx:
    """Everything one run needs: where, which seed, how long, traced or not."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    cache: Path
    lines: list = field(default_factory=list)

    def say(self, text: str = "") -> None:
        self.lines.append(text)


@dataclass
class Result:
    """One run's outcome: end-to-end and per-layer values plus accounting."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gate_failures: list = field(default_factory=list)
    invalid: Optional[str] = None

    def gate(self, workload: str, check: str, problems: list) -> None:
        """Record a failed correctness check, naming workload and check."""
        for problem in problems[:5]:
            self.gate_failures.append(f"{workload}: {check}: {problem}")
        if len(problems) > 5:
            self.gate_failures.append(
                f"{workload}: {check}: ... {len(problems) - 5} more"
            )
