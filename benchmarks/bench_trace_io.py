"""Trace I/O benchmark: JSONL vs binary columnar on a fleet-scale trace.

The ISSUE's acceptance criteria for the binary format, measured on a
1000-machine x 92-day synthetic fleet:

* dataset load is at least 5x faster from binary than from JSONL;
* binary files are at least 2x smaller than their JSONL twins;
* ``analyze`` renders byte-identical text from a JSONL shard store and
  its binary conversion.

The fleet reuses the closed-form event streams from
``bench_fleet_scaling`` (keyed by global machine id, so the dataset is
identical across runs) but assembles one monolithic dataset for the
file-level measurements and a small shard store for the differential.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.events import UnavailabilityEvent
from repro.traces.dataset import TraceDataset
from repro.traces.io import load_dataset, save_dataset
from repro.traces.shards import convert_shards, open_shards, write_shards

from bench_fleet_scaling import (
    N_DAYS,
    N_MACHINES,
    SPAN,
    START_WEEKDAY,
    _machine_events,
)
from conftest import emit, once

#: Acceptance floors from the ISSUE.
LOAD_SPEEDUP_FLOOR = 5.0
SIZE_RATIO_FLOOR = 2.0

#: Timing repeats; the best of N damps scheduler noise.
REPEATS = 3


@pytest.fixture(scope="module")
def fleet_dataset() -> TraceDataset:
    events: list[UnavailabilityEvent] = []
    for mid in range(N_MACHINES):
        events.extend(_machine_events(mid, mid))
    # The generation pipeline records an hourly-load matrix by default,
    # so the payload carries one here too: mostly finite samples with
    # NaN gaps (monitor offline), like real traces.
    rng = np.random.default_rng(1306)
    hourly = rng.uniform(0.0, 2.0, size=(N_MACHINES, int(SPAN // 3600)))
    hourly[rng.random(hourly.shape) < 0.02] = np.nan
    return TraceDataset(
        events=events,
        n_machines=N_MACHINES,
        span=SPAN,
        start_weekday=START_WEEKDAY,
        hourly_load=hourly,
        metadata={"synthetic": "trace-io-bench"},
    )


@pytest.fixture(scope="module")
def trace_files(fleet_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("traceio")
    paths = {"jsonl": root / "fleet.jsonl", "binary": root / "fleet.bin"}
    timings = {}
    for fmt, path in paths.items():
        t0 = time.perf_counter()
        save_dataset(fleet_dataset, path, format=fmt)
        timings[fmt] = time.perf_counter() - t0
    return paths, timings


def _best_load_seconds(path: Path) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        load_dataset(path)
        best = min(best, time.perf_counter() - t0)
    return best


def test_binary_load_and_size_beat_jsonl(
    benchmark, fleet_dataset, trace_files, out_dir
):
    paths, save_s = trace_files
    load_s = {
        "jsonl": _best_load_seconds(paths["jsonl"]),
        "binary": once(benchmark, lambda: _best_load_seconds(paths["binary"])),
    }
    sizes = {fmt: p.stat().st_size for fmt, p in paths.items()}
    speedup = load_s["jsonl"] / load_s["binary"]
    shrink = sizes["jsonl"] / sizes["binary"]
    n = len(fleet_dataset)
    lines = [
        f"fleet: {N_MACHINES} machines x {N_DAYS} days, {n} events",
        "",
        f"{'format':>8} {'size':>12} {'save':>9} {'load':>9} {'decode MB/s':>12}",
    ]
    for fmt in ("jsonl", "binary"):
        mbps = sizes[fmt] / load_s[fmt] / 1e6
        lines.append(
            f"{fmt:>8} {sizes[fmt]:>12,} {save_s[fmt]:>8.3f}s "
            f"{load_s[fmt]:>8.3f}s {mbps:>12.1f}"
        )
    lines += [
        "",
        f"binary load speedup: {speedup:.1f}x (floor {LOAD_SPEEDUP_FLOOR}x)",
        f"binary size shrink:  {shrink:.1f}x (floor {SIZE_RATIO_FLOOR}x)",
    ]
    emit(out_dir, "trace_io.txt", "\n".join(lines))
    assert speedup >= LOAD_SPEEDUP_FLOOR, (
        f"binary load only {speedup:.1f}x faster than JSONL "
        f"(floor {LOAD_SPEEDUP_FLOOR}x)"
    )
    assert shrink >= SIZE_RATIO_FLOOR, (
        f"binary file only {shrink:.1f}x smaller than JSONL "
        f"(floor {SIZE_RATIO_FLOOR}x)"
    )


def test_round_trip_is_lossless(fleet_dataset, trace_files):
    paths, _ = trace_files
    assert load_dataset(paths["binary"]).equals(load_dataset(paths["jsonl"]))


def _analyze_text(store: Path) -> str:
    src = str(Path(repro.__file__).parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "analyze",
            "--trace",
            str(store),
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_streaming_analysis_identical_across_formats(
    fleet_dataset, tmp_path_factory
):
    """``analyze`` text is byte-identical, JSONL vs binary."""
    root = tmp_path_factory.mktemp("traceio_diff")
    jsonl_store = root / "store-jsonl"
    write_shards(fleet_dataset, jsonl_store, 8)
    binary_store = root / "store-bin"
    convert_shards(open_shards(jsonl_store), binary_store, format="binary")
    assert _analyze_text(binary_store) == _analyze_text(jsonl_store)
