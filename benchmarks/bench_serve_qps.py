"""Serving-daemon throughput: sustained QPS and tail latency at fleet scale.

Runs the real stack end to end — a 1000-machine, 14-day fleet written as
a binary shard store, :class:`~repro.serve.ServeState` serving from that
store under a bounded hot tier, the threaded HTTP server, and persistent
HTTP/1.1 client connections — and measures what the paper-scale
deployment story needs:

* **sustained QPS** over a multi-second window from a threaded client
  pool (point-availability queries across the whole fleet), floor
  asserted (default 1000, override ``FGCS_BENCH_SERVE_QPS_FLOOR``);
* **client-observed p99 latency** under a ceiling (default 50 ms,
  ``FGCS_BENCH_SERVE_P99_CEILING_S``) — measured at the client, so it
  includes the socket round trip, not just handler time;
* **zero 5xx** responses for the entire run;
* the hot tier's **resident bytes** staying under the documented ceiling
  (``hot_shards`` bound; see ``docs/serving.md``) while cold shards
  rebuild zero-copy from the mmap'd binary store;
* one-shot latencies for the fleet-vectorized ``capacity`` and ``rank``
  endpoints, reported (not gated — they are O(fleet) by design).

Writes ``BENCH_serve.json``.  Scale knobs for constrained runners:
``FGCS_BENCH_SERVE_MACHINES`` (default 1000), ``FGCS_BENCH_SERVE_THREADS``
(default 8), ``FGCS_BENCH_SERVE_SECONDS`` (default 4).  The fleet's
events are drawn synthetically at a paper-plausible rate (~4
unavailability events per machine-day) rather than through the full
workload synthesis — this bench measures the serving layer, and the
differential suite already pins serve == batch on generated traces.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

import repro
from repro.core.states import AvailState
from repro.obs.metrics import MetricsRegistry
from repro.serve import BlockPager, ServeClient, ServeState, start_server
from repro.traces.dataset import TraceDataset
from repro.traces.records import CODE_TO_STATE
from repro.traces.shards import open_shards, write_shards
from repro.units import DAY

from conftest import emit, once

N_MACHINES = int(os.environ.get("FGCS_BENCH_SERVE_MACHINES", "1000"))
N_DAYS = 14
EVENTS_PER_MACHINE_DAY = 4
N_SHARDS = 8
#: The documented hot-tier bound the run must respect.
HOT_SHARDS = 4

QPS_FLOOR = float(os.environ.get("FGCS_BENCH_SERVE_QPS_FLOOR", "1000"))
P99_CEILING_S = float(
    os.environ.get("FGCS_BENCH_SERVE_P99_CEILING_S", "0.05")
)
N_THREADS = int(os.environ.get("FGCS_BENCH_SERVE_THREADS", "8"))
MEASURE_SECONDS = float(os.environ.get("FGCS_BENCH_SERVE_SECONDS", "4"))
WARMUP_SECONDS = 0.5


def _synthetic_fleet(n_machines: int) -> TraceDataset:
    """A seeded fleet with paper-plausible event density (fast to build)."""
    rng = np.random.default_rng(42)
    per_machine = N_DAYS * EVENTS_PER_MACHINE_DAY
    span = float(N_DAYS * DAY)
    events = []
    from repro.core.events import UnavailabilityEvent

    for machine in range(n_machines):
        starts = np.sort(rng.uniform(0.0, span - 3600.0, per_machine))
        durations = rng.uniform(60.0, 3600.0, per_machine)
        codes = rng.choice((3, 4, 5), per_machine)
        for start, duration, code in zip(starts, durations, codes):
            events.append(
                UnavailabilityEvent(
                    machine_id=machine,
                    start=float(start),
                    end=float(start + duration),
                    state=CODE_TO_STATE[int(code)],
                )
            )
    return TraceDataset(
        events=events,
        n_machines=n_machines,
        span=span,
        start_weekday=0,
        hourly_load=None,
        metadata={},
    )


def _pound(url, n_machines, stop, slot, counts, latencies, errors):
    with ServeClient(url) as client:
        machine = slot * 131
        while not stop.is_set():
            machine = (machine + 13) % n_machines
            t0 = time.perf_counter()
            status, payload = client.request_raw(
                "GET", f"/v1/availability?machine={machine}&duration=6"
            )
            latencies[slot].append(time.perf_counter() - t0)
            if status >= 500:
                errors.append(f"{status}: {payload}")
                return
            counts[slot] += 1


def test_serve_qps(benchmark, out_dir, tmp_path):
    dataset = _synthetic_fleet(N_MACHINES)
    write_shards(dataset, tmp_path / "fleet", N_SHARDS, format="binary")
    store = open_shards(tmp_path / "fleet")
    state = ServeState.from_store(store, hot_shards=HOT_SHARDS)
    pager = BlockPager(store)
    hot_ceiling_bytes = HOT_SHARDS * max(
        pager.counts(block.index).nbytes for block in pager.blocks
    )

    registry = MetricsRegistry()
    with start_server(state, registry=registry) as handle:
        stop = threading.Event()
        counts = [0] * N_THREADS
        latencies: list[list[float]] = [[] for _ in range(N_THREADS)]
        errors: list[str] = []
        threads = [
            threading.Thread(
                target=_pound,
                args=(
                    handle.url,
                    N_MACHINES,
                    stop,
                    slot,
                    counts,
                    latencies,
                    errors,
                ),
            )
            for slot in range(N_THREADS)
        ]

        def run_window() -> float:
            for t in threads:
                t.start()
            time.sleep(WARMUP_SECONDS)
            # The measurement window starts after warmup: snapshot, wait,
            # snapshot again.
            for lane in latencies:
                lane.clear()
            base = sum(counts)
            t0 = time.perf_counter()
            stop.wait(MEASURE_SECONDS)
            measured = sum(counts) - base
            elapsed = time.perf_counter() - t0
            stop.set()
            for t in threads:
                t.join(30)
            return measured / elapsed

        qps = once(benchmark, run_window)
        assert not errors, errors[:5]

        observed = np.sort(np.concatenate([np.asarray(l) for l in latencies]))
        p50 = float(observed[int(0.50 * (observed.size - 1))])
        p99 = float(observed[int(0.99 * (observed.size - 1))])

        with ServeClient(handle.url) as probe:
            t0 = time.perf_counter()
            capacity = probe.capacity(6.0)
            capacity_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            probe.rank(6.0, k=10)
            rank_s = time.perf_counter() - t0

        tiers = state.tier_stats()

    result = {
        "bench": "serve_qps",
        "version": repro.__version__,
        "n_machines": N_MACHINES,
        "n_days": N_DAYS,
        "n_shards": N_SHARDS,
        "hot_shards": HOT_SHARDS,
        "client_threads": N_THREADS,
        "measure_seconds": MEASURE_SECONDS,
        "qps": round(qps, 1),
        "qps_floor": QPS_FLOOR,
        "latency_p50_ms": round(1e3 * p50, 3),
        "latency_p99_ms": round(1e3 * p99, 3),
        "p99_ceiling_ms": 1e3 * P99_CEILING_S,
        "requests": int(sum(counts)),
        "errors_5xx": len(errors),
        "capacity_query_ms": round(1e3 * capacity_s, 2),
        "rank_query_ms": round(1e3 * rank_s, 2),
        "capacity_available": capacity["available"],
        "tier_resident_bytes": tiers.resident_bytes,
        "tier_ceiling_bytes": hot_ceiling_bytes,
        "tier_rebuilds": tiers.rebuilds,
        "tier_evictions": tiers.evictions,
    }
    emit(out_dir, "BENCH_serve.json", json.dumps(result, indent=2))

    assert tiers.resident_bytes <= hot_ceiling_bytes, result
    assert qps >= QPS_FLOOR, (
        f"sustained {qps:.0f} QPS under the {QPS_FLOOR:.0f} floor: {result}"
    )
    assert p99 < P99_CEILING_S, (
        f"client-observed p99 {1e3 * p99:.1f}ms over the "
        f"{1e3 * P99_CEILING_S:.0f}ms ceiling: {result}"
    )


# -- worker-count scaling curve (ISSUE 10) -------------------------------------

#: Worker counts the curve sweeps; 1 is the single-process daemon.
SCALE_WORKER_COUNTS = (1, 2, 4)
#: Aggregate-QPS floor for --workers 4 over single-process.  2.5× is the
#: acceptance bar on multi-core hardware; single-core runners (the workers
#: time-slice one CPU) must override it down via the env knob.
SCALE_FLOOR = float(os.environ.get("FGCS_BENCH_SERVE_SCALE_FLOOR", "2.5"))
SCALE_SECONDS = float(os.environ.get("FGCS_BENCH_SERVE_SCALE_SECONDS", "2"))
SCALE_THREADS = int(os.environ.get("FGCS_BENCH_SERVE_SCALE_THREADS", "8"))
SCALE_WARMUP_SECONDS = 0.3
#: Machines whose served answers are spot-checked against the batch
#: predictor in every lane.
SCALE_PROBE_MACHINES = 5


def _measure_lane(url: str, n_machines: int) -> dict:
    """Pound one running front and return its lane measurements."""
    stop = threading.Event()
    counts = [0] * SCALE_THREADS
    latencies: list[list[float]] = [[] for _ in range(SCALE_THREADS)]
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=_pound,
            args=(url, n_machines, stop, slot, counts, latencies, errors),
        )
        for slot in range(SCALE_THREADS)
    ]
    for t in threads:
        t.start()
    time.sleep(SCALE_WARMUP_SECONDS)
    for lane in latencies:
        lane.clear()
    base = sum(counts)
    t0 = time.perf_counter()
    stop.wait(SCALE_SECONDS)
    measured = sum(counts) - base
    elapsed = time.perf_counter() - t0
    stop.set()
    for t in threads:
        t.join(30)
    observed = np.sort(np.concatenate([np.asarray(l) for l in latencies]))
    return {
        "qps": measured / elapsed,
        "requests": int(sum(counts)),
        "latency_p50_ms": round(1e3 * float(observed[int(0.50 * (observed.size - 1))]), 3),
        "latency_p99_ms": round(1e3 * float(observed[int(0.99 * (observed.size - 1))]), 3),
        "errors_5xx": len(errors),
        "errors": errors[:5],
    }


def test_serve_worker_scaling(benchmark, out_dir, tmp_path):
    """Aggregate QPS across --workers 1/2/4, answers pinned == batch."""
    from repro.prediction.base import PredictionQuery
    from repro.prediction.history import HistoryWindowPredictor
    from repro.serve import start_router

    dataset = _synthetic_fleet(N_MACHINES)
    write_shards(dataset, tmp_path / "fleet", N_SHARDS, format="binary")
    store = open_shards(tmp_path / "fleet")
    predictor = HistoryWindowPredictor().fit(dataset)
    probes = [
        (int(m) * (N_MACHINES // SCALE_PROBE_MACHINES)) % N_MACHINES
        for m in range(SCALE_PROBE_MACHINES)
    ]
    expected = {
        m: predictor.predict_survival(
            PredictionQuery(
                machine_id=m, day=N_DAYS, start_hour=0.0, duration_hours=6.0
            )
        )
        for m in probes
    }

    def probe_answers(url: str) -> None:
        with ServeClient(url) as client:
            for m, want in expected.items():
                got = client.availability(m, 6.0, day=N_DAYS, hour=0.0)
                assert got["survival"] == want, (m, got["survival"], want)

    lanes: list[dict] = []

    def run_curve() -> float:
        for n_workers in SCALE_WORKER_COUNTS:
            if n_workers == 1:
                state = ServeState.from_store(store, hot_shards=HOT_SHARDS)
                registry = MetricsRegistry()
                with start_server(state, registry=registry) as handle:
                    probe_answers(handle.url)
                    lane = _measure_lane(handle.url, N_MACHINES)
            else:
                with start_router(
                    tmp_path / "fleet",
                    n_workers=n_workers,
                    hot_shards=HOT_SHARDS,
                ) as handle:
                    probe_answers(handle.url)
                    lane = _measure_lane(handle.url, N_MACHINES)
            lane["workers"] = n_workers
            lanes.append(lane)
        return lanes[-1]["qps"] / lanes[0]["qps"]

    speedup_4 = once(benchmark, run_curve)
    by_workers = {lane["workers"]: lane for lane in lanes}
    result = {
        "bench": "serve_scale",
        "version": repro.__version__,
        "n_machines": N_MACHINES,
        "n_days": N_DAYS,
        "n_shards": N_SHARDS,
        "hot_shards": HOT_SHARDS,
        "client_threads": SCALE_THREADS,
        "measure_seconds": SCALE_SECONDS,
        "lanes": [
            {k: v for k, v in lane.items() if k != "errors"}
            for lane in lanes
        ],
        "speedup_2": round(by_workers[2]["qps"] / by_workers[1]["qps"], 3),
        "speedup_4": round(speedup_4, 3),
        "scale_floor": SCALE_FLOOR,
    }
    emit(out_dir, "BENCH_serve_scale.json", json.dumps(result, indent=2))

    for lane in lanes:
        assert lane["errors_5xx"] == 0, (lane["workers"], lane["errors"])
    assert speedup_4 >= SCALE_FLOOR, (
        f"--workers 4 sustained only {speedup_4:.2f}x the single-process "
        f"QPS (floor {SCALE_FLOOR:.2f}x): {result}"
    )
