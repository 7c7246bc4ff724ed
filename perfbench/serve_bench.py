"""The ``serve-read`` and ``serve-ingest`` workloads.

``serve-read`` — the default single-process daemon, whole fleet
resident.  A fixed-rate phase sends point reads on one connection and
alternating capacity/rank on the other; a closed-loop phase then sends
point reads back to back on both connections for throughput.

``serve-ingest`` — the scale-out deployment: two workers behind the
router, block paging with a hot tier of about a quarter of each worker's
blocks, async ingest and overlay snapshots.  One connection sends
skewed point reads about days whose history is being streamed, the
other sends ingest batches that span both workers, both at fixed rates.
"""

from __future__ import annotations

import json
import time
from typing import Optional

import numpy as np

import fleet_inputs as inputs
import gates
import loadgen
from loadgen import Conn
from percentiles import Summary, median
from procs import Daemon, cpu_seconds, peak_rss_mb
from workload import MAX_LATE_SHARE, SETUP_LAUNCHES, Ctx, Result

READ_RATE = 250.0
FLEET_RATE = 90.0
#: Share of the run spent in serve-read's fixed-rate phase, long enough at
#: 15 s for 1000 capacity/rank samples (a p99); the rest is the closed loop.
FIXED_SHARE = 0.75
#: Sampled reads per run checked against the batch predictor.
GATE_SAMPLES = 250

SKEW_READ_RATE = 200.0
INGEST_RATE = 80.0
INGEST_BATCH = 16
WORKERS = 2
#: Hot tier: a quarter of each worker's blocks.
HOT_BLOCKS = (
    inputs.STORE_MACHINES // WORKERS // inputs.BLOCK_MACHINES // 4
)
PROBES = 150

#: Request-id bases: fixed-rate reads, fleet queries, closed loop, ingest.
FLEET_RID = 1_000_000
CLOSED_RID = 2_000_000
INGEST_RID = 5_000_000


def _read_target(query: tuple, rid: Optional[int] = None) -> str:
    """A point-read target; measured requests carry their request id."""
    machine, day, hour, duration = query
    target = (
        f"/v1/availability?machine={machine}&day={day}&hour={hour}"
        f"&duration={duration}"
    )
    return target if rid is None else f"{target}&rid={rid}"


def _launch(ctx: Ctx, serve_args, result: Result, fresh_args=lambda i: []):
    """SETUP_LAUNCHES launches; all but the last are stopped once ready.

    Returns the running daemon and the span directories of the launches.
    """
    setups, dirs = [], []
    for i in range(SETUP_LAUNCHES):
        spans_dir = ctx.workdir / f"spans-{i}" if ctx.trace else None
        daemon = Daemon(ctx.root, serve_args + fresh_args(i), ctx.workdir, spans_dir)
        try:
            setups.append(daemon.start())
        except BaseException:
            daemon.stop()
            raise
        if spans_dir is not None:
            dirs.append(spans_dir)
        if i < SETUP_LAUNCHES - 1:
            daemon.stop()
    result.end_to_end["setup_s"] = median(setups)
    ctx.say(
        "setup launches: " + ", ".join(f"{s:.3f}s" for s in setups)
        + f" (median {median(setups):.3f}s)"
    )
    return daemon, dirs


def _phase_report(ctx: Ctx, name: str, records: list) -> None:
    ok = sum(1 for r in records if not r.failure)
    kinds: dict = {}
    for r in records:
        if r.failure:
            kinds[r.failure] = kinds.get(r.failure, 0) + 1
    detail = ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
    ctx.say(
        f"phase {name}: sent {len(records)}, succeeded {ok}, "
        f"failed {len(records) - ok}" + (f" ({detail})" if detail else "")
    )


def _latency(records: list) -> Summary:
    return Summary(
        [r.latency for r in records if not r.failure],
        failures=sum(1 for r in records if r.failure),
    )


def _record_latency(ctx, result, name, records, operation) -> None:
    """``operation`` is ``main`` or ``side``: which of the workload's two it is."""
    summary = _latency(records)
    ctx.say(f"{operation} = {name} latency: {summary.describe()}")
    metrics = result.end_to_end if operation == "main" else result.per_layer
    metrics[f"{operation}_p50_ms"] = summary.p50 * 1e3
    if summary.tail is not None and summary.tail >= 99:
        result.per_layer[f"{operation}_p99_ms"] = summary.pct(99) * 1e3


def _generator_health(ctx: Ctx, result: Result, records: list, cpu_s: float) -> None:
    late = [r.late for r in records]
    n_late = sum(1 for x in late if x > loadgen.LATE_S)
    share = n_late / max(1, len(records))
    late_summary = Summary(late)
    result.per_layer["loadgen.late_share"] = share
    if late_summary.tail is not None and late_summary.tail >= 99:
        result.per_layer["loadgen.late_p99_ms"] = late_summary.pct(99) * 1e3
    result.per_layer["loadgen.cpu_ms_per_req"] = cpu_s * 1e3 / max(1, len(records))
    ctx.say(
        f"generator: {n_late}/{len(records)} requests sent more than "
        f"{loadgen.LATE_S * 1e3:g} ms after they were sendable "
        f"(share {share:.4f}, limit {MAX_LATE_SHARE}); lateness "
        f"{late_summary.describe()}; {cpu_s * 1e3 / max(1, len(records)):.3f} "
        "ms generator CPU per request"
    )
    if share > MAX_LATE_SHARE:
        result.invalid = (
            f"generator fell behind its schedule: {share:.1%} of requests "
            f"late (limit {MAX_LATE_SHARE:.0%}); latencies not recorded"
        )


def _fixed_phase(jobs) -> tuple[list, float]:
    """Run open-loop jobs in parallel; (records per job, generator CPU seconds)."""
    cpu0 = loadgen.self_cpu_s()
    records = loadgen.run_parallel(*jobs)
    return records, loadgen.self_cpu_s() - cpu0


def _paging_stats(result: Result, tier: dict, workload: str) -> None:
    hits, rebuilds = tier.get("hits", 0), tier.get("rebuilds", 0)
    result.per_layer["serve.paging.hit_ratio"] = hits / max(1, hits + rebuilds)
    result.per_layer["serve.paging.resident_mb"] = tier.get("resident_bytes", 0) / 2**20
    if workload == "serve-ingest":
        result.per_layer["serve.paging.rebuilds"] = rebuilds
        result.per_layer["serve.paging.evictions"] = tier.get("evictions", 0)


def _sample_answers(records: list, queries: list, keep) -> tuple[list, list]:
    """Kept successful answers as ``(record, query, payload)``.

    A kept answer that is not a probability is marked a wrong answer and
    reported in the second list.
    """
    samples, problems = [], []
    for r in records:
        if r.failure or not keep(r.index):
            continue
        try:
            payload = json.loads(r.payload)
        except ValueError:
            payload = None
        survival = payload.get("survival") if isinstance(payload, dict) else None
        if not isinstance(survival, float) or not 0.0 <= survival <= 1.0:
            r.failure = "wrong-answer"
            problems.append(f"read {r.index}: malformed answer {r.payload[:80]!r}")
            continue
        samples.append((r, queries[r.index], payload))
    return samples, problems


def _check_samples(samples: list, predictor) -> list[str]:
    """Compare sampled answers with the oracle; mark wrong ones as failed."""
    wrong = []
    for record, query, payload in samples:
        problems = gates.mismatches([(query, payload)], predictor)
        if problems:
            record.failure = "wrong-answer"
            wrong += problems
    return wrong


# -- serve-read -----------------------------------------------------------------


def serve_read(ctx: Ctx) -> Result:
    result = Result()
    store = inputs.build_store(ctx.seed, ctx.root, ctx.cache)
    fixed_s = ctx.seconds * FIXED_SHARE
    closed_s = ctx.seconds - fixed_s
    reads = inputs.point_reads(ctx.seed, int(READ_RATE * fixed_s))
    fleet = inputs.fleet_queries(ctx.seed, int(FLEET_RATE * fixed_s))
    closed = inputs.point_reads(ctx.seed, 4096, "closed")
    step = max(1, len(reads) // GATE_SAMPLES)
    keep = lambda i: i % step == 0  # noqa: E731
    read_reqs = [("GET", _read_target(q, i), b"") for i, q in enumerate(reads)]
    fleet_reqs = [("GET", f"{t}&rid={FLEET_RID + i}", b"") for i, t in enumerate(fleet)]

    daemon, setup_dirs = _launch(ctx, [str(store)], result)
    a = b = None
    try:
        a, b = Conn(daemon.host, daemon.port), Conn(daemon.host, daemon.port)
        # Warm-up: page every shard in and open both connections.
        b.request("GET", fleet[0])
        for q in reads[:20]:
            a.request("GET", _read_target(q))
        start = time.monotonic() + 0.05
        (rec_reads, rec_fleet), gen_cpu = _fixed_phase(
            (
                lambda: loadgen.open_loop(a, read_reqs, READ_RATE, start, keep),
                lambda: loadgen.open_loop(b, fleet_reqs, FLEET_RATE, start),
            )
        )
        cpu0 = cpu_seconds(daemon.pids())
        until = time.monotonic() + closed_s
        make = lambda i: ("GET", _read_target(closed[i % len(closed)], i), b"")  # noqa: E731
        t0 = time.monotonic()
        rec_c1, rec_c2 = loadgen.run_parallel(
            lambda: loadgen.closed_loop(a, make, until, CLOSED_RID),
            lambda: loadgen.closed_loop(b, make, until, 2 * CLOSED_RID),
        )
        closed_wall = time.monotonic() - t0
        daemon_cpu = cpu_seconds(daemon.pids()) - cpu0
        result.end_to_end["peak_rss_mb"] = peak_rss_mb(daemon.pids())
        _, stats = a.json("GET", "/v1/stats")
    finally:
        for conn in (a, b):
            if conn is not None:
                conn.close()
        daemon.stop()

    samples, malformed = _sample_answers(rec_reads, reads, keep)
    rows = gates.store_rows(store, {q[0] for _, q, _ in samples})
    predictor = gates.oracle(
        rows, inputs.STORE_MACHINES, inputs.STORE_DAYS, inputs.start_weekday(ctx.seed)
    )
    wrong = _check_samples(samples, predictor) + malformed
    result.gate(
        "serve-read", "sampled answers == batch HistoryWindowPredictor", wrong
    )
    ctx.say(f"gate: {len(samples) + len(malformed)} sampled answers checked, {len(wrong)} wrong")

    closed_records = rec_c1 + rec_c2
    for name, recs in (
        ("fixed-rate point reads", rec_reads),
        ("fixed-rate capacity/rank", rec_fleet),
        ("closed-loop point reads", closed_records),
    ):
        _phase_report(ctx, name, recs)
    _record_latency(ctx, result, "point read (fixed rate)", rec_reads, "main")
    _record_latency(ctx, result, "capacity/rank (fixed rate)", rec_fleet, "side")
    ok_closed = sum(1 for r in closed_records if not r.failure)
    result.per_layer["read_qps"] = ok_closed / closed_wall
    ctx.say(
        f"closed loop: {ok_closed} successful reads in {closed_wall:.3f}s on 2 "
        f"connections = {ok_closed / closed_wall:.1f} req/s"
    )
    all_records = rec_reads + rec_fleet + closed_records
    result.attempted = len(all_records)
    result.failed = sum(1 for r in all_records if r.failure)
    _generator_health(ctx, result, rec_reads + rec_fleet, gen_cpu)
    result.per_layer["serve.server.cpu_ms_per_read"] = daemon_cpu * 1e3 / max(1, ok_closed)
    _paging_stats(result, stats.get("tier", {}), "serve-read")
    if ctx.trace:
        _serve_read_layers(ctx, result, setup_dirs, rec_reads, rec_fleet)
    return result


def _serve_read_layers(ctx, result, setup_dirs, rec_reads, rec_fleet) -> None:
    import layers

    result.per_layer.update(layers.setup_layers(setup_dirs))
    spans = layers.SpanSet.load(setup_dirs[-1])
    values, counts = layers.serve_read_metrics(
        spans,
        {r.index for r in rec_reads},
        {FLEET_RID + r.index for r in rec_fleet},
    )
    result.per_layer.update(values)
    ctx.say("traced samples: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    _self_table(ctx, spans)


def _self_table(ctx: Ctx, spans) -> None:
    table = sorted(spans.self_table().items(), key=lambda kv: -kv[1])
    ctx.say("per-layer self time (s, summed over the measured daemon's spans):")
    for name, seconds in table:
        ctx.say(f"  {name:<28} {seconds:10.4f}")


# -- serve-ingest ---------------------------------------------------------------


def serve_ingest(ctx: Ctx) -> Result:
    result = Result()
    store = inputs.build_store(ctx.seed, ctx.root, ctx.cache)
    first_day = inputs.STORE_DAYS + 1
    reads = inputs.skewed_reads(
        ctx.seed, int(SKEW_READ_RATE * ctx.seconds), first_day, first_day + 2
    )
    batches = inputs.ingest_batches(ctx.seed, int(INGEST_RATE * ctx.seconds), INGEST_BATCH)
    read_reqs = [("GET", _read_target(q, i), b"") for i, q in enumerate(reads)]
    ingest_reqs = [
        ("POST", f"/v1/ingest?rid={INGEST_RID + i}", json.dumps(batch).encode())
        for i, batch in enumerate(batches)
    ]
    check = lambda i: i % 10 == 0  # noqa: E731
    serve_args = [
        str(store),
        "--workers", str(WORKERS),
        "--block-machines", str(inputs.BLOCK_MACHINES),
        "--hot-shards", str(HOT_BLOCKS),
    ]
    snapshot_dirs = lambda i: ["--snapshot-dir", str(ctx.workdir / f"snapshots-{i}")]  # noqa: E731

    daemon, setup_dirs = _launch(ctx, serve_args, result, snapshot_dirs)
    a = b = None
    try:
        a, b = Conn(daemon.host, daemon.port), Conn(daemon.host, daemon.port)
        for q in reads[:20]:
            a.request("GET", _read_target(q))
        b.request("GET", "/healthz")
        start = time.monotonic() + 0.05
        (rec_reads, rec_ingest), gen_cpu = _fixed_phase(
            (
                lambda: loadgen.open_loop(a, read_reqs, SKEW_READ_RATE, start, check),
                lambda: loadgen.open_loop(
                    b, ingest_reqs, INGEST_RATE, start, lambda i: True
                ),
            )
        )
        t0 = time.monotonic()
        status, _ = b.json("POST", "/v1/flush")
        drain_ms = (time.monotonic() - t0) * 1e3
        if status != 200:
            raise RuntimeError(f"final /v1/flush answered {status}")
        _, stats = b.json("GET", "/v1/stats")
        acked = []
        for r in rec_ingest:
            if not r.failure:
                acked.extend(batches[r.index])
        probes = _probes(ctx.seed, acked, stats)
        probe_answers = []
        for q in probes:
            status, payload = a.json("GET", _read_target(q))
            probe_answers.append((q, payload if status == 200 else {"status": status}))
        result.end_to_end["peak_rss_mb"] = peak_rss_mb(daemon.pids())
    finally:
        for conn in (a, b):
            if conn is not None:
                conn.close()
        daemon.stop()

    _ingest_gates(ctx, result, store, rec_ingest, batches, acked, stats, probe_answers)
    _, malformed = _sample_answers(rec_reads, reads, check)
    result.gate("serve-ingest", "reads answer a probability", malformed)
    for name, recs in (
        ("fixed-rate skewed point reads", rec_reads),
        ("fixed-rate ingest batches", rec_ingest),
    ):
        _phase_report(ctx, name, recs)
    _record_latency(ctx, result, "point read (fixed rate)", rec_reads, "main")
    _record_latency(ctx, result, "ingest ack (fixed rate)", rec_ingest, "side")
    all_records = rec_reads + rec_ingest
    result.attempted = len(all_records)
    result.failed = sum(1 for r in all_records if r.failure)
    _generator_health(ctx, result, all_records, gen_cpu)
    totals = stats.get("totals", {})
    _paging_stats(result, totals, "serve-ingest")
    result.per_layer["serve.state.overlay_cells"] = sum(
        lane.get("ingest", {}).get("overlay_cells", 0) for lane in stats.get("workers", [])
    )
    result.per_layer["serve.ingest.backpressure_429"] = totals.get("backpressure_rejections", 0)
    result.per_layer["serve.ingest.drain_ms"] = drain_ms
    ctx.say(f"final flush after the last acknowledgement: {drain_ms:.3f} ms")
    if ctx.trace:
        import layers

        result.per_layer.update(layers.setup_layers(setup_dirs))
        spans = layers.SpanSet.load(setup_dirs[-1])
        values, counts = layers.serve_ingest_metrics(
            spans,
            {r.index for r in rec_reads},
            {INGEST_RID + r.index for r in rec_ingest},
        )
        result.per_layer.update(values)
        ctx.say("traced samples: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        _self_table(ctx, spans)
    return result


def _horizon_of(stats: dict, machine: int) -> int:
    """The served horizon day of the worker that owns ``machine``."""
    return next(
        lane["horizon_day"]
        for lane in stats["workers"]
        if lane["machine_lo"] <= machine < lane["machine_hi"]
    )


def _probes(seed: int, acked: list, stats: dict) -> list[tuple]:
    """Queries on streamed days for machines that received streamed events."""
    rng = np.random.default_rng(seed + 7)
    machines = sorted({e[0] for e in acked})
    if not machines:
        return []
    chosen = rng.choice(machines, size=min(PROBES, len(machines)), replace=False)
    probes = []
    for m in sorted(int(x) for x in chosen):
        horizon = _horizon_of(stats, m)
        day = int(rng.integers(horizon - 1, horizon + 1))
        hour = float(rng.integers(0, 96)) / 4.0
        duration = float(rng.choice(inputs.DURATIONS))
        probes.append((m, day, hour, duration))
    return probes


def _ingest_gates(ctx, result, store, rec_ingest, batches, acked, stats, probe_answers) -> None:
    totals = stats.get("totals", {})
    problems = []
    accepted = 0
    for r in rec_ingest:
        if r.failure:
            continue
        payload = json.loads(r.payload)
        accepted += payload.get("accepted", 0)
        if payload.get("accepted") != len(batches[r.index]):
            problems.append(f"batch {r.index} accepted {payload.get('accepted')} of {len(batches[r.index])}")
    if totals.get("streamed_events") != len(acked) or accepted != len(acked):
        problems.append(
            f"/v1/stats counts {totals.get('streamed_events')} streamed events, "
            f"{len(acked)} were acknowledged"
        )
    result.gate("serve-ingest", "/v1/stats counts every acknowledged event", problems)

    wrong = []
    by_horizon: dict = {}
    for q, payload in probe_answers:
        by_horizon.setdefault(_horizon_of(stats, q[0]), []).append((q, payload))
    for horizon, samples in by_horizon.items():
        machines = {q[0] for q, _ in samples}
        streamed = gates.streamed_rows([e for e in acked if e[0] in machines])
        rows = np.concatenate([gates.store_rows(store, machines), streamed])
        predictor = gates.oracle(
            rows, inputs.STORE_MACHINES, horizon, inputs.start_weekday(ctx.seed)
        )
        wrong += gates.mismatches(samples, predictor)
    result.gate(
        "serve-ingest",
        "probes on streamed days == batch predictor over base + acknowledged events",
        wrong,
    )
    ctx.say(
        f"gate: {len(acked)} acknowledged events counted; {len(probe_answers)} "
        f"probes on streamed days checked, {len(wrong)} wrong"
    )
