"""The ``batch`` workload: ``generate_shards`` → ``analyze_shards``.

A student-lab fleet of ``BATCH_MACHINES`` × 92 days is generated into
binary shards and streamed through Table 2 / Figure 6 / Figure 7,
repeatedly for the run's seconds, in a fresh interpreter that is the
system under test.  Synthesis, detection and encoding do nearly all the
work and no serving code runs.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import fleet_inputs as inputs
from percentiles import median
from procs import HERE, READY_TIMEOUT_S, SYSTEM_CPUS, program_env, stop_group
from workload import SETUP_LAUNCHES, Ctx, Result

#: The layers a batch rep's wall time is split into.
BATCH_LAYERS = (
    "workloads.synth",
    "core.detect",
    "traces.encode",
    "traces.decode",
    "analysis.fold",
    "analysis.finalize",
)
#: ROADMAP item 1: the layers should add up to the wall time within this.
ACCOUNTED_WITHIN = 0.05


def _launch(ctx: Ctx, out: Path, setup_only: bool) -> tuple[subprocess.Popen, float, float]:
    argv = [
        sys.executable,
        str(HERE / "batch_child.py"),
        str(ctx.seed),
        repr(ctx.seconds),
        "1" if ctx.trace else "0",
        str(out),
        str(ctx.workdir),
    ] + (["--setup-only"] if setup_only else [])
    log = open(ctx.workdir / "batch-child.log", "ab")
    t0 = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv,
            cwd=ctx.workdir,
            env=program_env(ctx.root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
            start_new_session=True,
        )
    finally:
        log.close()
    os.sched_setaffinity(proc.pid, SYSTEM_CPUS)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline().decode() if ready else ""
    setup_s = time.monotonic() - t0
    proc.stdout.close()
    if not line.startswith("READY "):
        stop_group(proc, 5.0)
        raise RuntimeError(
            "batch process failed before ready:\n"
            + (ctx.workdir / "batch-child.log").read_text(errors="replace")[-2000:]
        )
    return proc, setup_s, float(line.split()[1])


def batch(ctx: Ctx) -> Result:
    result = Result()
    out = ctx.workdir / "batch-result.json"
    setups, imports = [], []
    for i in range(SETUP_LAUNCHES):
        last = i == SETUP_LAUNCHES - 1
        proc, setup_s, import_s = _launch(ctx, out, setup_only=not last)
        setups.append(setup_s)
        imports.append(import_s)
        try:
            proc.wait(ctx.seconds + 150.0 if last else 30.0)
        except subprocess.TimeoutExpired:
            raise RuntimeError("batch process did not finish in time")
        finally:
            stop_group(proc, 0.0)
        if proc.returncode != 0:
            raise RuntimeError(
                f"batch process exited with {proc.returncode}:\n"
                + (ctx.workdir / "batch-child.log").read_text(errors="replace")[-2000:]
            )
    data = json.loads(out.read_text())
    reps = data["reps"]
    walls = [rep["wall_s"] for rep in reps]
    result.end_to_end["setup_s"] = median(setups)
    result.end_to_end["peak_rss_mb"] = data["peak_rss_mb"]
    result.end_to_end["main_p50_ms"] = median(walls) * 1e3
    analyses = [rep["analyze_s"] for rep in reps]
    result.per_layer["side_p50_ms"] = median(analyses) * 1e3
    result.attempted = len(reps)
    ctx.say(
        "setup launches: " + ", ".join(f"{s:.3f}s" for s in setups)
        + f" (median {median(setups):.3f}s)"
    )
    ctx.say(
        f"phase generate+analyze: {len(reps)} reps of {data['machine_days']:.0f} "
        f"machine-days ({data['events']} events), wall "
        + ", ".join(f"{w:.3f}s" for w in walls)
        + f"; succeeded {len(reps)}, failed 0"
    )
    ctx.say(
        "side = analyze_shards part: "
        + ", ".join(f"{a * 1e3:.2f}" for a in analyses)
        + f" ms (median {median(analyses) * 1e3:.3f} ms)"
    )
    ctx.say(f"throughput at the median pass: {data['machine_days'] / median(walls):.1f} machine-days/s")

    fingerprints = {tuple(rep["fingerprints"]) for rep in reps}
    result.gate(
        "batch", "shard fingerprints identical across reps of one seed",
        [f"{len(fingerprints)} distinct fingerprint sets in {len(reps)} reps"]
        if len(fingerprints) != 1 else [],
    )
    result.gate(
        "batch", "shard fingerprints identical across runs of one seed",
        _cross_run_fingerprints(ctx, reps[0]["fingerprints"]),
    )
    result.gate(
        "batch", "streaming analysis == monolithic analysis of the same store",
        [f"{name} differs" for name in data["streaming_mismatches"]],
    )
    analyses = {rep["analysis_sha256"] for rep in reps}
    result.gate(
        "batch", "streaming analysis identical across reps",
        [f"{len(analyses)} distinct analyses"] if len(analyses) != 1 else [],
    )
    if ctx.trace:
        _layers(ctx, result, data, walls, imports)
    return result


def _cross_run_fingerprints(ctx: Ctx, fingerprints: list) -> list[str]:
    """Compare with the fingerprints an earlier run of this seed and code wrote."""
    directory = ctx.cache / "batch-fingerprints"
    directory.mkdir(parents=True, exist_ok=True)
    key = inputs.version_key(ctx.root, Path(inputs.__file__))
    path = directory / f"{key}-seed{ctx.seed}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != fingerprints:
            return [f"shard fingerprints differ from the earlier run recorded in {path.name}"]
        return []
    path.write_text(json.dumps(fingerprints))
    return []


def _layers(ctx: Ctx, result: Result, data: dict, walls: list, imports: list) -> None:
    per_rep = data["layers"]
    layer = result.per_layer
    layer["cli.import_s"] = median(imports)
    for name in BATCH_LAYERS:
        layer[f"{name}_s"] = median(rep.get(name, 0.0) for rep in per_rep)
    gaps = [w - sum(rep.get(n, 0.0) for n in BATCH_LAYERS) for w, rep in zip(walls, per_rep)]
    layer["batch.unaccounted_s"] = median(gaps)
    n = len(per_rep)
    counters = data["counters"]
    layer["workloads.machines"] = counters.get("workloads.machines", 0) / n
    layer["traces.events"] = counters.get("traces.events", 0) / n
    layer["traces.bytes_written"] = counters.get("traces.bytes_written", 0) / n
    share = median(g / w for g, w in zip(gaps, walls))
    ctx.say("per-layer self time (s, summed over all reps):")
    for name, seconds in sorted(data["self_table"].items(), key=lambda kv: -kv[1]):
        ctx.say(f"  {name:<28} {seconds:10.4f}")
    verdict = (
        "within" if share <= ACCOUNTED_WITHIN else "FINDING: outside"
    )
    ctx.say(
        f"wall time no layer accounts for: median {median(gaps):.4f}s per rep "
        f"= {share:.2%} of wall ({verdict} the {ACCOUNTED_WITHIN:.0%} budget)"
    )
