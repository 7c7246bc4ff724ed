"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch|serve-read|serve-ingest \
        --seed N --seconds S --trace 0|1

Builds the seed's inputs, drives the program through its real entry
points, checks the answers, prints a report and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  See ``perfbench/README.md``.

Exit codes: 0 a valid run whose gates passed; 1 a gate failed (the
result line says ``"correct": false``) or the run failed; 2 no program to
measure; 3 the load generator fell behind in the recorded attempt, so
the run is invalid.  An attempt disturbed by the host is measured once
more (see ``MAX_STEAL_SHARE``).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"

#: Calibration loops timed before and after the workload.
CALIBRATION_SAMPLES = 7
#: A share of the program CPUs' time stolen by the hypervisor above this
#: marks an attempt as disturbed: other guests then delay every wake-up of
#: the program, and serve p50s double (quiet runs steal under 1%).
MAX_STEAL_SHARE = 0.015
#: A disturbed attempt is measured again, at most this often in all ...
MAX_ATTEMPTS = 2
#: ... and only if the run is not older than this, so it ends within 180 s.
RETRY_WITHIN_S = 60.0


def _workload_fn(name: str):
    if name == "batch":
        from batch_bench import batch

        return batch
    import serve_bench

    return serve_bench.serve_read if name == "serve-read" else serve_bench.serve_ingest


def _results_log(workload: str, seconds: float) -> Path:
    """Where runs of this program and benchmark version are recorded."""
    from fleet_inputs import version_key

    directory = CACHE / "results"
    directory.mkdir(parents=True, exist_ok=True)
    key = version_key(ROOT, *sorted(HERE.glob("*.py")))
    return directory / f"{key}-{workload}-{seconds:g}s.jsonl"


def _overhead(ctx, log: Path, workload: str, traced_e2e: dict) -> None:
    """Traced median minus untraced median of each end-to-end metric."""
    from percentiles import median

    runs = [json.loads(line) for line in log.read_text().splitlines()] if log.is_file() else []
    untraced = [r["metrics"] for r in runs if not r["trace"]]
    traced = [r["metrics"] for r in runs if r["trace"]] + [traced_e2e]
    if not untraced:
        ctx.say(
            "tracing overhead: no untraced run of this code recorded yet; "
            f"run --trace 0 on {workload} first"
        )
        return
    ctx.say(
        f"tracing overhead (median of {len(traced)} traced vs "
        f"{len(untraced)} untraced runs of this code):"
    )
    for name in traced_e2e:
        t = median(m[name] for m in traced if name in m)
        u = median(m[name] for m in untraced if name in m)
        ctx.say(f"  {name:<20} traced {t:.4f} untraced {u:.4f} overhead {t - u:+.4f} ({(t - u) / u:+.1%})")


def main(argv=None) -> int:
    from workload import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # A terminated run still stops its daemons and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The load generator's two threads hand over the interpreter lock
    # quickly, so neither delays the other's send schedule.
    sys.setswitchinterval(0.0005)
    import os

    from percentiles import median
    from procs import GENERATOR_CPUS, SYSTEM_CPUS, calibration_ms, cpu_ticks

    os.sched_setaffinity(0, GENERATOR_CPUS)
    from workload import END_TO_END, OPERATIONS, PER_LAYER, UNITS, Ctx

    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    ctx = Ctx(
        root=ROOT,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=CACHE / "tmp",
        cache=CACHE,
    )
    ctx.say(f"workload {args.workload}, seed {args.seed}, {args.seconds:g}s, trace {args.trace}")
    started = time.monotonic()
    attempts = []
    while True:
        ctx.workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=CACHE / "tmp"))
        stolen0, total0 = cpu_ticks(SYSTEM_CPUS)
        # Host speed before and after, on the CPUs the program runs on.
        calibration = calibration_ms(SYSTEM_CPUS, CALIBRATION_SAMPLES)
        try:
            result = _workload_fn(args.workload)(ctx)
            calibration += calibration_ms(SYSTEM_CPUS, CALIBRATION_SAMPLES)
        except Exception:
            print("\n".join(ctx.lines))
            print(f"perfbench: {args.workload} run failed:", file=sys.stderr)
            traceback.print_exc()
            return 1
        finally:
            shutil.rmtree(ctx.workdir, ignore_errors=True)
        stolen, total = (b - a for a, b in zip((stolen0, total0), cpu_ticks(SYSTEM_CPUS)))
        steal = stolen / max(1, total)
        attempts.append((steal, result))
        result.per_layer["host.steal_share"] = steal
        ctx.say(
            f"host: {steal:.2%} of the system-under-test CPUs' time was stolen "
            f"by the hypervisor during attempt {len(attempts)}"
        )
        result.per_layer["host.calib_ms"] = median(calibration)
        half = len(calibration) // 2
        ctx.say(
            f"host: calibration loop {median(calibration):.2f} ms (median of "
            f"{median(calibration[:half]):.2f} before and {median(calibration[half:]):.2f} after)"
        )
        disturbed = steal > MAX_STEAL_SHARE or result.invalid
        if not disturbed or len(attempts) == MAX_ATTEMPTS or time.monotonic() - started > RETRY_WITHIN_S:
            break
        ctx.say(
            f"attempt {len(attempts)} disturbed ({result.invalid or f'steal above {MAX_STEAL_SHARE:.1%}'}): "
            "measuring again; every attempt's requests and gates count"
        )
    # The least disturbed attempt is recorded; requests, failures and gate
    # failures of every attempt count.
    chosen = min(range(len(attempts)), key=lambda i: (attempts[i][1].invalid is not None, attempts[i][0]))
    result = attempts[chosen][1]
    result.attempted = sum(r.attempted for _, r in attempts)
    result.failed = sum(r.failed for _, r in attempts)
    result.gate_failures = [f for _, r in attempts for f in r.gate_failures]
    result.per_layer["host.attempts"] = len(attempts)
    if len(attempts) > 1:
        ctx.say(f"recorded: attempt {chosen + 1} of {len(attempts)}")
    if result.invalid:
        print("\n".join(ctx.lines))
        print(f"perfbench: {args.workload} run invalid: {result.invalid}", file=sys.stderr)
        return 3
    if set(result.end_to_end) != set(END_TO_END):
        print(f"perfbench: {args.workload} measured {sorted(result.end_to_end)}, "
              f"expected {sorted(END_TO_END)}", file=sys.stderr)
        return 1
    not_run = [name for name in PER_LAYER if name not in result.per_layer]
    result.per_layer.update(dict.fromkeys(not_run, 0.0))
    metrics = result.per_layer if args.trace else result.end_to_end
    unbounded = [k for k, v in metrics.items() if not math.isfinite(v)]
    if unbounded:
        print("\n".join(ctx.lines))
        print(
            f"perfbench: {args.workload}: {', '.join(unbounded)} unbounded "
            f"({result.failed} of {result.attempted} requests failed)",
            file=sys.stderr,
        )
        return 1
    results_log = _results_log(args.workload, args.seconds)
    if args.trace:
        _overhead(ctx, results_log, args.workload, result.end_to_end)
    with results_log.open("a") as log:
        log.write(json.dumps({"seed": args.seed, "trace": args.trace, "metrics": result.end_to_end}) + "\n")
    ctx.say(f"requests/ops attempted {result.attempted}, failed {result.failed} "
            f"(failed share {result.failed / max(1, result.attempted):.4%})")
    main_op, side_op = OPERATIONS[args.workload]
    ctx.say(f"main = {main_op}; side = {side_op}")
    ctx.say("metrics:" if not args.trace else "per-layer metrics (traced run):")
    for name in sorted(metrics):
        ctx.say(f"  {name:<34} {metrics[name]:14.6f} {UNITS[name]}")
    if args.trace and not_run:
        ctx.say("not measured on this workload (reported as 0): " + ", ".join(not_run))
    for failure in result.gate_failures:
        ctx.say(f"GATE FAILED: {failure}")
    print("\n".join(ctx.lines))
    correct = not result.gate_failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
