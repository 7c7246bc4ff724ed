"""Command-line interface: ``repro-fgcs <command>``.

Commands
--------
* ``generate`` — generate the simulated three-month testbed trace and save
  it as JSONL or binary (``--format``);
* ``analyze`` — reproduce Table 2 / Figure 6 / Figure 7 from a trace file
  (or a freshly generated trace) and check the paper's landmarks;
* ``convert`` — re-encode a trace file or shard directory between the
  JSONL and binary formats (see ``docs/formats.md``);
* ``thresholds`` — run the offline contention calibration (Section 3.2)
  and print the derived Th1/Th2;
* ``predict`` — evaluate the availability predictors on a trace;
* ``schedule`` — run the proactive-vs-oblivious scheduling comparison;
* ``report`` — three modes: write every analysis artifact for a trace to
  a directory; render a run manifest (``--metrics-out`` output) as a
  human performance report; or diff two manifests with
  ``--compare baseline.json current.json [--max-regress PCT]`` — exits
  nonzero when a metric regressed beyond the budget, so it works as a CI
  perf gate;
* ``serve`` — run the availability-forecast daemon over a trace file or
  shard store, answering HTTP/JSON queries until shut down (see
  ``docs/serving.md``);
* ``query`` — the matching client: one request against a running daemon,
  response printed as JSON;
* ``scenario`` — the declarative scenario registry (see
  ``docs/scenarios.md``): ``list``/``show``/``validate`` inspect and
  check the library documents, and ``scenario diff A B ...`` generates
  two or more scenarios at a common frame and renders Table 2 /
  Figure 6 / Figure 7 side by side with per-cell deltas.  ``generate``
  also takes ``--scenario NAME`` to synthesize a scenario fleet instead
  of a single-profile testbed.

Every command also takes the telemetry flags (``--log-level``,
``--log-json``, ``--metrics-out PATH``, ``--trace-out PATH``);
``--metrics-out`` writes a JSON run manifest (seed, config fingerprint,
versions, phase spans, metrics, resource time series) at the end of the
run (``-`` writes it to stdout), and ``--trace-out`` writes a Chrome
Trace Event Format JSON of the run's merged span tree — one lane per
pool worker process — loadable in Perfetto.  When either is given, a
background sampler records this process's RSS/CPU/fd/I-O series.
Telemetry never changes results: outputs are bit-identical with it on
or off.

Robustness flags (see ``docs/robustness.md``): ``--fault-plan FILE``
attaches a deterministic fault-injection plan for chaos testing;
``--max-retries`` and ``--unit-timeout`` bound per-unit retries and
runtimes.  Exit codes: 0 success, 1 landmark-check failure, 2 invalid
fault plan / invalid scenario or config (the offending key path is
printed, never a traceback) / unrecoverable fault, 3 partial results
(machines quarantined after exhausting retries).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Optional, Sequence

from ._version import __version__
from .config import FgcsConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fgcs",
        description=(
            "Reproduction of 'Empirical Studies on the Behavior of Resource "
            "Availability in Fine-Grained Cycle Sharing Systems' (ICPP 2006)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Telemetry flags shared by *every* command (including ``thresholds``,
    # which doesn't take the testbed options below).
    obs_common = argparse.ArgumentParser(add_help=False)
    obs_common.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="logging verbosity on stderr (default: warning)",
    )
    obs_common.add_argument(
        "--log-json",
        action="store_true",
        help="emit JSON-lines logs (also silences the progress line)",
    )
    obs_common.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a JSON run manifest (seed, config fingerprint, phase "
        "spans, metrics, resource time series) to PATH at the end of the "
        "run ('-' writes it to stdout)",
    )
    obs_common.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome Trace Event Format JSON of the run (merged "
        "span tree with one lane per worker process plus resource "
        "counters) to PATH; load it in Perfetto or chrome://tracing",
    )

    # Fault-handling flags shared by every command that runs parallel work.
    fault_common = argparse.ArgumentParser(add_help=False)
    fault_common.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="JSON fault-injection plan for chaos testing (see "
        "docs/robustness.md); faults are injected deterministically "
        "from the plan's seed",
    )
    fault_common.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per failed work unit before giving up (default: 2)",
    )
    fault_common.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock budget; overruns are treated as "
        "failures and retried (default: none)",
    )

    common = argparse.ArgumentParser(
        add_help=False, parents=[obs_common, fault_common]
    )
    common.add_argument("--seed", type=int, default=2006, help="root RNG seed")
    common.add_argument(
        "--machines", type=int, default=20, help="testbed size (paper: 20)"
    )
    common.add_argument(
        "--days", type=int, default=92, help="trace length in days (paper: 92)"
    )
    common.add_argument(
        "--profile",
        choices=("student-lab", "enterprise", "home"),
        default="student-lab",
        help="testbed workload pattern (paper's testbed: student-lab)",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for parallel stages (0 = one per CPU; "
        "results are identical for any value)",
    )
    common.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk trace dataset cache (off by default)",
    )
    common.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the dataset cache even when --cache-dir is set",
    )

    p_gen = sub.add_parser(
        "generate", parents=[common], help="generate a testbed trace"
    )
    p_gen.add_argument(
        "output",
        help="output trace path (or, with --shards, a shard directory)",
    )
    p_gen.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="write the fleet as N per-machine-range shards plus a "
        "manifest instead of one trace file (constant parent memory; "
        "shards generate in parallel with --jobs)",
    )
    p_gen.add_argument(
        "--format",
        choices=("jsonl", "binary"),
        default="jsonl",
        help="on-disk trace format: human-greppable JSONL or the binary "
        "columnar fgcs-bin format (zero-copy reads; see docs/formats.md)",
    )
    p_gen.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="generate a declarative scenario fleet instead of a single-"
        "profile testbed: a library scenario name ('scenario list') or a "
        "scenario document path (.yaml/.json); overrides --profile, while "
        "--machines/--days/--seed pin the frame (see docs/scenarios.md)",
    )

    p_conv = sub.add_parser(
        "convert",
        parents=[obs_common],
        help="re-encode a trace file or shard directory between formats",
    )
    p_conv.add_argument(
        "input", help="source trace file or shard directory/manifest"
    )
    p_conv.add_argument(
        "output", help="destination trace file or shard directory"
    )
    p_conv.add_argument(
        "--format",
        choices=("jsonl", "binary"),
        default="binary",
        help="target trace format (default: binary)",
    )

    p_ana = sub.add_parser(
        "analyze", parents=[common], help="reproduce Table 2 / Figures 6-7"
    )
    p_ana.add_argument(
        "--trace",
        default=None,
        help="existing trace: a JSONL file or a shard directory "
        "(default: generate)",
    )
    p_ana.add_argument(
        "--check", action="store_true", help="also check the paper's landmarks"
    )

    p_thr = sub.add_parser(
        "thresholds",
        parents=[obs_common, fault_common],
        help="calibrate Th1/Th2 via the Section 3.2 experiments",
    )
    p_thr.add_argument(
        "--duration", type=float, default=120.0, help="seconds simulated per run"
    )
    p_thr.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep cells (0 = one per CPU)",
    )

    p_pred = sub.add_parser(
        "predict", parents=[common], help="evaluate availability predictors"
    )
    p_pred.add_argument("--trace", default=None, help="existing trace JSONL")
    p_pred.add_argument(
        "--train-days", type=int, default=63, help="training prefix length"
    )

    p_sched = sub.add_parser(
        "schedule", parents=[common], help="proactive scheduling comparison"
    )
    p_sched.add_argument("--trace", default=None, help="existing trace JSONL")
    p_sched.add_argument("--train-days", type=int, default=63)

    p_srv = sub.add_parser(
        "serve",
        parents=[obs_common],
        help="run the availability-forecast HTTP daemon over a trace",
    )
    p_srv.add_argument(
        "trace",
        help="trace to bootstrap from: a JSONL/binary file or a shard "
        "directory (binary shards rebuild cold machines zero-copy)",
    )
    p_srv.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_srv.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = pick a free one, printed on start)",
    )
    p_srv.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="scale out across N worker processes, each owning a "
        "contiguous shard range behind a router front (needs a shard-"
        "store trace; default: 1 = single process)",
    )
    p_srv.add_argument(
        "--hot-shards",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N count blocks resident per process; cold "
        "blocks rebuild on demand from the store (default: unbounded)",
    )
    p_srv.add_argument(
        "--block-machines",
        type=int,
        default=None,
        metavar="M",
        help="page base-tier state in blocks of M machines instead of "
        "whole shards — finer eviction grain for very large fleets "
        "(default: whole-shard blocks)",
    )
    p_srv.add_argument(
        "--hot-mb",
        type=float,
        default=None,
        metavar="MB",
        help="resident-state ceiling in MiB for the hot tier "
        "(default: unbounded)",
    )
    p_srv.add_argument(
        "--history-days",
        type=int,
        default=8,
        help="same-type history days per prediction (default: 8)",
    )
    p_srv.add_argument(
        "--statistic",
        choices=("mean", "median", "trimmed"),
        default="mean",
        help="reduction over history counts (default: mean)",
    )
    p_srv.add_argument(
        "--laplace",
        type=float,
        default=0.5,
        help="Laplace smoothing pseudo-count for survival (default: 0.5)",
    )
    p_srv.add_argument(
        "--ingest-queue",
        type=int,
        default=100_000,
        metavar="N",
        help="bounded async ingest queue: at most N accepted events may "
        "sit unapplied; batches beyond that get 429 + Retry-After "
        "(default: 100000)",
    )
    p_srv.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="persist the streamed-event overlay into DIR (atomic "
        "write-temp-rename) on shutdown and every --snapshot-every "
        "batches, and restore it on boot (default: no snapshots)",
    )
    p_srv.add_argument(
        "--snapshot-every",
        type=int,
        default=64,
        metavar="B",
        help="with --snapshot-dir: snapshot after every B applied "
        "ingest batches (default: 64)",
    )
    p_srv.add_argument(
        "--stdin",
        action="store_true",
        help="also ingest JSONL events from stdin while serving, one "
        "event object per line, each applied in order as one POST "
        "/v1/ingest batch (EOF stops ingest, not the server)",
    )

    p_qry = sub.add_parser(
        "query",
        parents=[obs_common],
        help="query a running forecast daemon; response printed as JSON",
    )
    p_qry.add_argument(
        "--url",
        required=True,
        help="daemon address, e.g. http://127.0.0.1:8642",
    )
    q_sub = p_qry.add_subparsers(dest="endpoint", required=True)
    q_avail = q_sub.add_parser(
        "availability", help="P(machine available for the whole window)"
    )
    q_avail.add_argument("--machine", type=int, required=True)
    q_cap = q_sub.add_parser(
        "capacity", help="machines forecast free for the whole window"
    )
    q_cap.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="survival probability a machine needs to count (default: 0.5)",
    )
    q_rank = q_sub.add_parser("rank", help="top-k machines by survival")
    q_rank.add_argument("--k", type=int, default=None)
    for q_parser in (q_avail, q_cap, q_rank):
        q_parser.add_argument(
            "--duration",
            type=float,
            required=True,
            metavar="HOURS",
            help="window length in hours",
        )
        q_parser.add_argument(
            "--day",
            type=int,
            default=None,
            help="absolute day index (default: the first unobserved day)",
        )
        q_parser.add_argument(
            "--hour",
            type=float,
            default=None,
            help="window start hour within the day (default: 0)",
        )
    q_sub.add_parser("stats", help="tier/ingest/request counters")
    q_sub.add_parser("health", help="liveness + readiness")
    q_sub.add_parser("shutdown", help="stop the daemon gracefully")

    p_scn = sub.add_parser(
        "scenario",
        help="inspect, validate, and diff declarative fleet scenarios "
        "(see docs/scenarios.md)",
    )
    scn_sub = p_scn.add_subparsers(dest="action", required=True)
    scn_sub.add_parser(
        "list",
        parents=[obs_common],
        help="list the library scenarios with their descriptions",
    )
    scn_show = scn_sub.add_parser(
        "show",
        parents=[obs_common],
        help="show one scenario's resolved fleet, schedule, and fingerprint",
    )
    scn_show.add_argument(
        "name", help="library scenario name or scenario document path"
    )
    scn_show.add_argument(
        "--machines",
        type=int,
        default=None,
        help="fleet size (default: the scenario's own default)",
    )
    scn_show.add_argument(
        "--days",
        type=int,
        default=None,
        help="trace length in days (default: the scenario's own default)",
    )
    scn_show.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root RNG seed (default: the scenario's own default)",
    )
    scn_val = scn_sub.add_parser(
        "validate",
        parents=[obs_common],
        help="validate scenario documents; any invalid document exits 2 "
        "with its offending key path",
    )
    scn_val.add_argument(
        "names",
        nargs="*",
        help="library scenario names or scenario document paths",
    )
    scn_val.add_argument(
        "--all",
        action="store_true",
        help="validate every scenario in the library",
    )
    scn_diff = scn_sub.add_parser(
        "diff",
        parents=[common],
        help="generate two or more scenarios at a common frame and render "
        "Table 2 / Figure 6 / Figure 7 side by side with deltas",
    )
    scn_diff.add_argument(
        "names",
        nargs="+",
        help="scenario names/paths; the first is the baseline the deltas "
        "are taken against",
    )
    scn_diff.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the report to PATH",
    )

    p_rep = sub.add_parser(
        "report",
        parents=[common],
        help="write analysis artifacts for a trace to a directory, render "
        "a run manifest as a performance report, or --compare two "
        "manifests as a regression gate",
    )
    p_rep.add_argument(
        "target",
        nargs="?",
        default=None,
        help="an output directory for the analysis artifacts, or an "
        "existing run-manifest JSON (from --metrics-out) to render as "
        "a performance report",
    )
    p_rep.add_argument("--trace", default=None, help="existing trace JSONL")
    p_rep.add_argument(
        "--compare",
        nargs=2,
        default=None,
        metavar=("BASELINE", "CURRENT"),
        help="diff two run manifests metric by metric; exits 1 when any "
        "metric regressed beyond --max-regress percent",
    )
    p_rep.add_argument(
        "--max-regress",
        type=float,
        default=10.0,
        metavar="PCT",
        help="regression budget for --compare, in percent of the "
        "baseline value (default: 10)",
    )

    return parser


def _fault_plan_from(args: argparse.Namespace):
    """The :class:`repro.faults.FaultPlan` named by ``--fault-plan``, if any."""
    path = getattr(args, "fault_plan", None)
    if not path:
        return None
    from .faults import load_fault_plan

    return load_fault_plan(path)


def _execution_from(args: argparse.Namespace):
    from .config import ExecutionConfig

    return ExecutionConfig(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=not getattr(args, "no_cache", False),
        fault_plan=_fault_plan_from(args),
        max_retries=getattr(args, "max_retries", 2),
        unit_timeout=getattr(args, "unit_timeout", None),
    )


def _config_from(args: argparse.Namespace) -> FgcsConfig:
    from .workloads.profiles import PROFILES

    factory = PROFILES[getattr(args, "profile", "student-lab")]
    config = factory(n_machines=args.machines, days=args.days, seed=args.seed)
    return config.with_execution(_execution_from(args))


def _compiled_scenario_from(args: argparse.Namespace):
    """Resolve ``--scenario`` (or a positional name) to a compiled scenario.

    The CLI frame flags always pin the frame: ``--machines``/``--days``/
    ``--seed`` carry their argparse defaults (20/92/2006 — the same as
    the scenario frame defaults) when not given, so a scenario's own
    ``defaults`` block applies through :func:`compile_scenario` in API
    use but the CLI frame is always explicit and printed by ``show``.
    """
    from .scenarios import compile_scenario, get_scenario

    spec = get_scenario(args.scenario)
    return compile_scenario(
        spec,
        machines=getattr(args, "machines", None),
        days=getattr(args, "days", None),
        seed=getattr(args, "seed", None),
    )


def _partial_results(dataset) -> int:
    """3 if the dataset is degraded (quarantined machines), else 0.

    Degraded runs still produce their artifacts — the events that *were*
    generated are real — but the nonzero exit code and stderr summary
    keep a partial dataset from silently passing for a complete one.
    """
    quarantined = dataset.metadata.get("quarantined_machines") or []
    if not quarantined:
        return 0
    print(
        f"warning: partial results: {len(quarantined)} machine(s) "
        f"quarantined after exhausting retries (ids {quarantined}); "
        "their events are missing",
        file=sys.stderr,
    )
    return 3


def _progress(
    args: argparse.Namespace, stage: str, *, unit: Optional[str] = None
) -> Optional[Callable[[int, int], None]]:
    """The ``[k/N] <stage>`` stderr progress callback, or ``None``.

    Silent when stderr is not a TTY or under ``--log-json`` (machine-
    readable output stays clean).  Sharded stages pass ``unit="shard"``
    for ``[shard k/N] <stage>``.
    """
    from .obs import cli_progress

    if getattr(args, "log_json", False):
        return None
    return cli_progress(stage, unit=unit)


def _load_or_generate(args: argparse.Namespace):
    from .traces import generate_dataset, is_shard_store, load_dataset, open_shards

    trace = getattr(args, "trace", None)
    if trace:
        if is_shard_store(trace):
            print(f"loading sharded trace from {trace}", file=sys.stderr)
            return open_shards(trace).load_full()
        print(f"loading trace from {trace}", file=sys.stderr)
        return load_dataset(trace)
    print("generating trace (use 'generate' to save one for reuse)", file=sys.stderr)
    return generate_dataset(
        _config_from(args), progress=_progress(args, args.command)
    )


def _record_scenario(compiled) -> None:
    """Put the scenario identity into the run's metrics stream.

    ``build_manifest`` lifts these events into the manifest's
    ``scenario`` section, so a trace generated from a scenario is
    attributable: the section carries the scenario name and the compiled
    fingerprint that keys its cache entries.
    """
    from .obs import get_registry

    get_registry().record(
        "scenario",
        scenario=compiled.spec.name,
        fingerprint=compiled.fingerprint,
        classes=[c.name for c in compiled.spec.classes],
        machines=compiled.n_machines,
        days=compiled.days,
        seed=compiled.seed,
        trivial=compiled.is_trivial,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    from .traces import generate_dataset_columns, generate_shards, save_columns
    from .units import DAY

    if args.scenario:
        from .scenarios import scenario_fleet

        compiled = _compiled_scenario_from(args)
        _record_scenario(compiled)
        fleet, execution = scenario_fleet(compiled), _execution_from(args)
        suffix = f" (scenario {compiled.spec.name})"
    else:
        config = _config_from(args)
        fleet, execution, suffix = config, config.execution, ""
    if args.shards is not None:
        manifest = generate_shards(
            fleet,
            args.output,
            args.shards,
            progress=_progress(args, "generate", unit="shard"),
            execution=execution,
            format=args.format,
        )
        print(
            f"wrote {manifest.n_events} events across {manifest.n_shards} "
            f"shard(s) to {args.output}{suffix}"
        )
        return _partial_results(manifest)
    # The object-free columnar pipeline: events go straight from the
    # detector's structured rows to disk (either format, identical bytes
    # to the legacy per-event path).
    columns = generate_dataset_columns(
        fleet, progress=_progress(args, "generate"), execution=execution
    )
    save_columns(columns, args.output, format=args.format)
    machine_days = columns.n_machines * columns.span / DAY
    print(
        f"wrote {len(columns)} events over {machine_days:.0f} "
        f"machine-days to {args.output}{suffix}"
    )
    return _partial_results(columns)


def cmd_convert(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .traces import (
        convert_shards,
        is_shard_store,
        load_columns,
        open_shards,
        save_columns,
    )

    if is_shard_store(args.input):
        manifest = convert_shards(
            open_shards(args.input),
            args.output,
            args.format,
            progress=_progress(args, "convert", unit="shard"),
        )
        print(
            f"converted {manifest.n_shards} shard(s) "
            f"({manifest.n_events} events) to {args.format} in {args.output}"
        )
        return 0
    # Read into memory: the output may be the input file itself.
    columns = load_columns(args.input, mmap=False)
    save_columns(columns, args.output, format=args.format)
    size = Path(args.output).stat().st_size
    print(
        f"converted {len(columns)} events to {args.format} in "
        f"{args.output} ({size} bytes)"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_columns, analyze_shards, evaluate_landmarks
    from .analysis.report import render_section5_text
    from .traces import (
        generate_dataset_columns,
        is_shard_store,
        load_columns,
        open_shards,
    )

    # Every source folds its event columns once through the mergeable
    # accumulators (repro.analysis.accumulators): a shard store one
    # shard at a time, a flat file or a generated trace as one unit.
    trace = args.trace
    if trace and is_shard_store(trace):
        print(f"streaming sharded trace from {trace}", file=sys.stderr)
        carrier = open_shards(trace)
        analysis = analyze_shards(
            carrier,
            execution=_execution_from(args),
            progress=_progress(args, "analyze", unit="shard"),
        )
    else:
        if trace:
            print(f"loading trace from {trace}", file=sys.stderr)
            carrier = load_columns(trace)
        else:
            print(
                "generating trace (use 'generate' to save one for reuse)",
                file=sys.stderr,
            )
            carrier = generate_dataset_columns(
                _config_from(args), progress=_progress(args, args.command)
            )
        analysis = analyze_columns(carrier)
    print(
        render_section5_text(
            analysis.breakdown,
            analysis.intervals,
            analysis.pattern,
            span=analysis.span,
            start_weekday=analysis.start_weekday,
        )
    )
    if args.check:
        print()
        checks = evaluate_landmarks(
            analysis.breakdown,
            analysis.intervals,
            analysis.pattern,
            span=analysis.span,
            n_machines=analysis.n_machines,
        )
        for c in checks:
            print(c)
        if not all(c.ok for c in checks):
            return _partial_results(carrier) or 1
    return _partial_results(carrier)


def cmd_thresholds(args: argparse.Namespace) -> int:
    from .contention.thresholds import calibrate_thresholds
    from .faults import FaultContext, RetryPolicy

    faults = FaultContext(
        plan=_fault_plan_from(args),
        policy=RetryPolicy(
            max_retries=args.max_retries, unit_timeout=args.unit_timeout
        ),
        label="thresholds.cell",
    )
    estimate = calibrate_thresholds(
        duration=args.duration, jobs=args.jobs, faults=faults
    )
    print(
        f"calibrated Th1 = {estimate.th1:.2f} (paper: 0.20), "
        f"Th2 = {estimate.th2:.2f} (paper: 0.60)"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from .prediction import (
        EwmaPredictor,
        GlobalRatePredictor,
        HistoryWindowPredictor,
        HourlyMeanPredictor,
        IntervalExponentialPredictor,
        LastDayPredictor,
        evaluate_predictors,
    )

    dataset = _load_or_generate(args)
    result = evaluate_predictors(
        dataset,
        [
            GlobalRatePredictor(),
            HourlyMeanPredictor(),
            LastDayPredictor(),
            EwmaPredictor(),
            IntervalExponentialPredictor(),
            HistoryWindowPredictor(history_days=8),
        ],
        train_days=args.train_days,
    )
    print(f"train {result.train_days} days, test {result.test_days} days")
    for score in sorted(result.scores, key=lambda s: s.brier):
        print(score)
    return _partial_results(dataset)


def cmd_schedule(args: argparse.Namespace) -> int:
    from .scheduling import run_scheduling_experiment

    dataset = _load_or_generate(args)
    comparison = run_scheduling_experiment(dataset, train_days=args.train_days)
    for r in comparison.results:
        print(r)
    return _partial_results(dataset)


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .errors import ServeError, TraceError
    from .obs import MetricsRegistry, get_registry
    from .serve import ServeSpec, boot
    from .traces import is_shard_store

    knobs = dict(
        block_machines=args.block_machines,
        hot_shards=args.hot_shards,
        hot_bytes=(
            int(args.hot_mb * (1 << 20)) if args.hot_mb is not None else None
        ),
        history_days=args.history_days,
        statistic=args.statistic,
        laplace=args.laplace,
        ingest_queue=args.ingest_queue,
        snapshot_dir=args.snapshot_dir,
        snapshot_every=args.snapshot_every,
    )
    if args.workers != 1 and not is_shard_store(args.trace):
        print(
            "error: --workers needs a shard-store trace (worker "
            "processes rebuild their machine ranges from the store); "
            f"{args.trace!r} is a flat trace file",
            file=sys.stderr,
        )
        return 2
    # /v1/stats reports from the registry, so the daemon keeps one with or
    # without a run manifest.
    registry = get_registry()
    if not registry.enabled:
        registry = MetricsRegistry()
    try:
        if args.workers == 1:
            spec = ServeSpec(args.trace, host=args.host, port=args.port, **knobs)
            handle = boot(spec, registry)
        else:
            # Only a router loads it: one process keeps its import set.
            from .serve import start_router

            handle = start_router(
                args.trace,
                n_workers=args.workers,
                host=args.host,
                port=args.port,
                registry=registry,
                **knobs,
            )
    except (ServeError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    health = handle.app.healthz()
    workers = len(health.get("workers", ())) or 1
    print(
        f"serving {health['n_machines']} machine(s) (horizon day "
        f"{health['horizon_day']}, {workers} worker(s)) on {handle.url} "
        "— POST /v1/shutdown or Ctrl-C to stop",
        file=sys.stderr,
    )
    t0 = time.perf_counter()
    try:
        if args.stdin:
            _ingest_stdin(handle, registry)
        handle.wait()
    except KeyboardInterrupt:
        print("interrupted, shutting down", file=sys.stderr)
    finally:
        try:
            handle.app.flush()
        except ServeError as exc:  # a worker is down: record the rest
            print(f"final flush incomplete: {exc}", file=sys.stderr)
        stats = handle.app.stats()
        handle.close()
        duration = time.perf_counter() - t0

        def qps(payload: dict) -> float:
            requests = payload.get("requests", 0)
            return round(requests / duration, 3) if duration > 0 else 0.0

        # The manifest section is the final /v1/stats payload plus rates.
        section = dict(stats, qps=qps(stats), duration_s=round(duration, 3))
        if "workers" in stats:
            section["workers"] = [
                dict(lane, qps=qps(lane)) for lane in stats["workers"]
            ]
        registry.record("serve", **section)
    return 0


def _ingest_stdin(handle, registry) -> None:
    """Apply each stdin line as one ``POST /v1/ingest`` batch, in order.

    A line is acknowledged before the next is applied.  A 429 (queue full)
    or 503 (the owning worker is restarting) is waited out, never
    dropped; any other rejection is reported and counted in
    ``serve.ingest_errors``.  Returns at end of input, or once the
    server has stopped (``POST /v1/shutdown``) even while the writer
    keeps stdin open: the descriptor is polled with ``select`` and read
    unbuffered, on this thread.
    """
    import os
    import select
    import time

    def apply(line: bytes) -> None:
        while True:
            status, payload = handle.app.handle("POST", "/v1/ingest", line)
            if status not in (429, 503):
                break
            time.sleep(payload.get("retry_after", 0.25))
        if status != 200:
            print(f"ingest error: {payload['error']}", file=sys.stderr)
            registry.inc("serve.ingest_errors")

    fd = sys.stdin.fileno()
    pending = b""
    while handle.thread.is_alive():
        if not select.select([fd], [], [], 0.1)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        *lines, pending = (pending + chunk).split(b"\n")
        if not chunk:  # end of input: the last line may lack its newline
            lines.append(pending)
        for line in lines:
            if line.strip():
                apply(line)
        if not chunk:
            return


def cmd_query(args: argparse.Namespace) -> int:
    import json

    from .serve import ServeClient, ServeRequestError
    from .errors import ServeError

    try:
        with ServeClient(args.url) as client:
            if args.endpoint == "availability":
                payload = client.availability(
                    args.machine, args.duration, day=args.day, hour=args.hour
                )
            elif args.endpoint == "capacity":
                payload = client.capacity(
                    args.duration,
                    threshold=args.threshold,
                    day=args.day,
                    hour=args.hour,
                )
            elif args.endpoint == "rank":
                payload = client.rank(
                    args.duration, k=args.k, day=args.day, hour=args.hour
                )
            elif args.endpoint == "stats":
                payload = client.stats()
            elif args.endpoint == "health":
                payload = client.healthz()
            else:
                payload = client.shutdown()
    except ServeRequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ServeError, ConnectionError, OSError, TimeoutError) as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        return _scenario_list(args)
    if args.action == "show":
        return _scenario_show(args)
    if args.action == "validate":
        return _scenario_validate(args)
    return _scenario_diff(args)


def _scenario_list(args: argparse.Namespace) -> int:
    from .scenarios import get_scenario, scenario_names

    names = scenario_names()
    width = max((len(n) for n in names), default=0)
    for name in names:
        spec = get_scenario(name)
        tags = []
        if len(spec.classes) > 1:
            tags.append(f"{len(spec.classes)} classes")
        if spec.regimes:
            tags.append(f"{len(spec.regimes)} regimes")
        if spec.outages:
            tags.append(f"{len(spec.outages)} outages")
        if spec.flash_crowds:
            tags.append(f"{len(spec.flash_crowds)} flash crowds")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(f"{name:<{width}}  {spec.description}{suffix}")
    return 0


def _scenario_show(args: argparse.Namespace) -> int:
    from .scenarios import compile_scenario, get_scenario
    from .units import DAY

    spec = get_scenario(args.name)
    compiled = compile_scenario(
        spec, machines=args.machines, days=args.days, seed=args.seed
    )
    print(f"scenario: {spec.name}")
    print(f"  {spec.description}")
    print(
        f"frame: {compiled.n_machines} machines x {compiled.days} days, "
        f"seed {compiled.seed}"
    )
    print(f"fingerprint: {compiled.fingerprint}")
    ranges = compiled.class_ranges()
    print("classes:")
    for cls, (lo, hi) in zip(spec.classes, ranges):
        overrides = []
        if cls.lab:
            overrides.append(
                "lab{" + ", ".join(f"{k}={v:g}" for k, v in sorted(cls.lab.items())) + "}"
            )
        if cls.testbed:
            overrides.append(
                "testbed{"
                + ", ".join(f"{k}={v:g}" for k, v in sorted(cls.testbed.items()))
                + "}"
            )
        suffix = f"  {' '.join(overrides)}" if overrides else ""
        print(
            f"  {cls.name}: profile={cls.profile} weight={cls.weight:g} "
            f"machines=[{lo}, {hi}) ({hi - lo}){suffix}"
        )
    segments = compiled.segments()
    if len(segments) > 1 or any(s.lab for s in segments):
        print("regime segments:")
        for seg in segments:
            name = seg.name or "base"
            print(
                f"  [{seg.start_day}, {seg.start_day + seg.n_days}) days: "
                f"{name}"
            )
    def fmt_selector(sel) -> str:
        if sel == "all":
            return "all"
        if "class" in sel:
            return f"class {sel['class']}"
        lo, hi = sel["range"]
        return f"range [{lo:g}, {hi:g})"

    if spec.outages:
        print("outages:")
        for o in spec.outages:
            rep = f" every {o.repeat_days:g}d" if o.repeat_days else ""
            print(
                f"  {o.name}: day {o.day:g} hour {o.hour:g} for "
                f"{o.duration_hours:g}h, machines={fmt_selector(o.machines)}{rep}"
            )
    if spec.flash_crowds:
        print("flash crowds:")
        for f in spec.flash_crowds:
            rep = f" every {f.repeat_days:g}d" if f.repeat_days else ""
            print(
                f"  {f.name}: day {f.day:g} hour {f.hour:g} for "
                f"{f.duration_hours:g}h, fraction {f.fraction:g} at load "
                f"{f.load:g}{rep}"
            )
    span_days = compiled.span / DAY
    n_events = "trivial (delegates to the stock generator)" if compiled.is_trivial else "composed"
    print(f"span: {span_days:g} days; generation path: {n_events}")
    return 0


def _scenario_validate(args: argparse.Namespace) -> int:
    from .errors import ScenarioError
    from .scenarios import compile_scenario, get_scenario, scenario_names

    names = list(args.names)
    if args.all:
        names.extend(n for n in scenario_names() if n not in names)
    if not names:
        print(
            "error: scenario validate needs scenario names or --all",
            file=sys.stderr,
        )
        return 2
    rc = 0
    for name in names:
        try:
            spec = get_scenario(name)
            compiled = compile_scenario(spec)
        except ScenarioError as exc:
            print(f"{name}: invalid: {exc}", file=sys.stderr)
            rc = 2
            continue
        print(
            f"{spec.name}: ok ({len(spec.classes)} class(es), "
            f"fingerprint {compiled.fingerprint[:12]})"
        )
    return rc


def _scenario_diff(args: argparse.Namespace) -> int:
    from .scenarios import (
        ScenarioAnalysis,
        compile_scenario,
        diff_report,
        generate_scenario_columns,
        get_scenario,
    )

    if len(args.names) < 2:
        print(
            "error: scenario diff needs at least two scenarios "
            "(a baseline and one or more to compare)",
            file=sys.stderr,
        )
        return 2
    execution = _execution_from(args)
    analyses = []
    for name in args.names:
        spec = get_scenario(name)
        compiled = compile_scenario(
            spec, machines=args.machines, days=args.days, seed=args.seed
        )
        _record_scenario(compiled)
        columns = generate_scenario_columns(
            compiled,
            progress=_progress(args, f"generate {spec.name}"),
            execution=execution,
        )
        analyses.append(ScenarioAnalysis.from_dataset(spec.name, columns))
    report = diff_report(analyses)
    print(report)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report + "\n", encoding="utf-8")
        print(f"wrote scenario diff report to {args.out}", file=sys.stderr)
    return 0


def _load_manifest(path: str):
    """A parsed :class:`RunManifest`, or an error string."""
    from .obs import RunManifest

    try:
        return RunManifest.load(path)
    except FileNotFoundError:
        return f"manifest not found: {path}"
    except (ValueError, TypeError, KeyError) as exc:
        return f"not a run manifest: {path} ({exc})"


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.compare:
        from .obs import compare_manifests

        loaded = [_load_manifest(p) for p in args.compare]
        errors = [m for m in loaded if isinstance(m, str)]
        if errors:
            for err in errors:
                print(f"error: {err}", file=sys.stderr)
            return 2
        baseline, current = loaded
        result = compare_manifests(
            baseline, current, max_regress_pct=args.max_regress
        )
        print(result.render())
        return 0 if result.ok else 1
    if args.target is None:
        print(
            "error: report needs a target (an artifact output directory "
            "or a run-manifest JSON) or --compare",
            file=sys.stderr,
        )
        return 2
    if Path(args.target).is_file():
        from .obs import render_manifest_report

        manifest = _load_manifest(args.target)
        if isinstance(manifest, str):
            print(f"error: {manifest}", file=sys.stderr)
            return 2
        print(render_manifest_report(manifest))
        return 0
    return _report_artifacts(args)


def _report_artifacts(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import (
        capacity_report,
        cause_breakdown,
        daily_pattern,
        evaluate_landmarks,
        interval_distribution,
        predictability_report,
        weekday_profile,
    )
    from .analysis.fits import fit_interval_distributions
    from .analysis.hazard import hazard_curve
    from .analysis.report import TOO_SHORT, render_section5
    from .errors import ReproError

    # The per-event reference, not the column fold: the fits, hazard,
    # predictability and capacity artifacts need the raw interval arrays
    # and event objects.
    dataset = _load_or_generate(args)
    out = Path(args.target)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (out / name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out / name}")

    breakdown = cause_breakdown(dataset)
    dist = interval_distribution(dataset)
    pattern = daily_pattern(dataset)
    for name, _, text in render_section5(
        breakdown,
        dist,
        pattern,
        span=dataset.span,
        start_weekday=dataset.start_weekday,
    ):
        if text is None:
            print(f"{name}.txt skipped: {TOO_SHORT[name]}")
        else:
            write(f"{name}.txt", text)
    for name, build in (
        ("interval_fits", lambda: fit_interval_distributions(dist.weekday_hours)),
        ("hazard", lambda: hazard_curve(dataset, weekend=False)),
    ):
        try:
            artifact = build()
        except ReproError as exc:
            print(f"{name}.txt skipped: {exc} (trace too short)")
        else:
            write(f"{name}.txt", artifact.render())
    if dataset.n_days >= 14:
        write("predictability.txt", predictability_report(dataset).summary())
        write("weekday_profile.txt", weekday_profile(dataset).render())
    else:
        for name in ("predictability", "weekday_profile"):
            print(
                f"{name}.txt skipped: needs at least 14 whole days, the "
                f"trace has {dataset.n_days} (trace too short)"
            )
    if dataset.hourly_load is not None:
        write("capacity.txt", capacity_report(dataset).summary())
    else:
        print("capacity.txt skipped: the trace carries no hourly load")
    checks = evaluate_landmarks(
        breakdown, dist, pattern, span=dataset.span, n_machines=dataset.n_machines
    )
    write("landmarks.txt", "\n".join(str(c) for c in checks))
    return _partial_results(dataset) or (0 if all(c.ok for c in checks) else 1)


_COMMANDS = {
    "generate": cmd_generate,
    "convert": cmd_convert,
    "analyze": cmd_analyze,
    "thresholds": cmd_thresholds,
    "predict": cmd_predict,
    "schedule": cmd_schedule,
    "serve": cmd_serve,
    "query": cmd_query,
    "scenario": cmd_scenario,
    "report": cmd_report,
}

#: Counters every manifest should carry even when they stayed at zero, so
#: consumers can rely on the keys being present.
_DECLARED_COUNTERS = (
    "cache.hit",
    "cache.miss",
    "cache.corrupt_evicted",
    "cache.write",
    "cache.write_failed",
    "parallel.units",
    "retries.attempts",
    "retries.succeeded",
    "retries.exhausted",
    "rng.draws.busyness",
    "rng.draws.plan",
    "rng.draws.signal",
)


def _check_out_paths(args: argparse.Namespace) -> Optional[str]:
    """Validate ``--metrics-out`` / ``--trace-out`` before running.

    A run should never do minutes of work only to fail writing its
    telemetry at the end; unwritable destinations are rejected up front
    with a clear error (exit 2).  ``-`` means stdout and only
    ``--metrics-out`` supports it.
    """
    import os
    from pathlib import Path

    for flag, value, allow_stdout in (
        ("--metrics-out", getattr(args, "metrics_out", None), True),
        ("--trace-out", getattr(args, "trace_out", None), False),
    ):
        if not value:
            continue
        if value == "-":
            if allow_stdout:
                continue
            return f"{flag} does not support '-' (stdout); give a file path"
        path = Path(value)
        parent = path.parent
        if not parent.is_dir():
            return f"{flag}: directory {parent} does not exist"
        if not os.access(parent, os.W_OK):
            return f"{flag}: directory {parent} is not writable"
        if path.is_dir():
            return f"{flag}: {path} is a directory"
        if path.exists() and not os.access(path, os.W_OK):
            return f"{flag}: {path} is not writable"
    return None


def _write_manifest(
    args: argparse.Namespace,
    argv: list[str],
    exit_code: int,
    registry,
    started_at: str,
    duration_s: float,
    resources: Optional[dict] = None,
) -> None:
    import json

    from .obs import build_manifest

    from .errors import FaultError

    from .errors import ConfigError

    fingerprint = None
    if getattr(args, "scenario", None):
        # A scenario run's identity is the compiled-scenario fingerprint
        # (the one that keys its cache entries), not the stock profile's.
        try:
            fingerprint = _compiled_scenario_from(args).fingerprint
        except ConfigError:
            pass  # the invalid scenario already failed the command
    elif hasattr(args, "machines") and args.command != "scenario":
        from .parallel.cache import config_fingerprint

        try:
            fingerprint = config_fingerprint(_config_from(args))
        except FaultError:
            # A bad --fault-plan already failed the command; the manifest
            # (which excludes execution settings anyway) still gets written.
            pass
    manifest = build_manifest(
        command=args.command,
        argv=argv,
        registry=registry,
        duration_s=duration_s,
        started_at=started_at,
        exit_code=exit_code,
        seed=getattr(args, "seed", None),
        config_fingerprint=fingerprint,
        resources=resources,
    )
    if args.metrics_out == "-":
        # One compact line, emitted last: consumers that also want the
        # command's normal stdout can take the final line as the manifest.
        print(json.dumps(manifest.to_dict(), sort_keys=True), flush=True)
        return
    path = manifest.write(args.metrics_out)
    if args.log_json:
        # Keep the stderr stream pure JSON-lines: route through the logger.
        logging.getLogger("repro.cli").info("wrote run manifest to %s", path)
    else:
        print(f"wrote run manifest to {path}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import time
    from datetime import datetime, timezone

    argv_list = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv_list)

    error = _check_out_paths(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from .obs import (
        MetricsRegistry,
        ResourceSampler,
        finish_progress,
        setup_logging,
        use_registry,
    )

    setup_logging(level=args.log_level, json_lines=args.log_json)
    # Telemetry (the registry and the background resource sampler) runs
    # only when an output for it was asked for, preserving the
    # zero-cost-when-disabled contract.
    telemetry = bool(args.metrics_out or args.trace_out)
    registry = MetricsRegistry(enabled=telemetry)
    for name in _DECLARED_COUNTERS:
        registry.inc(name, 0)
    sampler = ResourceSampler().start() if telemetry else None

    from .errors import ReproError

    started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.perf_counter()
    with use_registry(registry):
        try:
            with registry.span(args.command):
                rc = _COMMANDS[args.command](args)
        except ReproError as exc:
            # Invalid input (a trace that is not one, or too short for the
            # command; fault plans, scenario and config documents) and
            # unrecoverable injected failures are operational errors, not
            # bugs: report them in one line and exit 2 — never a
            # traceback, and never 1, which means a landmark failed.
            print(f"error: {exc}", file=sys.stderr)
            rc = 2
        finally:
            # Leave no half-drawn progress line behind on *any* exit path
            # (landmark failure 1, fault error 2, partial results 3).
            finish_progress()
            if sampler is not None:
                sampler.stop()
    resources = sampler.snapshot() if sampler is not None else None
    if args.trace_out:
        from .obs import export_chrome_trace

        path = export_chrome_trace(
            registry,
            args.trace_out,
            command=args.command,
            resources=resources,
            resources_epoch_unix=sampler.epoch_unix if sampler else None,
        )
        if args.log_json:
            logging.getLogger("repro.cli").info("wrote Chrome trace to %s", path)
        else:
            print(f"wrote Chrome trace to {path}", file=sys.stderr)
    if args.metrics_out:
        _write_manifest(
            args,
            argv_list,
            rc,
            registry,
            started_at,
            time.perf_counter() - t0,
            resources=resources,
        )
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
