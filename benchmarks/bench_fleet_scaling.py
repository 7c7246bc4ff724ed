"""Fleet-scaling benchmark: 1000 machines, 92 days, fixed memory ceiling.

The ISSUE's acceptance criterion for the sharded/streaming layer:
streaming analysis of a ≥1000-machine, 92-day fleet must complete with
peak RSS below a fixed ceiling, and its Table 2 / Figure 6 / Figure 7
numbers must equal the per-event reference on the same data.

The fleet is synthetic — per-machine event streams drawn from cheap
closed-form distributions rather than the full generation pipeline, so
building it takes seconds, not minutes — but it is written through the
real shard layer (one JSONL per machine range + manifest) and analyzed
through the real accumulators.  Peak RSS is measured in a subprocess via
``resource.getrusage``, so the number reflects the analyzer alone, not
the benchmark harness.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.traces.dataset import TraceDataset
from repro.traces.io import save_dataset
from repro.traces.shards import ShardInfo, ShardManifest, partition_machines
from repro.units import DAY, HOUR, MINUTE

from conftest import emit, once

N_MACHINES = 1000
N_DAYS = 92
N_SHARDS = 20
SEED = 1306
SPAN = float(N_DAYS * DAY)
START_WEEKDAY = 2  # the paper's trace starts mid-week

#: Hard ceiling on the streaming analyzer's peak RSS.  The point of the
#: assertion is scale-independence: one shard (~50 machines) in memory at
#: a time, never the 1000-machine fleet.  The ceiling has headroom over
#: interpreter + numpy baseline (~60 MB) plus one shard, but sits far
#: below what materializing the full event list costs.
RSS_CEILING_MB = 256


def _machine_events(local_id: int, global_id: int) -> list[UnavailabilityEvent]:
    """One synthetic machine's unavailability events, time-ordered.

    Streams are keyed by the *global* machine id so the fleet is
    well-defined independent of the shard partition.
    """
    rng = np.random.default_rng((SEED, global_id))
    events: list[UnavailabilityEvent] = []
    t = float(rng.uniform(0.0, DAY))
    while True:
        start = t + float(rng.exponential(36 * HOUR))
        if start >= SPAN - 1.0:
            return events
        u = float(rng.random())
        if u < 0.70:
            state, dur = AvailState.S3, float(rng.uniform(5 * MINUTE, 3 * HOUR))
        elif u < 0.92:
            state, dur = AvailState.S4, float(rng.uniform(5 * MINUTE, 90 * MINUTE))
        elif u < 0.97:
            # Short URR: a reboot per the paper's < 1 min classification.
            state, dur = AvailState.S5, float(rng.uniform(5.0, 50.0))
        else:
            state, dur = AvailState.S5, float(rng.uniform(10 * MINUTE, 6 * HOUR))
        end = min(start + dur, SPAN)
        events.append(
            UnavailabilityEvent(
                machine_id=local_id, start=start, end=end, state=state
            )
        )
        t = end


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory) -> Path:
    """Write the 1000-machine fleet as a shard store, one shard at a time."""
    root = tmp_path_factory.mktemp("fleet1k")
    metadata = {"synthetic": "fleet-scaling-bench", "seed": SEED}
    infos = []
    for index, (lo, hi) in enumerate(partition_machines(N_MACHINES, N_SHARDS)):
        events: list[UnavailabilityEvent] = []
        for mid in range(lo, hi):
            events.extend(_machine_events(mid - lo, mid))
        shard = TraceDataset(
            events=events,
            n_machines=hi - lo,
            span=SPAN,
            start_weekday=START_WEEKDAY,
            hourly_load=None,
            metadata={
                **metadata,
                "shard": {
                    "index": index,
                    "machine_lo": lo,
                    "machine_hi": hi,
                    "fleet_machines": N_MACHINES,
                },
            },
        )
        name = f"shard-{index:05d}.jsonl"
        path = root / name
        save_dataset(shard, path)
        infos.append(
            ShardInfo(
                index=index,
                path=name,
                machine_lo=lo,
                machine_hi=hi,
                n_events=len(shard),
                sha256=hashlib.sha256(path.read_bytes()).hexdigest(),
            )
        )
    ShardManifest(
        n_machines=N_MACHINES,
        span=SPAN,
        start_weekday=START_WEEKDAY,
        shards=tuple(infos),
        metadata=metadata,
    ).save(root)
    return root


# Both probes print one JSON line: the figure-level numbers plus the
# process's own peak RSS.  Run in subprocesses so each measurement is a
# clean address space.

_SUMMARY_SNIPPET = """
def _summary(breakdown, dist, pattern):
    grid, wk, we = dist.cdf_series(FIG6_GRID)
    return {
        "table2": {
            "cpu": int(breakdown.cpu.sum()),
            "memory": int(breakdown.memory.sum()),
            "revocation": int(breakdown.revocation.sum()),
            "reboots": int(breakdown.reboots.sum()),
            "totals": int(breakdown.totals.sum()),
        },
        "fig6": {"weekday": wk.tolist(), "weekend": we.tolist()},
        "fig7": pattern.counts.tolist(),
        "landmarks": dist.landmarks(),
    }


def _finish(out):
    import resource
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024  # ru_maxrss is bytes on darwin, KiB on Linux
    print(json.dumps({"result": out, "ru_maxrss_kb": rss}))
"""

_STREAMING_PROBE = f"""
import json, sys
from repro.analysis import analyze_shards
from repro.analysis.accumulators import FIG6_GRID
{_SUMMARY_SNIPPET}
ana = analyze_shards(sys.argv[1])
_finish(_summary(ana.breakdown, ana.intervals, ana.pattern))
"""

_MONOLITHIC_PROBE = f"""
import json, sys
from repro.analysis import cause_breakdown, daily_pattern, interval_distribution
from repro.analysis.accumulators import FIG6_GRID
from repro.traces import open_shards
{_SUMMARY_SNIPPET}
ds = open_shards(sys.argv[1]).load_full()
_finish(_summary(cause_breakdown(ds), interval_distribution(ds), daily_pattern(ds)))
"""


def _run_probe(script: str, root: Path) -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise AssertionError(f"probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_streaming_fleet_under_memory_ceiling(benchmark, fleet_dir, out_dir):
    """Streaming analysis of the 1000-machine fleet stays under the ceiling."""
    payload = once(benchmark, lambda: _run_probe(_STREAMING_PROBE, fleet_dir))
    rss_mb = payload["ru_maxrss_kb"] / 1024
    n_events = payload["result"]["table2"]["totals"]
    emit(
        out_dir,
        "fleet_scaling.txt",
        f"fleet: {N_MACHINES} machines x {N_DAYS} days, "
        f"{N_SHARDS} shards, {n_events} unavailability events\n"
        f"streaming peak RSS: {rss_mb:.1f} MB (ceiling {RSS_CEILING_MB} MB)",
    )
    assert rss_mb < RSS_CEILING_MB, (
        f"streaming analysis peaked at {rss_mb:.1f} MB, "
        f"over the {RSS_CEILING_MB} MB ceiling"
    )


def test_streaming_matches_monolithic_at_fleet_scale(fleet_dir):
    """Table 2 / Fig 6 / Fig 7 and every landmark equal the per-event
    reference exactly."""
    streaming = _run_probe(_STREAMING_PROBE, fleet_dir)["result"]
    monolithic = _run_probe(_MONOLITHIC_PROBE, fleet_dir)["result"]

    assert streaming["table2"] == monolithic["table2"]
    assert streaming["fig6"] == monolithic["fig6"]
    assert streaming["fig7"] == monolithic["fig7"]
    for key, value in monolithic["landmarks"].items():
        assert streaming["landmarks"][key] == value, key
