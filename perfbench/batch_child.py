"""The ``batch`` system under test, run in a fresh interpreter.

``python3 batch_child.py SEED SECONDS TRACE OUT WORKDIR [--setup-only]``

Prints ``READY <import seconds>`` once ``repro`` is imported and the
fleet config is built (the set-up the parent times), then, unless
``--setup-only``, repeats ``generate_shards`` → ``analyze_shards`` over
the seed's fleet for SECONDS and writes its measurements to OUT.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path


def render(breakdown, intervals, pattern) -> str:
    """Table 2, Figure 6 and Figure 7 as ``repro-fgcs analyze`` prints them."""
    from repro.analysis.report import render_figure6, render_figure7, render_table2

    return "\n\n".join(
        (render_table2(breakdown), render_figure6(intervals), render_figure7(pattern))
    )


def raw_results(breakdown, intervals, pattern) -> dict:
    """The raw arrays the repository's differential tests compare exactly.

    The rendered text rounds, so two analyses one event apart can print
    alike; these cannot.
    """
    import numpy as np

    arrays = {
        f"breakdown.{name}": getattr(breakdown, name)
        for name in ("totals", "cpu", "memory", "revocation", "reboots")
    }
    arrays["pattern.counts"] = pattern.counts
    arrays["intervals.weekday_count"] = np.asarray(intervals.weekday_count)
    arrays["intervals.weekend_count"] = np.asarray(intervals.weekend_count)
    return arrays


def mismatches(text: str, arrays: dict, other_text: str, other_arrays: dict) -> list[str]:
    """Names of the results on which two analyses differ."""
    import numpy as np

    names = [] if text == other_text else ["rendered Table 2 / Fig. 6 / Fig. 7"]
    return names + [
        name for name in arrays if not np.array_equal(arrays[name], other_arrays[name])
    ]


def digest(text: str, arrays: dict) -> str:
    """SHA-256 over the rendered text and the raw arrays of one analysis."""
    h = hashlib.sha256(text.encode())
    for name, array in arrays.items():
        h.update(f"{name}:{array.dtype}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    seed, seconds, trace = int(argv[0]), float(argv[1]), argv[2] == "1"
    out, workdir = Path(argv[3]), Path(argv[4])
    t0 = time.monotonic()
    import repro.cli  # noqa: F401  (the import every entry point pays)

    import_s = time.monotonic() - t0
    import fleet_inputs

    config = fleet_inputs.batch_config(seed)
    print(f"READY {import_s!r}", flush=True)
    if "--setup-only" in argv:
        return 0

    if trace:
        import spans

        spans.install_batch()
    from repro.analysis import analyze_shards
    from repro.traces import generate_shards, open_shards

    reps = []
    start = time.monotonic()
    store = None
    while not reps or time.monotonic() - start < seconds:
        if store is not None:
            shutil.rmtree(store)
        store = workdir / f"rep{len(reps)}"
        t_a = time.monotonic()
        manifest = generate_shards(
            config, store, fleet_inputs.BATCH_SHARDS, format="binary"
        )
        t_b = time.monotonic()
        analysis = analyze_shards(open_shards(store))
        t_c = time.monotonic()
        streamed = (analysis.breakdown, analysis.intervals, analysis.pattern)
        text, arrays = render(*streamed), raw_results(*streamed)
        reps.append(
            {
                "start": t_a,
                "end": t_c,
                "wall_s": t_c - t_a,
                "generate_s": t_b - t_a,
                "analyze_s": t_c - t_b,
                "fingerprints": [s.sha256 for s in manifest.shards],
                "analysis_sha256": digest(text, arrays),
            }
        )
    from procs import peak_rss_mb

    result = {
        "reps": reps,
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
        "machine_days": open_shards(store).machine_days,
        "events": manifest.n_events,
    }

    # Gate: the streamed analysis equals the monolithic one of the same store.
    from repro.analysis import cause_breakdown, daily_pattern, interval_distribution

    dataset = open_shards(store).load_full()
    monolithic = (
        cause_breakdown(dataset), interval_distribution(dataset), daily_pattern(dataset)
    )
    result["streaming_mismatches"] = mismatches(
        text, arrays, render(*monolithic), raw_results(*monolithic)
    )

    if trace:
        import layers

        recorded = layers.SpanSet([{"pid": 0, "spans": spans.RECORDER.spans}])
        result["layers"] = [
            layers.batch_rep_layers(recorded, rep["start"], rep["end"]) for rep in reps
        ]
        result["self_table"] = recorded.self_table()
        result["counters"] = dict(spans.RECORDER.counters)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
