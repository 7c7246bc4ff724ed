#!/usr/bin/env sh
# Sharded-fleet smoke test.  Run from the repo root:
#
#   sh benchmarks/fleet_smoke.sh OUT
#
# Generates a 200-machine, 7-day fleet as 8 JSONL shards with 2 workers
# into OUT/fleet, with a run manifest and a Chrome trace, and checks:
# - the trace has one lane per worker pid, `unit:generate_shard` slices
#   and resource counter tracks;
# - `analyze` of the store prints exactly the per-event reference
#   (cause_breakdown, interval_distribution and daily_pattern of the
#   loaded store, through the shared Section 5 text builder);
# - the fleet converted to binary (OUT/fleet-bin) analyzes to the same
#   output, and the convert manifest carries per-format I/O telemetry;
# - the generate and analyze manifests each account for their sharded
#   phase.
# `make fleet-smoke` and CI run it.
set -eu

out=$1
rm -rf "$out/fleet" "$out/fleet-bin"
mkdir -p "$out"

PYTHONPATH=src python -m repro.cli generate "$out/fleet" \
    --machines 200 --days 7 --shards 8 --jobs 2 \
    --metrics-out "$out/gen-manifest.json" --trace-out "$out/trace.json"
test -s "$out/fleet/manifest.json"

PYTHONPATH=src python - "$out/trace.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert all(e["ph"] in ("X", "M", "C") for e in events)
lanes = {
    e["args"]["name"]
    for e in events
    if e["ph"] == "M" and e["name"] == "process_name"
}
workers = [n for n in lanes if n.startswith("worker pid")]
assert len(workers) >= 2, lanes
names = {e["name"] for e in events if e["ph"] == "X"}
assert "unit:generate_shard" in names, names
assert any(e["ph"] == "C" for e in events), "no resource counters"
print(f"trace OK: {len(events)} events, {len(workers)} worker lanes")
EOF

PYTHONPATH=src python -m repro.cli analyze --trace "$out/fleet" \
    --metrics-out "$out/analyze-manifest.json" > "$out/analyze.txt"
PYTHONPATH=src python - "$out/fleet" > "$out/reference.txt" <<'EOF'
import sys

from repro.analysis import cause_breakdown, daily_pattern, interval_distribution
from repro.analysis.report import render_section5_text
from repro.traces import open_shards

ds = open_shards(sys.argv[1]).load_full()
print(
    render_section5_text(
        cause_breakdown(ds),
        interval_distribution(ds),
        daily_pattern(ds),
        span=ds.span,
        start_weekday=ds.start_weekday,
    )
)
EOF
cmp "$out/analyze.txt" "$out/reference.txt"

PYTHONPATH=src python -m repro.cli convert "$out/fleet" "$out/fleet-bin" \
    --metrics-out "$out/convert-manifest.json"
PYTHONPATH=src python -m repro.cli analyze --trace "$out/fleet-bin" \
    > "$out/analyze-bin.txt"
cmp "$out/analyze.txt" "$out/analyze-bin.txt"

PYTHONPATH=src python - "$out" <<'EOF'
import sys

from repro.obs import RunManifest

out = sys.argv[1]
m = RunManifest.load(f"{out}/convert-manifest.json")
assert m.command == "convert", m.command
assert m.io["jsonl"]["bytes_read"] > 0, m.io
assert m.io["binary"]["bytes_written"] > 0, m.io
assert m.io["binary"]["encode_seconds"]["count"] == 8, m.io
print("convert manifest OK:", {
    k: v.get("bytes_written", v.get("bytes_read")) for k, v in m.io.items()
})

gen = RunManifest.load(f"{out}/gen-manifest.json")
(phase,) = gen.shards
assert phase["phase"] == "generate", phase
assert phase["count"] == 8 and phase["machines"] == 200, phase
assert phase["quarantined"] == 0, phase
ana = RunManifest.load(f"{out}/analyze-manifest.json")
(phase,) = ana.shards
assert phase["phase"] == "analyze", phase
assert phase["count"] == 8 and phase["machines"] == 200, phase
print("fleet manifests OK:", gen.shards, ana.shards)
EOF
