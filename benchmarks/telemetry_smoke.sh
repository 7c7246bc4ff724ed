#!/usr/bin/env sh
# Run-manifest smoke test.  Run from the repo root:
#
#   sh benchmarks/telemetry_smoke.sh OUT
#
# Analyzes a freshly generated 2-machine, 2-day trace with telemetry on
# and checks that its run manifest (OUT/metrics.json) parses and carries
# the command, config fingerprint, seed, phase spans, cache counters and
# one parallel unit per machine.  `make telemetry-smoke` and CI run it.
set -eu

out=$1
mkdir -p "$out"

PYTHONPATH=src python -m repro.cli analyze \
    --days 2 --machines 2 --metrics-out "$out/metrics.json"

PYTHONPATH=src python - "$out/metrics.json" <<'PY'
import sys

from repro.obs import RunManifest

m = RunManifest.load(sys.argv[1])
assert m.command == "analyze", m.command
assert m.config_fingerprint, "missing config fingerprint"
assert m.seed is not None
assert m.spans and m.spans[0]["name"] == "analyze"
assert m.spans[0]["children"], "no phase spans recorded"
counters = m.metrics["counters"]
assert "cache.hit" in counters and "cache.miss" in counters
assert counters["parallel.units"] == 2, counters
assert m.metrics["histograms"]["parallel.unit_seconds"]["count"] == 2
print("manifest OK:", m.command, m.config_fingerprint[:12])
PY
