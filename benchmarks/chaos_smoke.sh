#!/usr/bin/env sh
# Fault-injection smoke test.  Run from the repo root:
#
#   sh benchmarks/chaos_smoke.sh OUT
#
# Generates a 2-machine, 3-day trace with 2 workers twice through one
# fresh cache (OUT/.fgcs-cache): a clean run, then the same run under a
# fixed fault plan (a worker crash, a unit exception and corrupt cache
# reads).  Checks that the two JSONL traces are byte-identical and that
# the chaotic run's manifest (OUT/chaos-manifest.json) accounts for
# every injected fault, retry and eviction.  `make chaos-smoke` and CI
# run it.
set -eu

out=$1
rm -rf "$out"
mkdir -p "$out"

cat > "$out/plan.json" <<'JSON'
{"seed": 13,
 "faults": [
   {"site": "worker.crash", "match": ["generate.machine:0"]},
   {"site": "unit.exception", "match": ["generate.machine:1"]},
   {"site": "cache.read_corrupt"}
 ]}
JSON
PYTHONPATH=src python -m repro.cli generate "$out/clean.jsonl" \
    --machines 2 --days 3 --jobs 2 --cache-dir "$out/.fgcs-cache"
PYTHONPATH=src python -m repro.cli generate "$out/chaos.jsonl" \
    --machines 2 --days 3 --jobs 2 --cache-dir "$out/.fgcs-cache" \
    --fault-plan "$out/plan.json" --metrics-out "$out/chaos-manifest.json"
cmp "$out/clean.jsonl" "$out/chaos.jsonl"

PYTHONPATH=src python - "$out/chaos-manifest.json" <<'PY'
import sys

from repro.obs import RunManifest

m = RunManifest.load(sys.argv[1])
assert m.exit_code == 0, m.exit_code
assert m.faults["injected"]["worker.crash"] == 1, m.faults
assert m.faults["injected"]["unit.exception"] == 1, m.faults
assert m.faults["injected"]["cache.read_corrupt"] >= 1, m.faults
assert "quarantined" not in m.faults, m.faults
assert m.retries == {"attempts": 2, "succeeded": 2}, m.retries
assert m.metrics["counters"]["cache.corrupt_evicted"] >= 1
print("chaos manifest OK:", m.faults, m.retries)
PY
