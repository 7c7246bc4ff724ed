#!/usr/bin/env sh
# Scenario differential-report smoke test.  Run from the repo root:
#
#   sh benchmarks/scenarios_smoke.sh OUT
#
# Renders `scenario diff` for the plain baseline, a regime schedule with
# outages (semester-break) and flash crowds (flash-crowd) at 4 machines
# x 7 days, seed 42, into OUT/scenario-diff.txt, and checks that its run
# manifest (OUT/scenario-manifest.json) records every compared scenario
# with its fingerprint.  `make scenarios-smoke` and CI run it.
set -eu

out=$1
mkdir -p "$out"

PYTHONPATH=src python -m repro.cli scenario diff \
    student-lab-baseline semester-break flash-crowd \
    --machines 4 --days 7 --seed 42 \
    --out "$out/scenario-diff.txt" --metrics-out "$out/scenario-manifest.json"
test -s "$out/scenario-diff.txt"

PYTHONPATH=src python - "$out/scenario-manifest.json" <<'EOF'
import sys

from repro.obs import RunManifest

m = RunManifest.load(sys.argv[1])
assert m.command == "scenario", m.command
compared = m.scenario["compared"]
names = [e["scenario"] for e in compared]
assert names == [
    "student-lab-baseline", "semester-break", "flash-crowd",
], names
assert all(e["fingerprint"] for e in compared), compared
print("scenario manifest OK:", names)
EOF
