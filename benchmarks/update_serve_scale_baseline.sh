#!/usr/bin/env sh
# Refresh the committed scale-out serving baseline manifest that CI's
# `serve` job diffs against with `repro-fgcs report --compare`.
#
# Run from the repo root after an intentional change to the router,
# block pager, or async ingest path, review the diff (direction-aware:
# request latency up = regression, QPS down = regression), and commit
# the result.  It runs the CI smoke (benchmarks/serve_smoke.sh) with a
# 2-worker router on the same 200-machine fleet, so the metric set and
# magnitudes match what CI measures.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

PYTHONPATH=src python -m repro.cli generate "$tmp/fleet" \
    --machines 200 --days 14 --shards 8 --jobs 2 --format binary
sh benchmarks/serve_smoke.sh 2 "$tmp/fleet" \
    benchmarks/baselines/serve_scale_manifest.json

PYTHONPATH=src python -m repro.cli report \
    benchmarks/baselines/serve_scale_manifest.json
echo
echo "baseline refreshed: benchmarks/baselines/serve_scale_manifest.json"
