#!/usr/bin/env sh
# Serving smoke test for one topology.  Run from the repo root:
#
#   sh benchmarks/serve_smoke.sh WORKERS FLEET MANIFEST
#
# Serves FLEET, the 200-machine, 14-day binary shard store that
# `make serve-smoke` generates.  WORKERS=1 is the single process with at
# most 4 resident shards; WORKERS=2 is the router over two workers with
# 16-machine block paging, a 4096-event ingest queue and a snapshot
# after every batch.  The test queries every endpoint, sends 500 point
# reads and one ingest batch that spans both halves of the fleet, sends
# a dry-run ingest with `Expect: 100-continue` over a raw socket (its
# answer must take under 0.5 s), checks the daemon's process tree and
# that no process of it maps libssl, logs each process's peak RSS
# (VmHWM), shuts the daemon down, and checks the manifest it wrote to
# MANIFEST, including that resident count blocks hold at most one byte
# per machine-day-hour cell.
# `make serve-smoke` and CI run both topologies; the baseline refresh
# scripts run it to write the committed manifests.
set -eu

workers=$1 fleet=$2 manifest=$3
tmp=$(mktemp -d)
# A failed check must not leave the daemon running.
trap 'kill "${serve_pid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

if [ "$workers" -eq 1 ]; then
    topology="--hot-shards 4"
else
    topology="--workers $workers --block-machines 16 --ingest-queue 4096"
    topology="$topology --snapshot-dir $tmp/snaps --snapshot-every 1"
fi
# shellcheck disable=SC2086  # $topology is a word list
PYTHONPATH=src python -m repro.cli serve "$fleet" --port 0 $topology \
    --metrics-out "$manifest" 2> "$tmp/serve.err" &
serve_pid=$!

# The daemon prints its URL once every worker serves.
url=
for _ in $(seq 1 300); do
    url=$(grep -o 'http://[0-9.]*:[0-9]*' "$tmp/serve.err" || true)
    [ -n "$url" ] && break
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.2
done
if [ -z "$url" ]; then
    cat "$tmp/serve.err"
    exit 1
fi

PYTHONPATH=src python -m repro.cli query --url "$url" health
PYTHONPATH=src python -m repro.cli query --url "$url" \
    availability --machine 17 --duration 6
PYTHONPATH=src python -m repro.cli query --url "$url" \
    availability --machine 170 --duration 6
PYTHONPATH=src python -m repro.cli query --url "$url" \
    capacity --duration 2 --threshold 0.3
PYTHONPATH=src python -m repro.cli query --url "$url" \
    rank --duration 4 --k 5
PYTHONPATH=src python - "$url" "$workers" <<'EOF'
import sys

from repro.serve import ServeClient

url, workers = sys.argv[1], int(sys.argv[2])
DAY = 86400.0
HORIZON = 14  # the fleet is generated with --days 14
with ServeClient(url) as client:
    health = client.healthz()
    assert health["ready"], health
    assert (health.get("role") == "router") == (workers > 1), health
    for i in range(500):
        payload = client.availability(i % 200, 6.0)
        assert 0.0 <= payload["survival"] <= 1.0, payload
    # One batch spanning both halves of the fleet (both workers' ranges).
    base = HORIZON * DAY
    result = client.ingest([
        [3, base + 600.0, base + 1800.0, 3],
        [150, base + 900.0, base + 2100.0, 4],
    ])
    assert result["accepted"] == 2, result
    assert result["horizon_day"] == HORIZON + 1, result
    assert workers == 1 or result["workers"] == 2, result
    assert client.flush()["workers"] == workers
print(f"serve smoke, {workers} worker(s): 500 queries + ingest OK")
EOF
# `Expect: 100-continue`: the shell sends the interim answer before it
# reads the body.  This client waits up to 1 s for it, as curl does, and
# then sends the body anyway, so a held-back interim answer shows as a
# slow request.
PYTHONPATH=src python - "$url" <<'EOF'
import json
import socket
import sys
import time
from urllib.parse import urlsplit

url = urlsplit(sys.argv[1])
start = 14 * 86400.0
body = json.dumps([[3, start + 600.0, start + 1800.0, 3]]).encode()
t0 = time.monotonic()
with socket.create_connection((url.hostname, url.port), timeout=5.0) as sock:
    sock.sendall(
        b"POST /v1/ingest?dry=1 HTTP/1.1\r\nHost: smoke\r\n"
        b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body)
    )
    sock.settimeout(1.0)
    try:
        interim = sock.recv(64)
    except socket.timeout:
        interim = b""
    sock.settimeout(5.0)
    sock.sendall(body)
    status = sock.makefile("rb").readline()
elapsed = time.monotonic() - t0
assert interim == b"HTTP/1.1 100 Continue\r\n\r\n", interim
assert status.startswith(b"HTTP/1.1 200 "), status
assert elapsed < 0.5, f"Expect: 100-continue ingest took {elapsed:.3f} s"
print(f"Expect: 100-continue dry ingest answered in {elapsed * 1e3:.1f} ms")
EOF
# The process tree: a router's only children are its workers (no
# multiprocessing resource tracker), and a single process has none.
# Each process's peak resident set goes to the log, so a tracker or
# NumPy coming back into the router shows there.
children=$(cat /proc/"$serve_pid"/task/*/children)
for pid in "$serve_pid" $children; do
    echo "pid $pid $(grep VmHWM /proc/"$pid"/status | tr -s ' \t' ' ')"
    # The HTTP shell needs no TLS, so no process loads ssl.
    if grep -q -e '/libssl' -e '/_ssl' /proc/"$pid"/maps; then
        echo "process $pid maps libssl"
        exit 1
    fi
done
expected=$workers
[ "$workers" -eq 1 ] && expected=0
# shellcheck disable=SC2086  # $children is a word list
set -- $children
if [ "$#" -ne "$expected" ]; then
    echo "expected $expected child process(es) of the daemon, found $#"
    exit 1
fi
PYTHONPATH=src python -m repro.cli query --url "$url" shutdown
wait "$serve_pid"
cat "$tmp/serve.err"

PYTHONPATH=src python - "$manifest" "$workers" <<'EOF'
import sys

from repro.obs import RunManifest

m = RunManifest.load(sys.argv[1])
workers = int(sys.argv[2])
assert m.command == "serve", m.command
assert m.serve["qps"] > 0, m.serve
assert m.serve["latency"]["count"] == m.serve["requests"], m.serve
assert m.serve["status"]["2xx"] == m.serve["requests"], m.serve
assert m.serve["ingest" if workers == 1 else "totals"]["streamed_events"] == 2
# Compact count blocks: at most one byte per resident machine-day-hour
# cell, over whole-shard blocks of 25 machines or 16-machine blocks.
CELLS_PER_MACHINE = 14 * 24
if workers == 1:
    assert m.serve["requests"] >= 505, m.serve
    tier = m.serve["tier"]
    assert tier["hot_entries"] <= 4, m.serve
    assert tier["rebuilds"] >= 8, m.serve
    assert tier["resident_bytes"] <= tier["hot_entries"] * 25 * CELLS_PER_MACHINE, tier
else:
    assert m.schema["manifest"] == 9, m.schema
    assert m.serve["role"] == "router", m.serve
    assert m.serve["n_workers"] == workers, m.serve
    lanes = m.serve["workers"]
    assert len(lanes) == workers, lanes
    assert all(lane["up"] for lane in lanes), lanes
    ranges = sorted((lane["machine_lo"], lane["machine_hi"]) for lane in lanes)
    assert ranges[0][0] == 0 and ranges[-1][1] == 200, ranges
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:])), ranges
    assert all(lane["tier"]["n_blocks"] >= 1 for lane in lanes), lanes
    for lane in lanes:
        tier = lane["tier"]
        assert tier["resident_bytes"] <= tier["hot_entries"] * 16 * CELLS_PER_MACHINE, tier
    assert all("queue" in lane["ingest"] for lane in lanes), lanes
    assert m.serve["totals"]["rebuilds"] >= 2, m.serve
    assert m.serve["requests"] >= 400, m.serve
    assert m.serve["status"].get("5xx", 0) == 0, m.serve
print(f"manifest OK: {m.serve['requests']} requests, {workers} worker(s)")
EOF
