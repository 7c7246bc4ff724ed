"""The scale-out router front: exact merges, strict routing, fault recovery.

The contract (ISSUE 10): `serve --workers N` must be observationally
identical to the single-process daemon — same wire protocol, and every
answer ``==`` the batch predictor — while queries scatter over worker
processes that each own a contiguous machine range.  On top of the happy
path this pins the failure envelope: a misrouted direct-to-worker request
is a 421, a cross-worker batch is atomic (any invalid slice rejects the
whole batch with nothing applied anywhere), a SIGKILLed worker costs
*only its own machine range* (503 + Retry-After) until the supervisor
respawns it, and a respawned worker restores its streamed overlay from
the snapshot dir, so post-recovery answers still ``==`` batch.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import FgcsConfig, TestbedConfig
from repro.errors import ServeError
from repro.prediction.base import PredictionQuery
from repro.prediction.history import HistoryWindowPredictor
from repro.serve import ServeClient, ServeState, start_router, start_server
from repro.serve.client import ServeRequestError
from repro.serve.router import partition_shards
from repro.traces.records import EventColumns
from repro.traces.shards import generate_shards, open_shards
from repro.units import DAY

N_MACHINES = 12
N_DAYS = 21
N_SHARDS = 4
RECOVERY_DEADLINE_S = 90.0


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    config = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=N_MACHINES, duration=N_DAYS * DAY),
        seed=42,
    )
    root = tmp_path_factory.mktemp("router") / "fleet"
    generate_shards(config, root, N_SHARDS, format="binary")
    return root, open_shards(root)


@pytest.fixture(scope="module")
def reference(fleet):
    """Single-process truth the router must match exactly."""
    _, store = fleet
    return ServeState.from_columns(
        EventColumns.from_dataset(store.load_full())
    )


@pytest.fixture(scope="module")
def batch_predictor(fleet):
    _, store = fleet
    return HistoryWindowPredictor().fit(store.load_full())


@pytest.fixture(scope="module")
def router(fleet):
    root, store = fleet
    with start_router(
        store, str(root), n_workers=2, block_machines=2
    ) as handle:
        with ServeClient(handle.url) as client:
            yield handle, client


class TestRouterTopology:
    def test_partition_shards_tiles_evenly(self):
        assert partition_shards(4, 2) == [(0, 2), (2, 4)]
        assert partition_shards(5, 2) == [(0, 3), (3, 5)]
        # Workers clamp to shards: a worker needs at least one shard.
        assert partition_shards(2, 8) == [(0, 1), (1, 2)]
        sizes = {hi - lo for lo, hi in partition_shards(17, 4)}
        assert max(sizes) - min(sizes) <= 1

    def test_healthz_reports_worker_ranges(self, router):
        handle, client = router
        health = client.healthz()
        assert health["role"] == "router"
        assert health["ready"] is True
        assert health["n_machines"] == N_MACHINES
        ranges = [
            (w["machine_lo"], w["machine_hi"]) for w in health["workers"]
        ]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == N_MACHINES
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo


class TestRouterMatchesSingleProcess:
    @pytest.mark.parametrize("machine", range(N_MACHINES))
    def test_availability_exact_for_every_machine(
        self, router, reference, batch_predictor, machine
    ):
        _, client = router
        answer = client.availability(machine, 6.0, day=14, hour=9.5)
        query = PredictionQuery(
            machine_id=machine, day=14, start_hour=9.5, duration_hours=6.0
        )
        assert answer["survival"] == reference.predict_survival(query)
        assert answer["survival"] == batch_predictor.predict_survival(query)
        assert answer["expected_events"] == reference.predict_count(query)

    def test_capacity_merge_exact(self, router, reference):
        _, client = router
        merged = client.capacity(6.0, day=14, hour=0.0)
        expected = reference.capacity(14, 0.0, 6.0)
        assert merged["available"] == expected["available"]
        assert merged["n_machines"] == N_MACHINES
        assert merged["workers"] == 2
        assert merged["fraction"] == merged["available"] / N_MACHINES
        # Workers return integer clean-window totals; the router divides
        # once, exactly as the single process does.
        assert merged["clean_windows"] == expected["clean_windows"]
        assert merged["history_days"] == expected["history_days"]
        assert merged["mean_survival"] == expected["mean_survival"]

    def test_capacity_mean_over_windows_of_different_lengths(self, fleet):
        # A day-27 event reaches only the last worker and moves only its
        # own horizon.  Anchored there, day 26 (a Saturday) would average
        # 6 weekend days on that worker and 8 weekdays on a worker still
        # at its day-21 horizon (a Monday).  The router pins the fleet
        # horizon on every query instead, so after a flush each answer
        # == one process fed the same events, with or without a day.
        root, store = fleet
        event = {"machine_id": N_MACHINES - 1, "start": 27 * DAY + 60.0,
                 "end": 27 * DAY + 660.0, "state": 3}
        single = ServeState.from_columns(
            EventColumns.from_dataset(store.load_full())
        )
        single.ingest([event])
        targets = [
            f"{path}&duration=6{day}"
            for path in (
                "/v1/availability?machine=0",
                f"/v1/availability?machine={N_MACHINES - 1}",
                "/v1/capacity?threshold=0.5",
                f"/v1/rank?k={N_MACHINES}",
            )
            for day in ("", "&day=26")
        ]
        with start_server(single) as handle:
            with ServeClient(handle.url) as client:
                expected = [client.request_raw("GET", t) for t in targets]
        for _, one in expected:
            assert one.pop("workers", 1) == 1
        assert expected[0][1]["day"] == single.horizon_day == 28
        assert expected[4][1]["history_days"] == 8
        assert expected[5][1]["history_days"] == 6
        for n_workers in (1, 2):
            with start_router(store, str(root), n_workers=n_workers) as handle:
                with ServeClient(handle.url) as client:
                    client.ingest([event])
                    client.flush()
                    answers = [client.request_raw("GET", t) for t in targets]
            for target, (status, payload), (_, one) in zip(
                targets, answers, expected
            ):
                assert status == 200, (n_workers, target, payload)
                assert payload.pop("workers", n_workers) == n_workers
                assert payload == one, (n_workers, target)

    def test_rank_merge_exact(self, router, reference):
        _, client = router
        ranked = client.rank(6.0, k=N_MACHINES, day=14, hour=0.0)
        got = [(e["machine"], e["survival"]) for e in ranked["machines"]]
        assert got == reference.rank(14, 0.0, 6.0, k=N_MACHINES)

    def test_rank_tie_break_spans_workers(self, router, reference):
        _, client = router
        ranked = client.rank(2.0, k=3, day=7, hour=3.0)
        got = [(e["machine"], e["survival"]) for e in ranked["machines"]]
        assert got == reference.rank(7, 3.0, 2.0, k=3)

    def test_unknown_machine_is_404_fleetwide(self, router):
        _, client = router
        status, payload = client.request_raw(
            "GET", f"/v1/availability?machine={N_MACHINES}&duration=6"
        )
        assert status == 404
        assert "unknown machine" in payload["error"]


class TestStrictRouting:
    def test_direct_worker_misroute_is_421(self, router):
        handle, _ = router
        worker0 = handle.supervisor.workers[0]
        foreign = handle.supervisor.workers[1].machine_lo
        with ServeClient(f"http://127.0.0.1:{worker0.port}") as direct:
            status, payload = direct.request_raw(
                "GET", f"/v1/availability?machine={foreign}&duration=6"
            )
        assert status == 421
        assert "not owned" in payload["error"]

    def test_owned_machine_served_directly(self, router, reference):
        handle, _ = router
        worker1 = handle.supervisor.workers[1]
        machine = worker1.machine_lo
        with ServeClient(f"http://127.0.0.1:{worker1.port}") as direct:
            answer = direct.availability(machine, 6.0, day=14, hour=0.0)
        query = PredictionQuery(
            machine_id=machine, day=14, start_hour=0.0, duration_hours=6.0
        )
        assert answer["survival"] == reference.predict_survival(query)


class TestCrossWorkerIngest:
    def test_invalid_slice_rejects_whole_batch(self, router):
        _, client = router
        before = client.stats()
        base = N_DAYS * DAY
        batch = [
            # Worker 0's slice is fine ...
            {"machine_id": 1, "start": base, "end": base + 600.0, "state": 3},
            # ... worker 1's slice has decreasing starts: out of order.
            {
                "machine_id": 7,
                "start": base + 2000.0,
                "end": base + 3000.0,
                "state": 4,
            },
            {
                "machine_id": 7,
                "start": base + 1000.0,
                "end": base + 2000.0,
                "state": 4,
            },
        ]
        with pytest.raises(ServeRequestError) as err:
            client.ingest(batch)
        assert err.value.status == 409
        client.flush()
        after = client.stats()
        # Atomicity: the valid worker-0 slice was not applied either.
        assert after["totals"]["streamed_events"] == (
            before["totals"]["streamed_events"]
        )
        for lane in after["workers"]:
            assert lane["horizon_day"] == N_DAYS

    def test_cross_worker_batch_applies_exactly(self, router, reference):
        _, client = router
        base = N_DAYS * DAY
        batch = [
            {"machine_id": 2, "start": base + 60.0, "end": base + 660.0,
             "state": 3},
            {"machine_id": 8, "start": base + 120.0, "end": base + 720.0,
             "state": 5},
            # A duplicate re-send of the first event dedupes, not errors.
            {"machine_id": 2, "start": base + 60.0, "end": base + 660.0,
             "state": 3},
        ]
        result = client.ingest(batch)
        assert result["accepted"] == 2
        assert result["deduplicated"] == 1
        assert result["workers"] == 2
        assert result["horizon_day"] == N_DAYS + 1
        client.flush()
        reference.ingest(batch)
        for machine in (2, 8):
            answer = client.availability(machine, 6.0, day=N_DAYS + 1, hour=0.0)
            query = PredictionQuery(
                machine_id=machine,
                day=N_DAYS + 1,
                start_hour=0.0,
                duration_hours=6.0,
            )
            assert answer["survival"] == reference.predict_survival(query)
        stats = client.stats()
        assert stats["totals"]["streamed_events"] == 2
        for lane in stats["workers"]:
            assert lane["horizon_day"] == N_DAYS + 1

    def test_stats_lanes_and_totals(self, router):
        _, client = router
        stats = client.stats()
        assert stats["role"] == "router"
        assert len(stats["workers"]) == 2
        assert stats["totals"]["rebuilds"] >= sum(
            1 for _ in stats["workers"]
        )
        for lane in stats["workers"]:
            assert lane["up"] is True
            assert lane["tier"]["block_machines"] == 2
            assert "queue" in lane["ingest"]

    def test_machine_outside_fleet_is_400_like_one_process(self, tmp_path):
        config = dataclasses.replace(
            FgcsConfig(),
            testbed=TestbedConfig(n_machines=4, duration=7 * DAY),
            seed=42,
        )
        root = tmp_path / "fleet"
        generate_shards(config, root, 2, format="binary")
        store = open_shards(root)
        body = json.dumps(
            [{"machine_id": 9, "start": 7 * DAY + 60.0,
              "end": 7 * DAY + 660.0, "state": 3}]
        ).encode()
        single = ServeState.from_columns(
            EventColumns.from_dataset(store.load_full())
        )
        with start_server(single) as handle:
            with ServeClient(handle.url) as client:
                expected = client.request_raw("POST", "/v1/ingest", body)
        assert expected == (400, {"error": "machine 9 outside fleet [0, 4)"})
        for n_workers in (1, 2):
            with start_router(store, str(root), n_workers=n_workers) as handle:
                with ServeClient(handle.url) as client:
                    got = client.request_raw("POST", "/v1/ingest", body)
                    query = client.request_raw(
                        "GET", "/v1/availability?machine=9&duration=6"
                    )
                    stats = client.stats()
            assert got == expected, n_workers
            assert query[0] == 404, n_workers
            assert stats["totals"]["streamed_events"] == 0


class TestClientRetries:
    def test_gives_up_after_bounded_connect_retries(self):
        client = ServeClient(
            "http://127.0.0.1:9",  # discard port: nothing listens
            connect_retries=2,
            backoff_base=0.01,
        )
        with pytest.raises(ConnectionError):
            client.request_raw("GET", "/healthz")

    def test_rides_out_a_restart_window(self, fleet):
        _, store = fleet
        state = ServeState.from_columns(
            EventColumns.from_dataset(store.load_full())
        )
        with start_server(state) as first:
            port = first.port
        # Server down; a client pointed at the port keeps retrying with
        # backoff and succeeds once the listener returns.
        state2 = ServeState.from_columns(
            EventColumns.from_dataset(store.load_full())
        )
        restarted: list = []

        def bring_back() -> None:
            time.sleep(0.3)
            restarted.append(start_server(state2, port=port))

        thread = threading.Thread(target=bring_back)
        thread.start()
        try:
            with ServeClient(
                f"http://127.0.0.1:{port}",
                connect_retries=6,
                backoff_base=0.1,
            ) as client:
                assert client.healthz()["ok"] is True
        finally:
            thread.join()
            if restarted:
                restarted[0].close()


class TestWorkerCrashRecovery:
    def test_sigkill_costs_one_range_until_respawn(self, fleet, tmp_path):
        root, store = fleet
        reference = ServeState.from_columns(
            EventColumns.from_dataset(store.load_full())
        )
        base = N_DAYS * DAY
        streamed = [
            {"machine_id": 8, "start": base + 60.0, "end": base + 660.0,
             "state": 3},
            {"machine_id": 9, "start": base + 90.0, "end": base + 690.0,
             "state": 4},
        ]
        snapshot_dir = tmp_path / "snapshots"
        snapshot_dir.mkdir()
        with start_router(
            store,
            str(root),
            n_workers=2,
            block_machines=3,
            snapshot_dir=str(snapshot_dir),
            snapshot_every=1,
        ) as handle:
            with ServeClient(handle.url) as client:
                result = client.ingest(streamed)
                assert result["accepted"] == 2
                client.flush()
                reference.ingest(streamed)
                # The worker snapshots after the applied batch; wait for
                # the atomic rename so the kill cannot lose the overlay.
                snap = snapshot_dir / "worker1.npz"
                deadline = time.monotonic() + 30.0
                while not snap.exists():
                    assert time.monotonic() < deadline, "snapshot never landed"
                    time.sleep(0.05)

                victim = handle.supervisor.workers[1]
                victim.process.kill()
                victim.process.join(10.0)
                assert not victim.process.is_alive()

                # Dead range: 503 with a retry hint.  Live range: still 200.
                status, payload = client.request_raw(
                    "GET", "/v1/availability?machine=8&duration=6&day=14"
                )
                assert status == 503
                assert payload["retry_after"] > 0
                status, _ = client.request_raw(
                    "GET", "/v1/availability?machine=2&duration=6&day=14"
                )
                assert status == 200
                # Fleet answers need every range: capacity is down too.
                status, _ = client.request_raw(
                    "GET", "/v1/capacity?duration=6&day=14"
                )
                assert status == 503

                deadline = time.monotonic() + RECOVERY_DEADLINE_S
                while True:
                    health = client.healthz()
                    if health["ready"]:
                        break
                    assert time.monotonic() < deadline, "worker never respawned"
                    time.sleep(0.1)
                assert health["workers"][1]["respawns"] >= 1

                # Post-recovery: the respawned worker restored its overlay
                # from the snapshot — answers == batch, streamed included.
                for machine in (8, 9):
                    query = PredictionQuery(
                        machine_id=machine,
                        day=N_DAYS + 1,
                        start_hour=0.0,
                        duration_hours=6.0,
                    )
                    answer = client.availability(
                        machine, 6.0, day=N_DAYS + 1, hour=0.0
                    )
                    assert answer["survival"] == reference.predict_survival(
                        query
                    )
                merged = client.capacity(6.0, day=14, hour=0.0)
                assert merged["available"] == reference.capacity(
                    14, 0.0, 6.0
                )["available"]


def _truncated_npz(path: Path) -> None:
    np.savez(path, meta=np.arange(9))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


CORRUPTIONS = {
    "garbage": lambda path: path.write_bytes(b"not an npz"),
    "empty": lambda path: path.write_bytes(b""),
    "truncated": _truncated_npz,
}


class TestBootFailure:
    """A worker that cannot boot fails the router start, not the process."""

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_snapshot_raises_serve_error(
        self, fleet, tmp_path, corruption
    ):
        root, store = fleet
        CORRUPTIONS[corruption](tmp_path / "worker0.npz")
        with pytest.raises(
            ServeError,
            match="worker 0 failed to boot: cannot read overlay snapshot",
        ):
            start_router(
                store, str(root), n_workers=2, snapshot_dir=str(tmp_path)
            )

    def test_cli_exits_2_with_the_worker_message(self, fleet, tmp_path):
        root, _ = fleet
        # Worker 0 boots first and must be shut down again.
        CORRUPTIONS["garbage"](tmp_path / "worker1.npz")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                str(root),
                "--workers",
                "2",
                "--snapshot-dir",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "error: worker 1 failed to boot: cannot read overlay snapshot"
        ), proc.stderr
        assert "Traceback" not in proc.stderr
