"""Batched async ingest: synchronous contract, deferred apply, bounded queue.

The contract (ISSUE 10): moving batch application off the request path
changes *when* counts land, never *what* the daemon answers.  A batch's
fate — 409 on ordering, dedupe counts, accepted counts — is decided at
the enqueue boundary against the effective tails (applied state overlaid
with everything already queued), so responses are exactly what the
synchronous path returned; after ``flush()`` the state is ``==`` a
synchronous replay of the same batches.  The queue is bounded: a batch
that would overflow is bounced with 429 + ``Retry-After`` and leaves no
trace, and the snapshot cadence persists the overlay so restarts lose
nothing past the last applied batch.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import FgcsConfig, TestbedConfig
from repro.errors import IngestBackpressureError, IngestOrderError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.prediction.base import PredictionQuery
from repro.serve import (
    AsyncIngester,
    ServeClient,
    ServeState,
    start_server,
)
from repro.traces.generate import generate_dataset
from repro.traces.records import EventColumns
from repro.traces.shards import generate_shards
from repro.units import DAY

N_MACHINES = 6
N_DAYS = 14


def _columns():
    config = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=N_MACHINES, duration=N_DAYS * DAY),
        seed=7,
    )
    return EventColumns.from_dataset(generate_dataset(config))


@pytest.fixture(scope="module")
def golden_columns():
    return _columns()


def _fresh_state(golden_columns) -> ServeState:
    return ServeState.from_columns(golden_columns)


def _event(machine: int, offset_s: float, length_s: float = 600.0, code: int = 3):
    start = N_DAYS * DAY + offset_s
    return {
        "machine_id": machine,
        "start": start,
        "end": start + length_s,
        "state": code,
    }


def _assert_states_equal(a: ServeState, b: ServeState) -> None:
    assert a.horizon_day == b.horizon_day
    day = a.horizon_day
    assert np.array_equal(
        a.survival_fleet(day, 0.0, 6.0), b.survival_fleet(day, 0.0, 6.0)
    )
    for machine in range(N_MACHINES):
        query = PredictionQuery(
            machine_id=machine, day=day, start_hour=8.0, duration_hours=4.0
        )
        assert a.predict_survival(query) == b.predict_survival(query)
    assert a.tier_stats().streamed_events == b.tier_stats().streamed_events


class TestAsyncMatchesSync:
    def test_flush_converges_to_sync_replay(self, golden_columns):
        async_state = _fresh_state(golden_columns)
        sync_state = _fresh_state(golden_columns)
        ingester = AsyncIngester(async_state)
        batches = [
            [_event(0, 60.0), _event(1, 120.0)],
            [_event(0, 7200.0, code=4), _event(2, 300.0, code=5)],
            [_event(1, DAY + 60.0), _event(3, DAY + 90.0)],
        ]
        try:
            for batch in batches:
                result = ingester.submit(batch)
                assert result.n_accepted == len(batch)
            assert ingester.flush(timeout=10.0)
        finally:
            ingester.close(timeout=10.0)
        for batch in batches:
            sync_state.ingest(batch)
        _assert_states_equal(async_state, sync_state)

    def test_submit_reports_what_sync_would(self, golden_columns):
        async_state = _fresh_state(golden_columns)
        sync_state = _fresh_state(golden_columns)
        ingester = AsyncIngester(async_state)
        batch = [_event(4, 60.0), _event(4, 60.0), _event(5, 90.0)]
        try:
            got = ingester.submit(batch).result()
        finally:
            ingester.close(timeout=10.0)
        assert got == sync_state.ingest(batch)
        assert got.accepted == 2
        assert got.deduplicated == 1

    def test_ordering_judged_against_queued_batches(self, golden_columns):
        """A violation of a *queued but unapplied* batch still 409s."""
        state = _fresh_state(golden_columns)
        ingester = AsyncIngester(state)
        try:
            with state._lock:  # writer stalls before it can apply
                ingester.submit([_event(0, 5000.0)])
                with pytest.raises(IngestOrderError):
                    ingester.submit([_event(0, 1000.0)])
                # Dedupe against the queued tail, not just applied state.
                dup = ingester.submit([_event(0, 5000.0)])
                assert dup.n_accepted == 0
                assert dup.deduplicated == 1
            assert ingester.flush(timeout=10.0)
        finally:
            ingester.close(timeout=10.0)
        assert state.tier_stats().streamed_events == 1

    def test_validate_only_enqueues_nothing(self, golden_columns):
        state = _fresh_state(golden_columns)
        ingester = AsyncIngester(state)
        try:
            batch = ingester.validate_only([_event(2, 60.0)])
            assert batch.n_accepted == 1
            assert ingester.stats().enqueued_batches == 0
            assert ingester.flush(timeout=10.0)
        finally:
            ingester.close(timeout=10.0)
        assert state.tier_stats().streamed_events == 0


class TestBackpressure:
    def test_overflowing_batch_bounced_with_no_trace(self, golden_columns):
        state = _fresh_state(golden_columns)
        sync_state = _fresh_state(golden_columns)
        ingester = AsyncIngester(state, max_pending_events=3, retry_after=0.05)
        applied = [
            [_event(0, 60.0), _event(1, 60.0)],
            [_event(2, 60.0)],
        ]
        try:
            with state._lock:  # stall the writer so depth stays up
                ingester.submit(applied[0])
                ingester.submit(applied[1])
                with pytest.raises(IngestBackpressureError) as err:
                    ingester.submit([_event(3, 60.0)])
                assert err.value.retry_after == 0.05
                stats = ingester.stats()
                assert stats.backpressure_rejections == 1
                assert stats.depth_events == 3
                # The bounced batch left nothing behind: its machine's
                # tail is untouched, so the same batch is accepted once
                # the queue drains (no drops, no reorders).
            assert ingester.flush(timeout=10.0)
            retried = ingester.submit([_event(3, 60.0)])
            assert retried.n_accepted == 1
            assert ingester.flush(timeout=10.0)
        finally:
            ingester.close(timeout=10.0)
        for batch in applied + [[_event(3, 60.0)]]:
            sync_state.ingest(batch)
        _assert_states_equal(state, sync_state)

    def test_oversized_batch_needs_empty_queue(self, golden_columns):
        state = _fresh_state(golden_columns)
        ingester = AsyncIngester(state, max_pending_events=2)
        oversized = [
            _event(m, 60.0 + m) for m in range(N_MACHINES)
        ]  # 6 events > bound of 2
        try:
            with state._lock:
                ingester.submit([_event(0, 30.0)])
                with pytest.raises(IngestBackpressureError):
                    ingester.submit(oversized[1:])
            assert ingester.flush(timeout=10.0)
            # Queue empty: the oversized batch is admitted whole.
            result = ingester.submit(oversized[1:])
            assert result.n_accepted == N_MACHINES - 1
            assert ingester.flush(timeout=10.0)
        finally:
            ingester.close(timeout=10.0)
        assert state.tier_stats().streamed_events == N_MACHINES

    def test_http_429_with_retry_after_and_client_rides_it_out(
        self, golden_columns
    ):
        state = _fresh_state(golden_columns)
        # Gate the writer's apply so queue depth stays up deterministically
        # (validation never touches the gate, so requests keep flowing).
        gate = threading.Event()
        real_apply = state.apply_batch

        def gated_apply(batch):
            assert gate.wait(30.0), "test gate never opened"
            return real_apply(batch)

        state.apply_batch = gated_apply
        ingester = AsyncIngester(state, max_pending_events=2, retry_after=0.05)
        registry = MetricsRegistry()
        with start_server(state, registry=registry, ingester=ingester) as handle:
            with ServeClient(handle.url) as client:
                status, _ = client.request_raw(
                    "POST",
                    "/v1/ingest",
                    body=json.dumps(
                        [_event(0, 60.0), _event(1, 60.0)]
                    ).encode(),
                )
                assert status == 200  # fills the queue; writer is gated
                status, payload = client.request_raw(
                    "POST",
                    "/v1/ingest",
                    body=json.dumps([_event(2, 60.0)]).encode(),
                )
                assert status == 429
                assert payload["retry_after"] == 0.05

                # The convenience client honors Retry-After: it keeps
                # getting 429s while the gate is shut, then succeeds the
                # moment the writer drains — same batch, no drops.
                outcome: dict = {}

                def retry_until_admitted() -> None:
                    with ServeClient(handle.url, busy_retries=50) as retrier:
                        outcome.update(retrier.ingest([_event(2, 60.0)]))

                thread = threading.Thread(target=retry_until_admitted)
                thread.start()
                thread.join(0.2)
                assert thread.is_alive()  # still riding out 429s
                gate.set()
                thread.join(10.0)
                assert not thread.is_alive()
                assert outcome["accepted"] == 1
                client.flush()
                stats = client.stats()
                assert stats["ingest"]["queue"]["backpressure_rejections"] >= 2
                assert stats["ingest"]["streamed_events"] == 3
            assert registry.counter_value("serve.ingest_backpressure") >= 2
        assert state.tier_stats().streamed_events == 3


class TestSnapshots:
    def test_save_restore_roundtrips_every_answer(
        self, golden_columns, tmp_path
    ):
        state = _fresh_state(golden_columns)
        batches = [
            [_event(0, 60.0), _event(1, 120.0, code=4)],
            [_event(0, DAY + 60.0), _event(5, 90.0, code=5)],
        ]
        for batch in batches:
            state.ingest(batch)
        path = state.save_overlay_snapshot(tmp_path / "serve.npz")
        restored = _fresh_state(golden_columns)
        assert restored.restore_overlay_snapshot(path) == 4
        _assert_states_equal(restored, state)
        # The ordering contract survives the restart: a pre-tail event
        # still 409s against the restored tails.
        with pytest.raises(IngestOrderError):
            restored.ingest([_event(0, 30.0)])

    def test_frame_mismatch_refused(self, golden_columns, tmp_path):
        state = _fresh_state(golden_columns)
        state.ingest([_event(0, 60.0)])
        path = state.save_overlay_snapshot(tmp_path / "serve.npz")
        config = dataclasses.replace(
            FgcsConfig(),
            testbed=TestbedConfig(
                n_machines=N_MACHINES + 1, duration=N_DAYS * DAY
            ),
            seed=7,
        )
        other = ServeState.from_columns(
            EventColumns.from_dataset(generate_dataset(config))
        )
        with pytest.raises(ServeError, match="frame"):
            other.restore_overlay_snapshot(path)

    def test_garbage_file_refused(self, golden_columns, tmp_path):
        path = tmp_path / "serve.npz"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(ServeError, match="snapshot"):
            _fresh_state(golden_columns).restore_overlay_snapshot(path)

    def test_writer_snapshots_on_cadence(self, golden_columns, tmp_path):
        state = _fresh_state(golden_columns)
        path = tmp_path / "serve.npz"
        ingester = AsyncIngester(
            state,
            snapshot_every=2,
            snapshot_fn=lambda: state.save_overlay_snapshot(path),
        )
        try:
            for i in range(4):
                ingester.submit([_event(i, 60.0)])
            assert ingester.flush(timeout=10.0)
            deadline = threading.Event()
            # The cadence snapshot runs on the writer thread right after
            # the Nth apply; poll briefly rather than racing it.
            for _ in range(100):
                if ingester.stats().snapshots >= 2:
                    break
                deadline.wait(0.02)
            assert ingester.stats().snapshots >= 2
            assert path.exists()
        finally:
            ingester.close(timeout=10.0)
        restored = _fresh_state(golden_columns)
        restored.restore_overlay_snapshot(path)
        _assert_states_equal(restored, state)

    def test_snapshot_failure_counted_not_fatal(self, golden_columns):
        state = _fresh_state(golden_columns)

        def explode() -> None:
            raise OSError("disk gone")

        ingester = AsyncIngester(
            state, snapshot_every=1, snapshot_fn=explode
        )
        try:
            ingester.submit([_event(0, 60.0)])
            assert ingester.flush(timeout=10.0)
            for _ in range(100):
                if ingester.stats().snapshot_failures >= 1:
                    break
                threading.Event().wait(0.02)
            stats = ingester.stats()
            assert stats.snapshot_failures >= 1
            assert "disk gone" in ingester.last_snapshot_error
            # The writer survived: later batches still apply.
            ingester.submit([_event(1, 60.0)])
            assert ingester.flush(timeout=10.0)
        finally:
            ingester.close(timeout=10.0)
        assert state.tier_stats().streamed_events == 2


class TestStdinIngest:
    """``serve --stdin`` feeds the same ingest path as ``POST /v1/ingest``."""

    @staticmethod
    def _serve(tmp_path, workers: int, *extra: str):
        """A ``serve --stdin`` daemon over a 4-machine store, and its URL."""
        config = dataclasses.replace(
            FgcsConfig(),
            testbed=TestbedConfig(n_machines=4, duration=7 * DAY),
            seed=42,
        )
        root = tmp_path / "fleet"
        generate_shards(config, root, 2, format="binary")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(root),
             "--workers", str(workers), "--stdin", *extra],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        banner = ""
        while " on http://" not in banner:
            line = proc.stderr.readline()
            if not line:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=60)
                proc.stderr.close()
                raise AssertionError(f"daemon did not start: {banner!r}")
            banner += line
        return proc, banner.split(" on ", 1)[1].split()[0]

    @staticmethod
    def _stop(proc) -> None:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        proc.stderr.close()

    @staticmethod
    def _at(start: float) -> dict:
        return {"machine_id": 0, "start": start, "end": start + 60.0,
                "state": 3}

    @staticmethod
    def _streamed(client: ServeClient) -> int:
        stats = client.stats()
        return stats.get("totals", stats.get("ingest"))["streamed_events"]

    def _await_streamed(self, client: ServeClient, n: int) -> None:
        deadline = time.monotonic() + 20.0
        while self._streamed(client) < n:
            assert time.monotonic() < deadline, "stdin line not applied"
            time.sleep(0.05)
            client.flush()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stdin_lines_join_the_http_ordering(self, tmp_path, workers):
        # HTTP t=100 (flushed), then stdin t=500, both for machine 0.
        # The queue's tail must see the stdin event: an HTTP batch at
        # t=300 is then out of order, and resending t=500 is a duplicate.
        at = self._at
        proc, url = self._serve(tmp_path, workers)
        try:
            with ServeClient(url) as client:
                assert client.ingest([at(100.0)])["accepted"] == 1
                client.flush()
                proc.stdin.write(json.dumps(at(500.0)) + "\n")
                proc.stdin.flush()
                self._await_streamed(client, 2)
                status, payload = client.request_raw(
                    "POST", "/v1/ingest", json.dumps([at(300.0)]).encode()
                )
                assert status == 409, payload
                resent = client.ingest([at(500.0)])
                assert (resent["accepted"], resent["deduplicated"]) == (0, 1)
                client.flush()
                assert self._streamed(client) == 2
                proc.stdin.close()
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            self._stop(proc)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shutdown_ends_the_daemon_while_stdin_stays_open(
        self, tmp_path, workers
    ):
        # A feeder that never closes its end of the pipe must not keep
        # the daemon alive past POST /v1/shutdown, nor cost it its
        # manifest.
        manifest = tmp_path / "serve.json"
        proc, url = self._serve(
            tmp_path, workers, "--metrics-out", str(manifest)
        )
        try:
            with ServeClient(url) as client:
                proc.stdin.write(json.dumps(self._at(500.0)) + "\n")
                proc.stdin.flush()
                self._await_streamed(client, 1)
                client.shutdown()
            assert proc.wait(timeout=5) == 0
            serve = json.loads(manifest.read_text())["serve"]
            totals = serve.get("totals", serve.get("ingest"))
            assert totals["streamed_events"] == 1
        finally:
            self._stop(proc)
