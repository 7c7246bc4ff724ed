"""Load, tiering, and concurrency behavior of the serving daemon (ISSUE 8).

Three properties the bench assumes and CI must hold:

* **sustained QPS** — a threaded client pool over persistent HTTP/1.1
  connections sees zero 5xx responses and a p99 under a *generous*
  ceiling (this is a smoke test on shared CI hardware; the calibrated
  floor lives in ``benchmarks/bench_serve_qps.py``);
* **LRU cold tier** — with ``hot_shards``/``hot_bytes`` bounds, resident
  state never exceeds the bound, evicted shards rebuild on demand, and
  answers stay exact through eviction/rebuild cycles;
* **ingest-while-query consistency** — a writer streaming batches never
  exposes a torn batch: batches are applied atomically under the state
  lock, so a reader observing a cell mid-stream always sees a complete
  batch boundary.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.config import FgcsConfig, TestbedConfig
from repro.obs.metrics import MetricsRegistry
from repro.serve import BlockPager, ServeClient, ServeState, start_server
from repro.traces.generate import generate_dataset
from repro.traces.records import EventColumns
from repro.traces.shards import generate_shards, open_shards
from repro.units import DAY, HOUR

# Deliberately generous: the point is "the server is not pathologically
# slow or erroring", not a perf number — that's the bench's job.
SMOKE_P99_CEILING_S = 0.5
SMOKE_QPS_FLOOR = 25.0
SMOKE_SECONDS = 1.2
SMOKE_THREADS = 3


@pytest.fixture(scope="module")
def load_state():
    config = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=8, duration=14 * DAY),
        seed=13,
    )
    dataset = generate_dataset(config)
    return ServeState.from_columns(EventColumns.from_dataset(dataset))


class TestSustainedQps:
    def test_threaded_pool_no_5xx_and_sane_p99(self, load_state):
        registry = MetricsRegistry()
        with start_server(load_state, registry=registry) as handle:
            stop = threading.Event()
            errors: list[str] = []
            counts = [0] * SMOKE_THREADS

            def pound(slot: int) -> None:
                with ServeClient(handle.url) as client:
                    machine = 0
                    while not stop.is_set():
                        status, payload = client.request_raw(
                            "GET",
                            f"/v1/availability?machine={machine}&duration=6",
                        )
                        if status != 200:
                            errors.append(f"{status}: {payload}")
                            return
                        machine = (machine + 1) % load_state.n_machines
                        counts[slot] += 1

            threads = [
                threading.Thread(target=pound, args=(i,))
                for i in range(SMOKE_THREADS)
            ]
            for t in threads:
                t.start()
            stop.wait(SMOKE_SECONDS)
            stop.set()
            for t in threads:
                t.join(10)
            assert not errors, errors[:5]

            total = sum(counts)
            assert total / SMOKE_SECONDS >= SMOKE_QPS_FLOOR, counts
            latency = registry.histogram("serve.request_seconds")
            assert latency is not None and len(latency) >= total
            assert latency.quantile(0.99) < SMOKE_P99_CEILING_S
            # Zero server-side failures, by the server's own accounting too.
            assert registry.counter_value("serve.status.5xx") == 0
            assert registry.counter_value("serve.status.2xx") >= total


class TestLruColdTier:
    @pytest.fixture()
    def store(self, tmp_path):
        config = dataclasses.replace(
            FgcsConfig(),
            testbed=TestbedConfig(n_machines=12, duration=14 * DAY),
            seed=13,
        )
        generate_shards(config, tmp_path / "fleet", 6, format="binary")
        return open_shards(tmp_path / "fleet")

    def test_entry_bound_holds_under_scan(self, store):
        state = ServeState.from_store(store, hot_shards=2)
        for machine in range(store.n_machines):
            state.window_count(machine, 7, 0.0, 6.0)
            assert state.tier_stats().hot_entries <= 2
        stats = state.tier_stats()
        assert stats.rebuilds >= store.n_shards  # every shard rebuilt once
        assert stats.evictions >= store.n_shards - 2

    def test_byte_bound_holds_under_scan(self, store):
        one_block = BlockPager(store).counts(0).nbytes
        state = ServeState.from_store(store, hot_bytes=2 * one_block)
        for machine in range(store.n_machines):
            state.window_count(machine, 7, 0.0, 6.0)
            assert state.tier_stats().resident_bytes <= 2 * one_block
        assert state.tier_stats().evictions > 0

    def test_answers_exact_through_eviction(self, store):
        bounded = ServeState.from_store(store, hot_shards=1)
        unbounded = ServeState.from_store(store)
        # Two full passes: the second pass re-answers every query from
        # rebuilt blocks and must match the never-evicted state exactly.
        for _ in range(2):
            for machine in range(store.n_machines):
                assert bounded.window_count(
                    machine, 7, 2.5, 9.0
                ) == unbounded.window_count(machine, 7, 2.5, 9.0)
        assert bounded.tier_stats().evictions > 0

    def test_hits_counted_on_resident_blocks(self, store):
        state = ServeState.from_store(store)
        state.window_count(0, 7, 0.0, 6.0)
        rebuilds_after_first = state.tier_stats().rebuilds
        state.window_count(0, 7, 0.0, 6.0)
        stats = state.tier_stats()
        assert stats.rebuilds == rebuilds_after_first  # no re-read
        assert stats.hits > 0

    def test_fleet_query_respects_bound(self, store):
        state = ServeState.from_store(store, hot_shards=2)
        state.survival_fleet(7, 0.0, 6.0)
        assert state.tier_stats().hot_entries <= 2


class TestIngestWhileQuery:
    """Readers never observe a torn ingest batch.

    The writer streams batches of exactly TWO events into the same
    (machine, day, hour) cell; batches apply atomically, so the cell's
    count — read concurrently through the public query path — must always
    be even.  An odd observation means a reader saw a half-applied batch.
    """

    def test_no_torn_batches(self, load_state):
        state = load_state
        day = state.base_n_days  # stream into the first unobserved day
        machine = 0
        base = float(day * DAY)
        stop = threading.Event()
        torn: list[float] = []
        failures: list[BaseException] = []

        def writer() -> None:
            try:
                offset = 0.0
                while not stop.is_set():
                    state.ingest(
                        [
                            {
                                "machine_id": machine,
                                "start": base + offset,
                                "end": base + offset + 1.0,
                                "state": 3,
                            },
                            {
                                "machine_id": machine,
                                "start": base + offset + 2.0,
                                "end": base + offset + 3.0,
                                "state": 3,
                            },
                        ]
                    )
                    offset += 4.0
                    if offset >= HOUR - 8.0:
                        stop.set()  # stay inside hour 0 of the day
            except BaseException as exc:  # pragma: no cover - fail the test
                failures.append(exc)
                stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    count = state.window_count(machine, day, 0.0, 1.0)
                    if count % 2 != 0:
                        torn.append(count)
                        stop.set()
            except BaseException as exc:  # pragma: no cover - fail the test
                failures.append(exc)
                stop.set()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        stop.wait(2.0)
        stop.set()
        for t in threads:
            t.join(10)
        assert not failures, failures
        assert not torn, f"reader saw half-applied batches: {torn[:5]}"
        assert state.tier_stats().streamed_events % 2 == 0

    def test_rejected_batch_changes_nothing(self, load_state):
        state = load_state
        before = state.window_count(1, state.base_n_days, 0.0, 24.0)
        stats_before = state.tier_stats()
        day = float(state.base_n_days * DAY)
        with pytest.raises(Exception):
            state.ingest(
                [
                    {"machine_id": 1, "start": day + 100.0, "end": day + 101.0, "state": 3},
                    # Out of order within the same batch: whole batch dies.
                    {"machine_id": 1, "start": day + 50.0, "end": day + 51.0, "state": 3},
                ]
            )
        assert state.window_count(1, state.base_n_days, 0.0, 24.0) == before
        assert (
            state.tier_stats().streamed_events == stats_before.streamed_events
        )
