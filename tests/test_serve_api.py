"""Differential correctness of the serving layer (ISSUE 8).

The contract: every prediction the daemon serves is **value-identical**
to the batch :class:`repro.prediction.HistoryWindowPredictor` fitted on
the same trace — not approximately, ``==`` — including through a real
HTTP round trip (JSON's float repr round-trips doubles exactly).  Plus
the API error contract: unknown machine → 404, malformed parameters →
400, pre-ingest query → 503, ingest-order violation → 409, no-history
window → 422.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import time

import numpy as np
import pytest

from repro.config import FgcsConfig, TestbedConfig
from repro.errors import ServeError
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.prediction.base import (
    CountMatrix,
    PredictionQuery,
    counts_from_event_rows,
    start_cell,
)
from repro.prediction.history import HistoryWindowPredictor
from repro.serve import (
    ServeApp,
    ServeClient,
    ServeRequestError,
    ServeState,
    start_server,
)
from repro.serve.server import mean_survival
from repro.traces.generate import generate_dataset
from repro.traces.records import EventColumns
from repro.traces.shards import generate_shards, open_shards
from repro.units import DAY


@pytest.fixture(scope="module")
def golden_dataset():
    """The seed-42 golden fixture fleet: 5 machines, 21 whole days."""
    config = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=5, duration=21 * DAY),
        seed=42,
    )
    return generate_dataset(config)


@pytest.fixture(scope="module")
def golden_columns(golden_dataset):
    return EventColumns.from_dataset(golden_dataset)


@pytest.fixture(scope="module")
def golden_state(golden_columns):
    return ServeState.from_columns(golden_columns)


@pytest.fixture(scope="module")
def golden_predictor(golden_dataset):
    return HistoryWindowPredictor().fit(golden_dataset)


def _queries(n_machines: int):
    """A grid of windows: in-span, past-the-end (clamped), fractional."""
    for machine in range(n_machines):
        for day in (7, 14, 20, 25):
            for hour in (0.0, 9.5, 23.0):
                for duration in (0.5, 1.0, 6.0, 30.0):
                    yield PredictionQuery(
                        machine_id=machine,
                        day=day,
                        start_hour=hour,
                        duration_hours=duration,
                    )


class TestStateMatchesBatch:
    def test_counts_match_count_matrix(self, golden_dataset, golden_columns):
        # The oracle bins each event on its own, by CPython's exact divmod.
        n_machines, n_days = golden_dataset.n_machines, golden_dataset.n_days
        expected = np.zeros((n_machines, 24 * n_days), dtype=np.int64)
        for e in golden_dataset.events:
            cell = start_cell(e.start)
            if cell < 24 * n_days:
                expected[e.machine_id, cell] += 1
        expected = expected.reshape(n_machines, n_days, 24)
        binned = counts_from_event_rows(
            golden_columns.events, n_machines, n_days
        )
        assert np.array_equal(binned, expected)
        assert np.array_equal(CountMatrix(golden_dataset).counts, expected)

    def test_survival_identical(self, golden_state, golden_predictor):
        for query in _queries(golden_state.n_machines):
            assert golden_state.predict_survival(
                query
            ) == golden_predictor.predict_survival(query), query

    def test_count_identical(self, golden_state, golden_predictor):
        for query in _queries(golden_state.n_machines):
            assert golden_state.predict_count(
                query
            ) == golden_predictor.predict_count(query), query

    @pytest.mark.parametrize("statistic", ["median", "trimmed"])
    def test_alternate_statistics_identical(
        self, golden_dataset, golden_columns, statistic
    ):
        predictor = HistoryWindowPredictor(statistic=statistic).fit(
            golden_dataset
        )
        state = ServeState.from_columns(golden_columns, statistic=statistic)
        query = PredictionQuery(
            machine_id=2, day=14, start_hour=9.5, duration_hours=6.0
        )
        assert state.predict_count(query) == predictor.predict_count(query)

    def test_fleet_vectorized_matches_scalar(self, golden_state):
        survival = golden_state.survival_fleet(14, 9.5, 6.0)
        for machine in range(golden_state.n_machines):
            query = PredictionQuery(
                machine_id=machine, day=14, start_hour=9.5, duration_hours=6.0
            )
            assert survival[machine] == golden_state.predict_survival(query)

    @pytest.mark.parametrize(
        "day,hour,duration", [(14, 9.5, 6.0), (7, 0.0, 1.0), (25, 23.0, 30.0)]
    )
    def test_capacity_mean_from_batch_clean_counts(
        self, golden_state, golden_predictor, day, hour, duration
    ):
        clean = 0
        for machine in range(golden_state.n_machines):
            k, n = golden_predictor.clean_windows(
                PredictionQuery(
                    machine_id=machine,
                    day=day,
                    start_hour=hour,
                    duration_hours=duration,
                )
            )
            clean += k
        capacity = golden_state.capacity(day, hour, duration)
        assert capacity["clean_windows"] == clean
        assert capacity["history_days"] == n
        assert capacity["mean_survival"] == mean_survival(
            clean, golden_state.n_machines, n, golden_predictor.laplace
        )

    def test_window_count_matches_matrix(self, golden_dataset, golden_state):
        matrix = CountMatrix(golden_dataset)
        query = PredictionQuery(
            machine_id=1, day=10, start_hour=3.5, duration_hours=7.0
        )
        assert golden_state.window_count(1, 10, 3.5, 7.0) == matrix.window_count(
            1, 10, query
        )


class TestStoreBackedState:
    def test_shard_store_identical_to_monolithic(self, tmp_path):
        config = dataclasses.replace(
            FgcsConfig(),
            testbed=TestbedConfig(n_machines=6, duration=14 * DAY),
            seed=42,
        )
        generate_shards(config, tmp_path / "fleet", 3, format="binary")
        store = open_shards(tmp_path / "fleet")
        state = ServeState.from_store(store, hot_shards=1)
        predictor = HistoryWindowPredictor().fit(store.load_full())
        for machine in range(store.n_machines):
            query = PredictionQuery(
                machine_id=machine, day=14, start_hour=0.0, duration_hours=8.0
            )
            assert state.predict_survival(query) == predictor.predict_survival(
                query
            )
        # With hot_shards=1 over 3 shards the scan above must have cycled
        # the LRU — the answers stayed exact through rebuilds.
        stats = state.tier_stats()
        assert stats.hot_entries == 1
        assert stats.evictions > 0


#: Boots ``serve`` on the trace file argv[1] in a fresh interpreter whose
#: event class counts its instances, then prints that count and the
#: served survival of each query in argv[2] (JSON).
_BOOT_SCRIPT = """
import json
import sys

from repro.core.events import UnavailabilityEvent

built = []


def counting_new(cls, *args, **kwargs):
    built.append(cls)
    return object.__new__(cls)


UnavailabilityEvent.__new__ = staticmethod(counting_new)

from repro.serve import ServeClient, ServeSpec, boot

handle = boot(ServeSpec(trace=sys.argv[1]))
with ServeClient(handle.url) as client:
    answers = [
        client.availability(m, duration, day=day, hour=hour)["survival"]
        for m, day, hour, duration in json.loads(sys.argv[2])
    ]
handle.close()
print(json.dumps({"events_built": len(built), "survival": answers}))
"""


class TestFlatTraceBoot:
    def test_binary_trace_boots_without_event_objects(
        self, golden_dataset, golden_predictor, tmp_path
    ):
        """``serve trace.bin`` reads the trace as columns: the state is
        built and answers exactly without one event object."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.traces.io import save_dataset

        path = tmp_path / "trace.bin"
        save_dataset(golden_dataset, path)
        queries = [
            (q.machine_id, q.day, q.start_hour, q.duration_hours)
            for q in _queries(golden_dataset.n_machines)
        ][::7]
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _BOOT_SCRIPT, str(path), json.dumps(queries)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["events_built"] == 0
        assert result["survival"] == [
            golden_predictor.predict_survival(PredictionQuery(*q))
            for q in queries
        ]


class TestServedOverHttp:
    """The same value-identity, through a real socket and JSON."""

    @pytest.fixture(scope="class")
    def served(self, golden_columns):
        state = ServeState.from_columns(golden_columns)
        with start_server(state, registry=MetricsRegistry()) as handle:
            with ServeClient(handle.url) as client:
                yield client, state

    def test_availability_identical(self, served, golden_predictor):
        client, state = served
        for query in _queries(state.n_machines):
            payload = client.availability(
                query.machine_id,
                query.duration_hours,
                day=query.day,
                hour=query.start_hour,
            )
            assert payload["survival"] == golden_predictor.predict_survival(
                query
            ), query
            assert payload["expected_events"] == golden_predictor.predict_count(
                query
            ), query

    def test_capacity_counts_thresholded_fleet(self, served, golden_predictor):
        client, state = served
        payload = client.capacity(6.0, threshold=0.3, day=14, hour=9.5)
        expected = sum(
            golden_predictor.predict_survival(
                PredictionQuery(
                    machine_id=m, day=14, start_hour=9.5, duration_hours=6.0
                )
            )
            >= 0.3
            for m in range(state.n_machines)
        )
        assert payload["available"] == expected
        assert payload["n_machines"] == state.n_machines

    def test_rank_orders_by_survival(self, served, golden_predictor):
        client, state = served
        payload = client.rank(6.0, k=state.n_machines, day=14, hour=9.5)
        served_pairs = [
            (entry["machine"], entry["survival"])
            for entry in payload["machines"]
        ]
        batch = [
            (
                m,
                golden_predictor.predict_survival(
                    PredictionQuery(
                        machine_id=m,
                        day=14,
                        start_hour=9.5,
                        duration_hours=6.0,
                    )
                ),
            )
            for m in range(state.n_machines)
        ]
        batch.sort(key=lambda pair: (-pair[1], pair[0]))
        assert served_pairs == batch

    def test_default_window_is_first_unobserved_day(self, served):
        client, state = served
        payload = client.availability(0, 6.0)
        assert payload["day"] == state.horizon_day
        assert payload["hour"] == 0.0


class TestErrorPaths:
    @pytest.fixture(scope="class")
    def served(self, golden_columns):
        state = ServeState.from_columns(golden_columns)
        with start_server(state) as handle:
            with ServeClient(handle.url) as client:
                yield client

    def test_unknown_machine_404(self, served):
        status, payload = served.request_raw(
            "GET", "/v1/availability?machine=999&duration=6"
        )
        assert status == 404
        assert "unknown machine" in payload["error"]

    def test_unknown_endpoint_404(self, served):
        status, _ = served.request_raw("GET", "/v1/nope")
        assert status == 404

    @pytest.mark.parametrize(
        "target",
        [
            "/v1/availability?machine=1",  # missing duration
            "/v1/availability?duration=6",  # missing machine
            "/v1/availability?machine=1&duration=oops",
            "/v1/availability?machine=1&duration=nan",
            "/v1/availability?machine=1&duration=-4",  # PredictionError
            "/v1/availability?machine=1&duration=6&hour=25",
            "/v1/availability?machine=one&duration=6",
            "/v1/capacity?duration=6&threshold=2",
            "/v1/rank?duration=6&k=0",
        ],
    )
    def test_malformed_parameters_400(self, served, target):
        status, payload = served.request_raw("GET", target)
        assert status == 400, target
        assert "error" in payload

    def test_wrong_method_405(self, served):
        status, _ = served.request_raw("POST", "/v1/availability?machine=1")
        assert status == 405

    def test_ingest_order_violation_409(self, served):
        ok = served.ingest(
            [{"machine_id": 0, "start": 30 * DAY, "end": 30 * DAY + 60, "state": "S5"}]
        )
        assert ok["accepted"] == 1
        status, payload = served.request_raw(
            "POST",
            "/v1/ingest",
            json.dumps(
                [{"machine_id": 0, "start": 10.0, "end": 20.0, "state": "S5"}]
            ).encode(),
        )
        assert status == 409
        assert "non-decreasing" in payload["error"]

    def test_client_raises_typed_error(self, served):
        with pytest.raises(ServeRequestError) as excinfo:
            served.availability(999, 6.0)
        assert excinfo.value.status == 404


class TestContentLength:
    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_400_and_closed(
        self, golden_columns, length
    ):
        state = ServeState.from_columns(golden_columns)
        with start_server(state) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=10.0
            ) as sock:
                sock.sendall(
                    b"POST /v1/ingest HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: " + length.encode() + b"\r\n\r\n"
                )
                # Reading to EOF proves the server closed the connection.
                received = b""
                while chunk := sock.recv(4096):
                    received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), received
        assert "Content-Length" in json.loads(body)["error"]


def _read_answer(rfile) -> tuple[int, dict, dict]:
    """One answer off a raw connection: ``(status, headers, payload)``."""
    status = int(rfile.readline().split()[1])
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = json.loads(rfile.read(int(headers["content-length"])))
    return status, headers, payload


def _closed(sock: socket.socket) -> bool:
    """The server closed the connection: the next read is end-of-file."""
    return sock.recv(1) == b""


@pytest.fixture(scope="module")
def wire(golden_columns):
    """A single-process server for raw-socket exchanges."""
    with start_server(ServeState.from_columns(golden_columns)) as handle:
        yield handle


def _connect(handle) -> socket.socket:
    return socket.create_connection((handle.host, handle.port), timeout=10.0)


_DRY_EVENT = json.dumps(
    [{"machine_id": 0, "start": 30 * DAY, "end": 30 * DAY + 60, "state": "S5"}]
).encode()


class TestWireContract:
    """The shell's HTTP/1.1 contract, over raw sockets."""

    def test_expect_100_continue_is_answered_before_the_body(self, wire):
        with _connect(wire) as sock:
            sock.sendall(
                b"POST /v1/ingest?dry=1 HTTP/1.1\r\nHost: test\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(_DRY_EVENT)
            )
            # The interim answer must arrive while the body is unsent.
            sock.settimeout(0.5)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(10.0)
            sock.sendall(_DRY_EVENT)
            status, _, payload = _read_answer(sock.makefile("rb"))
        assert status == 200
        assert (payload["accepted"], payload["dry"]) == (1, True)

    def test_malformed_request_line_gets_json_400_and_close(self, wire):
        with _connect(wire) as sock:
            sock.sendall(b"garbage\r\n\r\n")
            status, headers, payload = _read_answer(sock.makefile("rb"))
            assert _closed(sock)
        assert status == 400
        assert headers["connection"] == "close"
        assert "malformed request line" in payload["error"]

    @pytest.mark.parametrize(
        "method,path,expected",
        [("DELETE", "/healthz", 405), ("PUT", "/v1/ingest", 405), ("PATCH", "/nope", 404)],
    )
    def test_other_methods_get_the_pipeline_answer(self, wire, method, path, expected):
        with _connect(wire) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode())
            status, _, payload = _read_answer(rfile)
            # The connection stays usable.
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert _read_answer(rfile)[0] == 200
        assert status == expected
        assert set(payload) == {"error"}

    @pytest.mark.parametrize(
        "request_bytes,expected",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
            (
                b"POST /v1/ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n",
                411,
            ),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        ],
        ids=[
            "long-request-line",
            "long-header-line",
            "101-headers",
            "chunked",
            "header-without-colon",
            "http-2",
        ],
    )
    def test_unframeable_requests_get_json_errors_and_close(
        self, wire, request_bytes, expected
    ):
        with _connect(wire) as sock:
            sock.sendall(request_bytes)
            status, headers, payload = _read_answer(sock.makefile("rb"))
            assert _closed(sock)
        assert status == expected
        assert headers["connection"] == "close"
        assert set(payload) == {"error"}

    def test_oversized_body_gets_json_413_and_close_unread(self, wire, capfd):
        with _connect(wire) as sock:
            sock.sendall(
                b"POST /v1/ingest HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 1000000000000\r\n\r\n"
            )
            status, headers, payload = _read_answer(sock.makefile("rb"))
            assert _closed(sock)
        assert status == 413
        assert headers["connection"] == "close"
        assert set(payload) == {"error"}
        # The server goes on serving, and no handler thread died.
        with _connect(wire) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_answer(sock.makefile("rb"))[0] == 200
        assert "Traceback" not in capfd.readouterr().err

    def test_head_gets_the_headers_without_a_body(self, wire):
        with _connect(wire) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(b"HEAD /healthz HTTP/1.1\r\n\r\n")
            assert rfile.readline().startswith(b"HTTP/1.1 405 ")
            while rfile.readline() != b"\r\n":
                pass
            # No body follows: the next bytes are the next answer.
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_answer(rfile)[0] == 200

    def test_a_hundred_headers_are_accepted(self, wire):
        with _connect(wire) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 100 + b"\r\n"
            )
            assert _read_answer(sock.makefile("rb"))[0] == 200

    @pytest.mark.parametrize(
        "version,connection",
        [("HTTP/1.0", None), ("HTTP/1.1", "close")],
    )
    def test_answered_then_closed(self, wire, version, connection):
        header = f"Connection: {connection}\r\n" if connection else ""
        with _connect(wire) as sock:
            sock.sendall(f"GET /healthz {version}\r\n{header}\r\n".encode())
            status, headers, payload = _read_answer(sock.makefile("rb"))
            assert _closed(sock)
        assert status == 200 and payload["ok"]
        assert headers["connection"] == "close"

    def test_http10_keep_alive_stays_open(self, wire):
        with _connect(wire) as sock:
            rfile = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                status, headers, _ = _read_answer(rfile)
                assert status == 200
                assert "connection" not in headers

    def test_two_requests_in_one_send_get_two_answers_in_order(self, wire):
        with _connect(wire) as sock:
            sock.sendall(
                b"GET /v1/availability?machine=0&duration=6 HTTP/1.1\r\n\r\n"
                b"GET /v1/availability?machine=3&duration=6 HTTP/1.1\r\n\r\n"
            )
            rfile = sock.makefile("rb")
            answers = [_read_answer(rfile) for _ in range(2)]
        assert [status for status, _, _ in answers] == [200, 200]
        assert [payload["machine"] for _, _, payload in answers] == [0, 3]

    def test_body_split_across_two_sends_is_read_whole(self, wire):
        head = (
            b"POST /v1/ingest?dry=1 HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % len(_DRY_EVENT)
        )
        with _connect(wire) as sock:
            sock.sendall(head + _DRY_EVENT[:10])
            time.sleep(0.05)
            sock.sendall(_DRY_EVENT[10:])
            status, _, payload = _read_answer(sock.makefile("rb"))
        assert status == 200
        assert payload["accepted"] == 1


class TestLatencyWindow:
    def test_stats_count_every_request_past_the_window(
        self, golden_columns, monkeypatch
    ):
        monkeypatch.setattr(metrics, "HISTOGRAM_WINDOW", 8)
        app = ServeApp(ServeState.from_columns(golden_columns), MetricsRegistry())
        for _ in range(20):
            assert app.handle("GET", "/healthz")[0] == 200
        status, payload = app.handle("GET", "/v1/stats")
        app.close()
        assert status == 200
        assert payload["requests"] == 20
        assert payload["latency"]["count"] == 20
        assert payload["latency"]["window"] == 8


class TestPreIngest:
    def test_query_before_any_data_503(self):
        state = ServeState(4, 0)
        with start_server(state) as handle:
            with ServeClient(handle.url) as client:
                status, payload = client.request_raw(
                    "GET", "/v1/availability?machine=1&duration=6"
                )
                assert status == 503
                assert "no data ingested" in payload["error"]
                health = client.healthz()
                assert health["ok"] and not health["ready"]

    def test_no_history_window_422(self, golden_columns):
        # Day 0 has no same-type days before it: a well-formed query the
        # state simply cannot answer yet.
        state = ServeState.from_columns(golden_columns)
        app = ServeApp(state)
        status, payload = app.handle(
            "GET", "/v1/availability?machine=0&duration=6&day=0"
        )
        assert status == 422
        assert "no same-type history" in payload["error"]


class TestConstructor:
    @pytest.mark.parametrize(
        "n_machines,knobs",
        [
            (0, {}),
            (4, {"history_days": 0}),
            (4, {"statistic": "mode"}),
            (4, {"laplace": -0.5}),
        ],
    )
    def test_invalid_state_knobs_rejected(self, n_machines, knobs):
        with pytest.raises(ServeError):
            ServeState(n_machines, 7, **knobs)


class TestIngestValidation:
    """Malformed ingest events are rejected before any state change."""

    @pytest.mark.parametrize(
        "event",
        [
            {"machine_id": 0, "start": 5.0, "end": 4.0, "state": "S3"},
            {"machine_id": 0, "start": -1.0, "end": 4.0, "state": "S3"},
            {"machine_id": 99, "start": 5.0, "end": 6.0, "state": "S3"},
            {"machine_id": 0, "start": 5.0, "end": 6.0, "state": "S9"},
            {"machine_id": 0, "start": 5.0, "end": 6.0, "state": 7},
            {"machine_id": 0, "start": 5.0, "end": 6.0},
            {"machine_id": 0, "start": float("nan"), "end": 6.0, "state": 3},
        ],
    )
    def test_bad_event_rejected(self, event):
        state = ServeState(4, 7)
        with pytest.raises(ServeError):
            state.ingest([event])
        assert state.tier_stats().streamed_events == 0

    def test_bad_jsonl_line_numbered(self):
        state = ServeState(4, 7)
        app = ServeApp(state)
        status, payload = app.handle(
            "POST",
            "/v1/ingest",
            b'{"machine_id": 0, "start": 1, "end": 2, "state": 3}\n{oops',
        )
        app.close()
        assert status == 400
        assert "line 2" in payload["error"]
        assert state.tier_stats().streamed_events == 0

    def test_ingest_extends_horizon_and_answers(self):
        state = ServeState(2, 0, history_days=4)
        events = [
            {"machine_id": 0, "start": d * DAY + 3600.0, "end": d * DAY + 7200.0, "state": 3}
            for d in range(10)
        ]
        result = state.ingest(events)
        assert result.accepted == 10
        assert state.horizon_day == 10
        query = PredictionQuery(
            machine_id=0, day=10, start_hour=0.0, duration_hours=2.0
        )
        # Every same-type history day has exactly one event in 01:00–02:00,
        # overlapping the 00:00–02:00 window: survival is the smoothed zero.
        assert state.predict_count(query) == 1.0
        assert state.predict_survival(query) == 0.5 / 5.0
