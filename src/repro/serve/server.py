"""The HTTP/JSON availability-forecast server: one request pipeline.

:class:`Pipeline` is the whole request path of both serving roles:
parse the target, pick partitions, execute, merge, encode.  The route
table, window parsing, the error contract and the per-request metrics
live there once.  The roles differ only in what a partition is:

* :class:`ServeApp` is one in-process partition, a
  :class:`~repro.serve.state.ServeState` call.  It serves the
  single-process daemon and each scale-out worker (``worker_id`` set,
  state built over a ``shard_range``).
* :class:`~repro.serve.router.RouterApp` has one partition per worker
  process, reached over HTTP (``forward`` and a parallel scatter).

The HTTP shell (:class:`_Handler`, :class:`ServeHandle`) is a small
HTTP/1.1 keep-alive server over :mod:`socketserver` (persistent
connections are what make four-digit QPS reachable from a handful of
client threads), one daemon thread per connection, JSON in and out with
``Content-Length``.  It reads the request line and headers with bytes
operations through :func:`_read_headers`, which the router's upstream
connections use for worker answers too, so no serving process loads
the standard library's HTTP server, ``http.client``, ``email`` or
``ssl`` (see ``docs/serving.md``, "The HTTP shell").  :func:`boot`
starts one serving process from a :class:`ServeSpec`; the CLI and every
router worker use it.  The module loads only the HTTP and JSON machinery:
:class:`ServeApp` and :func:`boot` import the state stack
(:mod:`~repro.serve.state`, :mod:`~repro.serve.ingest`,
:mod:`repro.prediction.base`) when they run, so the router, which runs
only the :class:`Pipeline`, loads none of it and no NumPy.

Endpoints (see ``docs/serving.md`` for the full API):

====== ========================= ==========================================
Method Path                      Answer
====== ========================= ==========================================
GET    ``/healthz``              liveness + readiness + owned machine range
GET    ``/v1/availability``      P(machine available ≥ duration) + count
GET    ``/v1/capacity``          fleet machines forecast free for a window
GET    ``/v1/rank``              top-k machines by survival probability
GET    ``/v1/stats``             tier/paging/ingest/request counters
POST   ``/v1/ingest``            stream events (JSON array or JSONL body;
                                 ``?dry=1`` validates without applying)
POST   ``/v1/flush``             block until queued ingest is applied
POST   ``/v1/shutdown``          graceful stop
====== ========================= ==========================================

Error contract: a query for an unknown machine → 404; a machine outside
this worker's range → 421 (misdirected; the router owns the
machine→worker map); malformed or missing parameters (including an
invalid window, via :class:`~repro.errors.PredictionError`) and ingest
events for a machine outside the fleet → 400; a request the shell cannot
frame → 400 (malformed request line, header line or ``Content-Length``),
411 (``Transfer-Encoding``), 413 (a body over 64 MiB), 414 (request line
over 64 KiB) or 431 (a header line over 64 KiB, or more than 100
headers), and an HTTP version other than 1.0 or 1.1 → 505, each
followed by closing the connection;
queries before any data exists → 503; a down worker's range → 503 with
a ``Retry-After`` header; ingest ordering violations → 409;
ingest-queue backpressure → 429 with a ``Retry-After`` header and
``retry_after`` in the body; a window with no same-type history yet →
422.  Every error body is ``{"error": <human message>}``.

Telemetry: per-request counters and latency histograms on the injected
:class:`~repro.obs.metrics.MetricsRegistry` (``serve.requests``,
``serve.request_seconds``, per-endpoint ``serve.request_seconds.<name>``,
``serve.status.{2,4,5}xx``).  Histograms and counters take the registry
lock, so recording from handler threads is safe; spans are
single-threaded by design and deliberately not used per request.
"""

from __future__ import annotations

import dataclasses
import json
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import TYPE_CHECKING, NamedTuple, Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    IngestBackpressureError,
    IngestOrderError,
    NoHistoryError,
    PredictionError,
    ServeError,
    WorkerRangeError,
)
from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # the router loads neither the state stack nor NumPy
    from .ingest import AsyncIngester
    from .state import ServeState

__all__ = [
    "Pipeline",
    "ServeApp",
    "ServeHandle",
    "ServeSpec",
    "Window",
    "boot",
    "mean_survival",
    "start_server",
]

#: The route table of both roles: ``(method, path) -> endpoint``.
_ROUTES = {
    ("GET", "/healthz"): "healthz",
    ("GET", "/v1/availability"): "availability",
    ("GET", "/v1/capacity"): "capacity",
    ("GET", "/v1/rank"): "rank",
    ("GET", "/v1/stats"): "stats",
    ("POST", "/v1/ingest"): "ingest",
    ("POST", "/v1/flush"): "flush",
    ("POST", "/v1/shutdown"): "shutdown",
}
_KNOWN_PATHS = {path for _, path in _ROUTES}


class _BadRequest(ServeError):
    """Parameter-level 400."""


class _Unavailable(ServeError):
    """The partition that owns the answer is down: 503 + ``Retry-After``."""

    retry_after = 1.0


class _Reply(ServeError):
    """A finished non-200 answer — a routing miss, or a partition's own
    error answer — raised out of any stage and sent as it stands."""

    def __init__(self, status: int, payload: dict, headers: Optional[dict] = None):
        super().__init__(f"HTTP {status}: {payload.get('error')}")
        self.status = status
        self.payload = payload
        self.headers = headers or {}


def mean_survival(
    clean_windows: int, machines: int, history_days: int, laplace: float
) -> float:
    """Fleet mean of the per-machine survival ``(clean + L) / (n + 2L)``.

    One division over integer totals, ``(clean + N*L) / (N*(n + 2L))``.
    Every partition anchors its history at the fleet horizon, so all of
    them average over the same ``n`` days, and a router summing its
    workers' ``clean_windows`` gets the same float as a single process.
    """
    return (clean_windows + machines * laplace) / (
        machines * (history_days + 2 * laplace)
    )


def _ok(result: tuple[int, dict, dict]) -> dict:
    """The payload of a partition's ``(status, payload, headers)``
    answer; any other status than 200 ends the request with it."""
    status, payload, headers = result
    if status != 200:
        raise _Reply(status, payload, headers)
    return payload


def _one(params: dict, name: str) -> Optional[str]:
    values = params.get(name)
    return values[-1] if values else None


def _require(params: dict, name: str) -> str:
    value = _one(params, name)
    if value is None:
        raise _BadRequest(f"missing required parameter {name!r}")
    return value


def _as_int(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _BadRequest(f"parameter {name!r} must be an integer, got {value!r}")


def _as_float(name: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise _BadRequest(f"parameter {name!r} must be a number, got {value!r}")
    if out != out or out in (float("inf"), float("-inf")):
        raise _BadRequest(f"parameter {name!r} must be finite, got {value!r}")
    return out


def _decode_events(body: bytes) -> list:
    """An ingest body, a JSON array or JSONL (one event per line), as
    raw events; a bad JSONL line is reported by its number."""
    if not body:
        raise _BadRequest("ingest body is empty")
    text = body.decode("utf-8", errors="replace").strip()
    if text.startswith("["):
        try:
            return json.loads(text)
        except ValueError as exc:
            raise _BadRequest(f"invalid JSON body: {exc}")
    events = []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                raise _BadRequest(f"ingest line {i}: invalid JSON: {exc}")
    return events


class Window(NamedTuple):
    """A query window, resolved once when partitions are picked.

    ``horizon`` is the fleet horizon the history is anchored at, and
    ``day`` defaults to it: midnight of the first unobserved day, the
    earliest window whose history is complete.
    """

    day: int
    hour: float
    duration: float
    horizon: int

    def pin(self, target: str) -> str:
        """``target`` with ``day`` and ``horizon`` appended; the last
        value of a parameter wins, so a partition answers for exactly
        this window."""
        return f"{target}&day={self.day}&horizon={self.horizon}"


class Pipeline:
    """The request pipeline both roles share.

    Pure: no sockets, no threads of its own; the HTTP shell and the
    test suite both drive :meth:`handle`.  A role supplies its
    partitions through :meth:`fleet_horizon`, :meth:`point`,
    :meth:`fleet`, :meth:`flush`, :meth:`ingest`, :meth:`healthz`,
    :meth:`stats` and :meth:`close`, and ``laplace`` for the merge.
    ``point`` and ``fleet`` get the resolved window and the client's
    target, which a role that forwards requests pins with
    :meth:`Window.pin`.
    """

    laplace: float

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self._started = time.time()

    def handle(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict]:
        """Dispatch one request; returns ``(http_status, json_payload)``."""
        status, payload, _ = self.handle_full(method, target, body)
        return status, payload

    def handle_full(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, dict]:
        """Dispatch one request; returns ``(status, payload, headers)``."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        headers: dict[str, str] = {}
        t0 = time.perf_counter()
        try:
            status = 200
            payload = self._route(
                method, path, parse_qs(split.query), target, body
            )
        except _Reply as exc:
            status, payload, headers = exc.status, exc.payload, exc.headers
        except (_BadRequest, PredictionError) as exc:
            status, payload = 400, {"error": str(exc)}
        except IngestOrderError as exc:
            status, payload = 409, {"error": str(exc)}
        except (IngestBackpressureError, _Unavailable) as exc:
            busy = isinstance(exc, IngestBackpressureError)
            status = 429 if busy else 503
            payload = {"error": str(exc), "retry_after": exc.retry_after}
            headers["Retry-After"] = f"{exc.retry_after:g}"
            self.registry.inc(
                "serve.ingest_backpressure" if busy else "serve.range_unavailable"
            )
        except NoHistoryError as exc:
            message = str(exc)
            status = 503 if "no data ingested" in message else 422
            payload = {"error": message}
        except WorkerRangeError as exc:
            status, payload = 421, {"error": str(exc)}
        except ServeError as exc:
            message = str(exc)
            status = 404 if "unknown machine" in message else 400
            payload = {"error": message}
        except Exception as exc:  # pragma: no cover - defensive 500
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        dt = time.perf_counter() - t0
        name = path.rsplit("/", 1)[-1] or "root"
        self.registry.inc("serve.requests")
        self.registry.inc(f"serve.status.{status // 100}xx")
        self.registry.observe("serve.request_seconds", dt)
        self.registry.observe(f"serve.request_seconds.{name}", dt)
        return status, payload, headers

    def _route(
        self, method: str, path: str, params: dict, target: str, body: bytes
    ) -> dict:
        endpoint = _ROUTES.get((method, path))
        if endpoint is None:
            if path in _KNOWN_PATHS:
                raise _Reply(405, {"error": f"{method} not allowed on {path}"})
            raise _Reply(404, {"error": f"no such endpoint {path!r}"})
        if endpoint == "availability":
            machine = _as_int("machine", _require(params, "machine"))
            window = self._window(params)
            return self.point(machine, window, target)
        if endpoint in ("capacity", "rank"):
            name, default, parse = (
                ("threshold", 0.5, _as_float)
                if endpoint == "capacity"
                else ("k", 10, _as_int)
            )
            raw = _one(params, name)
            option = default if raw is None else parse(name, raw)
            window = self._window(params)
            parts = self.fleet(endpoint, window, option, target)
            return self._merge(endpoint, parts, option)
        if endpoint == "flush":
            return self._merge(endpoint, self.flush())
        if endpoint == "ingest":
            dry = _one(params, "dry") in ("1", "true")
            return self.ingest(_decode_events(body), dry)
        if endpoint == "shutdown":
            return {"stopping": True}
        return self.healthz() if endpoint == "healthz" else self.stats()

    def _window(self, params: dict) -> Window:
        """The query window: ``duration`` is required, ``hour`` defaults
        to 0, and ``day`` and ``horizon`` to the fleet horizon."""
        duration = _as_float("duration", _require(params, "duration"))
        raw = _one(params, "horizon")
        horizon = self.fleet_horizon() if raw is None else _as_int("horizon", raw)
        raw = _one(params, "day")
        day = horizon if raw is None else _as_int("day", raw)
        for name, value in (("day", day), ("horizon", horizon)):
            if value < 0:
                raise _BadRequest(f"parameter {name!r} must be >= 0, got {value}")
        raw = _one(params, "hour")
        hour = 0.0 if raw is None else _as_float("hour", raw)
        return Window(day, hour, duration, horizon)

    def _merge(self, endpoint: str, parts: list[dict], k=None) -> dict:
        """One answer from the partial answers of any number of partitions.

        Counts add and the fleet mean divides once, so any split answers
        as one process does; a single partial comes back as it was, plus
        ``workers: 1``.  Machine ids are global, so ranked partials merge
        by one ``(-survival, machine)`` sort, the single-process order,
        and keep the top ``k``.
        """
        out = dict(parts[0], workers=len(parts))
        if endpoint == "flush":
            out["applied_batches"] = sum(p["applied_batches"] for p in parts)
        elif endpoint == "rank":
            ranked = [entry for p in parts for entry in p["machines"]]
            ranked.sort(key=lambda e: (-e["survival"], e["machine"]))
            out["machines"] = ranked[:k]
        else:
            available = sum(p["available"] for p in parts)
            owned = sum(p["owned"] for p in parts)
            clean = sum(p["clean_windows"] for p in parts)
            out.update(
                available=available,
                owned=owned,
                machine_lo=min(p["machine_lo"] for p in parts),
                machine_hi=max(p["machine_hi"] for p in parts),
                fraction=available / owned,
                clean_windows=clean,
                mean_survival=mean_survival(
                    clean, owned, out["history_days"], self.laplace
                ),
            )
        return out


class ServeApp(Pipeline):
    """The pipeline over one in-process partition, a :class:`ServeState`.

    Ingest always goes through an
    :class:`~repro.serve.ingest.AsyncIngester` (one is made when none is
    passed): ``POST /v1/ingest`` validates synchronously and applies
    through the queue, and can 429.
    """

    # Each role's entry point is its own attribute, so a tracer can
    # wrap one role's requests without the other's.
    handle_full = Pipeline.handle_full

    def __init__(
        self,
        state: ServeState,
        registry: Optional[MetricsRegistry] = None,
        *,
        ingester: Optional[AsyncIngester] = None,
        worker_id: Optional[int] = None,
    ) -> None:
        super().__init__(registry)
        if ingester is None:
            from .ingest import AsyncIngester

            ingester = AsyncIngester(state)
        self.state = state
        self.laplace = state.laplace
        self.ingester = ingester
        self.worker_id = worker_id

    def fleet_horizon(self) -> int:
        return self.state.horizon_day

    def point(self, machine: int, w: Window, target: str) -> dict:
        from ..prediction.base import PredictionQuery

        query = PredictionQuery(
            machine_id=machine,
            day=w.day,
            start_hour=w.hour,
            duration_hours=w.duration,
        )
        return {
            "machine": machine,
            "day": w.day,
            "hour": w.hour,
            "duration_hours": w.duration,
            "survival": self.state.predict_survival(query, w.horizon),
            "expected_events": self.state.predict_count(query, w.horizon),
        }

    def fleet(self, endpoint: str, w: Window, option, target: str) -> list[dict]:
        """This partition's capacity (``option`` is the threshold) or
        rank (``option`` is k) answer."""
        window = {"day": w.day, "hour": w.hour, "duration_hours": w.duration}
        if endpoint == "capacity":
            part = self.state.capacity(
                w.day, w.hour, w.duration, threshold=option, horizon=w.horizon
            )
            return [{**part, **window}]
        ranked = self.state.rank(
            w.day, w.hour, w.duration, k=option, horizon=w.horizon
        )
        return [
            {**window, "machines": [{"machine": m, "survival": s} for m, s in ranked]}
        ]

    def flush(self) -> list[dict]:
        self.ingester.flush()
        applied = self.ingester.stats().applied_batches
        return [{"flushed": True, "applied_batches": applied}]

    def ingest(self, events: list, dry: bool) -> dict:
        batch = (
            self.ingester.validate_only(events)
            if dry
            else self.ingester.submit(events)
        )
        if not dry:
            self.registry.inc("serve.ingested_events", batch.n_accepted)
            self.registry.inc("serve.ingest_batches")
        return {
            "accepted": batch.n_accepted,
            "deduplicated": batch.deduplicated,
            "dry": dry,
            # The horizon covers queued-but-unapplied events too.
            "horizon_day": max(self.state.horizon_day, batch.horizon_day),
        }

    def healthz(self) -> dict:
        payload = {
            "ok": True,
            "ready": self.state.ready,
            "n_machines": self.state.n_machines,
            "machine_lo": self.state.machine_lo,
            "machine_hi": self.state.machine_hi,
            "horizon_day": self.state.horizon_day,
            "uptime_seconds": time.time() - self._started,
        }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        return payload

    def stats(self) -> dict:
        tier = dataclasses.asdict(self.state.tier_stats())
        ingest = {
            key: tier.pop(key)
            for key in ("streamed_events", "deduplicated_events", "overlay_cells")
        }
        ingest["queue"] = dataclasses.asdict(self.ingester.stats())
        payload = {
            "n_machines": self.state.n_machines,
            "machine_lo": self.state.machine_lo,
            "machine_hi": self.state.machine_hi,
            "base_days": self.state.base_n_days,
            "horizon_day": self.state.horizon_day,
            "ready": self.state.ready,
            "history_days": self.state.history_days,
            "statistic": self.state.statistic,
            "laplace": self.state.laplace,
            "tier": tier,
            "ingest": ingest,
            "requests": self.registry.counter_value("serve.requests"),
        }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        hist = self.registry.histogram("serve.request_seconds")
        if hist is not None and len(hist):
            payload["latency"] = hist.summary()
        status_counts = {
            band: self.registry.counter_value(f"serve.status.{band}")
            for band in ("2xx", "4xx", "5xx")
        }
        if any(status_counts.values()):
            payload["status"] = status_counts
        return payload

    def close(self) -> None:
        """Drain the ingest queue and take its final snapshot."""
        self.ingester.close(timeout=30.0)


#: The longest request or header line the shell reads, line end included,
#: and the most header lines it takes (the standard library's limits).
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: The largest request body the shell reads.  A full batch for the
#: default 100,000-event ingest queue is about 5 MB of JSON.
_MAX_BODY = 64 << 20

#: Every status line the shell may send, built once.
_STATUS_LINES = {
    s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode("ascii")
    for s in HTTPStatus
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class _HeaderError(Exception):
    """A header block the shell refuses with ``status`` (400 or 431); in
    a worker's answer, the router counts it as a failed attempt."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _read_headers(rfile) -> dict[str, str]:
    """One header block, read up to its blank line, as
    ``{lowercased name: value}``.

    The shell reads requests and the router's upstream connections read
    worker answers through it.  Raises :class:`_HeaderError` for a line
    over 64 KiB or without a colon, or more than 100 header lines, and
    :class:`ConnectionError` at end of file.
    """
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _HeaderError(431, f"header line longer than {_MAX_LINE} bytes")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise ConnectionError("connection closed mid-headers")
        name, colon, value = line.partition(b":")
        if not colon:
            raise _HeaderError(
                400, f"malformed header line {line[:64].decode('latin-1').strip()!r}"
            )
        headers[name.strip().lower().decode("latin-1")] = (
            value.strip().decode("latin-1")
        )
    raise _HeaderError(431, f"more than {_MAX_HEADERS} header lines")


class _Handler(socketserver.StreamRequestHandler):
    """The socket-facing shell around either role's pipeline: HTTP/1.1
    keep-alive, one request at a time on one connection.

    :meth:`parse_request` reads the request line and headers,
    :meth:`_dispatch` reads the body, runs the pipeline and writes the
    whole answer into the buffered writer, and the request loop flushes
    it once :meth:`_dispatch` returns.  A request the shell cannot frame
    gets a JSON error, then the connection closes.
    """

    # One buffered write per response + no Nagle: without these, the
    # status line / headers / body go out as separate small segments and
    # Nagle + delayed-ACK adds ~40ms per keep-alive round trip, capping
    # a persistent client at ~25 QPS no matter how fast the handler is.
    wbufsize = -1
    disable_nagle_algorithm = True
    app: Pipeline  # set by ServeHandle on the subclass

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self.handle_one_request()
        except ConnectionError:
            pass  # the client went away mid-request

    def handle_one_request(self) -> None:
        self.command = ""
        self.raw_requestline = self.rfile.readline(_MAX_LINE + 1)
        if not self.raw_requestline:
            self.close_connection = True
            return
        if self.parse_request():
            self._dispatch(self.command)
        self.wfile.flush()

    def parse_request(self) -> bool:
        """Parse the request line and read the headers; a malformed
        request is answered here, and then this returns False."""
        line = self.raw_requestline
        if len(line) > _MAX_LINE:
            return self._refuse(414, f"request line longer than {_MAX_LINE} bytes")
        text = line.decode("latin-1")
        words = text.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            return self._refuse(400, f"malformed request line {text[:64].strip()!r}")
        method, self.path, self.request_version = words
        if self.request_version not in ("HTTP/1.0", "HTTP/1.1"):
            return self._refuse(
                505, f"HTTP version {self.request_version!r} not supported"
            )
        try:
            self.headers = _read_headers(self.rfile)
        except _HeaderError as exc:
            return self._refuse(exc.status, str(exc))
        self.command = method
        connection = self.headers.get("connection", "").lower()
        self.close_connection = (
            connection == "close"
            if self.request_version == "HTTP/1.1"
            else connection != "keep-alive"
        )
        return True

    def _refuse(self, status: int, message: str) -> bool:
        """Answer a request whose framing is broken, then close."""
        self.close_connection = True
        self._respond(status, {"error": message})
        return False

    def _respond(
        self, status: int, payload: dict, extra: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = [
            _STATUS_LINES.get(status) or b"HTTP/1.1 %d \r\n" % status,
            self.server.date_line(),
            b"Content-Type: application/json\r\nContent-Length: %d\r\n" % len(body),
        ]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}\r\n".encode("latin-1"))
        if self.close_connection:
            head.append(b"Connection: close\r\n")
        head.append(b"\r\n")
        if self.command != "HEAD":
            head.append(body)
        self.wfile.write(b"".join(head))

    def _dispatch(self, method: str) -> None:
        if "transfer-encoding" in self.headers:
            # Chunked bodies are not read, so chunk data must never be
            # taken for the next request.
            self._refuse(411, "Transfer-Encoding is not supported; send Content-Length")
            return
        length = self.headers.get("content-length", "0")
        # isdigit() alone takes digits such as "²" that int() refuses.
        if not (length.isascii() and length.isdigit()):
            # The body's end is unknown, so the connection cannot be
            # reused: answer and close it.
            self._refuse(400, f"invalid Content-Length {length!r}")
            return
        size = int(length)
        if size > _MAX_BODY:
            # Refused unread, so the connection cannot carry another
            # request: answer and close.
            self._refuse(
                413, f"request body of {size} bytes is over the limit of "
                f"{_MAX_BODY} bytes"
            )
            return
        body = b""
        if size:
            if (
                self.request_version == "HTTP/1.1"
                and self.headers.get("expect", "").lower() == "100-continue"
            ):
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                self.wfile.flush()
            body = self.rfile.read(size)
            if len(body) < size:
                self.close_connection = True  # the client went away
                return
        status, payload, headers = self.app.handle_full(method, self.path, body)
        self._respond(status, payload, headers)
        if method == "POST" and self.path.split("?")[0].rstrip("/") == "/v1/shutdown":
            # shutdown() must run off the serve thread or it deadlocks.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()


class _Server(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """One daemon thread per connection, so closing the server waits for
    none of them."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple, handler: type) -> None:
        self._date: tuple[int, bytes] = (-1, b"")
        super().__init__(address, handler)

    def date_line(self) -> bytes:
        """The ``Date`` header line, formatted once per second."""
        now = int(time.time())
        if self._date[0] != now:
            t = time.gmtime(now)
            self._date = (now, (
                f"Date: {_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
                f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT\r\n"
            ).encode("ascii"))
        return self._date[1]


class ServeHandle:
    """A running server of either role: its address, app and lifecycle.

    Serves ``app`` on a background thread; ``port=0`` picks a free port.
    :meth:`close` stops serving, then closes the app (a server drains
    its ingest queue, a router stops its workers).
    """

    def __init__(self, app: Pipeline, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        handler = type("ServeHandler", (_Handler,), {"app": app})
        try:
            self.server = _Server((host, port), handler)
        except BaseException:
            app.close()
            raise
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="fgcs-serve", daemon=True
        )
        self.thread.start()

    @property
    def supervisor(self):
        """A router's worker supervisor."""
        return self.app.supervisor

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the serve loop exits (shutdown endpoint/close)."""
        self.thread.join(timeout)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.app.close()

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_server(
    state: ServeState,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    ingester: Optional[AsyncIngester] = None,
    worker_id: Optional[int] = None,
) -> ServeHandle:
    """Serve ``state`` on a background thread; ``port=0`` picks a free one.

    Without an ``ingester`` the app makes its own ingest queue.
    """
    app = ServeApp(state, registry, ingester=ingester, worker_id=worker_id)
    return ServeHandle(app, host, port)


@dataclasses.dataclass(frozen=True)
class ServeSpec:
    """Everything one serving process needs to boot.

    Picklable, so a router can hand it to a spawned worker, which owns
    the store's ``shard_range`` and snapshots to ``worker<id>.npz``; a
    single process snapshots to ``serve.npz``.
    """

    trace: str
    host: str = "127.0.0.1"
    port: int = 0
    worker_id: Optional[int] = None
    shard_range: Optional[tuple] = None
    block_machines: Optional[int] = None
    hot_shards: Optional[int] = None
    hot_bytes: Optional[int] = None
    history_days: int = 8
    statistic: str = "mean"
    laplace: float = 0.5
    verify: bool = True
    ingest_queue: int = 100_000
    snapshot_dir: Optional[str] = None
    snapshot_every: Optional[int] = None


def boot(
    spec: ServeSpec, registry: Optional[MetricsRegistry] = None
) -> ServeHandle:
    """Start one serving process: build the state from the trace (a flat
    trace file, or a shard store), restore its overlay snapshot, and
    serve it behind an ingest queue that snapshots back to that file."""
    from pathlib import Path

    from ..traces import is_shard_store, load_columns, open_shards
    from .ingest import AsyncIngester
    from .state import ServeState

    knobs = dict(
        block_machines=spec.block_machines,
        hot_shards=spec.hot_shards,
        hot_bytes=spec.hot_bytes,
        history_days=spec.history_days,
        statistic=spec.statistic,
        laplace=spec.laplace,
        verify=spec.verify,
    )
    if is_shard_store(spec.trace):
        store = open_shards(spec.trace, verify=spec.verify)
        state = ServeState.from_store(store, shard_range=spec.shard_range, **knobs)
    else:
        state = ServeState.from_columns(load_columns(spec.trace), **knobs)
    snapshot_fn = None
    if spec.snapshot_dir is not None:
        name = "serve" if spec.worker_id is None else f"worker{spec.worker_id}"
        snap = Path(spec.snapshot_dir) / f"{name}.npz"
        if snap.exists():
            restored = state.restore_overlay_snapshot(snap)
            print(
                f"restored {restored} streamed event(s) from {snap}",
                file=sys.stderr,
            )
        snapshot_fn = lambda: state.save_overlay_snapshot(snap)  # noqa: E731
    ingester = AsyncIngester(
        state,
        max_pending_events=spec.ingest_queue,
        snapshot_every=spec.snapshot_every if snapshot_fn else None,
        snapshot_fn=snapshot_fn,
    )
    return start_server(
        state,
        host=spec.host,
        port=spec.port,
        registry=registry if registry is not None else MetricsRegistry(),
        ingester=ingester,
        worker_id=spec.worker_id,
    )
