"""Horizontal scale-out: a router front-end over per-shard-range workers.

A single serve process tops out on one GIL: the accept loop, the JSON
codec, and the fleet sweeps all contend for the same interpreter, so
throughput saturates long before the hardware does (the classic
single-process collapse the multicore-OS literature documents).  The
scale-out front keeps every piece of PR 8's protocol and exactness while
spreading the *state* across processes:

* ``start_router(store, n_workers=N)`` partitions the store's shards
  into N contiguous runs and **spawns one worker process per run** —
  each a full :func:`~repro.serve.server.start_server` daemon whose
  :class:`~repro.serve.state.ServeState` owns exactly that machine
  range (the per-shard count blocks are already independent, so the
  partition is free).  Workers use the ``spawn`` start method: a fresh
  interpreter, picklable specs, and safe respawn while router threads
  run.
* The **router** is a thin HTTP front: per-machine queries
  (``availability``, single-machine ``ingest``) are forwarded verbatim
  to the owning worker over persistent per-thread upstream connections;
  fleet-wide ``capacity``/``rank`` scatter to every worker in parallel
  and merge vectorized (integer partial sums and a global
  ``(-survival, machine)`` sort — exactly the single-process answer,
  see ``docs/serving.md``).  The router holds *no* predictor state, so
  its per-request work is a dict lookup and byte shuffling.
* A **supervisor thread** watches worker processes.  A dead worker
  (crash, SIGKILL) marks its machine range down — requests for it get
  503 + ``Retry-After`` *for that range only*; everything else keeps
  serving — and is respawned from the store (plus its overlay snapshot,
  when snapshots are on).  Worker ports are handed back over a pipe at
  boot, so respawns rebind freely.

Cross-worker ingest batches keep the atomic-batch contract by a
two-phase protocol under a router-wide ingest lock: every owner
validates its slice (``?dry=1``) against its effective tails, and only
when all slices pass does the router commit them (retrying transient
429s).  A worker that dies *between* the phases can leave a batch
partially applied across workers — the same window a crashed
single-process daemon has between accepting and snapshotting — but
per-machine ordering can never be violated.  Single-owner batches (the
common case when producers shard their streams the same way) skip the
lock and both phases.
"""

from __future__ import annotations

import bisect
import json
import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import Optional, Sequence
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..errors import ServeError, TraceError
from ..obs.metrics import MetricsRegistry
from ..traces.shards import ShardedTraceDataset
from .state import ServeState, mean_survival

__all__ = [
    "RouterApp",
    "RouterHandle",
    "WorkerSpec",
    "start_router",
    "worker_main",
]

#: How long a worker gets to bind its port and report back.
_BOOT_TIMEOUT_S = 60.0
#: Supervisor poll cadence.
_POLL_S = 0.2
#: Retry-After hint the router sends for a down machine range.
_DOWN_RETRY_AFTER = 1.0


# -- worker process ------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs (must stay picklable)."""

    worker_id: int
    store_root: str
    shard_lo: int
    shard_hi: int
    host: str = "127.0.0.1"
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

    @property
    def snapshot_path(self) -> Optional[str]:
        if self.snapshot_dir is None:
            return None
        return f"{self.snapshot_dir}/worker{self.worker_id}.npz"


def worker_main(spec: WorkerSpec, conn) -> None:
    """Entry point of one spawned shard worker (blocks until shutdown).

    Reports over ``conn`` once: its port (an ``int``) when it serves, or
    the message (a ``str``) of the :class:`ServeError`,
    :class:`TraceError` or :class:`OSError` that stopped its boot — then
    exits with status 2 instead of printing a traceback.
    """
    try:
        handle, ingester = _boot_worker(spec)
    except (ServeError, TraceError, OSError) as exc:
        conn.send(str(exc))
        conn.close()
        raise SystemExit(2) from None
    conn.send(handle.port)
    conn.close()
    try:
        handle.wait()  # until POST /v1/shutdown stops the serve loop
    finally:
        handle.server.server_close()
        ingester.close(timeout=30.0)


def _boot_worker(spec: WorkerSpec):
    """Open the store range, restore the snapshot and start serving."""
    from pathlib import Path

    from ..traces.shards import open_shards
    from .ingest import AsyncIngester
    from .server import start_server

    store = open_shards(spec.store_root, verify=spec.verify)
    state = ServeState.from_store(
        store,
        shard_range=(spec.shard_lo, spec.shard_hi),
        hot_shards=spec.hot_shards,
        hot_bytes=spec.hot_bytes,
        block_machines=spec.block_machines,
        history_days=spec.history_days,
        statistic=spec.statistic,
        laplace=spec.laplace,
        verify=spec.verify,
    )
    snapshot_fn = None
    if spec.snapshot_path is not None:
        snap = Path(spec.snapshot_path)
        if snap.exists():
            state.restore_overlay_snapshot(snap)
        snapshot_fn = lambda: state.save_overlay_snapshot(snap)  # noqa: E731
    ingester = AsyncIngester(
        state,
        max_pending_events=spec.ingest_queue,
        snapshot_every=spec.snapshot_every,
        snapshot_fn=snapshot_fn,
    )
    registry = MetricsRegistry()
    handle = start_server(
        state,
        host=spec.host,
        port=0,
        registry=registry,
        ingester=ingester,
        worker_id=spec.worker_id,
    )
    return handle, ingester


# -- upstream connections ------------------------------------------------------


class _Upstream:
    """One persistent raw-socket HTTP/1.1 connection to a worker.

    ``http.client`` parses response headers through ``email.parser`` —
    measurable milliseconds per response, which a one-GIL router paying
    it on *every* forwarded request cannot afford.  This speaks just the
    subset the workers emit: status line, ``\\r\\n`` headers,
    ``Content-Length`` bodies over a buffered socket file.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb")
        self._host_header = f"{host}:{port}".encode("ascii")

    def close(self) -> None:
        try:
            self._rfile.close()
            self.sock.close()
        except OSError:
            pass

    def request(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, bytes]:
        """Returns ``(status, lowercased_headers, body_bytes)``."""
        head = (
            f"{method} {target} HTTP/1.1\r\n".encode("ascii")
            + b"Host: " + self._host_header + b"\r\n"
            + b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
            + (b"Content-Type: application/json\r\n" if body else b"")
            + b"\r\n"
        )
        self.sock.sendall(head + body)
        status_line = self._rfile.readline()
        if not status_line:
            raise ConnectionError("upstream closed the connection")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed upstream status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = self._rfile.readline()
            if not line:
                raise ConnectionError("upstream closed mid-headers")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode("latin-1")] = (
                value.strip().decode("latin-1")
            )
        length = int(headers.get("content-length") or 0)
        payload = self._rfile.read(length) if length else b""
        if length and len(payload) < length:
            raise ConnectionError("upstream closed mid-body")
        return status, headers, payload


class _WorkerDown(ServeError):
    """Internal: the owning worker's range is temporarily unavailable."""

    def __init__(self, worker: "WorkerHandle"):
        super().__init__(
            f"machine range [{worker.machine_lo}, {worker.machine_hi}) is "
            f"temporarily unavailable (worker {worker.spec.worker_id} "
            "restarting); retry shortly"
        )
        self.worker = worker


# -- supervision ---------------------------------------------------------------


class WorkerHandle:
    """One worker's process, address, and up/down status."""

    def __init__(self, spec: WorkerSpec, machine_lo: int, machine_hi: int):
        self.spec = spec
        self.machine_lo = machine_lo
        self.machine_hi = machine_hi
        self.process = None
        self.port: Optional[int] = None
        #: Bumped on every (re)spawn so pooled connections self-invalidate.
        self.generation = 0
        self.down = True
        self.respawns = -1  # first spawn brings it to 0
        self.lock = threading.Lock()


class WorkerSupervisor:
    """Spawns the worker fleet, watches it, respawns the fallen."""

    def __init__(self, specs: Sequence[WorkerSpec], ranges: Sequence[tuple]):
        self._ctx = multiprocessing.get_context("spawn")
        self.workers = [
            WorkerHandle(spec, lo, hi)
            for spec, (lo, hi) in zip(specs, ranges)
        ]
        self._machine_los = [w.machine_lo for w in self.workers]
        self._closing = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        try:
            for worker in self.workers:
                self._spawn(worker)
        except BaseException:
            self.close()
            raise
        self._thread = threading.Thread(
            target=self._watch, name="fgcs-supervisor", daemon=True
        )
        self._thread.start()

    def _spawn(self, worker: WorkerHandle) -> None:
        parent, child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker.spec, child),
            name=f"fgcs-worker-{worker.spec.worker_id}",
            daemon=True,
        )
        process.start()
        child.close()
        name = f"worker {worker.spec.worker_id}"
        try:
            if not parent.poll(_BOOT_TIMEOUT_S):
                process.terminate()
                process.join(5.0)
                raise ServeError(
                    f"{name} did not report a port within "
                    f"{_BOOT_TIMEOUT_S:.0f}s"
                )
            try:
                port = parent.recv()
            except EOFError:
                process.join(5.0)
                raise ServeError(
                    f"{name} exited (status {process.exitcode}) before "
                    "reporting its port"
                ) from None
        finally:
            parent.close()
        if isinstance(port, str):
            process.join(5.0)
            raise ServeError(f"{name} failed to boot: {port}")
        with worker.lock:
            worker.process = process
            worker.port = port
            worker.generation += 1
            worker.respawns += 1
            worker.down = False

    def _watch(self) -> None:
        while not self._closing.is_set():
            for worker in self.workers:
                if self._closing.is_set():
                    break
                process = worker.process
                if process is not None and not process.is_alive():
                    with worker.lock:
                        worker.down = True
                    try:
                        self._spawn(worker)
                    except Exception:
                        # Boot failed; stays down, retried next poll.
                        with worker.lock:
                            worker.down = True
            self._closing.wait(_POLL_S)

    def worker_for_machine(self, machine_id: int) -> WorkerHandle:
        lo = self.workers[0].machine_lo
        hi = self.workers[-1].machine_hi
        if not lo <= machine_id < hi:
            raise ServeError(
                f"unknown machine {machine_id} (fleet is [{lo}, {hi}))"
            )
        return self.workers[bisect.bisect_right(self._machine_los, machine_id) - 1]

    def close(self, timeout: float = 10.0) -> None:
        self._closing.set()
        if self._thread is not None:
            self._thread.join(timeout)
        for worker in self.workers:
            process, port = worker.process, worker.port
            if process is None or not process.is_alive():
                continue
            try:
                up = _Upstream("127.0.0.1", port, timeout=5.0)
                up.request("POST", "/v1/shutdown", b"")
                up.close()
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            process = worker.process
            if process is None:
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(1.0)


# -- the router app ------------------------------------------------------------


class RouterApp:
    """Routes front-door requests across the worker fleet.

    Speaks the same wire protocol as :class:`~repro.serve.server.ServeApp`
    (the :class:`~repro.serve.client.ServeClient` cannot tell them
    apart) but holds no predictor state of its own.
    """

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        n_machines: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.supervisor = supervisor
        self.n_machines = n_machines
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self._started = time.time()
        self._local = threading.local()
        self._ingest_lock = threading.Lock()

    # -- forwarding -----------------------------------------------------------

    def _upstream(self, worker: WorkerHandle) -> _Upstream:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        cached = pool.get(worker.spec.worker_id)
        if cached is not None and cached[0] == worker.generation:
            return cached[1]
        if cached is not None:
            cached[1].close()
        upstream = _Upstream("127.0.0.1", worker.port)
        pool[worker.spec.worker_id] = (worker.generation, upstream)
        return upstream

    def _drop_upstream(self, worker: WorkerHandle) -> None:
        pool = getattr(self._local, "pool", None)
        if pool is not None:
            cached = pool.pop(worker.spec.worker_id, None)
            if cached is not None:
                cached[1].close()

    def forward(
        self, worker: WorkerHandle, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, dict]:
        """Forward one request to a worker; reconnect once, then mark the
        range down."""
        with worker.lock:
            down = worker.down
        if down:
            raise _WorkerDown(worker)
        for attempt in (0, 1):
            try:
                upstream = self._upstream(worker)
                status, headers, payload = upstream.request(method, target, body)
                break
            except (OSError, ConnectionError):
                self._drop_upstream(worker)
                if attempt:
                    # Two strikes: the worker is gone (the supervisor
                    # will notice the corpse and respawn it); fail only
                    # this machine range.
                    with worker.lock:
                        worker.down = True
                    raise _WorkerDown(worker)
        try:
            decoded = json.loads(payload) if payload else {}
        except ValueError:
            decoded = {"error": payload.decode("utf-8", errors="replace")}
        out_headers = {}
        if "retry-after" in headers:
            out_headers["Retry-After"] = headers["retry-after"]
        return status, decoded, out_headers

    def _scatter(
        self, method: str, target: str, body: bytes = b""
    ) -> list[tuple[int, dict, dict]]:
        """Forward to every worker in parallel; raises :class:`_WorkerDown`
        if any range is unavailable (fleet answers must be whole)."""
        workers = self.supervisor.workers
        results: list = [None] * len(workers)
        errors: list = [None] * len(workers)

        def fetch(i: int, worker: WorkerHandle) -> None:
            try:
                results[i] = self.forward(worker, method, target, body)
            except ServeError as exc:
                errors[i] = exc

        if len(workers) == 1:
            fetch(0, workers[0])
        else:
            threads = [
                threading.Thread(target=fetch, args=(i, w), daemon=True)
                for i, w in enumerate(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for exc in errors:
            if exc is not None:
                raise exc
        return results

    # -- plumbing -------------------------------------------------------------

    def handle(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict]:
        status, payload, _ = self.handle_full(method, target, body)
        return status, payload

    def handle_full(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, dict]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = parse_qs(split.query)
        headers: dict[str, str] = {}
        t0 = time.perf_counter()
        try:
            status, payload, headers = self._route(
                method, path, params, target, body
            )
        except _WorkerDown as exc:
            status = 503
            payload = {"error": str(exc), "retry_after": _DOWN_RETRY_AFTER}
            headers = {"Retry-After": f"{_DOWN_RETRY_AFTER:g}"}
            self.registry.inc("serve.range_unavailable")
        except ServeError as exc:
            message = str(exc)
            if "unknown machine" in message:
                status, payload = 404, {"error": message}
            else:
                status, payload = 400, {"error": message}
            headers = {}
        except Exception as exc:  # pragma: no cover - defensive 500
            status, payload, headers = (
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                {},
            )
        dt = time.perf_counter() - t0
        name = path.rsplit("/", 1)[-1] or "root"
        self.registry.inc("serve.requests")
        self.registry.inc(f"serve.status.{status // 100}xx")
        self.registry.observe("serve.request_seconds", dt)
        self.registry.observe(f"serve.request_seconds.{name}", dt)
        return status, payload, headers

    def _route(
        self, method: str, path: str, params: dict, target: str, body: bytes
    ) -> tuple[int, dict, dict]:
        if path == "/healthz" and method == "GET":
            return self.healthz()
        if path == "/v1/availability" and method == "GET":
            return self.availability(params, target)
        if path == "/v1/capacity" and method == "GET":
            return self.capacity(target)
        if path == "/v1/rank" and method == "GET":
            return self.rank(params, target)
        if path == "/v1/stats" and method == "GET":
            return self.stats()
        if path == "/v1/ingest" and method == "POST":
            return self.ingest(body)
        if path == "/v1/flush" and method == "POST":
            return self.flush()
        if path == "/v1/shutdown" and method == "POST":
            return 200, {"stopping": True}, {}
        known = {
            "/healthz",
            "/v1/availability",
            "/v1/capacity",
            "/v1/rank",
            "/v1/stats",
            "/v1/ingest",
            "/v1/flush",
            "/v1/shutdown",
        }
        if path in known:
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        return 404, {"error": f"no such endpoint {path!r}"}, {}

    # -- endpoints ------------------------------------------------------------

    def healthz(self) -> tuple[int, dict, dict]:
        workers = []
        all_up = True
        for w in self.supervisor.workers:
            with w.lock:
                down, respawns = w.down, w.respawns
            all_up = all_up and not down
            workers.append(
                {
                    "worker": w.spec.worker_id,
                    "up": not down,
                    "machine_lo": w.machine_lo,
                    "machine_hi": w.machine_hi,
                    "respawns": respawns,
                }
            )
        return 200, {
            "ok": True,
            "ready": all_up,
            "role": "router",
            "n_machines": self.n_machines,
            "workers": workers,
            "uptime_seconds": time.time() - self._started,
        }, {}

    def availability(self, params: dict, target: str) -> tuple[int, dict, dict]:
        raw = params.get("machine", [None])[-1]
        if raw is None:
            return 400, {"error": "missing required parameter 'machine'"}, {}
        try:
            machine = int(raw)
        except ValueError:
            return 400, {
                "error": f"parameter 'machine' must be an integer, got {raw!r}"
            }, {}
        worker = self.supervisor.worker_for_machine(machine)
        return self.forward(worker, "GET", target)

    def capacity(self, target: str) -> tuple[int, dict, dict]:
        results = self._scatter("GET", target)
        for status, payload, headers in results:
            if status != 200:
                return status, payload, headers
        parts = [payload for _, payload, _ in results]
        available = sum(p["available"] for p in parts)
        # Workers whose horizons differ can average over different
        # numbers of history days; then there is no one fleet value.
        days = {p["history_days"] for p in parts}
        merged = {
            "available": available,
            "n_machines": self.n_machines,
            "owned": self.n_machines,
            "machine_lo": 0,
            "machine_hi": self.n_machines,
            "fraction": available / self.n_machines,
            "threshold": parts[0]["threshold"],
            "clean_windows": sum(p["clean_windows"] for p in parts),
            "history_days": days.pop() if len(days) == 1 else None,
            "mean_survival": mean_survival(
                [
                    (p["clean_windows"], p["owned"], p["history_days"])
                    for p in parts
                ],
                self.supervisor.workers[0].spec.laplace,
            ),
            "day": parts[0]["day"],
            "hour": parts[0]["hour"],
            "duration_hours": parts[0]["duration_hours"],
            "workers": len(parts),
        }
        return 200, merged, {}

    def rank(self, params: dict, target: str) -> tuple[int, dict, dict]:
        k_raw = params.get("k", [None])[-1]
        try:
            k = 10 if k_raw is None else int(k_raw)
        except ValueError:
            return 400, {
                "error": f"parameter 'k' must be an integer, got {k_raw!r}"
            }, {}
        results = self._scatter("GET", target)
        for status, payload, headers in results:
            if status != 200:
                return status, payload, headers
        parts = [payload for _, payload, _ in results]
        machines = np.array(
            [m["machine"] for p in parts for m in p["machines"]], dtype=np.int64
        )
        survivals = np.array(
            [m["survival"] for p in parts for m in p["machines"]], dtype=float
        )
        # The global top-k is inside the union of per-worker top-ks;
        # lexsort's last key is primary: descending survival, then
        # ascending machine id — the single-process tie-break.
        order = np.lexsort((machines, -survivals))[:k]
        return 200, {
            "day": parts[0]["day"],
            "hour": parts[0]["hour"],
            "duration_hours": parts[0]["duration_hours"],
            "machines": [
                {"machine": int(machines[i]), "survival": float(survivals[i])}
                for i in order
            ],
        }, {}

    def stats(self) -> tuple[int, dict, dict]:
        lanes = []
        totals = {
            "requests": 0,
            "streamed_events": 0,
            "deduplicated_events": 0,
            "queue_depth_events": 0,
            "backpressure_rejections": 0,
            "rebuilds": 0,
            "evictions": 0,
            "hits": 0,
            "resident_bytes": 0,
        }
        for worker in self.supervisor.workers:
            try:
                status, payload, _ = self.forward(worker, "GET", "/v1/stats")
            except _WorkerDown:
                lanes.append({"worker": worker.spec.worker_id, "up": False})
                continue
            if status != 200:
                lanes.append({"worker": worker.spec.worker_id, "up": False})
                continue
            lanes.append({**payload, "up": True})
            totals["requests"] += payload.get("requests", 0)
            tier = payload.get("tier", {})
            for key in ("rebuilds", "evictions", "hits", "resident_bytes"):
                totals[key] += tier.get(key, 0)
            ingest = payload.get("ingest", {})
            totals["streamed_events"] += ingest.get("streamed_events", 0)
            totals["deduplicated_events"] += ingest.get(
                "deduplicated_events", 0
            )
            queue = ingest.get("queue", {})
            totals["queue_depth_events"] += queue.get("depth_events", 0)
            totals["backpressure_rejections"] += queue.get(
                "backpressure_rejections", 0
            )
        payload = {
            "role": "router",
            "n_machines": self.n_machines,
            "workers": lanes,
            "totals": totals,
            "requests": self.registry.counter_value("serve.requests"),
        }
        hist = self.registry.histogram("serve.request_seconds")
        if hist is not None and len(hist):
            payload["latency"] = hist.summary()
        return 200, payload, {}

    # -- ingest ---------------------------------------------------------------

    def _decode_events(self, body: bytes) -> list:
        if not body:
            raise ServeError("ingest body is empty")
        text = body.decode("utf-8", errors="replace").strip()
        if text.startswith("["):
            try:
                events = json.loads(text)
            except ValueError as exc:
                raise ServeError(f"invalid JSON body: {exc}")
            if not isinstance(events, list):
                raise ServeError("ingest JSON body must be an array")
            return events
        events = []
        for i, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                raise ServeError(f"ingest line {i}: invalid JSON: {exc}")
        return events

    def _event_machine(self, event) -> int:
        if isinstance(event, dict):
            raw = event.get("machine_id")
        else:
            try:
                raw = event[0]
            except (TypeError, IndexError):
                raw = None
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ServeError(
                "ingest event must carry an integer machine_id "
                "(dict field or first sequence element)"
            )

    def ingest(self, body: bytes) -> tuple[int, dict, dict]:
        events = self._decode_events(body)
        slices: dict[int, list] = {}
        for event in events:
            owner = self.supervisor.worker_for_machine(
                self._event_machine(event)
            )
            slices.setdefault(owner.spec.worker_id, []).append(event)
        workers = {
            w.spec.worker_id: w for w in self.supervisor.workers
        }
        if len(slices) == 1:
            # Single owner: the worker's own validate+enqueue is already
            # atomic; forward verbatim (status, 409s, and 429 backpressure
            # pass straight through).
            [(worker_id, payload_events)] = slices.items()
            body_out = json.dumps(payload_events).encode("utf-8")
            return self.forward(
                workers[worker_id], "POST", "/v1/ingest", body_out
            )
        # Cross-worker batch: two phases under the router ingest lock so
        # concurrent batches cannot interleave between validate and
        # commit.  Phase 1 dry-runs every slice; any rejection rejects
        # the whole batch with nothing applied anywhere.
        with self._ingest_lock:
            encoded = {
                wid: json.dumps(evs).encode("utf-8")
                for wid, evs in slices.items()
            }
            for wid, slice_body in encoded.items():
                status, payload, headers = self.forward(
                    workers[wid], "POST", "/v1/ingest?dry=1", slice_body
                )
                if status != 200:
                    return status, payload, headers
            accepted = deduplicated = 0
            horizon = 0
            for wid, slice_body in encoded.items():
                status, payload, headers = self._commit_slice(
                    workers[wid], slice_body
                )
                if status != 200:  # pragma: no cover - crash mid-commit
                    return status, payload, headers
                accepted += payload["accepted"]
                deduplicated += payload["deduplicated"]
                horizon = max(horizon, payload.get("horizon_day", 0))
        return 200, {
            "accepted": accepted,
            "deduplicated": deduplicated,
            "dry": False,
            "horizon_day": horizon,
            "workers": len(slices),
        }, {}

    def _commit_slice(
        self, worker: WorkerHandle, slice_body: bytes, deadline_s: float = 30.0
    ) -> tuple[int, dict, dict]:
        """Commit one validated slice, waiting out transient 429s."""
        deadline = time.monotonic() + deadline_s
        while True:
            status, payload, headers = self.forward(
                worker, "POST", "/v1/ingest", slice_body
            )
            if status != 429 or time.monotonic() >= deadline:
                return status, payload, headers
            time.sleep(
                min(float(payload.get("retry_after", 0.25)), 1.0)
            )

    def flush(self) -> tuple[int, dict, dict]:
        results = self._scatter("POST", "/v1/flush")
        applied = 0
        for status, payload, headers in results:
            if status != 200:
                return status, payload, headers
            applied += payload.get("applied_batches", 0)
        return 200, {"flushed": True, "applied_batches": applied}, {}


# -- lifecycle -----------------------------------------------------------------


class RouterHandle:
    """A running router front plus its worker fleet."""

    def __init__(
        self,
        server: ThreadingHTTPServer,
        app: RouterApp,
        thread: threading.Thread,
        supervisor: WorkerSupervisor,
    ):
        self.server = server
        self.app = app
        self.thread = thread
        self.supervisor = supervisor

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
        self.thread.join(timeout)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.supervisor.close()

    def __enter__(self) -> "RouterHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def partition_shards(n_shards: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous shard runs, sizes differing by at most one."""
    if n_workers < 1:
        raise ServeError("n_workers must be >= 1")
    n_workers = min(n_workers, n_shards)
    base, extra = divmod(n_shards, n_workers)
    runs = []
    lo = 0
    for w in range(n_workers):
        hi = lo + base + (1 if w < extra else 0)
        runs.append((lo, hi))
        lo = hi
    return runs


def start_router(
    store: ShardedTraceDataset,
    store_root: str,
    *,
    n_workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    block_machines: Optional[int] = None,
    hot_shards: Optional[int] = None,
    hot_bytes: Optional[int] = None,
    history_days: int = 8,
    statistic: str = "mean",
    laplace: float = 0.5,
    verify: bool = True,
    ingest_queue: int = 100_000,
    snapshot_dir: Optional[str] = None,
    snapshot_every: Optional[int] = None,
) -> RouterHandle:
    """Spawn the worker fleet and start the router front on a thread.

    ``n_workers`` is clamped to the shard count (a worker needs at least
    one shard).  Workers always bind loopback; only the router binds
    ``host``.
    """
    from .server import _Handler

    runs = partition_shards(store.n_shards, n_workers)
    specs = []
    ranges = []
    for worker_id, (lo, hi) in enumerate(runs):
        specs.append(
            WorkerSpec(
                worker_id=worker_id,
                store_root=str(store_root),
                shard_lo=lo,
                shard_hi=hi,
                block_machines=block_machines,
                hot_shards=hot_shards,
                hot_bytes=hot_bytes,
                history_days=history_days,
                statistic=statistic,
                laplace=laplace,
                verify=verify,
                ingest_queue=ingest_queue,
                snapshot_dir=snapshot_dir,
                snapshot_every=snapshot_every,
            )
        )
        ranges.append(
            (
                store.manifest.shards[lo].machine_lo,
                store.manifest.shards[hi - 1].machine_hi,
            )
        )
    supervisor = WorkerSupervisor(specs, ranges)
    supervisor.start()
    app = RouterApp(supervisor, store.n_machines, registry)
    handler = type("RouterHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="fgcs-router", daemon=True
    )
    thread.start()
    return RouterHandle(server, app, thread, supervisor)
