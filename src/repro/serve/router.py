"""Horizontal scale-out: a router front-end over per-shard-range workers.

A single serve process tops out on one GIL: the accept loop, the JSON
codec, and the fleet sweeps all contend for the same interpreter, so
throughput saturates long before the hardware does (the classic
single-process collapse the multicore-OS literature documents).  The
scale-out front keeps every piece of PR 8's protocol and exactness while
spreading the *state* across processes:

* ``start_router(store, n_workers=N)`` partitions the store's shards
  into N contiguous runs and **spawns one worker process per run** —
  each a full :func:`~repro.serve.server.boot` daemon whose
  :class:`~repro.serve.state.ServeState` owns exactly that machine
  range (the per-shard count blocks are already independent, so the
  partition is free).  Workers use the ``spawn`` start method: a fresh
  interpreter, picklable specs, and safe respawn while router threads
  run.
* The **router** is the shared request pipeline
  (:class:`~repro.serve.server.Pipeline`) with one partition per
  worker: point queries are forwarded to the owning worker over
  persistent per-thread upstream connections; fleet-wide
  ``capacity``/``rank`` scatter to every worker in parallel and merge
  exactly (integer partial sums and a global ``(-survival, machine)``
  sort, see ``docs/serving.md``).  The router holds *no* predictor
  state.  It keeps the **fleet horizon**, the max of its workers'
  horizons, learned from each worker's boot report and every ingest
  acknowledgement, and pins it (with the resolved ``day``) on every
  query it forwards, so every worker answers for the window a single
  process would.
* A **supervisor thread** watches worker processes.  A dead worker
  (crash, SIGKILL) marks its machine range down — requests for it get
  503 + ``Retry-After`` *for that range only*; everything else keeps
  serving — and is respawned from the store (plus its overlay snapshot,
  when snapshots are on).  Worker ports and horizons are handed back
  over a pipe at boot, so respawns rebind freely.

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
import dataclasses
import json
import multiprocessing
import socket
import threading
import time
from typing import Optional

from ..errors import ServeError, TraceError
from ..obs.metrics import MetricsRegistry
from ..traces.shards import ShardedTraceDataset
from .server import Pipeline, ServeHandle, ServeSpec, Window, _ok, _Unavailable, boot

__all__ = ["RouterApp", "start_router", "worker_main"]

#: How long a worker gets to bind its port and report back.
_BOOT_TIMEOUT_S = 60.0
#: Supervisor poll cadence.
_POLL_S = 0.2


# -- worker process ------------------------------------------------------------


def worker_main(spec: ServeSpec, conn) -> None:
    """Entry point of one spawned shard worker (blocks until shutdown).

    Reports over ``conn`` once: ``(port, horizon_day)`` when it serves,
    or the message (a ``str``) of the :class:`ServeError`,
    :class:`TraceError` or :class:`OSError` that stopped its boot — then
    exits with status 2 instead of printing a traceback.
    """
    try:
        handle = boot(spec)
    except (ServeError, TraceError, OSError) as exc:
        conn.send(str(exc))
        conn.close()
        raise SystemExit(2) from None
    conn.send((handle.port, handle.app.state.horizon_day))
    conn.close()
    try:
        handle.wait()  # until POST /v1/shutdown stops the serve loop
    finally:
        handle.close()


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


class _WorkerDown(_Unavailable):
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
    """One worker's process, address, horizon and up/down status."""

    def __init__(self, spec: ServeSpec, machine_lo: int, machine_hi: int):
        self.spec = spec
        self.machine_lo = machine_lo
        self.machine_hi = machine_hi
        self.process = None
        self.port: Optional[int] = None
        #: Bumped on every (re)spawn so pooled connections self-invalidate.
        self.generation = 0
        self.down = True
        self.respawns = -1  # first spawn brings it to 0
        #: The newest horizon the worker reported (boot or ingest ack).
        self.horizon = 0
        self.lock = threading.Lock()

    def note_horizon(self, horizon: int) -> None:
        with self.lock:
            self.horizon = max(self.horizon, horizon)


class WorkerSupervisor:
    """Spawns the worker fleet, watches it, respawns the fallen."""

    def __init__(self, workers: list[WorkerHandle]):
        self._ctx = multiprocessing.get_context("spawn")
        self.workers = workers
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
                report = parent.recv()
            except EOFError:
                process.join(5.0)
                raise ServeError(
                    f"{name} exited (status {process.exitcode}) before "
                    "reporting its port"
                ) from None
        finally:
            parent.close()
        if isinstance(report, str):
            process.join(5.0)
            raise ServeError(f"{name} failed to boot: {report}")
        port, horizon = report
        worker.note_horizon(horizon)
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


def _event_machine(event) -> int:
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


class RouterApp(Pipeline):
    """The pipeline over the worker fleet, one partition per worker.

    Speaks the same wire protocol as :class:`~repro.serve.server.ServeApp`
    (the :class:`~repro.serve.client.ServeClient` cannot tell them
    apart) but holds no predictor state of its own.
    """

    # Each role's entry point is its own attribute, so a tracer can
    # wrap one role's requests without the other's.
    handle_full = Pipeline.handle_full

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        n_machines: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(registry)
        self.supervisor = supervisor
        self.n_machines = n_machines
        self.laplace = supervisor.workers[0].spec.laplace
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

    def _scatter(self, method: str, target: str) -> list[dict]:
        """Every worker's payload, fetched in parallel; fleet answers must
        be whole, so a down range or an error answer ends the request."""
        workers = self.supervisor.workers
        results: list = [None] * len(workers)

        def fetch(i: int, worker: WorkerHandle) -> None:
            try:
                results[i] = self.forward(worker, method, target)
            except ServeError as exc:
                results[i] = exc

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
        for result in results:
            if isinstance(result, ServeError):
                raise result
        return [_ok(result) for result in results]

    # -- partitions -----------------------------------------------------------

    def fleet_horizon(self) -> int:
        return max(w.horizon for w in self.supervisor.workers)

    def point(self, machine: int, w: Window, target: str) -> dict:
        worker = self.supervisor.worker_for_machine(machine)
        return _ok(self.forward(worker, "GET", w.pin(target)))

    def fleet(self, endpoint: str, w: Window, option, target: str) -> list[dict]:
        return self._scatter("GET", w.pin(target))

    def flush(self) -> list[dict]:
        return self._scatter("POST", "/v1/flush")

    def ingest(self, events: list, dry: bool) -> dict:
        """Split a batch by owning worker and keep it atomic.

        A single-owner batch is forwarded as it is: the worker's own
        validate+enqueue is already atomic.  A cross-worker batch runs
        two phases under the router ingest lock, so concurrent batches
        cannot interleave between them: every slice is dry-run first,
        and any rejection rejects the whole batch with nothing applied
        anywhere.  A dry run is that first phase alone.
        """
        slices: dict[WorkerHandle, list] = {}
        for event in events:
            machine = _event_machine(event)
            if not 0 <= machine < self.n_machines:
                # A bad payload (400), as in one process; a query for the
                # machine is the unknown-machine 404.
                raise ServeError(
                    f"machine {machine} outside fleet [0, {self.n_machines})"
                )
            owner = self.supervisor.worker_for_machine(machine)
            slices.setdefault(owner, []).append(event)
        bodies = [(w, json.dumps(evs).encode("utf-8")) for w, evs in slices.items()]
        if dry:
            acks = [
                _ok(self.forward(w, "POST", "/v1/ingest?dry=1", body))
                for w, body in bodies
            ]
        elif len(bodies) == 1:
            [(worker, body)] = bodies
            acks = [_ok(self.forward(worker, "POST", "/v1/ingest", body))]
        else:
            with self._ingest_lock:
                for w, body in bodies:
                    _ok(self.forward(w, "POST", "/v1/ingest?dry=1", body))
                acks = [_ok(self._commit_slice(w, body)) for w, body in bodies]
        if not dry:
            for (worker, _), ack in zip(bodies, acks):
                worker.note_horizon(ack["horizon_day"])
        return {
            "accepted": sum(ack["accepted"] for ack in acks),
            "deduplicated": sum(ack["deduplicated"] for ack in acks),
            "dry": dry,
            "horizon_day": max(
                [self.fleet_horizon()] + [ack["horizon_day"] for ack in acks]
            ),
            "workers": len(bodies),
        }

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

    # -- topology -------------------------------------------------------------

    def healthz(self) -> dict:
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
        return {
            "ok": True,
            "ready": all_up,
            "role": "router",
            "n_machines": self.n_machines,
            "horizon_day": self.fleet_horizon(),
            "workers": workers,
            "uptime_seconds": time.time() - self._started,
        }

    def stats(self) -> dict:
        lanes = []
        for worker in self.supervisor.workers:
            try:
                status, payload, _ = self.forward(worker, "GET", "/v1/stats")
            except _WorkerDown:
                status = None
            if status == 200:
                lanes.append({**payload, "up": True})
            else:
                lanes.append({"worker": worker.spec.worker_id, "up": False})
        live = [lane for lane in lanes if lane["up"]]
        ingest = [lane["ingest"] for lane in live]
        totals = {
            "requests": sum(lane["requests"] for lane in live),
            "streamed_events": sum(i["streamed_events"] for i in ingest),
            "deduplicated_events": sum(i["deduplicated_events"] for i in ingest),
            "queue_depth_events": sum(i["queue"]["depth_events"] for i in ingest),
            "backpressure_rejections": sum(
                i["queue"]["backpressure_rejections"] for i in ingest
            ),
        }
        for key in ("rebuilds", "evictions", "hits", "resident_bytes"):
            totals[key] = sum(lane["tier"][key] for lane in live)
        payload = {
            "role": "router",
            "n_machines": self.n_machines,
            "horizon_day": self.fleet_horizon(),
            "n_workers": len(lanes),
            "workers": lanes,
            "totals": totals,
            "requests": self.registry.counter_value("serve.requests"),
        }
        hist = self.registry.histogram("serve.request_seconds")
        if hist is not None and len(hist):
            payload["latency"] = hist.summary()
        return payload

    def close(self) -> None:
        """Stop the worker fleet."""
        self.supervisor.close()


# -- lifecycle -----------------------------------------------------------------


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
    **knobs,
) -> ServeHandle:
    """Spawn the worker fleet and start the router front on a thread.

    ``n_workers`` is clamped to the shard count (a worker needs at least
    one shard).  Workers always bind loopback; only the router binds
    ``host``.  ``knobs`` are the workers' :class:`ServeSpec` fields.
    """
    spec = ServeSpec(trace=str(store_root), **knobs)
    shards = store.manifest.shards
    workers = [
        WorkerHandle(
            dataclasses.replace(spec, worker_id=i, shard_range=(lo, hi)),
            shards[lo].machine_lo,
            shards[hi - 1].machine_hi,
        )
        for i, (lo, hi) in enumerate(partition_shards(store.n_shards, n_workers))
    ]
    supervisor = WorkerSupervisor(workers)
    supervisor.start()
    return ServeHandle(RouterApp(supervisor, store.n_machines, registry), host, port)
