"""Horizontal scale-out: a router front-end over per-shard-range workers.

A single serve process tops out on one GIL: the accept loop, the JSON
codec, and the fleet sweeps all contend for the same interpreter, so
throughput saturates long before the hardware does (the classic
single-process collapse the multicore-OS literature documents).  The
scale-out front keeps every piece of PR 8's protocol and exactness while
spreading the *state* across processes:

* ``start_router(store, n_workers=N)`` partitions the store's shards
  into N contiguous runs and **starts one worker process per run** —
  each a full :func:`~repro.serve.server.boot` daemon whose
  :class:`~repro.serve.state.ServeState` owns exactly that machine
  range (the per-shard count blocks are already independent, so the
  partition is free).  A worker is a plain interpreter
  (``sys.executable`` with the router's interpreter flags and
  ``sys.path``) that reads its entry point and :class:`ServeSpec`,
  pickled, from stdin and reports back over an inherited pipe: no
  ``multiprocessing`` resource tracker, and safe respawn while router
  threads run.  The router holds the write end of each worker's stdin
  and nothing else does, so end-of-file tells a worker that its router
  is gone: it drains its ingest queue, takes its final snapshot and
  exits.  The router reads only the store's manifest
  (:mod:`repro.traces.manifest`), so it loads neither NumPy nor the
  state stack.
* The **router** is the shared request pipeline
  (:class:`~repro.serve.server.Pipeline`) with one partition per
  worker: point queries are forwarded to the owning worker over
  persistent upstream connections, pooled in one idle list per worker
  (a request takes one, or opens one, and puts it back after a complete
  answer); fleet-wide ``capacity``/``rank`` scatter to every worker in
  parallel and merge exactly (integer partial sums and a global
  ``(-survival, machine)`` sort, see ``docs/serving.md``).  The router
  holds *no* predictor state.  It keeps the **fleet horizon**, the max
  of its workers' horizons, learned from each worker's boot report and
  every ingest acknowledgement, and pins it (with the resolved ``day``)
  on every query it forwards, so every worker answers for the window a
  single process would.
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
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from typing import Optional, Union

from ..errors import ServeError, TraceError
from ..obs.metrics import MetricsRegistry
from ..traces.manifest import ShardManifest
from .server import (
    Pipeline,
    ServeHandle,
    ServeSpec,
    Window,
    _HeaderError,
    _ok,
    _read_headers,
    _Unavailable,
    boot,
)

__all__ = ["RouterApp", "start_router", "worker_main"]

#: How long a worker gets to bind its port and report back.
_BOOT_TIMEOUT_S = 60.0
#: Supervisor poll cadence.
_POLL_S = 0.2

#: A worker interpreter's program.  The router's ``sys.path`` comes first
#: on stdin and is in place before anything of this package is imported
#: or unpickled; then :func:`run_worker` reads the rest.
_WORKER_PROGRAM = (
    "import pickle, sys; sys.path[:] = pickle.load(sys.stdin.buffer); "
    "from repro.serve.router import run_worker; run_worker({fd})"
)


# -- worker process ------------------------------------------------------------


def run_worker(report_fd: int) -> None:
    """The body of a worker interpreter: run the pickled ``(entry, spec)``
    pair from stdin, reporting over the inherited pipe ``report_fd``."""
    entry, spec = pickle.load(sys.stdin.buffer)
    entry(spec, Connection(report_fd, readable=False))


def worker_main(spec: ServeSpec, conn) -> None:
    """Entry point of one shard worker (blocks until shutdown).

    Reports over ``conn`` once: ``(port, horizon_day)`` when it serves,
    or the message (a ``str``) of the :class:`ServeError`,
    :class:`TraceError` or :class:`OSError` that stopped its boot — then
    exits with status 2 instead of printing a traceback.  Serves until
    ``POST /v1/shutdown`` or end-of-file on stdin (the router closed it
    or died), whichever comes first; either way it then drains its
    ingest queue and takes its final snapshot.
    """
    try:
        handle = boot(spec)
    except (ServeError, TraceError, OSError) as exc:
        conn.send(str(exc))
        conn.close()
        raise SystemExit(2) from None
    try:
        conn.send((handle.port, handle.app.state.horizon_day))
        conn.close()
        threading.Thread(
            target=_stop_at_eof, args=(handle,), name="fgcs-router-eof", daemon=True
        ).start()
        handle.wait()
    finally:
        handle.close()


def _stop_at_eof(handle: ServeHandle) -> None:
    """Stop the serve loop once stdin reaches end-of-file.

    ``shutdown`` may run twice, here and for ``POST /v1/shutdown``: each
    call only asks the loop to end and waits until it has.
    """
    sys.stdin.buffer.read()
    handle.server.shutdown()


def _reap(process: subprocess.Popen, timeout: float) -> Optional[int]:
    """Close a worker's stdin (which asks it to stop) and wait for it:
    its exit status, or ``None`` while it still runs."""
    try:
        process.stdin.close()
    except OSError:
        pass
    try:
        return process.wait(timeout)
    except subprocess.TimeoutExpired:
        return None


# -- upstream connections ------------------------------------------------------


class _Upstream:
    """One persistent raw-socket HTTP/1.1 connection to a worker.

    ``http.client`` parses response headers through ``email.parser`` —
    measurable milliseconds per response, which a one-GIL router paying
    it on *every* forwarded request cannot afford.  This speaks just the
    subset the workers emit: status line, ``\\r\\n`` headers (read by the
    shell's own header reader), ``Content-Length`` bodies over a
    buffered socket file.  ``generation`` is the worker spawn it talks
    to.
    """

    def __init__(self, host: str, port: int, generation: int) -> None:
        self.generation = generation
        self.sock = socket.create_connection((host, port), timeout=30.0)
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
        self, request_line: bytes, body: bytes = b""
    ) -> tuple[int, dict, bytes]:
        """Send ``request_line`` (``\\r\\n`` included) and ``body``.

        Returns ``(status, lowercased_headers, body_bytes)``; raises
        :class:`OSError` on a broken link or a malformed answer, and
        :class:`_HeaderError` on a malformed header block.
        """
        head = (
            request_line
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
        headers = _read_headers(self._rfile)
        raw = headers.get("content-length", "0")
        if not (raw.isascii() and raw.isdigit()):
            raise ConnectionError(f"malformed upstream Content-Length {raw!r}")
        length = int(raw)
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
    """One worker's process (a :class:`subprocess.Popen`), address,
    horizon and up/down status."""

    def __init__(self, spec: ServeSpec, machine_lo: int, machine_hi: int):
        self.spec = spec
        self.machine_lo = machine_lo
        self.machine_hi = machine_hi
        self.process = None
        self.port: Optional[int] = None
        #: Bumped on every (re)spawn so pooled connections self-invalidate.
        self.generation = 0
        #: Open connections to this spawn that no request is using.
        self.idle: list[_Upstream] = []
        self.down = True
        self.respawns = -1  # first spawn brings it to 0
        #: The newest horizon the worker reported (boot or ingest ack).
        self.horizon = 0
        self.lock = threading.Lock()

    def note_horizon(self, horizon: int) -> None:
        with self.lock:
            self.horizon = max(self.horizon, horizon)

    def checkin(self, upstream: _Upstream) -> None:
        """Keep a connection for the next request, unless the worker
        was respawned since it opened."""
        with self.lock:
            if upstream.generation == self.generation:
                self.idle.append(upstream)
                return
        upstream.close()

    def close_idle(self) -> None:
        """Close every pooled connection."""
        with self.lock:
            idle, self.idle = self.idle, []
        for upstream in idle:
            upstream.close()


class WorkerSupervisor:
    """Spawns the worker fleet, watches it, respawns the fallen."""

    def __init__(self, workers: list[WorkerHandle]):
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
        read_fd, write_fd = os.pipe()
        parent = Connection(read_fd, writable=False)
        try:
            process = subprocess.Popen(
                [
                    sys.executable,
                    # The flags multiprocessing's spawn passes on too.
                    *subprocess._args_from_interpreter_flags(),
                    "-c",
                    _WORKER_PROGRAM.format(fd=write_fd),
                ],
                stdin=subprocess.PIPE,
                pass_fds=(write_fd,),
            )
        except BaseException:
            parent.close()
            raise
        finally:
            os.close(write_fd)
        name = f"worker {worker.spec.worker_id}"
        try:
            try:
                # ``worker_main`` is looked up now and pickled by
                # reference, so a replaced module global runs instead.
                process.stdin.write(
                    pickle.dumps(sys.path) + pickle.dumps((worker_main, worker.spec))
                )
                process.stdin.flush()
            except BrokenPipeError:
                pass  # it died already; the report pipe says so
            if not parent.poll(_BOOT_TIMEOUT_S):
                process.terminate()
                _reap(process, 5.0)
                raise ServeError(
                    f"{name} did not report a port within "
                    f"{_BOOT_TIMEOUT_S:.0f}s"
                )
            try:
                report = parent.recv()
            except EOFError:
                status = _reap(process, 5.0)
                raise ServeError(
                    f"{name} exited (status {status}) before "
                    "reporting its port"
                ) from None
        finally:
            parent.close()
        if isinstance(report, str):
            _reap(process, 5.0)
            raise ServeError(f"{name} failed to boot: {report}")
        port, horizon = report
        worker.note_horizon(horizon)
        with worker.lock:
            worker.process = process
            worker.port = port
            worker.generation += 1
            worker.respawns += 1
            worker.down = False
            # Under the lock that bumps the generation, so no connection
            # to the old spawn can be checked in after this swap.
            stale, worker.idle = worker.idle, []
        for upstream in stale:
            upstream.close()

    def _watch(self) -> None:
        while not self._closing.is_set():
            for worker in self.workers:
                if self._closing.is_set():
                    break
                process = worker.process
                if process is not None and process.poll() is not None:
                    with worker.lock:
                        worker.down = True
                    _reap(process, 0.0)
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
        # End-of-file on stdin stops every worker at once, as it would
        # if the router died.
        live = [w.process for w in self.workers if w.process is not None]
        for process in live:
            _reap(process, 0.0)
        deadline = time.monotonic() + timeout
        for process in live:
            if _reap(process, max(0.1, deadline - time.monotonic())) is None:
                process.terminate()
                if _reap(process, 2.0) is None:  # pragma: no cover - last resort
                    process.kill()
                    _reap(process, 1.0)


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
        self._ingest_lock = threading.Lock()

    # -- forwarding -----------------------------------------------------------

    def forward(
        self, worker: WorkerHandle, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict, dict]:
        """Forward one request to a worker over a pooled connection;
        retry once on a fresh one, then mark the range down.

        A connection goes back to the worker's idle list only after a
        complete answer; a failed one is closed.  The target goes out as
        latin-1, which reverses the shell's decoding of the client's
        request line byte for byte.
        """
        request_line = f"{method} {target} HTTP/1.1\r\n".encode("latin-1")
        with worker.lock:
            if worker.down:
                raise _WorkerDown(worker)
            upstream = worker.idle.pop() if worker.idle else None
            generation, port = worker.generation, worker.port
        for attempt in (0, 1):
            try:
                if upstream is None:
                    upstream = _Upstream("127.0.0.1", port, generation)
                status, headers, payload = upstream.request(request_line, body)
                break
            except (OSError, _HeaderError):
                # Only a broken link or a malformed answer is a strike.
                if upstream is not None:
                    upstream.close()
                    upstream = None
                if attempt:
                    # Two strikes: the worker is gone (the supervisor
                    # will notice the corpse and respawn it); fail only
                    # this machine range.
                    with worker.lock:
                        worker.down = True
                    raise _WorkerDown(worker)
        if headers.get("connection") == "close":
            upstream.close()
        else:
            worker.checkin(upstream)
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
        """Close the pooled connections and stop the worker fleet."""
        for worker in self.supervisor.workers:
            worker.close_idle()
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
    store: Union[str, os.PathLike],
    *,
    n_workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    **knobs,
) -> ServeHandle:
    """Start the worker fleet over the shard store at ``store`` (its
    directory or its manifest file) and the router front on a thread.

    The router reads only the store's manifest; each worker opens its
    own shard range.  ``n_workers`` is clamped to the shard count (a
    worker needs at least one shard).  Workers always bind loopback;
    only the router binds ``host``.  ``knobs`` are the workers'
    :class:`ServeSpec` fields.
    """
    manifest = ShardManifest.load(store)
    spec = ServeSpec(trace=str(store), **knobs)
    shards = manifest.shards
    workers = [
        WorkerHandle(
            dataclasses.replace(spec, worker_id=i, shard_range=(lo, hi)),
            shards[lo].machine_lo,
            shards[hi - 1].machine_hi,
        )
        for i, (lo, hi) in enumerate(partition_shards(manifest.n_shards, n_workers))
    ]
    supervisor = WorkerSupervisor(workers)
    supervisor.start()
    return ServeHandle(RouterApp(supervisor, manifest.n_machines, registry), host, port)
