"""In-memory span tracing installed from the benchmark's own files.

The traced run wraps the public functions of each layer (and two private
seams the layer metrics need: the shard encode/hash helpers and the state lock)
with a recorder.  Nothing here is imported by the untraced run.

A span is ``[id, parent_id, name, start, end, request_id, extra]``.
Parents come from a per-thread stack, the request id is inherited from
the parent (or parsed from a request target's ``rid`` parameter), and
``extra`` holds per-span attributes such as lock wait.  Spans stay in
memory and are written as one JSON file per process when it ends.
Clock: ``time.monotonic`` (CLOCK_MONOTONIC, comparable across
processes on one host).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

#: Environment variable naming the directory span files are written to.
SPANS_ENV = "PERFBENCH_SPANS"

_RID = re.compile(r"[?&]rid=(\d+)")


def request_id(target: str) -> Optional[int]:
    match = _RID.search(target)
    return int(match.group(1)) if match else None


class Recorder:
    """Collects spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[int] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        node = [
            next(self._ids),
            parent[0] if parent else 0,
            name,
            0.0,
            0.0,
            rid if rid is not None else (parent[5] if parent else None),
            None,
        ]
        stack.append(node)
        node[3] = time.monotonic()
        return node

    def end(self, node: list) -> None:
        node[4] = time.monotonic()
        self._stack().pop()
        self.spans.append(node)

    def current_layer(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][2] if stack else None

    def add_to_root(self, key: str, value: float) -> None:
        """Accumulate an attribute on the thread's outermost open span."""
        stack = self._stack()
        if stack:
            extra = stack[0][6]
            if extra is None:
                extra = stack[0][6] = {}
            extra[key] = extra.get(key, 0.0) + value

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    def note_max(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(key, float("-inf")):
                self.maxima[key] = value

    def dump(self, path: Path) -> None:
        payload = {
            "pid": os.getpid(),
            "spans": self.spans,
            "counters": dict(self.counters),
            "maxima": self.maxima,
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


RECORDER = Recorder()


def _patch(owner, attr: str, make: Callable) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _spanned(name: str, rid_arg: Optional[int] = None, after=None):
    """A decorator factory recording one span per call."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = None
            if rid_arg is not None and len(args) > rid_arg:
                rid = request_id(args[rid_arg])
            node = RECORDER.begin(name, rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                RECORDER.end(node)
            if after is not None:
                after(node, args, result)
            return result

        return wrapper

    return make


def _wrap(owner, attr: str, name: str, **kw) -> None:
    _patch(owner, attr, _spanned(name, **kw))


# -- batch layers -------------------------------------------------------------


def install_batch() -> None:
    """Wrap the layers of ``generate_shards`` → ``analyze_shards``."""
    import repro.traces.generate as generate
    import repro.traces.shards as shards
    from repro.analysis.accumulators import FleetAccumulator
    from repro.core.detector import BatchDetector
    from repro.workloads.labuser import EpisodePlanner

    _wrap(EpisodePlanner, "plan", "workloads.synth")
    _wrap(generate, "synthesize_samples_columns", "workloads.synth")

    def count_machine(node, args, result):
        RECORDER.count("workloads.machines")

    _wrap(generate, "_generate_machine_columns", "workloads.machine", after=count_machine)
    _wrap(BatchDetector, "detect_columns", "core.detect")
    _wrap(generate, "hourly_mean_load_columns", "core.detect")

    def count_encoded(node, args, result):
        columns, path = args[0], args[1]
        RECORDER.count("traces.events", len(columns))
        RECORDER.count("traces.bytes_written", Path(path).stat().st_size)

    _wrap(shards, "_atomic_save_columns", "traces.encode", after=count_encoded)

    # Hashing belongs to whichever layer asked for it: encode after a
    # write, decode when a read verifies the shard.
    sha = shards._sha256_file

    @functools.wraps(sha)
    def hashed(path):
        layer = RECORDER.current_layer()
        node = RECORDER.begin(
            "traces.decode" if layer == "traces.decode" else "traces.encode"
        )
        try:
            return sha(path)
        finally:
            RECORDER.end(node)

    shards._sha256_file = hashed
    _wrap(shards.ShardedTraceDataset, "shard_columns", "traces.decode")
    _wrap(FleetAccumulator, "update_columns", "analysis.fold")
    _wrap(FleetAccumulator, "finalize", "analysis.finalize")


# -- serve layers -------------------------------------------------------------


class TimedLock:
    """A re-entrant lock that charges acquisition waits to the open request."""

    def __init__(self) -> None:
        self._lock = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        t0 = time.monotonic()
        got = self._lock.acquire(blocking, timeout)
        RECORDER.add_to_root("lock_wait", time.monotonic() - t0)
        return got

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def install_serve() -> None:
    """Wrap the HTTP shell, app, state, paging, ingest and router layers."""
    import repro.serve as serve_pkg
    import repro.serve.router as router
    import repro.serve.server as server
    import repro.traces as traces_pkg
    import repro.traces.shards as shards
    from repro.serve.ingest import AsyncIngester
    from repro.serve.paging import BlockPager
    from repro.serve.state import ServeState

    handler = server._Handler
    parse = handler.parse_request

    @functools.wraps(parse)
    def timed_parse(self):
        t0 = time.monotonic()
        try:
            return parse(self)
        finally:
            self._perfbench_parse_s = time.monotonic() - t0

    handler.parse_request = timed_parse
    dispatch = handler._dispatch

    @functools.wraps(dispatch)
    def timed_dispatch(self, method):
        role = "router" if isinstance(self.app, router.RouterApp) else "server"
        node = RECORDER.begin(f"serve.{role}.handler", request_id(self.path))
        node[6] = {"parse": getattr(self, "_perfbench_parse_s", 0.0)}
        try:
            return dispatch(self, method)
        finally:
            RECORDER.end(node)

    handler._dispatch = timed_dispatch

    _wrap(server.ServeApp, "handle_full", "serve.server.app", rid_arg=2)
    _wrap(router.RouterApp, "handle_full", "serve.router.app", rid_arg=2)
    _wrap(router.RouterApp, "forward", "serve.router.forward")
    _wrap(router.RouterApp, "ingest", "serve.router.ingest")
    _wrap(serve_pkg, "start_router", "serve.router.spawn")
    _wrap(router, "start_router", "serve.router.spawn")

    for name in ("predict_survival", "predict_count"):
        _wrap(ServeState, name, "serve.state.point")
    for name in ("capacity", "rank"):
        _wrap(ServeState, name, "serve.state.fleet")
    _wrap(ServeState, "from_store", "serve.state.build")
    _wrap(shards, "open_shards", "serve.state.build")
    _wrap(traces_pkg, "open_shards", "serve.state.build")
    _wrap(ServeState, "apply_batch", "serve.ingest.apply")
    _wrap(ServeState, "save_overlay_snapshot", "serve.ingest.snapshot")

    init = ServeState.__init__

    @functools.wraps(init)
    def timed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._lock = TimedLock()

    ServeState.__init__ = timed_init

    def note_depth(node, args, result):
        RECORDER.note_max("serve.ingest.queue_depth_events", args[0]._depth_events)

    _wrap(AsyncIngester, "submit", "serve.ingest.submit", after=note_depth)
    _wrap(AsyncIngester, "validate_only", "serve.ingest.submit")

    counts = BlockPager.counts

    @functools.wraps(counts)
    def paged(self, block_id):
        before = self._rebuilds
        t0 = time.monotonic()
        block = counts(self, block_id)
        if self._rebuilds != before:
            node = RECORDER.begin("serve.paging.rebuild")
            node[3] = t0
            RECORDER.end(node)
        return block

    BlockPager.counts = paged
    router.worker_main = traced_worker_main


def dump_to_env(tag: str) -> None:
    """Write this process's spans into ``$PERFBENCH_SPANS``, if set."""
    directory = os.environ.get(SPANS_ENV)
    if directory:
        RECORDER.dump(Path(directory) / f"{tag}-{os.getpid()}.json")


def traced_worker_main(spec, conn) -> None:
    """A router worker's entry point with the serve wrappers installed.

    Spawned workers start from a fresh interpreter, so the launcher's
    patches do not reach them; the router pickles this function as its
    worker target instead (by import path).
    """
    import repro.serve.router as router

    original = router.worker_main
    install_serve()
    try:
        original(spec, conn)
    finally:
        dump_to_env("worker")
