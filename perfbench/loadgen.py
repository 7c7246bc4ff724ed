"""Load generation over loopback HTTP/1.1 keep-alive connections.

One generator process drives the daemon with at most two connections,
each on its own thread (the caller's thread counts as one).  A fixed-rate
phase is an open loop: request ``i`` is due at ``start + i / rate`` and
its latency runs from that due time, so a stall is charged to every
request queued behind it.  The generator's own delay — the time between
a request becoming sendable (due, and the connection free) and its send —
is recorded separately as lateness.
"""

from __future__ import annotations

import json
import resource
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Per-request socket timeout.
REQUEST_TIMEOUT_S = 10.0
#: A request sent more than this after it became sendable is late.
LATE_S = 0.002
#: Extra time a fixed-rate phase may run past its schedule before the
#: remaining requests are abandoned (and counted as timeouts).
PHASE_GRACE_S = 5.0


class Conn:
    """One persistent raw-socket HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.sock: Optional[socket.socket] = None
        self._rfile = None

    def _open(self) -> None:
        self.sock = socket.create_connection(
            (self.host, self.port), timeout=REQUEST_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            try:
                self._rfile.close()
                self.sock.close()
            except OSError:
                pass
        self.sock = self._rfile = None

    def request(self, method: str, target: str, body: bytes = b"") -> tuple[int, bytes]:
        """``(status, body)``; raises OSError on a broken or timed-out link."""
        if self.sock is None:
            self._open()
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Content-Type: application/json\r\n" if body else "")
            + "\r\n"
        ).encode("ascii")
        try:
            self.sock.sendall(head + body)
            status_line = self._rfile.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split(None, 2)[1])
            length = 0
            while True:
                line = self._rfile.readline()
                if not line:
                    raise ConnectionError("server closed mid-headers")
                if line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            payload = self._rfile.read(length) if length else b""
            if len(payload) < length:
                raise ConnectionError("server closed mid-body")
            return status, payload
        except OSError:
            self.close()
            raise
        except (ValueError, IndexError) as exc:
            self.close()
            raise ConnectionError(f"malformed response: {exc}") from exc

    def json(self, method: str, target: str, body: bytes = b"") -> tuple[int, dict]:
        status, payload = self.request(method, target, body)
        return status, (json.loads(payload) if payload else {})


@dataclass
class Record:
    """One request's timing and outcome (times on ``time.monotonic``)."""

    index: int
    due: float
    sent: float
    done: float
    status: Optional[int]
    failure: Optional[str]
    late: float = 0.0
    payload: Optional[bytes] = None

    @property
    def latency(self) -> float:
        return self.done - self.due


def classify(status: Optional[int]) -> Optional[str]:
    """Failure kind of a response status (None = success)."""
    if status is None:
        return "timeout"
    if status == 429:
        return "refused-429"
    if not 200 <= status < 300:
        return f"status-{status}"
    return None


def open_loop(
    conn: Conn,
    requests: list,
    rate: float,
    start: float,
    keep: Callable[[int], bool] = lambda i: False,
) -> list:
    """Send ``requests`` at ``rate``/s from ``start``; one Record each.

    ``keep(i)`` selects the responses whose bodies are kept for the
    correctness gates.
    """
    records = []
    ready = start
    abandon = start + len(requests) / rate + PHASE_GRACE_S
    for i, (method, target, body) in enumerate(requests):
        due = start + i / rate
        now = time.monotonic()
        if now < due:
            time.sleep(due - now)
        sendable = max(due, ready)
        sent = time.monotonic()
        if sent > abandon:
            records.append(Record(i, due, sent, sent, None, "timeout"))
            continue
        try:
            status, payload = conn.request(method, target, body)
        except OSError:
            status, payload = None, None
        done = time.monotonic()
        ready = done
        failure = classify(status)
        records.append(
            Record(
                i, due, sent, done, status, failure,
                late=sent - sendable,
                payload=payload if (keep(i) or failure) else None,
            )
        )
    return records


def closed_loop(conn: Conn, make: Callable[[int], tuple], until: float, first: int) -> list:
    """Back-to-back requests until ``until``; request ids start at ``first``."""
    records = []
    i = first
    while True:
        sent = time.monotonic()
        if sent >= until:
            return records
        method, target, body = make(i)
        try:
            status, payload = conn.request(method, target, body)
        except OSError:
            status, payload = None, None
        done = time.monotonic()
        failure = classify(status)
        records.append(
            Record(i, sent, sent, done, status, failure,
                   payload=payload if failure else None)
        )
        i += 1


def run_parallel(*jobs: Callable[[], list]) -> list:
    """Run one job on a helper thread per extra job and the last on this one."""
    results: list = [None] * len(jobs)
    errors: list = []

    def target(k: int) -> None:
        try:
            results[k] = jobs[k]()
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=target, args=(k,), daemon=True)
        for k in range(len(jobs) - 1)
    ]
    for t in threads:
        t.start()
    target(len(jobs) - 1)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
