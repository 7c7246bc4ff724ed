"""Processes under test: launch, readiness, /proc accounting, teardown.

Every process the benchmark starts runs in its own session, so a daemon
and any worker processes it spawned can be stopped as one process group
when a graceful ``/v1/shutdown`` does not finish in time.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from loadgen import Conn

HERE = Path(__file__).resolve().parent
CLK_TCK = os.sysconf("SC_CLK_TCK")
_URL = re.compile(r"http://([\d.]+):(\d+)")



def _cpu_split() -> tuple[set, set]:
    """CPUs for the load generator and for the system under test.

    The generator gets the last CPU and every process under test the
    rest, so the two never preempt each other and the scheduler cannot
    move them around between runs (on one CPU both share it).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


GENERATOR_CPUS, SYSTEM_CPUS = _cpu_split()

#: How long a daemon may take from launch to a ready /healthz.
READY_TIMEOUT_S = 120.0
#: How long a graceful shutdown may take before the group is terminated.
STOP_TIMEOUT_S = 60.0


def program_env(root: Path, spans_dir: Optional[Path] = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PERFBENCH_SPANS", None)
    if spans_dir is not None:
        env["PERFBENCH_SPANS"] = str(spans_dir)
    return env


def descendants(pid: int) -> list[int]:
    """``pid`` and every live descendant (from /proc children lists)."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU of the given processes (from /proc/<pid>/stat)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    """Summed VmHWM (peak resident set) of the given processes, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_ticks(cpus: set) -> tuple[int, int]:
    """``(stolen, total)`` clock ticks of the given CPUs since boot.

    Stolen ticks are time the hypervisor ran something else while this
    guest's CPU wanted to run: a run with many of them measured the host,
    not the program.
    """
    stolen = total = 0
    with open("/proc/stat") as fh:
        for line in fh:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
                ticks = [int(x) for x in fields[:8]]
                stolen += ticks[7]
                total += sum(ticks)
    return stolen, total


#: Iterations of the host-speed calibration loop (tens of ms on one CPU).
CALIBRATION_LOOP = 500_000


def calibration_ms(cpus: set, samples: int) -> list[float]:
    """Times of a fixed pure-Python loop on ``cpus``, in milliseconds.

    The loop does the same work on every run, so its time moves only with
    the host's speed: it shows host drift next to the program's figures.
    The calling thread returns to its own CPUs afterwards.
    """
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            total = 0
            for i in range(CALIBRATION_LOOP):
                total += i & 7
            times.append((time.perf_counter() - t0) * 1000.0)
        return times
    finally:
        os.sched_setaffinity(0, own)


def stop_group(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for ``proc``; terminate, then kill, its process group if needed.

    Whatever is left of the group once ``proc`` has exited is killed too,
    so no worker outlives its daemon.
    """
    for sig, wait in ((None, timeout), (signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        if sig is not None:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
        try:
            proc.wait(wait)
            break
        except subprocess.TimeoutExpired:
            continue
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Daemon:
    """One ``repro-fgcs serve`` process (or router and workers)."""

    def __init__(
        self,
        root: Path,
        serve_args: list[str],
        workdir: Path,
        spans_dir: Optional[Path] = None,
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.spans_dir = spans_dir
        if spans_dir is None:
            entry = [sys.executable, "-m", "repro.cli"]
        else:
            spans_dir.mkdir(parents=True, exist_ok=True)
            entry = [sys.executable, str(HERE / "launcher.py")]
        self.argv = entry + ["serve", *serve_args, "--port", "0"]
        self.proc: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.log = workdir / f"daemon-{id(self)}.log"

    def start(self) -> float:
        """Launch and wait for a ready /healthz; returns the set-up seconds."""
        t0 = time.monotonic()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv,
                cwd=self.workdir,
                env=program_env(self.root, self.spans_dir),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,
            )
        os.sched_setaffinity(self.proc.pid, SYSTEM_CPUS)
        deadline = t0 + READY_TIMEOUT_S
        while self.port is None:
            match = _URL.search(self.log.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        conn = Conn(self.host, self.port)
        try:
            while True:
                try:
                    status, health = conn.json("GET", "/healthz")
                    if status == 200 and health.get("ready"):
                        return time.monotonic() - t0
                except OSError:
                    pass
                self._check_alive(deadline)
                time.sleep(0.005)
        finally:
            conn.close()

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited with {self.proc.returncode} before ready:\n"
                + self.log.read_text(errors="replace")[-2000:]
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"daemon not ready within {READY_TIMEOUT_S:.0f}s")

    def pids(self) -> list[int]:
        return descendants(self.proc.pid)

    def stop(self) -> None:
        """POST /v1/shutdown, then wait; terminate the group on timeout."""
        if self.proc is None:
            return
        if self.port is not None and self.proc.poll() is None:
            conn = Conn(self.host, self.port)
            try:
                conn.request("POST", "/v1/shutdown")
            except OSError:
                pass
            finally:
                conn.close()
        stop_group(self.proc, STOP_TIMEOUT_S)
