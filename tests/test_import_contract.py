"""The serving import contract, the router's process tree and the lazy
package API.

A serve process (the CLI, the router, each worker) imports only the
trace-reading, prediction and serving layers.  The generator, the
simulation stack and scipy stay out of its import graph: serving never
synthesizes a sample, and loading them cost every serve interpreter
about a second and 70 MiB.  Of the prediction layer a worker loads only
``repro.prediction.base`` (``PredictionQuery``), not the other
predictors or the evaluation harness.  The router holds no predictor
state, so it loads neither the state stack nor NumPy: it reads the
store's manifest and forwards requests.  ``repro``, ``repro.traces``,
``repro.prediction`` and ``repro.serve`` export their public names
lazily (PEP 562) so that this holds while ``from repro import
generate_dataset`` keeps working.

No serving process loads the standard library's HTTP server,
``http.client``, ``email`` or ``ssl``: the HTTP shell reads requests and
worker answers with bytes operations, so no serving process maps
``libssl`` either, and the router, which verifies no shard, maps no
``libcrypto`` (workers keep ``hashlib`` for shard checksums).

A router's only children are its workers, plain interpreters: no
``multiprocessing`` resource tracker runs beside them, and a worker
whose router dies drains its ingest queue, writes its final snapshot
and exits.

A generating process loads no ``scipy.signal`` either: the load model's
AR(1) filter calls scipy's compiled kernel directly
(:mod:`repro.workloads.iir`), which spares every generate worker and
shard unit the ~78 MiB that package import costs.  And a stock
generating process loads no ``repro.scenarios``: scenarios run the
stock fleet code, never the other way round.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.prediction
import repro.serve
import repro.traces
from repro.config import FgcsConfig, TestbedConfig
from repro.serve import ServeClient, ServeState
from repro.traces.shards import generate_shards, open_shards
from repro.units import DAY

#: Modules a serve process must not load (a name or any submodule of it).
FORBIDDEN = (
    "scipy",
    "repro.workloads",
    "repro.simkernel",
    "repro.oskernel",
    "repro.fgcs",
    "repro.contention",
    "repro.scheduling",
    "repro.analysis",
    "repro.scenarios",
    "repro.traces.generate",
    "http.server",
    "http.client",
    "email",
    "ssl",
)

N_DAYS = 14


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _forbidden(modules) -> list[str]:
    return sorted(
        m
        for m in modules
        if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)
    )


def _modules(code: str, *args: str) -> list[str]:
    """``sys.modules`` after ``code`` runs in a fresh interpreter."""
    code = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_router_imports_neither_numpy_nor_prediction():
    modules = _modules("import repro.cli, repro.serve.router")
    assert "repro.serve.router" in modules
    assert _forbidden(modules) == []
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
    assert [m for m in modules if m.startswith("repro.prediction")] == []
    assert [m for m in modules if m.startswith("repro.serve.")] == [
        "repro.serve.router",
        "repro.serve.server",
    ]


def test_serve_entry_points_import_no_generator_or_scipy(tiny_store):
    # What a worker interpreter runs: the router module (its entry
    # point), then ``boot`` over its shard range, which builds the state.
    code = (
        "import repro.serve.router\n"
        "from repro.serve.server import ServeSpec, boot\n"
        "boot(ServeSpec(sys.argv[1], worker_id=0, shard_range=(0, 1))).close()\n"
    )
    modules = _modules(code, str(tiny_store))
    assert "repro.serve.state" in modules
    assert _forbidden(modules) == []
    prediction = [m for m in modules if m.startswith("repro.prediction.")]
    assert prediction == ["repro.prediction.base"]


def test_cli_import_loads_neither_numpy_nor_serve():
    # `batch` setup time includes this import; every subcommand loads
    # what it needs when it runs.
    loaded = [
        m
        for m in _modules("import repro.cli")
        if m.split(".")[0] == "numpy" or m.startswith("repro.serve")
    ]
    assert loaded == []


_GENERATE = """
import json, sys
from repro.config import ExecutionConfig
from repro.scenarios import compile_scenario, get_scenario
from repro.scenarios.generate import generate_scenario_shards

compiled = compile_scenario(get_scenario(sys.argv[1]), machines=4, days=7, seed=42)
generate_scenario_shards(
    compiled, sys.argv[2], 2, format="binary", execution=ExecutionConfig(jobs=1)
)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


_STOCK_GENERATE = """
import dataclasses, json, sys
import repro.traces.shards
assert "repro.traces.generate" not in sys.modules, "shards imports the generator"
from repro.config import ExecutionConfig, FgcsConfig, TestbedConfig
from repro.traces.shards import generate_shards
from repro.units import DAY

config = dataclasses.replace(
    FgcsConfig(), testbed=TestbedConfig(n_machines=4, duration=7 * DAY), seed=42
)
generate_shards(config, sys.argv[1], 2, execution=ExecutionConfig(jobs=1))
print(json.dumps(sorted(sys.modules)))
"""


def test_stock_generation_loads_no_scenario_layer(tmp_path):
    # The generator that scenarios share stays below them, so a stock run
    # never pays for importing the scenario layer; and serve processes,
    # which import the shard reader, still load no generator.
    proc = subprocess.run(
        [sys.executable, "-c", _STOCK_GENERATE, str(tmp_path / "fleet")],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "repro.traces.generate" in modules
    assert [m for m in modules if m.split(".")[:2] == ["repro", "scenarios"]] == []
    assert (tmp_path / "fleet" / "manifest.json").is_file()


@pytest.mark.parametrize("scenario", ["student-lab-baseline", "flash-crowd"])
def test_generating_process_never_imports_scipy_signal(scenario, tmp_path):
    # jobs=1 runs the same unit function a pool worker runs.  The plain
    # baseline runs the stock machine unit, flash-crowd the scenario one.
    proc = subprocess.run(
        [sys.executable, "-c", _GENERATE, scenario, str(tmp_path / "fleet")],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    scipy_modules = json.loads(proc.stdout)
    # The kernel's own extension module may be listed; its package may not.
    assert "scipy.signal" not in scipy_modules, scipy_modules
    assert (tmp_path / "fleet" / "manifest.json").is_file()


# -- a live router and its workers ---------------------------------------------


def _children(pid: int) -> list[int]:
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the command name, which may itself hold ") ".
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry.name))
    return kids


def _running(pid: int) -> bool:
    """``pid`` exists and has not exited (an unreaped zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _mappings(pid: int, package: str) -> list[str]:
    """Mapped files under a ``package`` directory (numpy's bundled
    ``numpy.libs/libscipy_openblas*`` is under neither ``scipy/`` nor
    ``numpy/``)."""
    maps = Path(f"/proc/{pid}/maps").read_text().splitlines()
    return sorted(
        {line.split()[-1] for line in maps if f"/{package}/" in line}
    )


def _mapped_files(pid: int, *prefixes: str) -> list[str]:
    """Mapped files whose name starts with one of ``prefixes``."""
    maps = Path(f"/proc/{pid}/maps").read_text().splitlines()
    return sorted(
        {
            line.split()[-1]
            for line in maps
            if line.split()[-1].rsplit("/", 1)[-1].startswith(prefixes)
        }
    )


def _read_url(proc: subprocess.Popen, timeout: float) -> str:
    """The URL the daemon prints on stderr once it serves."""
    deadline = time.monotonic() + timeout
    fd = proc.stderr.fileno()
    seen = b""
    while time.monotonic() < deadline:
        if not select.select([fd], [], [], 0.5)[0]:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        seen += chunk
        match = re.search(rb" on (http://\S+)", seen)
        if match:
            return match.group(1).decode()
    raise AssertionError(f"daemon did not start: {seen!r}")


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    config = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=4, duration=N_DAYS * DAY),
        seed=42,
    )
    root = tmp_path_factory.mktemp("contract") / "fleet"
    generate_shards(config, root, 2, format="binary")
    return root


def _serve(store: Path, *args: str) -> subprocess.Popen:
    """``serve STORE --workers 2 ARGS`` in its own session."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(store),
         "--workers", "2", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_env(),
        start_new_session=True,
    )


def _stop_group(proc: subprocess.Popen) -> None:
    """The workers share the daemon's session; a failed assertion must
    not leave them running after the router is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=60)
    proc.stderr.close()


def _workers(router: int) -> list[int]:
    """The router's children: exactly its two workers, each started as
    a plain interpreter through the router's entry point."""
    children = sorted(_children(router))
    assert len(children) == 2, children
    for pid in children:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        assert b"from repro.serve.router import run_worker" in cmdline, cmdline
    return children


_BATCH = [
    {"machine_id": m, "start": N_DAYS * DAY + 60.0 * m,
     "end": N_DAYS * DAY + 60.0 * m + 600.0, "state": 3}
    for m in range(4)
]


@pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps"
)
def test_live_router_and_workers_never_map_scipy(tiny_store):
    proc = _serve(tiny_store)
    try:
        url = _read_url(proc, timeout=120)
        workers = _workers(proc.pid)
        with ServeClient(url) as client:
            client.availability(1, 6.0, day=7, hour=9.0)
            client.capacity(6.0, day=7, hour=0.0)
            client.rank(6.0, k=3, day=7, hour=0.0)
            client.ingest(_BATCH)
            client.flush()
            for pid in [proc.pid, *workers]:
                assert _mappings(pid, "scipy") == [], pid
                assert _mapped_files(pid, "libssl", "_ssl") == [], pid
            assert _mappings(proc.pid, "numpy") == []
            assert _mapped_files(proc.pid, "libcrypto") == []
            # Still the two workers: no resource tracker came up either.
            assert _workers(proc.pid) == workers
            client.shutdown()
        assert proc.wait(timeout=60) == 0
    finally:
        _stop_group(proc)


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc/<pid>/stat"
)
def test_workers_snapshot_and_exit_when_the_router_is_killed(
    tiny_store, tmp_path
):
    # End-of-file on a worker's stdin means its router is gone.  Without
    # --snapshot-every the only snapshot is the final one, so the files
    # prove that both workers drained their queues on the way out.
    proc = _serve(tiny_store, "--snapshot-dir", str(tmp_path))
    try:
        url = _read_url(proc, timeout=120)
        workers = _workers(proc.pid)
        with ServeClient(url) as client:
            ack = client.ingest(_BATCH)
        assert (ack["accepted"], ack["workers"]) == (4, 2)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "workers outlived the router"
            time.sleep(0.05)
    finally:
        _stop_group(proc)
    store = open_shards(tiny_store)
    restored = [
        ServeState.from_store(store, shard_range=(i, i + 1))
        .restore_overlay_snapshot(tmp_path / f"worker{i}.npz")
        for i in range(2)
    ]
    assert restored == [2, 2]


# -- the lazy public API -------------------------------------------------------


@pytest.mark.parametrize(
    "package",
    [repro, repro.traces, repro.prediction, repro.serve],
    ids=lambda p: p.__name__,
)
class TestLazyExports:
    def test_every_exported_name_resolves_and_is_listed(self, package):
        listed = dir(package)
        for name in package.__all__:
            assert getattr(package, name) is not None, name
            assert name in listed, name

    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
        assert not hasattr(package, "no_such_name")

    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_assigned_name_wins(self, package, monkeypatch):
        # A tracer or test patching ``package.name`` must be what later
        # ``from package import name`` statements get.
        name = package.__all__[-1]
        sentinel = object()
        monkeypatch.setattr(package, name, sentinel)
        namespace: dict = {}
        exec(f"from {package.__name__} import {name}", namespace)
        assert namespace[name] is sentinel


def test_root_and_traces_export_the_same_objects():
    for name in ("TraceDataset", "generate_dataset", "load_dataset"):
        assert getattr(repro, name) is getattr(repro.traces, name)
    for name in ("HistoryWindowPredictor", "evaluate_predictors"):
        assert getattr(repro, name) is getattr(repro.prediction, name)
