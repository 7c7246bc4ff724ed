"""The serving import contract and the lazy package API.

A serve process (the CLI, the router, each spawned worker) imports only
the trace-reading, prediction and serving layers.  The generator, the
simulation stack and scipy stay out of its import graph: serving never
synthesizes a sample, and loading them cost every serve interpreter
about a second and 70 MiB.  Of the prediction layer it loads only
``repro.prediction.base`` (``PredictionQuery``), not the other
predictors or the evaluation harness.  ``repro``, ``repro.traces`` and
``repro.prediction`` export their public names lazily (PEP 562) so that
this holds while ``from repro import generate_dataset`` keeps working.

A generating process loads no ``scipy.signal`` either: the load model's
AR(1) filter calls scipy's compiled kernel directly
(:mod:`repro.workloads.iir`), which spares every generate worker and
shard unit the ~78 MiB that package import costs.
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
import repro.traces
from repro.config import FgcsConfig, TestbedConfig
from repro.serve import ServeClient
from repro.traces.shards import generate_shards
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


def test_serve_entry_points_import_no_generator_or_scipy():
    code = (
        "import json, sys\n"
        "import repro.cli, repro.serve, repro.serve.router\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "repro.serve.router" in modules
    assert _forbidden(modules) == []
    prediction = [m for m in modules if m.startswith("repro.prediction.")]
    assert prediction == ["repro.prediction.base"]


def test_cli_import_loads_neither_numpy_nor_serve():
    # `batch` setup time includes this import; every subcommand loads
    # what it needs when it runs.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys\nimport repro.cli\n"
            "print(json.dumps(sorted(sys.modules)))\n",
        ],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [
        m
        for m in json.loads(proc.stdout)
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


@pytest.mark.parametrize("scenario", ["student-lab-baseline", "flash-crowd"])
def test_generating_process_never_imports_scipy_signal(scenario, tmp_path):
    # jobs=1 runs the same unit function a pool worker runs.  The plain
    # baseline takes generate_shards, flash-crowd the scenario units.
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


def _scipy_mappings(pid: int) -> list[str]:
    """Mapped files under a ``scipy`` directory (numpy's bundled
    ``numpy.libs/libscipy_openblas*`` is not one)."""
    maps = Path(f"/proc/{pid}/maps").read_text().splitlines()
    return sorted({line.split()[-1] for line in maps if "/scipy/" in line})


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


@pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps"
)
def test_live_router_and_workers_never_map_scipy(tiny_store):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            str(tiny_store),
            "--workers",
            "2",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_env(),
        start_new_session=True,
    )
    try:
        url = _read_url(proc, timeout=120)
        workers = [
            pid
            for pid in _children(proc.pid)
            if b"spawn_main" in Path(f"/proc/{pid}/cmdline").read_bytes()
        ]
        assert len(workers) == 2
        base = N_DAYS * DAY
        with ServeClient(url) as client:
            client.availability(1, 6.0, day=7, hour=9.0)
            client.capacity(6.0, day=7, hour=0.0)
            client.rank(6.0, k=3, day=7, hour=0.0)
            client.ingest(
                [
                    {"machine_id": m, "start": base + 60.0 * m,
                     "end": base + 60.0 * m + 600.0, "state": 3}
                    for m in range(4)
                ]
            )
            client.flush()
            for pid in [proc.pid, *workers]:
                assert _scipy_mappings(pid) == [], pid
            client.shutdown()
        assert proc.wait(timeout=60) == 0
    finally:
        # The workers share the daemon's session; a failed assertion
        # must not leave them running after the router is gone.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=60)
        proc.stderr.close()


# -- the lazy public API -------------------------------------------------------


@pytest.mark.parametrize(
    "package",
    [repro, repro.traces, repro.prediction],
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
