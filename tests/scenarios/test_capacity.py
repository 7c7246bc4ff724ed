"""Capacity harness: every scenario generates + analyzes under a budget.

For each registered scenario, a child process generates a reduced fleet
(sharded, binary) and analyzes it shard by shard, then reports its own peak
RSS and wall-clock time.  The parent asserts the run succeeded, stayed
under a generous RSS ceiling, and finished inside the wall-clock budget.
The ceilings are smoke bounds for shared CI hardware, not perf numbers —
they catch a scenario whose composition path suddenly materializes the
whole fleet or loops.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import scenario_names

#: The harness frame: small enough that all scenarios run in seconds,
#: large enough that regimes/outages/flash crowds land inside the span.
FRAME = {"machines": "4", "days": "7", "seed": "42"}
#: Peak-RSS ceiling for the child (python + numpy baseline is ~60 MiB).
RSS_CEILING_BYTES = 512 * (1 << 20)
#: Wall-clock budget per scenario for generate + analyze.
WALL_BUDGET_S = 120.0

#: The scenarios this harness covers — pinned to the registry below.
SCENARIOS = scenario_names()

_CHILD = """
import json, resource, sys, time

out_dir, scenario = sys.argv[1], sys.argv[2]
from repro.cli import main

t0 = time.perf_counter()
rc_gen = main([
    "generate", "--scenario", scenario,
    "--machines", "{machines}", "--days", "{days}", "--seed", "{seed}",
    "--shards", "2", "--format", "binary", out_dir,
])
rc_ana = main([
    "analyze", "--trace", out_dir,
    "--machines", "{machines}", "--days", "{days}", "--seed", "{seed}",
])
wall_s = time.perf_counter() - t0
ru = resource.getrusage(resource.RUSAGE_SELF)
# ru_maxrss is KiB on Linux.
print(json.dumps({{
    "rc_gen": rc_gen, "rc_ana": rc_ana, "wall_s": wall_s,
    "max_rss_bytes": ru.ru_maxrss * 1024,
}}))
""".format(**FRAME)


def _run_child(scenario: str, out_dir: Path) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out_dir), scenario],
        capture_output=True,
        text=True,
        env=env,
        timeout=WALL_BUDGET_S * 2,
    )
    assert proc.returncode == 0, (
        f"child failed for {scenario}:\n{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestScenarioCapacity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_generate_and_analyze_under_budget(self, scenario, tmp_path):
        report = _run_child(scenario, tmp_path / "fleet")
        assert report["rc_gen"] == 0, report
        assert report["rc_ana"] == 0, report
        assert report["wall_s"] < WALL_BUDGET_S, report
        assert report["max_rss_bytes"] < RSS_CEILING_BYTES, report
        # The run actually produced a shard store, not an empty dir.
        assert (tmp_path / "fleet" / "manifest.json").exists()


class TestRegistryCompleteness:
    def test_harness_covers_every_registered_scenario(self):
        assert SCENARIOS == scenario_names()
        assert len(SCENARIOS) >= 10, SCENARIOS

    def test_library_names_are_sorted_and_unique(self):
        assert list(SCENARIOS) == sorted(set(SCENARIOS))
