"""Golden-figure regression suite.

The paper artifacts (Table 2, the Figure 6 CDF series, the Figure 7
hourly histogram) rendered from the fixed-seed small testbed are pinned
byte-for-byte under ``tests/goldens/``.  Any change to generation,
detection, or rendering that shifts an artifact fails here with a diff.

Intentional changes are blessed with::

    pytest tests/test_goldens.py --update-goldens

then reviewing the resulting ``tests/goldens/`` diff in the commit (see
docs/robustness.md).  The chaos variant regenerates the dataset under an
injected-fault plan and must match the same goldens — figures survive
faults byte-identically when retries succeed.
"""

import difflib
import json
from pathlib import Path

import pytest

from repro.analysis import cause_breakdown, daily_pattern, interval_distribution
from repro.analysis.report import render_figure6, render_figure7, render_table2

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _check_or_update(path: Path, text: str, update: bool) -> None:
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"updated golden {path.name}")
    assert path.exists(), (
        f"golden {path} is missing; create it with "
        "'pytest tests/test_goldens.py --update-goldens'"
    )
    expected = path.read_text(encoding="utf-8")
    if text != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                text.splitlines(),
                fromfile=f"goldens/{path.name}",
                tofile="current",
                lineterm="",
            )
        )
        pytest.fail(
            f"golden {path.name} drifted (rerun with --update-goldens if "
            f"intentional):\n{diff}"
        )


def _figure6_json(dataset) -> str:
    grid, weekday, weekend = interval_distribution(dataset).cdf_series()
    # Full-precision floats: repr round-trips exactly, so the golden pins
    # the numbers, not a rounding of them.
    return (
        json.dumps(
            {
                "grid_hours": [repr(float(x)) for x in grid],
                "weekday_cdf": [repr(float(x)) for x in weekday],
                "weekend_cdf": [repr(float(x)) for x in weekend],
            },
            indent=2,
        )
        + "\n"
    )


class TestGoldenFigures:
    def test_table2(self, small_dataset, update_goldens):
        _check_or_update(
            GOLDEN_DIR / "table2.txt",
            render_table2(cause_breakdown(small_dataset)) + "\n",
            update_goldens,
        )

    def test_figure6_cdf_bins(self, small_dataset, update_goldens):
        _check_or_update(
            GOLDEN_DIR / "figure6_cdf.json",
            _figure6_json(small_dataset),
            update_goldens,
        )

    def test_figure6_rendering(self, small_dataset, update_goldens):
        _check_or_update(
            GOLDEN_DIR / "figure6.txt",
            render_figure6(interval_distribution(small_dataset)) + "\n",
            update_goldens,
        )

    def test_figure7_hourly_histogram(self, small_dataset, update_goldens):
        _check_or_update(
            GOLDEN_DIR / "figure7_hourly.txt",
            render_figure7(daily_pattern(small_dataset)) + "\n",
            update_goldens,
        )


class TestStreamingDifferential:
    """``analyze`` folds every source through the column accumulators and
    prints, byte for byte, the per-event reference rendered through the
    shared text builder — on the golden seed-42 testbed, so the fold
    needs no goldens of its own.
    """

    def _analyze(self, capsys, *argv):
        from repro import cli

        rc = cli.main(["analyze", "--check", *argv])
        return rc, capsys.readouterr().out

    @staticmethod
    def _reference(dataset, reference_stdout):
        from repro.analysis import check_paper_landmarks

        ok = all(c.ok for c in check_paper_landmarks(dataset))
        return (0 if ok else 1), reference_stdout(dataset, check=True)

    def test_flat_trace_renders_reference(
        self, small_dataset, tmp_path, capsys, reference_stdout
    ):
        from repro.traces.io import save_dataset

        trace = tmp_path / "trace.jsonl"
        save_dataset(small_dataset, trace)
        rc, out = self._analyze(capsys, "--trace", str(trace))
        assert (rc, out) == self._reference(small_dataset, reference_stdout)

    def test_shard_store_renders_identically(
        self, small_dataset, tmp_path, capsys, reference_stdout
    ):
        from repro.traces.shards import write_shards

        store = tmp_path / "store"
        write_shards(small_dataset, store, 3)
        rc, out = self._analyze(capsys, "--trace", str(store))
        assert (rc, out) == self._reference(small_dataset, reference_stdout)


class TestFormatDifferential:
    """``analyze`` renders byte-identical text from the binary trace
    format — flat and sharded — so the binary path needs no goldens of
    its own either (and a binary round trip reproduces the pinned goldens
    exactly).
    """

    _analyze = TestStreamingDifferential._analyze

    def test_binary_trace_renders_identically(
        self, small_dataset, tmp_path, capsys
    ):
        from repro.traces.io import save_dataset

        jsonl, binary = tmp_path / "t.jsonl", tmp_path / "t.bin"
        save_dataset(small_dataset, jsonl)
        save_dataset(small_dataset, binary, format="binary")
        rc_j, out_j = self._analyze(capsys, "--trace", str(jsonl))
        rc_b, out_b = self._analyze(capsys, "--trace", str(binary))
        assert out_b == out_j
        assert rc_b == rc_j

    def test_binary_shard_store_renders_identically(
        self, small_dataset, tmp_path, capsys, reference_stdout
    ):
        from repro.traces.shards import write_shards

        store = tmp_path / "store"
        write_shards(small_dataset, store, 3, format="binary")
        rc, out = self._analyze(capsys, "--trace", str(store))
        assert (rc, out) == TestStreamingDifferential._reference(
            small_dataset, reference_stdout
        )

    def test_binary_round_trip_matches_goldens(
        self, small_dataset, tmp_path, update_goldens
    ):
        from repro.traces.io import load_dataset, save_dataset

        if update_goldens:
            pytest.skip("goldens update from the in-memory fixture")
        binary = tmp_path / "t.bin"
        save_dataset(small_dataset, binary, format="binary")
        dataset = load_dataset(binary)
        _check_or_update(
            GOLDEN_DIR / "table2.txt",
            render_table2(cause_breakdown(dataset)) + "\n",
            False,
        )
        _check_or_update(
            GOLDEN_DIR / "figure6_cdf.json", _figure6_json(dataset), False
        )
        _check_or_update(
            GOLDEN_DIR / "figure7_hourly.txt",
            render_figure7(daily_pattern(dataset)) + "\n",
            False,
        )


class TestGoldensUnderChaos:
    def test_figures_survive_injected_faults(self, small_config, update_goldens):
        """The golden artifacts regenerate byte-identically when the
        pipeline runs under worker crashes and unit exceptions that
        bounded retries clear."""
        from repro.config import ExecutionConfig
        from repro.faults import FaultPlan, FaultSpec
        from repro.traces.generate import generate_dataset

        if update_goldens:
            pytest.skip("goldens update from the fault-free fixture")
        plan = FaultPlan(
            seed=13,
            specs=(
                FaultSpec(site="worker.crash", match=("generate.machine:0",)),
                FaultSpec(site="unit.exception", probability=0.5),
            ),
        )
        dataset = generate_dataset(
            small_config.with_execution(ExecutionConfig(fault_plan=plan))
        )
        _check_or_update(
            GOLDEN_DIR / "table2.txt",
            render_table2(cause_breakdown(dataset)) + "\n",
            False,
        )
        _check_or_update(
            GOLDEN_DIR / "figure6_cdf.json", _figure6_json(dataset), False
        )
        _check_or_update(
            GOLDEN_DIR / "figure7_hourly.txt",
            render_figure7(daily_pattern(dataset)) + "\n",
            False,
        )
