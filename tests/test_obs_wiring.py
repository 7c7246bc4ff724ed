"""End-to-end telemetry wiring tests.

Covers the acceptance criteria: the cache counts hits/misses/evictions
(and warns on eviction), the backends record per-unit timings, the CLI
writes a complete run manifest, the progress line obeys TTY/--log-json,
and — crucially — telemetry never perturbs results: trace output is
byte-identical with telemetry enabled vs. disabled.
"""

import dataclasses
import io
import json
import logging
import re

import pytest

from repro import cli
from repro._version import __version__
from repro.config import ExecutionConfig, FgcsConfig, TestbedConfig
from repro.obs import (
    MetricsRegistry,
    cli_progress,
    finish_progress,
    use_registry,
)
from repro.obs import progress as obs_progress
from repro.parallel.backend import ProcessPoolBackend, SerialBackend
from repro.parallel.cache import DatasetCache, dataset_cache_key
from repro.traces.generate import generate_dataset
from repro.units import DAY


@pytest.fixture(scope="module")
def cfg():
    return dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=2, duration=2 * DAY),
        seed=17,
    )


class _ListHandler(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestCacheCounters:
    def test_miss_write_then_hit(self, cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        reg = MetricsRegistry()
        with use_registry(reg):
            generate_dataset(cfg, execution=execution)
            generate_dataset(cfg, execution=execution)
        assert reg.counter_value("cache.miss") == 1
        assert reg.counter_value("cache.write") == 1
        assert reg.counter_value("cache.hit") == 1
        assert reg.counter_value("cache.corrupt_evicted") == 0

    def test_corrupt_eviction_counts_and_warns(self, cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        fresh = generate_dataset(cfg, execution=execution)
        (path,) = tmp_path.iterdir()
        path.write_text("garbage\n{]", encoding="utf-8")

        handler = _ListHandler()
        logger = logging.getLogger("repro.parallel.cache")
        logger.addHandler(handler)
        try:
            reg = MetricsRegistry()
            with use_registry(reg):
                recovered = generate_dataset(cfg, execution=execution)
        finally:
            logger.removeHandler(handler)

        assert fresh.equals(recovered)
        assert reg.counter_value("cache.corrupt_evicted") == 1
        assert reg.counter_value("cache.miss") == 1
        key = dataset_cache_key(cfg, keep_hourly_load=True)
        warnings = [
            r for r in handler.records if r.levelno == logging.WARNING
        ]
        assert len(warnings) == 1
        assert key in warnings[0].getMessage()

    def test_direct_get_on_absent_key_counts_miss(self, tmp_path):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert DatasetCache(tmp_path).get_columns("0" * 64) is None
        assert reg.counter_value("cache.miss") == 1


def _square(x):
    return x * x


class TestBackendMetrics:
    def test_serial_map_records_unit_timings(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            out = SerialBackend().map(_square, [1, 2, 3])
        assert out == [1, 4, 9]
        snap = reg.snapshot()
        assert snap["counters"]["parallel.units"] == 3
        assert snap["gauges"]["parallel.workers"] == 1
        assert snap["histograms"]["parallel.unit_seconds"]["count"] == 3
        assert snap["histograms"]["parallel.map_seconds"]["count"] == 1

    def test_pool_map_records_workers_and_queue_wait(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            out = ProcessPoolBackend(2).map(_square, [1, 2, 3, 4])
        assert out == [1, 4, 9, 16]
        snap = reg.snapshot()
        assert snap["counters"]["parallel.units"] == 4
        assert snap["gauges"]["parallel.workers"] == 2
        assert snap["histograms"]["parallel.unit_seconds"]["count"] == 4
        assert snap["histograms"]["parallel.queue_wait_seconds"]["count"] == 1

    def test_disabled_registry_records_nothing(self):
        out = SerialBackend().map(_square, [1, 2])
        assert out == [1, 4]  # ambient registry is the disabled default

    def test_empty_map_records_nothing(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert SerialBackend().map(_square, []) == []
        assert reg.snapshot()["counters"] == {}


class TestCliManifest:
    def test_analyze_writes_complete_manifest(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = cli.main(
            [
                "analyze",
                "--machines",
                "2",
                "--days",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics-out",
                str(out),
            ]
        )
        assert rc == 0
        manifest = json.loads(out.read_text())

        # Identity and reproducibility metadata.
        assert manifest["command"] == "analyze"
        assert manifest["version"] == __version__
        assert manifest["seed"] == 2006
        from repro.parallel.cache import config_fingerprint

        args = cli.build_parser().parse_args(
            ["analyze", "--machines", "2", "--days", "2"]
        )
        assert manifest["config_fingerprint"] == config_fingerprint(
            cli._config_from(args)
        )

        # Per-phase spans: the command root with the generation phases.
        (root,) = manifest["spans"]
        assert root["name"] == "analyze"
        child_names = [c["name"] for c in root["children"]]
        assert "generate.machines" in child_names
        assert root["duration_s"] > 0

        # Cache traffic and parallel worker timings.
        counters = manifest["metrics"]["counters"]
        assert counters["cache.miss"] == 1
        assert counters["cache.write"] == 1
        assert counters["cache.hit"] == 0
        assert counters["parallel.units"] == 2
        hists = manifest["metrics"]["histograms"]
        assert hists["parallel.unit_seconds"]["count"] == 2
        assert {"mean", "p50", "p95", "max"} <= set(
            hists["parallel.unit_seconds"]
        )
        assert manifest["metrics"]["gauges"]["parallel.workers"] == 1

    def test_thresholds_manifest_has_no_fingerprint(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = cli.main(
            ["thresholds", "--duration", "5.0", "--metrics-out", str(out)]
        )
        assert rc == 0
        manifest = json.loads(out.read_text())
        assert manifest["command"] == "thresholds"
        assert manifest["config_fingerprint"] is None
        assert manifest["seed"] is None
        child_names = [c["name"] for c in manifest["spans"][0]["children"]]
        assert child_names == [
            "thresholds.sweep_nice0",
            "thresholds.sweep_nice19",
        ]

    def test_no_metrics_out_writes_nothing(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = cli.main(
            ["generate", str(trace), "--machines", "2", "--days", "2"]
        )
        assert rc == 0
        assert list(tmp_path.iterdir()) == [trace]


class TestDeterminism:
    def test_trace_bytes_identical_with_and_without_telemetry(
        self, tmp_path, capsys
    ):
        """The tentpole invariant: --metrics-out never perturbs output."""
        plain = tmp_path / "plain.jsonl"
        telemetered = tmp_path / "telemetered.jsonl"
        assert (
            cli.main(
                ["generate", str(plain), "--machines", "2", "--days", "2"]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "generate",
                    str(telemetered),
                    "--machines",
                    "2",
                    "--days",
                    "2",
                    "--metrics-out",
                    str(tmp_path / "m.json"),
                ]
            )
            == 0
        )
        assert plain.read_bytes() == telemetered.read_bytes()

    def test_library_generation_identical_under_any_registry(self, cfg):
        baseline = generate_dataset(cfg)
        with use_registry(MetricsRegistry()):
            telemetered = generate_dataset(cfg)
        assert baseline.equals(telemetered)


class TestProgress:
    def test_progress_prints_k_of_n_stage_rate_and_eta(self):
        buf = io.StringIO()
        progress = cli_progress("generate", stream=buf, enabled=True)
        progress(0, 20)
        progress(4, 20)
        out = buf.getvalue()
        assert "[1/20] generate" in out
        assert "[5/20] generate" in out
        # In-place redraw: carriage return + erase, no newlines.
        assert "\r" in out and "\x1b[K" in out and "\n" not in out
        assert re.search(r"\[5/20\] generate  \d+(\.\d+)? unit/s", out)
        assert re.search(r"ETA \d+:\d{2}", out)

    def test_progress_clears_on_completion(self):
        buf = io.StringIO()
        progress = cli_progress("generate", stream=buf, enabled=True)
        for i in range(3):
            progress(i, 3)
        # The final unit auto-clears the line and retires it.
        assert buf.getvalue().endswith("\r\x1b[K")
        assert progress not in obs_progress._ACTIVE

    def test_finish_progress_clears_interrupted_line(self):
        buf = io.StringIO()
        progress = cli_progress("analyze", stream=buf, enabled=True)
        progress(0, 10)  # run dies mid-stage
        assert not buf.getvalue().endswith("\r\x1b[K")
        finish_progress()
        assert buf.getvalue().endswith("\r\x1b[K")
        assert progress not in obs_progress._ACTIVE
        finish_progress()  # idempotent

    def test_shard_unit_prefix_and_rate_label(self):
        buf = io.StringIO()
        progress = cli_progress(
            "generate", stream=buf, enabled=True, unit="shard"
        )
        progress(0, 4)
        out = buf.getvalue()
        assert "[shard 1/4] generate" in out
        assert "shard/s" in out
        finish_progress()

    def test_non_tty_is_silent(self):
        assert cli_progress("generate", stream=io.StringIO()) is None

    def test_log_json_suppresses(self):
        args = cli.build_parser().parse_args(
            ["generate", "x", "--log-json"]
        )
        assert cli._progress(args, "generate") is None

    def test_explicit_disable(self):
        buf = io.StringIO()
        buf.isatty = lambda: True  # type: ignore[method-assign]
        assert cli_progress("s", stream=buf, enabled=False) is None
        assert cli_progress("s", stream=buf) is not None


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


TINY = ["--machines", "2", "--days", "2"]


class TestTelemetryOutputs:
    def test_metrics_out_stdout_emits_manifest_as_last_line(
        self, tmp_path, capsys
    ):
        rc = cli.main(
            ["generate", str(tmp_path / "t.jsonl"), *TINY, "--metrics-out", "-"]
        )
        assert rc == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        manifest = json.loads(last)
        assert manifest["command"] == "generate"
        from repro.obs.manifest import MANIFEST_SCHEMA_VERSION

        assert manifest["schema"]["manifest"] == MANIFEST_SCHEMA_VERSION
        # The background sampler ran: a bounded resource series landed.
        assert manifest["resources"]["n_samples"] >= 2
        assert "rss_bytes" in manifest["resources"]["samples"]
        assert (tmp_path / "t.jsonl").exists()

    def test_trace_out_writes_loadable_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = cli.main(
            ["generate", str(tmp_path / "t.jsonl"), *TINY, "--trace-out", str(trace)]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"command": "generate"}
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert "generate" in names
        assert any(e["ph"] == "C" for e in doc["traceEvents"])

    def test_unwritable_metrics_out_rejected_before_any_work(
        self, tmp_path, capsys
    ):
        out = tmp_path / "t.jsonl"
        rc = cli.main(
            ["generate", str(out), *TINY, "--metrics-out", "/nonexistent/m.json"]
        )
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err
        assert not out.exists()  # validated up front, no work done

    def test_unwritable_trace_out_rejected(self, tmp_path, capsys):
        rc = cli.main(
            [
                "generate",
                str(tmp_path / "t.jsonl"),
                *TINY,
                "--trace-out",
                str(tmp_path),  # a directory, not a file
            ]
        )
        assert rc == 2
        assert "is a directory" in capsys.readouterr().err

    def test_trace_out_stdout_not_supported(self, tmp_path, capsys):
        rc = cli.main(
            ["generate", str(tmp_path / "t.jsonl"), *TINY, "--trace-out", "-"]
        )
        assert rc == 2
        assert "does not support '-'" in capsys.readouterr().err


class TestReportCommandModes:
    def _manifest_path(self, tmp_path, capsys) -> str:
        path = tmp_path / "m.json"
        assert (
            cli.main(
                [
                    "generate",
                    str(tmp_path / "t.jsonl"),
                    *TINY,
                    "--metrics-out",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return str(path)

    def test_manifest_file_renders_performance_report(self, tmp_path, capsys):
        path = self._manifest_path(tmp_path, capsys)
        assert cli.main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "run report: generate" in out
        assert "phase breakdown" in out

    def test_compare_self_is_neutral_exit_zero(self, tmp_path, capsys):
        path = self._manifest_path(tmp_path, capsys)
        assert cli.main(["report", "--compare", path, path]) == 0
        assert "OK: no metric regressed" in capsys.readouterr().out

    def test_compare_regression_exits_one_with_diff_table(
        self, tmp_path, capsys
    ):
        path = self._manifest_path(tmp_path, capsys)
        slow = json.loads((tmp_path / "m.json").read_text())
        slow["duration_s"] *= 3
        (tmp_path / "slow.json").write_text(json.dumps(slow))
        rc = cli.main(
            [
                "report",
                "--compare",
                path,
                str(tmp_path / "slow.json"),
                "--max-regress",
                "50",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "duration_s" in out

    def test_compare_missing_manifest_exits_two(self, tmp_path, capsys):
        path = self._manifest_path(tmp_path, capsys)
        rc = cli.main(["report", "--compare", path, str(tmp_path / "no.json")])
        assert rc == 2
        assert "manifest not found" in capsys.readouterr().err

    def test_report_without_target_errors(self, capsys):
        assert cli.main(["report"]) == 2
        assert "needs a target" in capsys.readouterr().err


class TestNeutralityDifferential:
    """Satellite: byte-identical outputs with telemetry fully on vs. fully
    off, across jobs × formats, sharded generate and streaming analyze."""

    @pytest.mark.parametrize("jobs", ["1", "4"])
    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_sharded_generate_identical_bytes(
        self, tmp_path, capsys, jobs, fmt
    ):
        plain, tele = tmp_path / "plain", tmp_path / "tele"
        base = [*TINY, "--shards", "2", "--jobs", jobs, "--format", fmt]
        assert cli.main(["generate", str(plain), *base]) == 0
        assert (
            cli.main(
                [
                    "generate",
                    str(tele),
                    *base,
                    "--metrics-out",
                    str(tmp_path / "m.json"),
                    "--trace-out",
                    str(tmp_path / "t.json"),
                ]
            )
            == 0
        )
        plain_files = sorted(p.name for p in plain.iterdir())
        assert plain_files == sorted(p.name for p in tele.iterdir())
        for name in plain_files:
            assert (plain / name).read_bytes() == (tele / name).read_bytes(), name

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_streaming_analyze_identical_stdout(self, tmp_path, capsys, jobs):
        shards = tmp_path / "shards"
        assert (
            cli.main(["generate", str(shards), *TINY, "--shards", "2"]) == 0
        )
        args = [
            "analyze",
            *TINY,
            "--trace",
            str(shards),
            "--jobs",
            jobs,
        ]
        capsys.readouterr()
        assert cli.main(args) == 0
        plain_out = capsys.readouterr().out
        assert (
            cli.main(
                [
                    *args,
                    "--metrics-out",
                    str(tmp_path / "m.json"),
                    "--trace-out",
                    str(tmp_path / "t.json"),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == plain_out
