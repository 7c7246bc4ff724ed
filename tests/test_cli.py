"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro import cli


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_generate_args(self):
        args = cli.build_parser().parse_args(
            ["generate", "out.jsonl", "--machines", "3", "--days", "5"]
        )
        assert args.command == "generate"
        assert args.machines == 3
        assert args.days == 5

    @pytest.mark.parametrize("flag", [["--streaming"], ["--shards", "2"]])
    def test_analyze_has_no_mode_flags(self, flag, capsys):
        """``analyze`` has one path and no flag that picks another."""
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["analyze", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_from_args(self):
        args = cli.build_parser().parse_args(
            ["generate", "x", "--machines", "2", "--days", "3", "--seed", "9"]
        )
        cfg = cli._config_from(args)
        assert cfg.testbed.n_machines == 2
        assert cfg.testbed.n_days == 3
        assert cfg.seed == 9


class TestCommands:
    def test_generate_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = cli.main(
            ["generate", str(out), "--machines", "2", "--days", "7"]
        )
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "machine-days" in captured.out

        rc = cli.main(["analyze", "--trace", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        assert "Figure 6" in captured.out
        assert "Figure 7" in captured.out

    def test_thresholds_command(self, capsys):
        rc = cli.main(["thresholds", "--duration", "20.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Th1" in out and "Th2" in out

    def test_predict_command(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        cli.main(["generate", str(out), "--machines", "2", "--days", "28"])
        capsys.readouterr()
        rc = cli.main(
            ["predict", "--trace", str(out), "--train-days", "21"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "Brier" in text
        assert "HistoryWindow" in text

    def test_report_command(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        cli.main(["generate", str(trace), "--machines", "3", "--days", "21"])
        capsys.readouterr()
        out = tmp_path / "report"
        cli.main(["report", str(out), "--trace", str(trace)])
        names = {p.name for p in out.iterdir()}
        assert {
            "table2.txt",
            "figure6.txt",
            "figure7.txt",
            "interval_fits.txt",
            "predictability.txt",
            "weekday_profile.txt",
            "capacity.txt",
            "landmarks.txt",
        } <= names
        assert "Table 2" in (out / "table2.txt").read_text()

    def test_profile_option(self, tmp_path, capsys):
        out = tmp_path / "ent.jsonl"
        rc = cli.main(
            ["generate", str(out), "--machines", "2", "--days", "7",
             "--profile", "enterprise"]
        )
        assert rc == 0
        from repro.traces import load_dataset

        ds = load_dataset(out)
        assert len(ds) > 0

    def test_schedule_command(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        cli.main(["generate", str(out), "--machines", "3", "--days", "28"])
        capsys.readouterr()
        rc = cli.main(
            ["schedule", "--trace", str(out), "--train-days", "21"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "oracle" in text and "random" in text


#: Runs ``analyze`` in a fresh interpreter whose ``UnavailabilityEvent``
#: counts its instances; the last stdout line reports the count.
_COUNTING_ANALYZE = """
import json
import sys

from repro.core.events import UnavailabilityEvent

built = []


def counting_new(cls, *args, **kwargs):
    built.append(cls)
    return object.__new__(cls)


UnavailabilityEvent.__new__ = staticmethod(counting_new)

from repro.cli import main

rc = main(["analyze", "--trace", sys.argv[1]])
print(json.dumps({"events_built": len(built), "rc": rc}))
"""


class TestFormats:
    def test_generate_binary_format(self, tmp_path, capsys):
        from repro.traces import detect_format, load_dataset

        out = tmp_path / "trace.bin"
        rc = cli.main(
            ["generate", str(out), "--machines", "2", "--days", "7",
             "--format", "binary"]
        )
        assert rc == 0
        assert detect_format(out) == "binary"
        assert len(load_dataset(out)) > 0

    def test_generate_binary_shards(self, tmp_path, capsys):
        from repro.traces.shards import open_shards

        out = tmp_path / "store"
        rc = cli.main(
            ["generate", str(out), "--machines", "4", "--days", "7",
             "--shards", "2", "--format", "binary"]
        )
        assert rc == 0
        sharded = open_shards(out)
        assert all(s.format == "binary" for s in sharded.manifest.shards)
        assert sorted(p.name for p in out.glob("shard-*")) == [
            "shard-00000.bin",
            "shard-00001.bin",
        ]

    def test_convert_file_round_trips(self, tmp_path, capsys):
        from repro.traces import detect_format, load_dataset

        jsonl = tmp_path / "trace.jsonl"
        cli.main(["generate", str(jsonl), "--machines", "2", "--days", "7"])
        capsys.readouterr()
        binary = tmp_path / "trace.bin"
        rc = cli.main(["convert", str(jsonl), str(binary)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "binary" in out
        assert detect_format(binary) == "binary"

        back = tmp_path / "back.jsonl"
        rc = cli.main(["convert", str(binary), str(back), "--format", "jsonl"])
        assert rc == 0
        capsys.readouterr()
        assert back.read_bytes() == jsonl.read_bytes()
        assert load_dataset(binary).equals(load_dataset(jsonl))

    def test_convert_shard_store(self, tmp_path, capsys, reference_stdout):
        from repro.traces.shards import open_shards

        src = tmp_path / "store"
        cli.main(
            ["generate", str(src), "--machines", "4", "--days", "7",
             "--shards", "2"]
        )
        capsys.readouterr()
        dst = tmp_path / "store-bin"
        rc = cli.main(["convert", str(src), str(dst)])
        assert rc == 0
        capsys.readouterr()

        rc_src = cli.main(["analyze", "--trace", str(src)])
        text_src = capsys.readouterr().out
        rc = cli.main(["analyze", "--trace", str(dst)])
        text_dst = capsys.readouterr().out
        assert rc == rc_src == 0
        assert text_dst == text_src
        assert text_src == reference_stdout(open_shards(src).load_full())

    def test_analyze_builds_no_event_objects(
        self, small_dataset, tmp_path, reference_stdout
    ):
        """``analyze --trace t.bin`` folds the file's columns: a fresh
        interpreter that counts ``UnavailabilityEvent`` instances builds
        none, and prints the per-event reference's text."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.traces.io import save_dataset

        path = tmp_path / "t.bin"
        save_dataset(small_dataset, path)
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _COUNTING_ANALYZE, str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        text, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        assert json.loads(last) == {"events_built": 0, "rc": 0}
        assert text + "\n" == reference_stdout(small_dataset)

    def test_convert_writes_manifest_io_section(self, tmp_path, capsys):
        import json

        jsonl = tmp_path / "trace.jsonl"
        cli.main(["generate", str(jsonl), "--machines", "2", "--days", "7"])
        capsys.readouterr()
        metrics = tmp_path / "manifest.json"
        rc = cli.main(
            ["convert", str(jsonl), str(tmp_path / "trace.bin"),
             "--metrics-out", str(metrics)]
        )
        assert rc == 0
        doc = json.loads(metrics.read_text())
        assert doc["io"]["jsonl"]["bytes_read"] > 0
        assert doc["io"]["binary"]["bytes_written"] > 0
        assert doc["io"]["binary"]["encode_seconds"]["count"] == 1
