"""Additional CLI coverage: landmark checking, error paths, help text.

The exit-code contract: ``0`` success, ``1`` a failed landmark check
(or a ``report --compare`` regression), ``2`` invalid input or an
unrecoverable fault — one ``error:`` line, never a traceback.
"""

import pytest

from repro import cli
from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.traces.dataset import TraceDataset
from repro.traces.io import save_dataset
from repro.units import DAY, HOUR


def _tiny_trace(path, span: float):
    """One machine with two events inside a ``span``-second trace."""
    events = [
        UnavailabilityEvent(0, 1 * HOUR, 1 * HOUR + 400.0, AvailState.S3),
        UnavailabilityEvent(0, 2 * HOUR, 2 * HOUR + 100.0, AvailState.S5),
    ]
    save_dataset(TraceDataset(events, n_machines=1, span=span), path)
    return path


#: Tiny traces: less than a day, and one weekday only.
TINY_SPANS = {"six-hours": 6 * HOUR, "one-weekday": DAY}

#: Everything ``report`` writes for a trace long enough for all of it.
REPORT_ARTIFACTS = sorted(
    f"{name}.txt"
    for name in (
        "table2", "figure6", "figure7", "interval_fits", "hazard",
        "predictability", "weekday_profile", "capacity", "landmarks",
    )
)


class TestAnalyzeCheck:
    def test_check_flag_runs_landmarks(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        cli.main(["generate", str(trace), "--machines", "4", "--days", "21",
                  "--seed", "42"])
        capsys.readouterr()
        rc = cli.main(["analyze", "--trace", str(trace), "--check"])
        out = capsys.readouterr().out
        assert "PASS" in out or "FAIL" in out
        # A small trace may fail some count-range landmarks; the command
        # must still render everything before returning its verdict.
        assert "Table 2" in out
        assert rc in (0, 1)

    def test_analyze_includes_ascii_charts(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        cli.main(["generate", str(trace), "--machines", "2", "--days", "14"])
        capsys.readouterr()
        cli.main(["analyze", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert "weekday" in out and "weekend" in out
        assert "|" in out  # chart gutters


def _error_line(capsys, rc: int) -> str:
    """The one ``error:`` line of an exit-2 run, with no traceback."""
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if ln.startswith("error:")]
    return line


#: ``predict`` and ``schedule`` on the six-hour trace (0 whole days)
#: with the default 63 training days.
TOO_SHORT_TO_TRAIN = (
    "error: train_days must be at least 1 and leave a test day; got 63 "
    "for a trace of 0 whole day(s), and a split needs at least 2"
)


class TestErrorPaths:
    def test_missing_trace_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        rc = cli.main(["analyze", "--trace", str(missing)])
        assert _error_line(capsys, rc).startswith(
            f"error: cannot read trace {missing}: "
        )

    def test_file_that_is_not_a_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a trace\n")
        rc = cli.main(["analyze", "--trace", str(bad)])
        assert _error_line(capsys, rc).startswith(f"error: {bad}: bad header")

    def test_trace_too_short_to_train_on(self, tmp_path, capsys):
        trace = _tiny_trace(tmp_path / "t.jsonl", TINY_SPANS["six-hours"])
        rc = cli.main(["predict", "--trace", str(trace)])
        assert _error_line(capsys, rc) == TOO_SHORT_TO_TRAIN

    def test_schedule_trace_too_short_to_train_on(self, tmp_path, capsys):
        trace = _tiny_trace(tmp_path / "t.jsonl", TINY_SPANS["six-hours"])
        rc = cli.main(["schedule", "--trace", str(trace)])
        assert _error_line(capsys, rc) == TOO_SHORT_TO_TRAIN

    def test_report_does_not_swallow_a_bug(self, tmp_path, monkeypatch):
        # Only a ReproError (too few intervals) skips an artifact.
        def broken(*args, **kwargs):
            raise ValueError("a bug in hazard_curve")

        monkeypatch.setattr("repro.analysis.hazard.hazard_curve", broken)
        trace = _tiny_trace(tmp_path / "t.jsonl", TINY_SPANS["one-weekday"])
        with pytest.raises(ValueError, match="a bug in hazard_curve"):
            cli.main(["report", str(tmp_path / "rep"), "--trace", str(trace)])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["generate", "x.jsonl", "--profile", "mars-rover"]
            )

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for cmd in ("generate", "analyze", "thresholds", "predict",
                    "schedule", "report"):
            assert cmd in out


@pytest.mark.parametrize("span", TINY_SPANS.values(), ids=TINY_SPANS.keys())
@pytest.mark.filterwarnings("error")
class TestTinyTraces:
    """A trace too short for some artifacts skips them, says why, and
    warns about nothing."""

    def test_report_writes_every_artifact(self, tmp_path, capsys, span):
        trace = _tiny_trace(tmp_path / "t.jsonl", span)
        rc = cli.main(["report", str(tmp_path / "rep"), "--trace", str(trace)])
        out, err = capsys.readouterr()
        assert rc == 1  # two events cannot meet the paper's landmarks
        written = sorted(p.name for p in (tmp_path / "rep").iterdir())
        assert written == ["landmarks.txt", "table2.txt"]
        skipped = [
            line.split(" skipped: ")[0]
            for line in out.splitlines()
            if " skipped: " in line
        ]
        assert sorted(written + skipped) == REPORT_ARTIFACTS
        assert "Warning" not in err and "Traceback" not in err

    def test_analyze_check_prints_no_warning(self, tmp_path, capsys, span):
        trace = _tiny_trace(tmp_path / "t.jsonl", span)
        rc = cli.main(["analyze", "--trace", str(trace), "--check"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "Table 2" in out
        assert "Warning" not in err and "Traceback" not in err


class TestReportExitCode:
    def test_report_reflects_landmark_outcome(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        cli.main(["generate", str(trace), "--machines", "4", "--days", "21",
                  "--seed", "42"])
        capsys.readouterr()
        rc = cli.main(["report", str(tmp_path / "rep"), "--trace", str(trace)])
        # rc mirrors the landmark verdict (small traces may drift on the
        # count-range landmarks); the artifacts must exist either way.
        assert rc in (0, 1)
        written = sorted(p.name for p in (tmp_path / "rep").iterdir())
        assert written == REPORT_ARTIFACTS
        assert " skipped: " not in capsys.readouterr().out
