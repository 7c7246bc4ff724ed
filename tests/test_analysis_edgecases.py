"""Edge cases the column fold and the per-event reference must agree on.

Degenerate fleets the property suite may not pin down explicitly: an
event-free dataset, a machine with zero events inside a busy fleet, a
trace shorter than one day, and an availability interval spanning the
weekday/weekend boundary (classified by its *start*, per Figure 6).
"""

import math

import numpy as np
import pytest

from repro import cli
from repro.analysis import (
    cause_breakdown,
    daily_pattern,
    interval_distribution,
)
from repro.analysis.streaming import analyze_columns
from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.errors import ReproError
from repro.traces.dataset import TraceDataset
from repro.traces.io import save_dataset
from repro.traces.records import EventColumns
from repro.units import DAY, HOUR


def _fleet(events, n_machines, span, start_weekday=0) -> TraceDataset:
    return TraceDataset(
        events=events,
        n_machines=n_machines,
        span=float(span),
        start_weekday=start_weekday,
        hourly_load=None,
        metadata={},
    )


def _event(machine, start, end, state=AvailState.S4) -> UnavailabilityEvent:
    return UnavailabilityEvent(
        machine_id=machine, start=float(start), end=float(end), state=state
    )


def _fold(fleet: TraceDataset):
    return analyze_columns(EventColumns.from_dataset(fleet))


class TestEmptyDataset:
    def test_streaming_finalizes_with_empty_figures(self):
        fleet = _fleet([], n_machines=2, span=7 * DAY)
        analysis = _fold(fleet)
        assert analysis.breakdown.totals.sum() == 0
        # The only availability interval per machine is right-censored,
        # so Figure 6 has nothing on either side.
        assert analysis.intervals.weekday_count == 0
        assert analysis.intervals.weekend_count == 0
        assert all(math.isnan(v) for v in analysis.intervals.landmarks().values())
        with pytest.raises(ReproError):
            analysis.intervals.cdf_series()
        assert analysis.pattern.counts.sum() == 0

    def test_matches_monolithic(self):
        fleet = _fleet([], n_machines=2, span=7 * DAY)
        dist = interval_distribution(fleet)
        analysis = _fold(fleet)
        assert analysis.intervals.weekday_count == dist.weekday_count
        assert analysis.intervals.weekend_count == dist.weekend_count
        np.testing.assert_array_equal(
            analysis.pattern.counts, daily_pattern(fleet).counts
        )


class TestZeroEventMachine:
    def test_idle_machine_contributes_zero_rows(self):
        events = [
            _event(0, 2 * HOUR, 3 * HOUR),
            _event(2, 5 * HOUR, 6 * HOUR),
        ]
        fleet = _fleet(events, n_machines=3, span=7 * DAY)
        analysis = _fold(fleet)
        expected = cause_breakdown(fleet)
        np.testing.assert_array_equal(analysis.breakdown.totals, expected.totals)
        assert analysis.breakdown.totals[1] == 0
        assert analysis.intervals.weekday_count == (
            interval_distribution(fleet).weekday_count
        )


class TestSubDayTrace:
    def test_zero_day_pattern_matches_monolithic(self):
        fleet = _fleet(
            [_event(0, 1 * HOUR, 2 * HOUR)], n_machines=1, span=6 * HOUR
        )
        analysis = _fold(fleet)
        pattern = daily_pattern(fleet)
        assert pattern.counts.shape[0] == 0
        np.testing.assert_array_equal(analysis.pattern.counts, pattern.counts)
        assert analysis.breakdown.totals.sum() == 1

    def test_cli_skips_unrenderable_figures(
        self, tmp_path, capsys, reference_stdout
    ):
        """A sub-day trace (no weekend side, zero whole days) renders
        Table 2 and explains why Figures 6 and 7 are absent — exactly as
        the per-event reference renders it."""
        fleet = _fleet(
            [_event(0, 1 * HOUR, 2 * HOUR)], n_machines=1, span=6 * HOUR
        )
        trace = tmp_path / "short.jsonl"
        save_dataset(fleet, trace)
        assert cli.main(["analyze", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Figure 6 skipped" in out
        assert "Figure 7 skipped" in out
        assert out == reference_stdout(fleet)


class TestWeekendBoundaryInterval:
    def test_interval_classified_by_start(self):
        """An interval beginning Friday evening and ending Saturday counts
        as a weekday interval, in both analyses."""
        # start_weekday=4: day 0 is Friday, day 1 Saturday, day 2 Sunday.
        events = [
            _event(0, 19 * HOUR, 20 * HOUR),
            _event(0, 34 * HOUR, 34.5 * HOUR),
            _event(0, 60 * HOUR, 61 * HOUR),
        ]
        fleet = _fleet(events, n_machines=1, span=3 * DAY, start_weekday=4)
        dist = interval_distribution(fleet)
        # Only failure-bounded intervals count (the leading [0, 19h) and
        # trailing [61h, 72h) are censored): the boundary-spanning
        # [20h, 34h) starts Friday 8 PM — weekday, despite ending deep in
        # Saturday — and [34.5h, 60h) starts Saturday — weekend.
        assert dist.weekday_count == 1
        assert dist.weekend_count == 1
        assert dist.weekday_hours.tolist() == [14.0]
        streamed = _fold(fleet).intervals
        assert streamed.weekday_count == 1
        assert streamed.weekend_count == 1
        _, wk, we = dist.cdf_series()
        _, swk, swe = streamed.cdf_series()
        np.testing.assert_array_equal(swk, wk)
        np.testing.assert_array_equal(swe, we)
