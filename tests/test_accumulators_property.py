"""Merge-equivalence property suite for the streaming accumulators.

The contract under test, for *any* fleet, *any* contiguous shard
partition (including shards holding a single machine or no events at
all), and *any* merge order:

* Table 2 cause counts and the Figure 7 hourly histogram equal the
  monolithic analysis **exactly** — they are sums of integer counts, so
  neither the partition nor the merge order can perturb them;
* Figure 6 CDF values are exact at every fixed-grid point (they are
  integer-count quotients with a partition-independent denominator);
* the interval means (and the streamed summary statistics) are float
  sums, so they carry a documented tolerance
  (:data:`repro.analysis.accumulators.MEAN_RTOL`) instead of exact
  equality — reassociating float additions across merges is allowed to
  move the last bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cause_breakdown,
    daily_pattern,
    interval_distribution,
)
from repro.analysis.accumulators import (
    FIG6_GRID,
    MEAN_RTOL,
    FleetAccumulator,
    merge_reduce,
)
from repro.analysis.streaming import analyze_dataset_streaming
from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.traces.dataset import TraceDataset
from repro.traces.records import EventColumns
from repro.traces.shards import partition_machines
from repro.units import DAY

# The monolithic landmarks take np.mean of empty sides by design (NaN);
# the property suite exercises those fleets on purpose.
pytestmark = [
    pytest.mark.filterwarnings("ignore:Mean of empty slice"),
    pytest.mark.filterwarnings("ignore:invalid value encountered"),
]

_STATES = (AvailState.S3, AvailState.S4, AvailState.S5)


@st.composite
def fleets(draw) -> TraceDataset:
    """Small arbitrary fleets: whole-day spans, any start weekday, any
    mix of busy and event-free machines."""
    n_machines = draw(st.integers(min_value=1, max_value=5))
    n_days = draw(st.integers(min_value=1, max_value=9))
    span = float(n_days * DAY)
    start_weekday = draw(st.integers(min_value=0, max_value=6))
    events = []
    for m in range(n_machines):
        n_ev = draw(st.integers(min_value=0, max_value=6))
        if not n_ev:
            continue
        bounds = sorted(
            draw(
                st.lists(
                    st.floats(
                        min_value=1.0,
                        max_value=span - 1.0,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    min_size=2 * n_ev,
                    max_size=2 * n_ev,
                    unique=True,
                )
            )
        )
        for i in range(n_ev):
            events.append(
                UnavailabilityEvent(
                    machine_id=m,
                    start=bounds[2 * i],
                    end=bounds[2 * i + 1],
                    state=draw(st.sampled_from(_STATES)),
                )
            )
    return TraceDataset(
        events=events,
        n_machines=n_machines,
        span=span,
        start_weekday=start_weekday,
        hourly_load=None,
        metadata={},
    )


@st.composite
def sharded_fleets(draw):
    """A fleet plus a partition and a merge-order permutation over it."""
    fleet = draw(fleets())
    n_shards = draw(st.integers(min_value=1, max_value=8))
    ranges = partition_machines(fleet.n_machines, n_shards)
    order = draw(st.permutations(range(len(ranges))))
    return fleet, ranges, order


def _partials(fleet, ranges) -> list[FleetAccumulator]:
    columns = EventColumns.from_dataset(fleet)
    partials = []
    for lo, hi in ranges:
        acc = FleetAccumulator.for_fleet(fleet)
        acc.update_columns(columns.slice_machines(lo, hi), machine_lo=lo)
        partials.append(acc)
    return partials


def _fold(fleet, ranges, order):
    acc = FleetAccumulator.for_fleet(fleet)
    for index in order:
        acc.merge(_partials(fleet, ranges)[index])
    return acc.finalize()


def _assert_landmarks_close(streamed: dict, monolithic: dict) -> None:
    assert streamed.keys() == monolithic.keys()
    for key, expected in monolithic.items():
        got = streamed[key]
        if math.isnan(expected):
            assert math.isnan(got), key
        elif key.endswith("_mean_h"):
            assert got == pytest.approx(expected, rel=MEAN_RTOL), key
        else:
            # Fractions are integer-count quotients: exactly equal.
            assert got == expected, key


class TestMergeEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(sharded_fleets())
    def test_integer_statistics_exact_for_any_partition_and_order(self, case):
        fleet, ranges, order = case
        analysis = _fold(fleet, ranges, order)
        expected = cause_breakdown(fleet)
        np.testing.assert_array_equal(analysis.breakdown.totals, expected.totals)
        np.testing.assert_array_equal(analysis.breakdown.cpu, expected.cpu)
        np.testing.assert_array_equal(analysis.breakdown.memory, expected.memory)
        np.testing.assert_array_equal(
            analysis.breakdown.revocation, expected.revocation
        )
        np.testing.assert_array_equal(
            analysis.breakdown.reboots, expected.reboots
        )
        np.testing.assert_array_equal(
            analysis.pattern.counts, daily_pattern(fleet).counts
        )

    @settings(max_examples=30, deadline=None)
    @given(sharded_fleets())
    def test_figure6_cdf_exact_on_grid(self, case):
        fleet, ranges, order = case
        analysis = _fold(fleet, ranges, order)
        dist = interval_distribution(fleet)
        streamed = analysis.intervals
        assert streamed.weekday_count == dist.weekday_count
        assert streamed.weekend_count == dist.weekend_count
        if dist.weekday_count and dist.weekend_count:
            _, wk, we = dist.cdf_series(FIG6_GRID)
            _, swk, swe = streamed.cdf_series(FIG6_GRID)
            np.testing.assert_array_equal(swk, wk)
            np.testing.assert_array_equal(swe, we)
        _assert_landmarks_close(streamed.landmarks(), dist.landmarks())

    @settings(max_examples=20, deadline=None)
    @given(sharded_fleets())
    def test_tree_merge_equals_linear_fold(self, case):
        fleet, ranges, _ = case
        linear = _fold(fleet, ranges, range(len(ranges)))
        tree = merge_reduce(_partials(fleet, ranges)).finalize()
        np.testing.assert_array_equal(
            tree.breakdown.totals, linear.breakdown.totals
        )
        np.testing.assert_array_equal(tree.pattern.counts, linear.pattern.counts)
        assert tree.intervals.weekday_n == linear.intervals.weekday_n
        assert tree.intervals.weekend_n == linear.intervals.weekend_n
        np.testing.assert_array_equal(
            tree.intervals.weekday_cum, linear.intervals.weekday_cum
        )
        np.testing.assert_array_equal(
            tree.intervals.weekend_cum, linear.intervals.weekend_cum
        )
        assert tree.summary.n == linear.summary.n
        if linear.summary.n:
            assert tree.summary.mean == pytest.approx(
                linear.summary.mean, rel=MEAN_RTOL
            )

    @settings(max_examples=20, deadline=None)
    @given(fleets(), st.integers(min_value=1, max_value=8))
    def test_streaming_entrypoint_matches_monolithic(self, fleet, n_shards):
        analysis = analyze_dataset_streaming(fleet, n_shards)
        np.testing.assert_array_equal(
            analysis.breakdown.totals, cause_breakdown(fleet).totals
        )
        np.testing.assert_array_equal(
            analysis.pattern.counts, daily_pattern(fleet).counts
        )
        _assert_landmarks_close(
            analysis.intervals.landmarks(),
            interval_distribution(fleet).landmarks(),
        )
