"""Merge-equivalence property suite for the streaming accumulators.

The contract under test, for *any* fleet, *any* contiguous shard
partition (including shards holding a single machine or no events at
all), and *any* merge order, the fold equals the per-event reference by
``==``:

* Table 2 cause counts and the Figure 7 hourly histogram — sums of
  integer counts, so neither the partition nor the merge order can
  perturb them;
* Figure 6 CDF values at every fixed-grid point and the landmark
  fractions — integer-count quotients with a partition-independent
  denominator;
* the interval means — exact integer sums in units of 2**-1074,
  rounded once by the same helper on both paths, so they too are equal
  to the last bit (and equal to the correctly rounded mean computed
  with :class:`fractions.Fraction`, independent of both paths).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cause_breakdown,
    daily_pattern,
    interval_distribution,
)
from repro.analysis.accumulators import FIG6_GRID, FleetAccumulator
from repro.analysis.stats import exact_mean, exact_sum
from repro.analysis.streaming import analyze_columns
from repro.core.events import UnavailabilityEvent
from repro.core.states import AvailState
from repro.traces.dataset import TraceDataset
from repro.traces.records import EventColumns
from repro.traces.shards import partition_machines
from repro.units import DAY

# The per-event landmark fractions take np.mean of empty sides by design
# (NaN); the property suite exercises those fleets on purpose.
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


def _assert_landmarks_equal(streamed: dict, monolithic: dict) -> None:
    assert streamed.keys() == monolithic.keys()
    for key, expected in monolithic.items():
        got = streamed[key]
        if math.isnan(expected):
            assert math.isnan(got), key
        else:
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
        _assert_landmarks_equal(streamed.landmarks(), dist.landmarks())

    @settings(max_examples=20, deadline=None)
    @given(fleets())
    def test_streaming_entrypoint_matches_monolithic(self, fleet):
        analysis = analyze_columns(EventColumns.from_dataset(fleet))
        np.testing.assert_array_equal(
            analysis.breakdown.totals, cause_breakdown(fleet).totals
        )
        np.testing.assert_array_equal(
            analysis.pattern.counts, daily_pattern(fleet).counts
        )
        _assert_landmarks_equal(
            analysis.intervals.landmarks(),
            interval_distribution(fleet).landmarks(),
        )


#: Finite non-negative doubles, the extremes included: the smallest
#: subnormal and values near the top of the range.
_DOUBLES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e300]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def split_doubles(draw):
    """A list of doubles, a split of it into parts, and a merge order."""
    xs = draw(st.lists(_DOUBLES, max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(xs)), max_size=6)))
    bounds = [0, *cuts, len(xs)]
    parts = [xs[a:b] for a, b in zip(bounds, bounds[1:])]
    order = draw(st.permutations(range(len(parts))))
    return xs, parts, order


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(split_doubles())
    def test_equals_fraction_sum_under_any_split_and_order(self, case):
        xs, parts, order = case
        expected = sum(map(Fraction, xs), Fraction(0))
        whole = exact_sum(np.array(xs, dtype=float))
        assert Fraction(whole, 2**1074) == expected
        merged = 0
        for index in order:
            merged += exact_sum(np.array(parts[index], dtype=float))
        assert merged == whole
        if xs:
            assert exact_mean(whole, len(xs)) == float(expected / len(xs))
        else:
            assert math.isnan(exact_mean(whole, 0))


class TestExactMeans:
    """The fold's means equal the per-event reference's, and both equal
    the correctly rounded mean."""

    def test_fold_equals_reference_on_medium_dataset(self, medium_dataset):
        n = medium_dataset.n_machines
        ranges = partition_machines(n, n)  # one machine per shard
        analysis = _fold(medium_dataset, ranges, range(n))
        reference = interval_distribution(medium_dataset).landmarks()
        assert analysis.intervals.landmarks() == reference

    def test_reference_means_are_correctly_rounded(self, small_dataset):
        dist = interval_distribution(small_dataset)
        landmarks = dist.landmarks()
        for key, hours in (
            ("weekday_mean_h", dist.weekday_hours),
            ("weekend_mean_h", dist.weekend_hours),
        ):
            exact = sum(map(Fraction, hours.tolist())) / hours.size
            assert landmarks[key] == float(exact), key
