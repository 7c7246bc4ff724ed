"""Self-tests of the benchmark: ``python3 -m pytest perfbench/test_perfbench.py``.

They cover the percentile/sample-count rule, the metric names and units
declared in ``BENCHMARK.json``, and the correctness gates' response to a
corrupted served answer and to a batch analysis one event off.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gates  # noqa: E402
from percentiles import MIN_BEYOND, Summary, nearest_rank, tail_percentile  # noqa: E402
from workload import END_TO_END, PER_LAYER, UNITS, WORKLOADS  # noqa: E402

# -- the percentile rule --------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0),
     (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    values = list(range(n))
    if expected is not None:
        beyond = sum(1 for v in values if v > nearest_rank(values, expected))
        assert beyond >= MIN_BEYOND


def test_unsupported_tail_refuses():
    with pytest.raises(ValueError, match="p99 needs 1000 samples, have 999"):
        Summary([0.001] * 999).pct(99)


def test_nearest_rank_returns_an_observed_sample():
    values = [float(i) for i in range(1, 1001)]
    assert nearest_rank(values, 50) == 500.0
    assert nearest_rank(values, 99) == 990.0
    assert Summary(values).pct(99) == 990.0


def test_failures_miss_every_latency_limit():
    summary = Summary([0.001] * 985, failures=15)
    assert summary.n == 1000
    assert summary.p50 == 0.001
    assert math.isinf(summary.pct(99))


# -- names and units ------------------------------------------------------------


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_every_metric_with_its_unit():
    declared = _declared()
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert set(names) == set(UNITS)
    for metric in metrics:
        assert metric["unit"] == UNITS[metric["name"]], metric["name"]


def test_every_workload_reports_every_declared_metric():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


# -- the correctness gate -------------------------------------------------------


def _predictor():
    """The batch predictor over three machines' 14 days of streamed-style events."""
    rows = gates.streamed_rows(
        [
            [m, d * gates.DAY + h * 3600.0 + 60.0, d * gates.DAY + h * 3600.0 + 600.0, 3]
            for m in range(3)
            for d in range(14)
            for h in (9, 14)
            if (m + d) % 3
        ]
    )
    return gates.oracle(rows, n_machines=3, horizon_day=14, start_weekday=0)


def test_gate_accepts_the_batch_answer_and_trips_on_a_corrupted_one():
    predictor = _predictor()
    query = (1, 14, 9.0, 2.0)
    survival, count = gates.expected(predictor, query)
    served = {"machine": 1, "survival": survival, "expected_events": count}
    assert gates.mismatches([(query, served)], predictor) == []

    corrupted = dict(served, survival=math.nextafter(survival, 2.0))
    problems = gates.mismatches([(query, corrupted)], predictor)
    assert len(problems) == 1 and "machine 1 day 14" in problems[0]

    wrong_machine = dict(served, machine=2)
    assert gates.mismatches([(query, wrong_machine)], predictor)


def test_corrupted_answer_fails_its_request_and_the_run():
    from loadgen import Record
    from serve_bench import _check_samples, _sample_answers
    from workload import Result

    predictor = _predictor()
    queries = [(0, 13, 9.0, 1.0), (1, 14, 9.0, 2.0)]
    records = []
    for i, query in enumerate(queries):
        survival, count = gates.expected(predictor, query)
        if i == 1:
            survival = survival / 2 + 0.25
        payload = {"machine": query[0], "survival": survival, "expected_events": count}
        records.append(Record(i, 0.0, 0.0, 0.001, 200, None, payload=json.dumps(payload).encode()))
    samples, malformed = _sample_answers(records, queries, lambda i: True)
    result = Result()
    result.gate("serve-read", "sampled answers == batch", _check_samples(samples, predictor) + malformed)
    assert [r.failure for r in records] == [None, "wrong-answer"]
    assert len(result.gate_failures) == 1
    assert result.gate_failures[0].startswith("serve-read: sampled answers == batch: machine 1")


def test_batch_gate_trips_on_one_event_the_rendered_text_hides():
    from types import SimpleNamespace

    import numpy as np

    from batch_child import digest, mismatches, raw_results

    counts = np.arange(6, dtype=np.int64)
    breakdown = SimpleNamespace(
        totals=counts, cpu=counts, memory=counts, revocation=counts, reboots=counts
    )
    intervals = SimpleNamespace(weekday_count=40, weekend_count=12)
    pattern = SimpleNamespace(counts=np.ones((2, 24), dtype=np.int64))
    arrays = raw_results(breakdown, intervals, pattern)
    assert mismatches("table", arrays, "table", raw_results(breakdown, intervals, pattern)) == []

    one_more = pattern.counts.copy()
    one_more[1, 9] += 1
    other = raw_results(breakdown, intervals, SimpleNamespace(counts=one_more))
    assert mismatches("table", arrays, "table", other) == ["pattern.counts"]
    assert digest("table", arrays) != digest("table", other)
