"""Tests for the metrics registry: counters, gauges, histograms, spans.

Covers the satellite contract: counter/histogram semantics, span
nesting, zero-cost disabled mode, and registry injection.
"""

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    span,
    use_registry,
)


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        assert reg.counter_value("a") == 3

    def test_zero_inc_declares(self):
        reg = MetricsRegistry()
        reg.inc("declared", 0)
        assert reg.snapshot()["counters"] == {"declared": 0}

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_float_increments(self):
        reg = MetricsRegistry()
        reg.inc("t", 0.5)
        reg.inc("t", 0.25)
        assert reg.counter_value("t") == pytest.approx(0.75)


class TestGauges:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("workers", 2)
        reg.gauge("workers", 8)
        assert reg.snapshot()["gauges"]["workers"] == 8


class TestHistogram:
    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}

    def test_percentile_semantics(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(v)
        s = h.summary()
        assert s["count"] == 100
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == 50  # nearest-rank
        assert s["p95"] == 95
        assert s["max"] == 100

    def test_single_sample(self):
        h = Histogram()
        h.observe(3.5)
        s = h.summary()
        assert s["p50"] == s["p95"] == s["max"] == 3.5

    def test_window_keeps_the_newest_samples(self):
        import numpy as np

        from repro.obs.metrics import HISTOGRAM_WINDOW

        values = np.random.default_rng(7).random(HISTOGRAM_WINDOW + 10)
        h = Histogram()
        for v in values[:100]:
            h.observe(v)
        assert "window" not in h.summary()
        for v in values[100:]:
            h.observe(v)
        kept = values[-HISTOGRAM_WINDOW:]
        assert h.samples == tuple(kept)
        assert len(h) == len(values)
        s = h.summary()
        assert (s["count"], s["window"], s["max"]) == (
            len(values), HISTOGRAM_WINDOW, kept.max()
        )
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            expected = np.quantile(kept, q, method="inverted_cdf")
            assert h.quantile(q) == expected
        assert s["p50"] == np.quantile(kept, 0.5, method="inverted_cdf")
        assert s["p99"] == np.quantile(kept, 0.99, method="inverted_cdf")

    def test_window_is_named_only_once_samples_were_dropped(self):
        # /v1/stats summarizes outside the registry lock, so an observe
        # on a handler thread may land between the sort of the kept
        # samples and the read of the count.
        from collections import deque

        h = Histogram()

        class Racing(deque):
            def __iter__(self):
                kept = list(super().__iter__())
                h.observe(9.0)  # another thread's sample, just too late
                return iter(kept)

        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        h._samples = Racing(h._samples, maxlen=h._samples.maxlen)
        s = h.summary()
        assert (s["count"], s["max"]) == (4, 3.0)
        assert "window" not in s

    def test_registry_observe_and_timer(self):
        reg = MetricsRegistry()
        reg.observe("x", 1.0)
        with reg.timer("x"):
            pass
        assert reg.snapshot()["histograms"]["x"]["count"] == 2


class TestSpans:
    def test_nesting_structure(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner-1"):
                pass
            with reg.span("inner-2"):
                pass
        (outer,) = reg.snapshot()["spans"]
        assert outer["name"] == "outer"
        assert [c["name"] for c in outer["children"]] == ["inner-1", "inner-2"]
        assert outer["children"][0]["children"] == []

    def test_durations_fill_and_nest(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        (outer,) = reg.snapshot()["spans"]
        inner = outer["children"][0]
        assert outer["duration_s"] >= inner["duration_s"] >= 0.0

    def test_sequential_roots(self):
        reg = MetricsRegistry()
        with reg.span("a"):
            pass
        with reg.span("b"):
            pass
        assert [s["name"] for s in reg.snapshot()["spans"]] == ["a", "b"]

    def test_span_survives_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("boom"):
                raise RuntimeError("x")
        (rec,) = reg.snapshot()["spans"]
        assert rec["duration_s"] is not None
        # The stack unwound: a new span is a root, not a child of "boom".
        with reg.span("after"):
            pass
        assert [s["name"] for s in reg.snapshot()["spans"]] == ["boom", "after"]


class TestDisabled:
    def test_mutators_are_noops(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.gauge("g", 1)
        reg.observe("h", 1.0)
        with reg.timer("t"):
            pass
        with reg.span("s") as rec:
            assert rec is None
        assert reg.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": [],
        }

    def test_ambient_default_is_disabled(self):
        assert get_registry().enabled is False


class TestInjection:
    def test_use_registry_swaps_and_restores(self):
        before = get_registry()
        reg = MetricsRegistry()
        with use_registry(reg):
            assert get_registry() is reg
            with span("phase"):
                pass
        assert get_registry() is before
        assert [s["name"] for s in reg.snapshot()["spans"]] == ["phase"]

    def test_set_registry_none_restores_disabled(self):
        reg = MetricsRegistry()
        try:
            assert set_registry(reg) is reg
            assert get_registry() is reg
        finally:
            assert set_registry(None).enabled is False

    def test_module_level_span_on_disabled_is_noop(self):
        with span("ignored") as rec:
            assert rec is None


class TestSnapshot:
    def test_json_serializable(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.gauge("g", 1.5)
        reg.observe("h", 0.1)
        with reg.span("s"):
            pass
        json.dumps(reg.snapshot())  # must not raise

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        with reg.span("s"):
            pass
        snap = reg.snapshot()
        snap["spans"][0]["name"] = "mutated"
        assert reg.snapshot()["spans"][0]["name"] == "s"

    def test_reset_clears(self):
        reg = MetricsRegistry()
        reg.inc("c")
        with reg.span("s"):
            pass
        reg.reset()
        assert reg.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": [],
        }
        assert reg.enabled
