"""Tests for the fluid load-signal synthesizer and trace generator."""

import dataclasses

import numpy as np
import pytest

from repro.config import FgcsConfig, TestbedConfig
from repro.core import detect_events, MultiStateModel
from repro.core.states import AvailState
from repro.errors import ConfigError
from repro.units import DAY, HOUR
from repro.workloads.labuser import EpisodeKind
from repro.workloads.loadmodel import MachineTraceGenerator


@pytest.fixture(scope="module")
def gen():
    cfg = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=3, duration=7 * DAY),
        seed=17,
    )
    return MachineTraceGenerator(cfg)


@pytest.fixture(scope="module")
def trace(gen):
    return gen.generate(0)


class TestSignalSynthesis:
    def test_sample_grid(self, trace, gen):
        period = gen.config.monitor.period
        assert trace.samples.times[0] == pytest.approx(period)
        diffs = np.diff(trace.samples.times)
        np.testing.assert_allclose(diffs, period)

    def test_load_bounds(self, trace):
        assert trace.samples.host_load.min() >= 0.0
        assert trace.samples.host_load.max() <= 1.0

    def test_baseline_below_th2(self, trace, gen):
        """Outside planted CPU episodes the load never crosses Th2."""
        th2 = gen.config.thresholds.th2
        over = trace.samples.host_load > th2
        t_over = trace.samples.times[over]
        cpu_eps = [
            e
            for e in trace.episodes
            if e.kind in (EpisodeKind.CPU, EpisodeKind.UPDATEDB, EpisodeKind.TRANSIENT)
        ]
        for t in t_over[:: max(1, len(t_over) // 50)]:
            assert any(e.start <= t < e.end + 10.0 for e in cpu_eps)

    def test_cpu_episodes_above_th2(self, trace, gen):
        th2 = gen.config.thresholds.th2
        for e in trace.episodes:
            if e.kind is EpisodeKind.CPU and e.duration > 60:
                mask = (trace.samples.times >= e.start + 10) & (
                    trace.samples.times < e.end
                )
                assert np.all(trace.samples.host_load[mask] > th2)

    def test_memory_episodes_exhaust_memory(self, trace):
        from repro.core.model import DEFAULT_GUEST_WORKING_SET_MB

        for e in trace.episodes:
            if e.kind is EpisodeKind.MEMORY and e.duration > 60:
                mask = (trace.samples.times >= e.start + 10) & (
                    trace.samples.times < e.end
                )
                assert np.all(
                    trace.samples.free_mb[mask] < DEFAULT_GUEST_WORKING_SET_MB
                )

    def test_urr_marks_machine_down(self):
        """A workload with frequent revocation marks the machine down."""
        from repro.config import LabWorkloadConfig

        cfg = dataclasses.replace(
            FgcsConfig(),
            testbed=TestbedConfig(n_machines=1, duration=7 * DAY),
            lab=LabWorkloadConfig(
                reboot_rate_per_month=40.0, failure_rate_per_month=8.0
            ),
            seed=5,
        )
        trace = MachineTraceGenerator(cfg).generate(0)
        urr = [e for e in trace.episodes if e.kind.is_urr]
        assert urr, "plan should contain URR"
        for e in urr:
            mask = (trace.samples.times >= e.start + 10.01) & (
                trace.samples.times < e.end
            )
            if mask.any():
                assert not trace.samples.machine_up[mask].any()

    def test_columnar_rejects_overlapping_episodes(self, gen):
        # The columnar synthesizer writes all episodes with one scatter per
        # length group, which is only the legacy result when none overlap.
        from repro.workloads.labuser import PlannedEpisode
        from repro.workloads.loadmodel import (
            synth_context,
            synthesize_samples_columns,
        )

        episodes = [
            PlannedEpisode(EpisodeKind.CPU, 600.0, 1800.0),
            PlannedEpisode(EpisodeKind.MEMORY, 1200.0, 2400.0),
        ]
        with pytest.raises(ConfigError, match="disjoint"):
            synthesize_samples_columns(
                episodes,
                config=gen.config,
                ctx=synth_context(gen.config),
                rng=np.random.default_rng(0),
            )


class TestDetectionRoundTrip:
    """The detector must recover exactly the planted detectable episodes."""

    def test_event_counts_match_plan(self, gen):
        model = MultiStateModel(thresholds=gen.config.thresholds)
        for mid in range(3):
            tr = gen.generate(mid)
            events = detect_events(
                tr.samples, machine_id=mid, model=model, end_time=tr.span
            )
            planted = [e for e in tr.episodes if e.kind.is_detectable]
            assert len(events) == len(planted)

    def test_event_kinds_match_plan(self, gen, trace):
        model = MultiStateModel(thresholds=gen.config.thresholds)
        events = detect_events(
            trace.samples, machine_id=0, model=model, end_time=trace.span
        )
        planted = [e for e in trace.episodes if e.kind.is_detectable]
        kind_to_state = {
            EpisodeKind.CPU: AvailState.S3,
            EpisodeKind.UPDATEDB: AvailState.S3,
            EpisodeKind.MEMORY: AvailState.S4,
            EpisodeKind.REBOOT: AvailState.S5,
            EpisodeKind.FAILURE: AvailState.S5,
        }
        for ev, ep in zip(events, planted):
            assert ev.state is kind_to_state[ep.kind]
            # Detection latency bounded by one monitor period.
            assert abs(ev.start - ep.start) <= gen.config.monitor.period + 1e-6

    def test_transients_not_detected(self, gen, trace):
        model = MultiStateModel(thresholds=gen.config.thresholds)
        events = detect_events(
            trace.samples, machine_id=0, model=model, end_time=trace.span
        )
        transients = [
            e for e in trace.episodes if e.kind is EpisodeKind.TRANSIENT
        ]
        assert transients, "plan should include transients"
        for tr_ep in transients:
            for ev in events:
                # No event matches a transient's time span.
                assert not (
                    abs(ev.start - tr_ep.start) < 30.0
                    and ev.duration < 2 * 60.0
                )


class TestGenerator:
    def test_deterministic(self, gen):
        t1 = gen.generate(1)
        t2 = gen.generate(1)
        np.testing.assert_array_equal(t1.samples.host_load, t2.samples.host_load)
        assert t1.episodes == t2.episodes

    def test_machines_differ(self, gen):
        t0, t1 = gen.generate(0), gen.generate(1)
        assert not np.array_equal(t0.samples.host_load, t1.samples.host_load)

    def test_machine_id_validated(self, gen):
        with pytest.raises(ConfigError):
            gen.generate(99)

    def test_busyness_in_declared_range(self, gen):
        for mid in range(3):
            assert 0.86 <= gen.busyness(mid) <= 1.04

    def test_hourly_mean_load_shape(self, gen, trace):
        hourly = gen.hourly_mean_load(trace)
        assert hourly.shape == (int(trace.span // HOUR),)
        finite = hourly[~np.isnan(hourly)]
        assert finite.min() >= 0.0
        assert finite.max() <= 1.0

    def test_hourly_load_shows_diurnal_pattern(self, gen, trace):
        hourly = gen.hourly_mean_load(trace)
        days = hourly.reshape(-1, 24)
        day_mean = np.nanmean(days[:, 11:17])
        night_mean = np.nanmean(days[:, 0:3])
        assert day_mean > night_mean
