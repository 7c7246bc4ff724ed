"""Differential tests for the columnar generation hot path.

The columnar pipeline (:func:`repro.traces.generate._generate_machine_columns`
→ ``BatchDetector.detect_columns`` → ``EventColumns``) must produce output
*byte-identical* to the legacy per-event-object path it replaced.  These
tests pin that contract three ways: a property test that ``detect_columns``
matches ``detect`` event-for-event on arbitrary signals, per-machine
differentials across every built-in workload profile, and end-to-end golden
byte identity of serialized traces (monolithic and sharded, any ``--jobs``).
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.config import ExecutionConfig, FgcsConfig, TestbedConfig
from repro.core.detector import BatchDetector
from repro.core.samples import SampleBatch
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION
from repro.parallel.cache import dataset_cache_key
from repro.rng import CountingRng, RngFactory
from repro.traces import (
    generate_dataset,
    generate_dataset_columns,
    generate_shards,
    save_columns,
    save_dataset,
)
from repro.traces.dataset import TraceDataset
from repro.traces.generate import (
    _generate_machine,
    _generate_machine_columns,
    dataset_metadata,
)
from repro.traces.records import EVENT_DTYPE, events_to_columns
from repro.units import DAY, HOUR
from repro.workloads import loadmodel
from repro.workloads.labuser import EpisodeKind, EpisodePlanner
from repro.workloads.loadmodel import (
    MachineTraceGenerator,
    synth_context,
    synthesize_samples,
    synthesize_samples_columns,
)
from repro.workloads.profiles import PROFILES

PERIOD = 10.0


def _tiny_config(seed=42, machines=3, days=7):
    return dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=machines, duration=days * DAY),
        seed=seed,
    )


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- detect_columns == detect, property-based ------------------------------


@st.composite
def signal(draw):
    """A segmented random monitor signal (idle/busy/over/mem/down runs), so
    every event class and NaN-mean offline stretches appear often."""
    n_segments = draw(st.integers(1, 8))
    loads, free, up = [], [], []
    for _ in range(n_segments):
        seg_len = draw(st.integers(1, 15))
        kind = draw(st.sampled_from(["idle", "busy", "over", "mem", "down"]))
        for _ in range(seg_len):
            if kind == "idle":
                loads.append(draw(st.floats(0.0, 0.19)))
                free.append(500.0)
                up.append(True)
            elif kind == "busy":
                loads.append(draw(st.floats(0.25, 0.55)))
                free.append(500.0)
                up.append(True)
            elif kind == "over":
                loads.append(draw(st.floats(0.65, 1.0)))
                free.append(500.0)
                up.append(True)
            elif kind == "mem":
                loads.append(draw(st.floats(0.0, 0.55)))
                free.append(draw(st.floats(0.0, 100.0)))
                up.append(True)
            else:
                loads.append(0.0)
                free.append(500.0)
                up.append(False)
    n = len(loads)
    return SampleBatch(
        times=(np.arange(n) + 1) * PERIOD,
        host_load=np.array(loads),
        free_mb=np.array(free),
        machine_up=np.array(up, dtype=bool),
    )


class TestDetectColumnsProperty:
    @given(signal())
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_legacy_detect(self, batch):
        end = float(batch.times[-1]) + PERIOD
        det = BatchDetector()
        legacy = events_to_columns(
            det.detect(batch, machine_id=5, end_time=end)
        )
        rows = det.detect_columns(batch, machine_id=5, end_time=end)
        assert rows.dtype == EVENT_DTYPE
        # Byte comparison covers NaN bit patterns too, which the JSONL
        # writer never sees but the binary writer serializes verbatim.
        assert rows.tobytes() == legacy.tobytes()

    def test_empty_batch(self):
        batch = SampleBatch(
            times=np.array([]),
            host_load=np.array([]),
            free_mb=np.array([]),
            machine_up=np.array([], dtype=bool),
        )
        rows = BatchDetector().detect_columns(batch)
        assert rows.dtype == EVENT_DTYPE and len(rows) == 0

    def test_all_down_open_event_uses_end_time(self):
        n = 5
        batch = SampleBatch(
            times=(np.arange(n) + 1) * PERIOD,
            host_load=np.zeros(n),
            free_mb=np.full(n, 500.0),
            machine_up=np.zeros(n, dtype=bool),
        )
        end = n * PERIOD + PERIOD
        det = BatchDetector()
        rows = det.detect_columns(batch, machine_id=1, end_time=end)
        legacy = events_to_columns(
            det.detect(batch, machine_id=1, end_time=end)
        )
        assert rows.tobytes() == legacy.tobytes()
        assert len(rows) == 1 and rows["end"][0] == end


# -- per-machine differential: legacy worker vs columnar worker ------------


class TestMachineDifferential:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("seed", [42, 7])
    def test_profiles_and_seeds(self, profile, seed):
        config = PROFILES[profile](n_machines=3, days=7, seed=seed)
        for mid in range(config.testbed.n_machines):
            events, hourly = _generate_machine((config, mid, True))
            rows, hourly_c, _, _, _ = _generate_machine_columns(
                (config, mid, mid, True, False)
            )
            assert rows.tobytes() == events_to_columns(events).tobytes()
            assert np.array_equal(hourly, hourly_c, equal_nan=True)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_samples_equal_legacy_synthesis(self, profile):
        # Column by column, bit for bit: free memory and load outside any
        # event reach the output only through means, so compare them here.
        config = PROFILES[profile](n_machines=2, days=7, seed=11)
        gen = MachineTraceGenerator(config)
        factory = RngFactory(config.seed)
        for mid in range(2):
            episodes = gen.plan(mid)
            legacy = synthesize_samples(
                episodes,
                config=config,
                profile=gen.profile,
                rng=factory.generator("signal", mid),
            )
            columnar = synthesize_samples_columns(
                episodes,
                config=config,
                ctx=synth_context(config),
                rng=factory.generator("signal", mid),
            )
            for name in ("times", "host_load", "free_mb", "machine_up"):
                want = getattr(legacy, name).tobytes()
                assert getattr(columnar, name).tobytes() == want, name

    def test_sub_hour_span(self):
        # A span shorter than an hour has no hourly cells to count.
        config = dataclasses.replace(
            _tiny_config(), testbed=TestbedConfig(n_machines=1, duration=1800.0)
        )
        events, _ = _generate_machine((config, 0, False))
        rows, hourly, _, _, _ = _generate_machine_columns(
            (config, 0, 0, False, False)
        )
        assert rows.tobytes() == events_to_columns(events).tobytes()
        assert hourly is None
        rows, hourly, _, _, _ = _generate_machine_columns(
            (config, 0, 0, True, False)
        )
        assert rows.tobytes() == events_to_columns(events).tobytes()
        assert hourly.shape == (0,)

    def test_shard_local_machine_id_relabels_only_that_column(self):
        config = _tiny_config()
        rows, _, _, _, _ = _generate_machine_columns((config, 2, 0, False, False))
        rows_global, _, _, _, _ = _generate_machine_columns(
            (config, 2, 2, False, False)
        )
        assert np.all(rows["machine_id"] == 0)
        assert np.all(rows_global["machine_id"] == 2)
        for name in ("start", "end", "state", "mean_host_load", "mean_free_mb"):
            assert np.array_equal(
                rows[name], rows_global[name], equal_nan=name.startswith("mean")
            )

    def test_draw_counters_reported(self):
        config = _tiny_config(machines=1, days=3)
        _, _, counters, synth_s, detect_s = _generate_machine_columns(
            (config, 0, 0, True, True)
        )
        assert counters["rng.draws.busyness"] == 1
        assert synth_s > 0 and detect_s > 0

        # The legacy synthesizer's variates, counted by the proxy itself:
        # however the columnar path splits or merges its draw calls, the
        # count it reports must not move.
        gen = MachineTraceGenerator(config)
        factory = RngFactory(config.seed)
        plan_rng = CountingRng(factory.generator("plan", 0))
        episodes = EpisodePlanner(
            gen.profile, plan_rng, busyness=gen.busyness(0)
        ).plan()
        kinds = {ep.kind for ep in episodes}
        assert EpisodeKind.MEMORY in kinds and EpisodeKind.CPU in kinds
        legacy_rng = CountingRng(factory.generator("signal", 0))
        synthesize_samples(
            episodes, config=config, profile=gen.profile, rng=legacy_rng
        )
        assert counters["rng.draws.plan"] == plan_rng.draws
        assert counters["rng.draws.signal"] == legacy_rng.draws

        # And the columnar path's own tally is what it really drew.
        columnar_rng = CountingRng(factory.generator("signal", 0))
        tally: dict = {}
        synthesize_samples_columns(
            episodes,
            config=config,
            ctx=synth_context(config),
            rng=columnar_rng,
            counters=tally,
        )
        assert tally["rng.draws.signal"] == columnar_rng.draws == legacy_rng.draws


class TestChunkLength:
    """Synthesis and the hourly summary run a few whole hours at a time;
    how many must not reach the output."""

    @pytest.mark.parametrize("chunk_hours", [1, 5, 10_000])
    @pytest.mark.parametrize(
        "span",
        [3 * DAY, 3 * DAY + 1800.0],
        # The second puts half an hour of samples into the clamped last hour.
        ids=["3d", "3d-plus-half-hour"],
    )
    def test_rows_and_hourly_equal_legacy(self, monkeypatch, chunk_hours, span):
        monkeypatch.setattr(loadmodel, "_CHUNK_HOURS", chunk_hours)
        config = dataclasses.replace(
            _tiny_config(), testbed=TestbedConfig(n_machines=2, duration=span)
        )
        for mid in range(2):
            events, hourly = _generate_machine((config, mid, True))
            rows, hourly_c, _, _, _ = _generate_machine_columns(
                (config, mid, mid, True, False)
            )
            assert rows.tobytes() == events_to_columns(events).tobytes()
            assert hourly_c.tobytes() == hourly.tobytes()


# -- end-to-end golden byte identity ---------------------------------------


def _legacy_dataset(config):
    """The full fleet via the per-event-object reference worker."""
    n = config.testbed.n_machines
    n_hours = int(config.testbed.duration // HOUR)
    hourly = np.full((n, n_hours), np.nan)
    events = []
    for mid in range(n):
        machine_events, hourly_row = _generate_machine((config, mid, True))
        events.extend(machine_events)
        hourly[mid, :] = hourly_row
    return TraceDataset.from_validated(
        events,
        n_machines=n,
        span=config.testbed.duration,
        start_weekday=config.testbed.start_weekday,
        hourly_load=hourly,
        metadata=dataset_metadata(config),
    )


class TestGoldenByteIdentity:
    @pytest.mark.parametrize("fmt", ["binary", "jsonl"])
    def test_monolithic_seed42(self, fmt, tmp_path):
        config = _tiny_config(seed=42)
        legacy_path = tmp_path / f"legacy.{fmt}"
        columnar_path = tmp_path / f"columnar.{fmt}"
        save_dataset(_legacy_dataset(config), legacy_path, format=fmt)
        columns = generate_dataset_columns(config)
        save_columns(columns, columnar_path, format=fmt)
        assert _sha(legacy_path) == _sha(columnar_path)

    def test_generate_dataset_equals_columns(self):
        config = _tiny_config(seed=42)
        dataset = generate_dataset(config)
        columns = generate_dataset_columns(config)
        assert columns.to_dataset().equals(dataset)

    @pytest.mark.parametrize("fmt", ["binary", "jsonl"])
    def test_shards_identical_across_jobs(self, fmt, tmp_path):
        config = _tiny_config(seed=42)
        digests = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            cfg = config.with_execution(ExecutionConfig(jobs=jobs))
            generate_shards(cfg, out, n_shards=2, format=fmt)
            digests[jobs] = {
                p.name: _sha(p) for p in sorted(out.iterdir()) if p.is_file()
            }
        assert digests[1] == digests[2]
        assert len(digests[1]) >= 3  # 2 shards + manifest


# -- cache entries are shared between the two paths ------------------------


class TestCacheInterchange:
    def test_dataset_and_columns_paths_share_one_entry(self, tmp_path):
        from repro.obs import MetricsRegistry, use_registry

        config = _tiny_config(machines=2, days=5)
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        dataset = generate_dataset(config, execution=execution)
        key = dataset_cache_key(config, keep_hourly_load=True)
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.bin"]

        registry = MetricsRegistry()
        with use_registry(registry):
            columns = generate_dataset_columns(config, execution=execution)
        assert registry.snapshot()["counters"]["cache.hit"] == 1
        assert columns.to_dataset().equals(dataset)
        fresh = generate_dataset_columns(config)
        assert columns.events.tobytes() == fresh.events.tobytes()
        assert np.array_equal(
            columns.hourly_load, fresh.hourly_load, equal_nan=True
        )


# -- CLI: analyze output and run manifests stay unchanged ------------------


class TestCliUnchanged:
    def test_streaming_analyze_matches_monolithic(
        self, tmp_path, capsys, reference_stdout
    ):
        from repro.traces import load_dataset

        mono = tmp_path / "trace.jsonl"
        shards = tmp_path / "shards"
        common = ["--machines", "3", "--days", "7", "--seed", "42"]
        assert cli.main(["generate", str(mono), *common]) == 0
        assert (
            cli.main(["generate", str(shards), "--shards", "2", *common]) == 0
        )
        capsys.readouterr()

        assert cli.main(["analyze", "--trace", str(mono)]) == 0
        mono_text = capsys.readouterr().out
        assert cli.main(["analyze", "--trace", str(shards)]) == 0
        streaming_text = capsys.readouterr().out
        assert streaming_text == mono_text
        assert mono_text == reference_stdout(load_dataset(mono))
        assert "Table 2" in mono_text

    def test_manifest_v5_generation_section(self, tmp_path):
        out = tmp_path / "trace.bin"
        manifest_path = tmp_path / "manifest.json"
        rc = cli.main(
            [
                "generate",
                str(out),
                "--format",
                "binary",
                "--machines",
                "2",
                "--days",
                "5",
                "--metrics-out",
                str(manifest_path),
            ]
        )
        assert rc == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"]["manifest"] == MANIFEST_SCHEMA_VERSION
        generation = manifest["generation"]
        assert generation["synth_seconds"]["count"] == 2
        assert generation["detect_seconds"]["count"] == 2
        draws = generation["rng_draws"]
        assert draws["busyness"] == 2
        assert draws["plan"] > 0 and draws["signal"] > 0

    def test_plain_generate_wraps_no_rng(self, tmp_path, monkeypatch):
        # Draws are counted only when a telemetry output is asked for;
        # then the manifest reports what the streams really yielded.
        import repro.traces.generate as generate_module

        wrapped = []

        class Recording(CountingRng):
            __slots__ = ()

            def __init__(self, rng):
                super().__init__(rng)
                wrapped.append(self)

        monkeypatch.setattr(generate_module, "CountingRng", Recording)
        common = ["--machines", "2", "--days", "3", "--seed", "42"]
        plain, told = tmp_path / "plain.jsonl", tmp_path / "told.jsonl"
        assert cli.main(["generate", str(plain), *common]) == 0
        assert wrapped == []

        manifest_path = tmp_path / "manifest.json"
        rc = cli.main(
            ["generate", str(told), *common, "--metrics-out", str(manifest_path)]
        )
        assert rc == 0
        assert len(wrapped) == 2
        assert plain.read_bytes() == told.read_bytes()
        draws = json.loads(manifest_path.read_text())["generation"]["rng_draws"]
        config = _tiny_config(machines=2, days=3)
        gen = MachineTraceGenerator(config)
        signal = 0
        for mid in range(2):
            legacy_rng = CountingRng(RngFactory(42).generator("signal", mid))
            synthesize_samples(
                gen.plan(mid), config=config, profile=gen.profile, rng=legacy_rng
            )
            signal += legacy_rng.draws
        assert draws == {
            "busyness": 2,
            "plan": sum(rng.draws for rng in wrapped),
            "signal": signal,
        }

    def test_sharded_rng_draws_match_monolithic(self, tmp_path):
        # Shard work units count draws only when the parent registry is
        # enabled; a sharded run must still report the monolithic totals.
        common = ["--machines", "3", "--days", "5", "--seed", "42"]
        draws = {}
        for name, extra in (
            ("mono", []),
            ("sharded", ["--shards", "2", "--format", "binary"]),
        ):
            manifest_path = tmp_path / f"{name}.json"
            rc = cli.main(
                ["generate", str(tmp_path / name), *extra, *common,
                 "--metrics-out", str(manifest_path)]
            )
            assert rc == 0
            manifest = json.loads(manifest_path.read_text())
            draws[name] = manifest["generation"]["rng_draws"]
        assert draws["mono"]["busyness"] == 3
        assert draws["mono"]["signal"] > 0
        assert draws["sharded"] == draws["mono"]
