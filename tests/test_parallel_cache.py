"""Tests for the content-addressed on-disk dataset cache.

Covers the satellite contract: key stability across processes,
invalidation when any config field or schema version changes, and
corrupted/truncated entries falling back to regeneration.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.config import ExecutionConfig, FgcsConfig, MonitorConfig, TestbedConfig
from repro.parallel import cache as cache_mod
from repro.parallel.cache import (
    DatasetCache,
    config_fingerprint,
    dataset_cache_key,
)
from repro.traces.generate import generate_dataset
from repro.units import DAY


@pytest.fixture(scope="module")
def cfg():
    return dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=2, duration=2 * DAY),
        seed=17,
    )


class TestFingerprint:
    def test_equal_configs_equal_keys(self, cfg):
        clone = dataclasses.replace(cfg)
        assert config_fingerprint(cfg) == config_fingerprint(clone)

    def test_any_field_change_changes_key(self, cfg):
        base = config_fingerprint(cfg)
        assert config_fingerprint(cfg.with_seed(cfg.seed + 1)) != base
        assert (
            config_fingerprint(
                dataclasses.replace(cfg, monitor=MonitorConfig(period=15.0))
            )
            != base
        )
        assert (
            config_fingerprint(
                dataclasses.replace(
                    cfg, testbed=TestbedConfig(n_machines=3, duration=2 * DAY)
                )
            )
            != base
        )

    def test_execution_settings_do_not_change_key(self, cfg):
        assert config_fingerprint(cfg) == config_fingerprint(
            cfg.with_execution(ExecutionConfig(jobs=8, cache_dir="/tmp/x"))
        )

    def test_extras_distinguish_artifacts(self, cfg):
        assert dataset_cache_key(cfg, keep_hourly_load=True) != dataset_cache_key(
            cfg, keep_hourly_load=False
        )

    def test_schema_version_changes_key(self, cfg, monkeypatch):
        base = config_fingerprint(cfg)
        monkeypatch.setattr(cache_mod, "CODE_SCHEMA_VERSION", 999)
        assert config_fingerprint(cfg) != base

    def test_stable_across_processes(self, cfg):
        """The key must not depend on salted ``hash()`` or process state."""
        here = config_fingerprint(cfg)
        code = (
            "import dataclasses\n"
            "from repro.config import FgcsConfig, TestbedConfig\n"
            "from repro.parallel.cache import config_fingerprint\n"
            "from repro.units import DAY\n"
            "cfg = dataclasses.replace(FgcsConfig(), "
            "testbed=TestbedConfig(n_machines=2, duration=2 * DAY), seed=17)\n"
            "print(config_fingerprint(cfg))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == here


class TestDatasetCache:
    def test_miss_then_hit_round_trips_equal(self, cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        fresh = generate_dataset(cfg, execution=execution)
        assert len(list(tmp_path.iterdir())) == 1
        hit = generate_dataset(cfg, execution=execution)
        assert fresh.equals(hit)

    def test_hit_actually_reads_the_cache(self, cfg, tmp_path):
        """Plant a sentinel in the stored entry; a hit must surface it."""
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        generate_dataset(cfg, execution=execution)
        key = dataset_cache_key(cfg, keep_hourly_load=True)
        cache = DatasetCache(tmp_path)
        columns = cache.get_columns(key)
        columns.metadata["sentinel"] = "from-cache"
        cache.put_columns(key, columns)
        again = generate_dataset(cfg, execution=execution)
        assert again.metadata.get("sentinel") == "from-cache"

    def test_no_cache_flag_skips_cache(self, cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path), use_cache=False)
        assert not execution.cache_enabled
        generate_dataset(cfg, execution=execution)
        assert list(tmp_path.iterdir()) == []

    def test_corrupted_entry_regenerates(self, cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        fresh = generate_dataset(cfg, execution=execution)
        (path,) = tmp_path.iterdir()
        path.write_text("this is not a trace file\n{]", encoding="utf-8")
        recovered = generate_dataset(cfg, execution=execution)
        assert fresh.equals(recovered)
        # The bad entry was replaced with a good one.
        assert generate_dataset(cfg, execution=execution).equals(fresh)

    def test_truncated_entry_regenerates(self, cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        fresh = generate_dataset(cfg, execution=execution)
        (path,) = tmp_path.iterdir()
        blob = path.read_bytes()
        # Cut mid-record (event lines are far longer than 10 bytes), so the
        # last line can never parse as valid JSON.
        path.write_bytes(blob[:-10])
        recovered = generate_dataset(cfg, execution=execution)
        assert fresh.equals(recovered)

    def test_get_on_missing_key_is_none(self, tmp_path):
        assert DatasetCache(tmp_path).get_columns("0" * 64) is None

    def test_different_config_different_entry(self, cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        generate_dataset(cfg, execution=execution)
        generate_dataset(cfg.with_seed(99), execution=execution)
        assert len(list(tmp_path.iterdir())) == 2

    def test_entries_are_binary(self, cfg, tmp_path):
        from repro.traces.binio import is_binary_trace

        generate_dataset(cfg, execution=ExecutionConfig(cache_dir=str(tmp_path)))
        (path,) = tmp_path.iterdir()
        assert path.suffix == ".bin"
        assert is_binary_trace(path)


class TestConcurrentEviction:
    """The eviction path must never delete an entry it did not fail on.

    A reader that trips over a corrupt entry evicts it — but if another
    process replaced the file between the failed read and the unlink
    (regenerate-and-overwrite is exactly what recovering readers do), the
    replacement is a *good* entry and deleting it would re-trigger
    regeneration in every concurrent reader.
    """

    def test_replaced_entry_survives_eviction(self, cfg, tmp_path, monkeypatch):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        fresh = generate_dataset(cfg, execution=execution)
        key = dataset_cache_key(cfg, keep_hourly_load=True)
        cache = DatasetCache(tmp_path)
        path = cache.path_for(key)
        good_blob = path.read_bytes()
        path.write_text("garbage", encoding="utf-8")

        real_load = cache_mod.load_columns

        def load_then_lose_race(p, **kwargs):
            # The corrupt read fails; before the eviction runs, a
            # concurrent writer replaces the entry with a good one.
            try:
                return real_load(p, **kwargs)
            except Exception:
                tmp = path.with_name("replacement.tmp")
                tmp.write_bytes(good_blob)
                os.replace(tmp, path)
                raise

        monkeypatch.setattr(cache_mod, "load_columns", load_then_lose_race)
        assert cache.get_columns(key) is None  # the corrupt read is still a miss
        monkeypatch.setattr(cache_mod, "load_columns", real_load)
        # The concurrently written good entry survived the eviction and
        # is served to the next reader.
        assert path.read_bytes() == good_blob
        served = cache.get_columns(key)
        assert served is not None and served.to_dataset().equals(fresh)

    def test_corrupt_entry_still_evicted_without_race(self, cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        generate_dataset(cfg, execution=execution)
        key = dataset_cache_key(cfg, keep_hourly_load=True)
        cache = DatasetCache(tmp_path)
        path = cache.path_for(key)
        path.write_text("garbage", encoding="utf-8")
        assert cache.get_columns(key) is None
        assert not path.exists()

    def test_concurrent_readers_never_propagate_garbage(self, cfg, tmp_path):
        """N processes hammering one corrupt entry all regenerate the same
        dataset; none crashes, none serves garbage."""
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        fresh = generate_dataset(cfg, execution=execution)
        (path,) = tmp_path.iterdir()
        path.write_text("{]not a trace", encoding="utf-8")
        code = (
            "import dataclasses, sys\n"
            "from repro.config import ExecutionConfig, FgcsConfig, TestbedConfig\n"
            "from repro.traces.generate import generate_dataset\n"
            "from repro.units import DAY\n"
            "cfg = dataclasses.replace(FgcsConfig(), "
            "testbed=TestbedConfig(n_machines=2, duration=2 * DAY), seed=17)\n"
            f"ds = generate_dataset(cfg, execution=ExecutionConfig(cache_dir={str(tmp_path)!r}))\n"
            "print(len(ds.events))\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(3)
        ]
        counts = set()
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
            counts.add(out.strip())
        assert counts == {str(len(fresh.events))}
        # The entry left behind is readable again.
        recovered = DatasetCache(tmp_path).get_columns(
            dataset_cache_key(cfg, keep_hourly_load=True)
        )
        assert recovered is not None and recovered.to_dataset().equals(fresh)


class TestFaultPlanInjection:
    def test_injected_read_corruption_counts_and_recovers(self, cfg, tmp_path):
        from repro.faults import FaultPlan, FaultSpec
        from repro.obs import MetricsRegistry, use_registry

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        fresh = generate_dataset(cfg, execution=execution)
        plan = FaultPlan(specs=(FaultSpec(site="cache.read_corrupt"),))
        registry = MetricsRegistry()
        with use_registry(registry):
            again = generate_dataset(
                cfg,
                execution=ExecutionConfig(
                    cache_dir=str(tmp_path), fault_plan=plan
                ),
            )
        assert again.equals(fresh)
        counters = registry.snapshot()["counters"]
        assert counters["faults.injected.cache.read_corrupt"] == 1
        assert counters["cache.corrupt_evicted"] == 1

    def test_injected_write_failure_is_survivable(self, cfg, tmp_path):
        from repro.faults import FaultPlan, FaultSpec
        from repro.obs import MetricsRegistry, use_registry

        plan = FaultPlan(specs=(FaultSpec(site="cache.write_fail"),))
        registry = MetricsRegistry()
        with use_registry(registry):
            dataset = generate_dataset(
                cfg,
                execution=ExecutionConfig(
                    cache_dir=str(tmp_path), fault_plan=plan
                ),
            )
        assert len(dataset) > 0
        assert not list(tmp_path.glob("*.bin"))
        assert not list(tmp_path.glob("*.jsonl"))
        counters = registry.snapshot()["counters"]
        assert counters["cache.write_failed"] == 1
        assert counters.get("cache.write", 0) == 0
