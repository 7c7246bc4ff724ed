"""Unit tests for the sharded trace store (:mod:`repro.traces.shards`).

Covers the partition arithmetic, the write/open/load round-trip, the
content-fingerprint and schema checks, and byte-identity between
``generate_shards`` and splitting a monolithic generation.
"""

import dataclasses
import json

import pytest

from repro.config import ExecutionConfig, FgcsConfig, TestbedConfig
from repro.errors import TraceError
from repro.traces import (
    generate_shards,
    is_shard_store,
    open_shards,
    partition_machines,
    write_shards,
)
from repro.traces.generate import generate_dataset
from repro.traces.records import EventColumns
from repro.traces.shards import MANIFEST_NAME, ShardManifest
from repro.units import DAY


def _tiny_config(**exec_kwargs):
    cfg = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=3, duration=7 * DAY),
        seed=11,
    )
    if exec_kwargs:
        cfg = cfg.with_execution(ExecutionConfig(**exec_kwargs))
    return cfg


class TestPartitionMachines:
    def test_balanced_contiguous(self):
        assert partition_machines(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_clamps_to_one_machine_per_shard(self):
        assert partition_machines(2, 8) == [(0, 1), (1, 2)]

    def test_covers_fleet_for_any_split(self):
        for n in (1, 2, 7, 20, 101):
            for k in (1, 2, 3, 5, 64):
                ranges = partition_machines(n, k)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                sizes = [hi - lo for lo, hi in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(TraceError):
            partition_machines(0, 1)
        with pytest.raises(TraceError):
            partition_machines(4, 0)


class TestWriteOpenRoundTrip:
    def test_load_full_round_trips(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path, 3)
        store = open_shards(tmp_path)
        assert store.n_shards == 3
        assert store.n_machines == small_dataset.n_machines
        assert store.n_events == len(small_dataset)
        assert store.load_full().equals(small_dataset)

    def test_single_shard_round_trips(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path, 1)
        assert open_shards(tmp_path).load_full().equals(small_dataset)

    def test_shard_metadata_records_global_range(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path, 2)
        store = open_shards(tmp_path)
        for index, info in enumerate(store.manifest.shards):
            shard = store.shard_columns(index)
            section = shard.metadata["shard"]
            assert section["machine_lo"] == info.machine_lo
            assert section["machine_hi"] == info.machine_hi
            assert section["fleet_machines"] == small_dataset.n_machines
            assert shard.n_machines == info.n_machines

    def test_is_shard_store(self, small_dataset, tmp_path):
        assert not is_shard_store(tmp_path)
        write_shards(small_dataset, tmp_path, 2)
        assert is_shard_store(tmp_path)
        assert is_shard_store(tmp_path / MANIFEST_NAME)
        assert not is_shard_store(tmp_path / "shard-00000.jsonl")

    def test_slice_machines_rejects_bad_range(self, small_dataset):
        columns = EventColumns.from_dataset(small_dataset)
        with pytest.raises(TraceError, match="bad shard machine range"):
            columns.slice_machines(2, 2)
        with pytest.raises(TraceError, match="bad shard machine range"):
            columns.slice_machines(0, small_dataset.n_machines + 1)


class TestVerification:
    def test_corrupted_shard_is_rejected(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path, 2)
        shard_file = tmp_path / "shard-00000.jsonl"
        with shard_file.open("a", encoding="utf-8") as fh:
            fh.write("\n")
        store = open_shards(tmp_path)
        with pytest.raises(TraceError, match="fingerprint"):
            store.shard_columns(0)
        # verify=False trusts the bytes (corruption goes undetected).
        open_shards(tmp_path, verify=False).shard_columns(1)

    def test_non_contiguous_tiling_is_rejected(self, small_dataset, tmp_path):
        manifest = write_shards(small_dataset, tmp_path, 2)
        gap = dataclasses.replace(manifest.shards[1], machine_lo=3)
        with pytest.raises(TraceError, match="contiguously"):
            ShardManifest(
                n_machines=manifest.n_machines,
                span=manifest.span,
                start_weekday=manifest.start_weekday,
                shards=(manifest.shards[0], gap),
            )

    def test_unknown_schema_version_is_rejected(self, small_dataset, tmp_path):
        write_shards(small_dataset, tmp_path, 2)
        path = tmp_path / MANIFEST_NAME
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["schema"]["shards"] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(TraceError, match="schema"):
            open_shards(tmp_path)

    def test_non_manifest_is_rejected(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(TraceError, match="manifest"):
            open_shards(tmp_path)


class TestGeneratedShards:
    def test_generated_files_match_split_monolithic(self, tmp_path):
        """generate_shards writes the same bytes as splitting
        generate_dataset of the same config — shard by shard."""
        cfg = _tiny_config()
        split_dir = tmp_path / "split"
        gen_dir = tmp_path / "gen"
        write_shards(generate_dataset(cfg), split_dir, 2)
        manifest = generate_shards(cfg, gen_dir, 2)
        for info in manifest.shards:
            assert (gen_dir / info.path).read_bytes() == (
                split_dir / info.path
            ).read_bytes()

    def test_parallel_generation_is_deterministic(self, tmp_path):
        serial = generate_shards(_tiny_config(), tmp_path / "serial", 3)
        parallel = generate_shards(
            _tiny_config(jobs=2), tmp_path / "parallel", 3
        )
        for a, b in zip(serial.shards, parallel.shards):
            assert a.sha256 == b.sha256

    def test_load_full_equals_monolithic_generation(self, tmp_path):
        cfg = _tiny_config()
        generate_shards(cfg, tmp_path, 2)
        assert open_shards(tmp_path).load_full().equals(generate_dataset(cfg))

    def test_per_shard_cache_round_trip(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cfg = _tiny_config(cache_dir=str(cache_dir), use_cache=True)
        first = generate_shards(cfg, tmp_path / "first", 2)
        assert any(cache_dir.iterdir())
        assert all(s.cache_key for s in first.shards)
        second = generate_shards(cfg, tmp_path / "second", 2)
        for a, b in zip(first.shards, second.shards):
            assert a.sha256 == b.sha256
