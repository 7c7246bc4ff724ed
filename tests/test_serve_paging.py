"""Block-level paging: exactness through any block size, bounded RSS at scale.

The contract (ISSUE 10): chopping the base tier into fixed-machine-range
blocks changes *when* counts are resident, never *what* they are.  Every
block's counts equal the corresponding rows of the whole-shard count
matrix; every served answer — scalar, fleet-vectorized, through eviction
churn — stays ``==`` the unpaged state and the batch predictor for every
block size.  And the point of the grain: a 10⁵-machine sharded fleet
serves under a 512 MB RSS ceiling (subprocess-probed, same harness style
as ``tests/scenarios/test_capacity.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import FgcsConfig, TestbedConfig
from repro.core.events import UnavailabilityEvent
from repro.errors import ServeError, TraceError
from repro.prediction.base import PredictionQuery, counts_from_event_rows
from repro.prediction.history import HistoryWindowPredictor
from repro.serve import BlockPager, ServeState
from repro.traces.dataset import TraceDataset
from repro.traces.records import CODE_TO_STATE, EventColumns
from repro.traces.shards import generate_shards, open_shards, write_shards
from repro.units import DAY


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    """A 12-machine, 14-day fleet as a 4-shard binary store."""
    config = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=12, duration=14 * DAY),
        seed=42,
    )
    root = tmp_path_factory.mktemp("paging") / "fleet"
    generate_shards(config, root, 4, format="binary")
    return open_shards(root)


def _private_copy(fleet_store, tmp_path):
    """A copy of the store whose files no other test has touched."""
    shutil.copytree(fleet_store.root, tmp_path / "fleet")
    return open_shards(tmp_path / "fleet")


def _shard0_touched(store):
    """A pager that has verified and indexed shard 0 (by paging in its
    first block), its last block, and the shard's file."""
    pager = BlockPager(store, block_machines=1)
    first, *_, last = [b for b in pager.blocks if b.shard == 0]
    pager.counts(first.index)
    return pager, last, store.root / store.manifest.shards[0].path


@pytest.fixture(scope="module")
def fleet_predictor(fleet_store):
    return HistoryWindowPredictor().fit(fleet_store.load_full())


class TestBlockCounts:
    @pytest.mark.parametrize("block_machines", [1, 2, 3, 5, None])
    def test_blocks_equal_whole_shard_rows(self, fleet_store, block_machines):
        pager = BlockPager(fleet_store, block_machines=block_machines)
        for block in pager.blocks:
            shard_info = fleet_store.manifest.shards[block.shard]
            cols = fleet_store.shard_columns(block.shard)
            whole = counts_from_event_rows(
                cols.events, cols.n_machines, cols.n_days
            )
            lo = block.lo - shard_info.machine_lo
            hi = block.hi - shard_info.machine_lo
            assert np.array_equal(pager.counts(block.index), whole[lo:hi])

    def test_blocks_tile_the_owned_range(self, fleet_store):
        pager = BlockPager(fleet_store, block_machines=5)
        edges = [(b.lo, b.hi) for b in pager.blocks]
        assert edges[0][0] == 0
        assert edges[-1][1] == fleet_store.n_machines
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            assert hi == lo
        for machine in range(fleet_store.n_machines):
            block = pager.blocks[pager.block_of(machine)]
            assert block.lo <= machine < block.hi

    def test_whole_shard_default_one_block_per_shard(self, fleet_store):
        pager = BlockPager(fleet_store)
        assert len(pager.blocks) == fleet_store.n_shards
        for block, info in zip(pager.blocks, fleet_store.manifest.shards):
            assert (block.lo, block.hi) == (info.machine_lo, info.machine_hi)

    def test_lru_respects_block_bound(self, fleet_store):
        pager = BlockPager(fleet_store, block_machines=2, max_blocks=2)
        for machine in range(fleet_store.n_machines):
            pager.cell(machine, 3, 12)
            assert pager.stats().resident_blocks <= 2
        stats = pager.stats()
        assert stats.evictions > 0
        assert stats.rebuilds >= stats.evictions

    def test_lru_respects_byte_bound(self, fleet_store):
        one_block = BlockPager(fleet_store, block_machines=2).counts(0).nbytes
        pager = BlockPager(
            fleet_store, block_machines=2, max_bytes=2 * one_block
        )
        for machine in range(fleet_store.n_machines):
            pager.cell(machine, 3, 12)
            assert pager.stats().resident_bytes <= 2 * one_block
        assert pager.stats().evictions > 0

    def test_eviction_never_changes_counts(self, fleet_store):
        unbounded = BlockPager(fleet_store, block_machines=3)
        churning = BlockPager(fleet_store, block_machines=3, max_blocks=1)
        for sweep in range(2):
            for machine in range(fleet_store.n_machines):
                for day in (0, 7, 13):
                    for hour in (0, 12, 23):
                        assert churning.cell(machine, day, hour) == (
                            unbounded.cell(machine, day, hour)
                        )
        assert churning.stats().evictions > 0

    def test_corrupted_shard_detected_on_first_touch(
        self, fleet_store, tmp_path
    ):
        store = _private_copy(fleet_store, tmp_path)
        victim = store.manifest.shards[1]
        path = store.root / victim.path
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0xFF
        path.write_bytes(bytes(payload))
        pager = BlockPager(store, block_machines=2)
        good = pager.blocks[0]
        assert good.shard == 0
        pager.counts(good.index)  # untouched shard still fine
        bad = next(b for b in pager.blocks if b.shard == 1)
        with pytest.raises(TraceError, match="fingerprint"):
            pager.counts(bad.index)

    def test_shard_truncated_after_first_touch_fails_loudly(
        self, fleet_store, tmp_path
    ):
        store = _private_copy(fleet_store, tmp_path)
        pager, last, path = _shard0_touched(store)
        os.truncate(path, 0)
        with pytest.raises(TraceError, match=re.escape(str(path))):
            pager.counts(last.index)

    def test_shard_replaced_after_first_touch_fails_loudly(
        self, fleet_store, tmp_path
    ):
        # Rewriting a store in place renames new files over the old
        # ones; the recorded row index describes the old file only.
        store = _private_copy(fleet_store, tmp_path)
        pager, last, path = _shard0_touched(store)
        shutil.copy(path, path.with_name("incoming"))
        os.replace(path.with_name("incoming"), path)
        with pytest.raises(TraceError, match="replaced"):
            pager.counts(last.index)

    @pytest.mark.skipif(
        not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps"
    )
    def test_rebuilds_leave_no_mapping_of_the_shard(
        self, fleet_store, tmp_path
    ):
        store = _private_copy(fleet_store, tmp_path)
        pager = BlockPager(store, block_machines=2, max_blocks=1)
        for block in pager.blocks:
            pager.counts(block.index)
        assert pager.stats().evictions > 0
        maps = Path("/proc/self/maps").read_text()
        for info in store.manifest.shards:
            assert str((store.root / info.path).resolve()) not in maps

    def test_row_index_read_in_chunks(self, fleet_store, monkeypatch):
        # Index a shard a few rows per read: the per-chunk searches must
        # add up to the whole-column search at every machine.
        whole = BlockPager(fleet_store, block_machines=1)
        monkeypatch.setattr("repro.serve.paging._INDEX_CHUNK_ROWS", 7)
        chunked = BlockPager(fleet_store, block_machines=1)
        for block in whole.blocks:
            assert np.array_equal(
                chunked.counts(block.index), whole.counts(block.index)
            )

    def test_jsonl_store_pages_the_same_counts(self, fleet_store, tmp_path):
        write_shards(fleet_store.load_full(), tmp_path / "jsonl", 4)
        jsonl = BlockPager(open_shards(tmp_path / "jsonl"), block_machines=2)
        binary = BlockPager(fleet_store, block_machines=2)
        assert len(jsonl.blocks) == len(binary.blocks)
        for block in binary.blocks:
            assert np.array_equal(
                jsonl.counts(block.index), binary.counts(block.index)
            )

    def test_hits_count_one_touch_per_query(self, fleet_store):
        state = ServeState.from_store(fleet_store, block_machines=2)
        query = PredictionQuery(
            machine_id=5, day=9, start_hour=22.0, duration_hours=6.0
        )
        state.predict_survival(query)
        assert (state.tier_stats().hits, state.tier_stats().rebuilds) == (0, 1)
        state.predict_survival(query)
        state.predict_count(query)
        assert (state.tier_stats().hits, state.tier_stats().rebuilds) == (2, 1)


class TestPagedStateMatchesBatch:
    @pytest.mark.parametrize("block_machines", [1, 2, 5, None])
    def test_scalar_answers_identical(
        self, fleet_store, fleet_predictor, block_machines
    ):
        state = ServeState.from_store(
            fleet_store, block_machines=block_machines, hot_shards=2
        )
        for machine in range(fleet_store.n_machines):
            for day in (7, 13, 20):
                query = PredictionQuery(
                    machine_id=machine,
                    day=day,
                    start_hour=9.5,
                    duration_hours=6.0,
                )
                assert state.predict_survival(
                    query
                ) == fleet_predictor.predict_survival(query), query

    @pytest.mark.parametrize("block_machines", [1, 3, None])
    def test_fleet_answers_identical_across_block_sizes(
        self, fleet_store, block_machines
    ):
        reference = ServeState.from_store(fleet_store)
        paged = ServeState.from_store(
            fleet_store, block_machines=block_machines, hot_shards=1
        )
        assert np.array_equal(
            paged.survival_fleet(14, 9.5, 6.0),
            reference.survival_fleet(14, 9.5, 6.0),
        )
        assert paged.capacity(14, 0.0, 6.0) == reference.capacity(
            14, 0.0, 6.0
        )
        assert paged.rank(14, 0.0, 6.0, k=12) == reference.rank(
            14, 0.0, 6.0, k=12
        )
        assert paged.tier_stats().evictions > 0

    def test_overlay_rides_on_paged_blocks(self, fleet_store):
        paged = ServeState.from_store(
            fleet_store, block_machines=2, hot_shards=1
        )
        reference = ServeState.from_store(fleet_store)
        horizon = paged.horizon_day
        events = [
            {
                "machine_id": m,
                "start": horizon * DAY + 3600.0 * m,
                "end": horizon * DAY + 3600.0 * m + 600.0,
                "state": 3,
            }
            for m in range(fleet_store.n_machines)
        ]
        paged.ingest(events)
        reference.ingest(events)
        assert np.array_equal(
            paged.survival_fleet(horizon + 1, 0.0, 24.0),
            reference.survival_fleet(horizon + 1, 0.0, 24.0),
        )

    def test_stats_surface_block_shape(self, fleet_store):
        state = ServeState.from_store(
            fleet_store, block_machines=2, hot_shards=3
        )
        state.predict_survival(
            PredictionQuery(
                machine_id=0, day=7, start_hour=0.0, duration_hours=1.0
            )
        )
        stats = state.tier_stats()
        assert stats.block_machines == 2
        # 4 shards × 3 machines, chopped at 2 → (2, 1) blocks per shard.
        assert stats.n_blocks == 8
        assert stats.hot_entries <= 3

    def test_invalid_block_machines_rejected(self, fleet_store):
        with pytest.raises(ServeError):
            BlockPager(fleet_store, block_machines=0)


# -- 10⁵-machine fleet under a fixed RSS ceiling -------------------------------

#: Peak-RSS ceiling for the serving child (ISSUE 10 acceptance bound).
RSS_CEILING_BYTES = 512 * (1 << 20)
SCALE_MACHINES = int(os.environ.get("FGCS_TEST_SCALE_MACHINES", "100000"))
SCALE_DAYS = 14
SCALE_SHARDS = 16
#: Machines per pageable block at scale — ~0.5 MiB of uint8 counts each.
SCALE_BLOCK = 1600
#: Hot-tier byte bound the child serves under (well below the ceiling):
#: about 15 of the fleet's 64 blocks, so the scan evicts.
SCALE_HOT_BYTES = 8 * (1 << 20)

_SCALE_CHILD = """
import json, resource, sys
store_root, probe_path = sys.argv[1], sys.argv[2]
from repro.prediction.base import PredictionQuery
from repro.serve import ServeState
from repro.traces.shards import open_shards


def peak_rss_bytes():
    # VmHWM is this process's true post-exec peak; ru_maxrss is inherited
    # across fork+exec on Linux and would report the (fat) parent's peak.
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


probes = json.load(open(probe_path))
store = open_shards(store_root)
state = ServeState.from_store(
    store,
    block_machines={block},
    hot_bytes={hot_bytes},
)
answers = {{}}
for machine in probes["machines"]:
    query = PredictionQuery(
        machine_id=int(machine), day=probes["day"],
        start_hour=0.0, duration_hours=6.0,
    )
    answers[str(machine)] = state.predict_survival(query)
capacity = state.capacity(probes["day"], 0.0, 6.0)
tiers = state.tier_stats()
print(json.dumps({{
    "answers": answers,
    "available": capacity["available"],
    "resident_bytes": tiers.resident_bytes,
    "evictions": tiers.evictions,
    "n_blocks": tiers.n_blocks,
    "max_rss_bytes": peak_rss_bytes(),
}}))
""".format(block=SCALE_BLOCK, hot_bytes=SCALE_HOT_BYTES)


def _scale_fleet(n_machines: int) -> TraceDataset:
    """Two seeded events per machine — 2×10⁵ events, built vectorized."""
    rng = np.random.default_rng(7)
    span = float(SCALE_DAYS * DAY)
    starts = np.sort(
        rng.uniform(0.0, span - 7200.0, size=(n_machines, 2)), axis=1
    )
    durations = rng.uniform(60.0, 3600.0, size=(n_machines, 2))
    codes = rng.choice((3, 4, 5), size=(n_machines, 2))
    events = [
        UnavailabilityEvent(
            machine_id=machine,
            start=float(starts[machine, j]),
            end=float(starts[machine, j] + durations[machine, j]),
            state=CODE_TO_STATE[int(codes[machine, j])],
        )
        for machine in range(n_machines)
        for j in range(2)
    ]
    return TraceDataset(
        events=events,
        n_machines=n_machines,
        span=span,
        start_weekday=0,
        hourly_load=None,
        metadata={},
    )


class TestScaleUnderRssCeiling:
    def test_1e5_machine_fleet_serves_under_512mb(self, tmp_path):
        dataset = _scale_fleet(SCALE_MACHINES)
        write_shards(dataset, tmp_path / "fleet", SCALE_SHARDS, format="binary")
        store = open_shards(tmp_path / "fleet")

        # Expected answers, computed in the parent where RSS is free:
        # sampled machines against the batch predictor (the == contract),
        # fleet capacity against the unbounded serve path (pinned == batch
        # by the differential suites above).
        rng = np.random.default_rng(3)
        sample = sorted(
            int(m) for m in rng.choice(SCALE_MACHINES, size=12, replace=False)
        )
        day = SCALE_DAYS
        predictor = HistoryWindowPredictor().fit(dataset)
        expected = {
            str(m): predictor.predict_survival(
                PredictionQuery(
                    machine_id=m, day=day, start_hour=0.0, duration_hours=6.0
                )
            )
            for m in sample
        }
        reference = ServeState.from_store(store, verify=False)
        expected_available = reference.capacity(day, 0.0, 6.0)["available"]
        del reference, predictor, dataset

        probe_path = tmp_path / "probes.json"
        probe_path.write_text(json.dumps({"machines": sample, "day": day}))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _SCALE_CHILD,
                str(tmp_path / "fleet"),
                str(probe_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
        report = json.loads(proc.stdout.strip().splitlines()[-1])

        assert report["max_rss_bytes"] < RSS_CEILING_BYTES, report
        assert report["resident_bytes"] <= SCALE_HOT_BYTES, report
        assert report["evictions"] > 0, report
        assert report["available"] == expected_available
        assert report["answers"] == expected
