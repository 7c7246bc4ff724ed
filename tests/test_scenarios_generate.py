"""Cache and quarantine paths of composed-scenario generation.

A composed scenario (here ``flash-crowd``: overlay windows merged into
each machine's events) runs the same fleet, shard and cache code as a
stock config, under its own cache keys (``scenario-*``) and fault unit
keys (``scenario.machine:<i>``, ``scenario.shard:<i>``).  These tests pin
what that code does for a scenario: a second run is served from the
cache with identical bytes, and a unit whose retries are exhausted is
quarantined, written as an event-free placeholder and never cached.

The placeholder shard digests are pinned: a quarantined range must keep
being written as the same bytes, whichever code path writes it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.faults import FaultPlan, FaultSpec
from repro.obs import MetricsRegistry, use_registry
from repro.scenarios import (
    compile_scenario,
    generate_scenario_columns,
    generate_scenario_shards,
    get_scenario,
)
from repro.traces.shards import open_shards

N_MACHINES = 4
DAYS = 7
SEED = 42

#: SHA-256 of the placeholder that stands in for quarantined shard 1
#: (machines 2-3) of the fleet below, per format.
PLACEHOLDER_SHA256 = {
    "jsonl": "b3928c7c979be5782050a88c2a269a7fc7d886ea8072741a260a7e262a145c80",
    "binary": "9241e7a31627dba7f7fb2af357577e6feedea2fce00b5a24144af3a546d36333",
}


@pytest.fixture(scope="module")
def compiled():
    scenario = compile_scenario(
        get_scenario("flash-crowd"), machines=N_MACHINES, days=DAYS, seed=SEED
    )
    assert not scenario.is_trivial
    return scenario


def _poisoned(unit: str) -> FaultPlan:
    return FaultPlan(
        specs=(FaultSpec(site="unit.exception", match=(unit,), max_attempt=-1),)
    )


def _counters(registry: MetricsRegistry) -> dict:
    return registry.snapshot()["counters"]


class TestCacheHits:
    def test_second_monolithic_run_is_a_hit(self, compiled, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path / "cache"))
        fresh = generate_scenario_columns(compiled, execution=execution)
        registry = MetricsRegistry()
        with use_registry(registry):
            again = generate_scenario_columns(compiled, execution=execution)
        counters = _counters(registry)
        assert counters["cache.hit"] == 1
        assert counters.get("cache.miss", 0) == 0
        assert again.events.tobytes() == fresh.events.tobytes()
        assert np.array_equal(
            again.hourly_load, fresh.hourly_load, equal_nan=True
        )
        assert again.metadata == fresh.metadata
        assert (again.n_machines, again.span, again.start_weekday) == (
            fresh.n_machines,
            fresh.span,
            fresh.start_weekday,
        )

    def test_second_sharded_run_hits_every_shard(self, compiled, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path / "cache"))
        first = generate_scenario_shards(
            compiled, tmp_path / "a", 2, execution=execution, format="binary"
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            second = generate_scenario_shards(
                compiled,
                tmp_path / "b",
                2,
                execution=execution,
                format="binary",
            )
        assert _counters(registry)["cache.hit"] == 2
        assert [s.sha256 for s in second.shards] == [
            s.sha256 for s in first.shards
        ]
        for info in second.shards:
            assert (tmp_path / "b" / info.path).read_bytes() == (
                tmp_path / "a" / info.path
            ).read_bytes()
        assert (tmp_path / "b" / "manifest.json").read_bytes() == (
            tmp_path / "a" / "manifest.json"
        ).read_bytes()


class TestQuarantine:
    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_poisoned_shard_becomes_an_uncached_placeholder(
        self, compiled, tmp_path, fmt
    ):
        cache_dir = tmp_path / "cache"
        registry = MetricsRegistry()
        with use_registry(registry):
            manifest = generate_scenario_shards(
                compiled,
                tmp_path / "store",
                2,
                execution=ExecutionConfig(
                    cache_dir=str(cache_dir),
                    fault_plan=_poisoned("scenario.shard:1"),
                ),
                format=fmt,
            )
        assert manifest.metadata["quarantined_machines"] == [2, 3]
        healthy, placeholder = manifest.shards
        assert healthy.n_events > 0 and healthy.cache_key is not None
        assert placeholder.n_events == 0
        assert placeholder.cache_key is None
        assert placeholder.sha256 == PLACEHOLDER_SHA256[fmt]

        shard = open_shards(tmp_path / "store").shard_columns(1)
        assert len(shard) == 0
        assert shard.hourly_load.shape == (2, DAYS * 24)
        assert np.isnan(shard.hourly_load).all()

        # Only the healthy shard reached the cache.
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            f"{healthy.cache_key}.bin"
        ]
        assert _counters(registry)["cache.write"] == 1

    def test_poisoned_machine_is_quarantined_and_not_cached(
        self, compiled, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        columns = generate_scenario_columns(
            compiled,
            execution=ExecutionConfig(
                cache_dir=str(cache_dir),
                fault_plan=_poisoned("scenario.machine:1"),
            ),
        )
        assert columns.metadata["quarantined_machines"] == [1]
        assert len(columns) > 0
        assert 1 not in set(columns.events["machine_id"].tolist())
        assert np.isnan(columns.hourly_load[1]).all()
        assert not np.isnan(columns.hourly_load[0]).any()
        assert not cache_dir.exists() or not list(cache_dir.iterdir())
