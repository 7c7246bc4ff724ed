"""Chaos harness: the pipeline under injected faults (acceptance tests).

The contract these tests pin down:

* with bounded retries and default (transient) faults — at least one
  worker crash, one unit exception, and one corrupt cache entry — the
  pipeline's outputs are **byte-identical** to a fault-free run;
* when retries cannot succeed (poisoned units), the run degrades
  gracefully: partial results, a stderr summary, exit code 3;
* the run manifest records the injected faults, retries, evictions, and
  quarantines.
"""

import dataclasses
import json

import pytest

from repro import cli
from repro.config import ExecutionConfig, FgcsConfig, TestbedConfig
from repro.faults import FaultPlan, FaultSpec
from repro.parallel.cache import DatasetCache, dataset_cache_key
from repro.traces.generate import generate_dataset
from repro.traces.io import save_dataset
from repro.units import DAY

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

#: At least one worker crash, one unit exception, and one transient cache
#: corruption — the acceptance mix.  All default to max_attempt=0, so one
#: retry clears each fault.
CHAOS_PLAN = FaultPlan(
    seed=13,
    specs=(
        FaultSpec(site="worker.crash", match=("generate.machine:0",)),
        FaultSpec(site="unit.exception", match=("generate.machine:1",)),
        FaultSpec(site="cache.read_corrupt"),
    ),
)


def _tiny_config(tmp_path=None, fault_plan=None, jobs=1, **exec_kwargs):
    cfg = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=2, duration=7 * DAY),
        seed=5,
    )
    return cfg.with_execution(
        ExecutionConfig(
            jobs=jobs,
            cache_dir=str(tmp_path) if tmp_path is not None else None,
            use_cache=tmp_path is not None,
            fault_plan=fault_plan,
            **exec_kwargs,
        )
    )


def _bytes_of(dataset, path) -> bytes:
    save_dataset(dataset, path)
    return path.read_bytes()


def _assert_nothing_cached(cache_dir, cfg) -> None:
    """Neither the config's dataset entry nor any other entry exists."""
    assert not DatasetCache(cache_dir).path_for(dataset_cache_key(cfg)).exists()
    assert not list(cache_dir.glob("*.bin"))


class TestByteIdenticalUnderFaults:
    def test_generate_identical_with_transient_faults(self, tmp_path):
        clean = generate_dataset(_tiny_config())
        chaotic = generate_dataset(_tiny_config(fault_plan=CHAOS_PLAN))
        assert _bytes_of(clean, tmp_path / "clean.jsonl") == _bytes_of(
            chaotic, tmp_path / "chaos.jsonl"
        )

    def test_generate_identical_with_faults_in_pool(self, tmp_path):
        clean = generate_dataset(_tiny_config())
        chaotic = generate_dataset(
            _tiny_config(fault_plan=CHAOS_PLAN, jobs=2)
        )
        assert _bytes_of(clean, tmp_path / "clean.jsonl") == _bytes_of(
            chaotic, tmp_path / "chaos.jsonl"
        )

    def test_corrupt_cache_entry_regenerates_identically(self, tmp_path):
        """A cache whose every read 'corrupts' (evict + regenerate) still
        yields the exact fault-free dataset."""
        cache_dir = tmp_path / "cache"
        clean = generate_dataset(_tiny_config(cache_dir))  # warms the cache
        assert any(cache_dir.iterdir())
        chaotic = generate_dataset(
            _tiny_config(cache_dir, fault_plan=CHAOS_PLAN)
        )
        assert _bytes_of(clean, tmp_path / "clean.jsonl") == _bytes_of(
            chaotic, tmp_path / "chaos.jsonl"
        )

    def test_cache_write_failure_degrades_gracefully(self, tmp_path):
        cache_dir = tmp_path / "cache"
        plan = FaultPlan(specs=(FaultSpec(site="cache.write_fail"),))
        cfg = _tiny_config(cache_dir, fault_plan=plan)
        chaotic = generate_dataset(cfg)
        clean = generate_dataset(_tiny_config())
        _assert_nothing_cached(cache_dir, cfg)
        assert _bytes_of(clean, tmp_path / "clean.jsonl") == _bytes_of(
            chaotic, tmp_path / "chaos.jsonl"
        )

    def test_figure_sweep_identical_under_faults(self):
        """The contention sweeps produce the same figures with faults
        injected and retried."""
        import numpy as np

        from repro.contention.sweeps import figure1_sweep
        from repro.faults import FaultContext, RetryPolicy

        kwargs = dict(
            lh_grid=(0.0, 0.5),
            group_sizes=(1,),
            combinations=1,
            duration=30.0,
            seed=0,
        )
        clean = figure1_sweep(0, **kwargs)
        plan = FaultPlan(
            seed=2,
            specs=(
                FaultSpec(site="worker.crash", match=("fig1:0",)),
                FaultSpec(site="unit.exception"),
            ),
        )
        ctx = FaultContext(plan=plan, policy=RetryPolicy(), label="fig1")
        chaotic = figure1_sweep(0, faults=ctx, **kwargs)
        np.testing.assert_array_equal(clean.reduction, chaotic.reduction)
        assert ctx.report.retries > 0


class TestGracefulDegradation:
    def test_poisoned_machine_is_quarantined(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="unit.exception",
                    match=("generate.machine:1",),
                    max_attempt=-1,
                ),
            )
        )
        dataset = generate_dataset(_tiny_config(fault_plan=plan))
        assert dataset.metadata["quarantined_machines"] == [1]
        # Machine 0's events survive; machine 1 contributes none.
        assert len(dataset) > 0
        assert all(e.machine_id == 0 for e in dataset.events)

    def test_partial_dataset_not_cached(self, tmp_path):
        cache_dir = tmp_path / "cache"
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="unit.exception",
                    match=("generate.machine:0",),
                    max_attempt=-1,
                ),
            )
        )
        cfg = _tiny_config(cache_dir, fault_plan=plan)
        generate_dataset(cfg)
        _assert_nothing_cached(cache_dir, cfg)


class TestShardedChaos:
    """Sharded generation under the chaos mix: worker crashes and corrupt
    cache reads inside shard workers still yield a complete fleet whose
    shards are byte-identical to a clean run and whose streamed analysis
    merges to the monolithic numbers."""

    SHARD_PLAN = FaultPlan(
        seed=13,
        specs=(
            FaultSpec(site="worker.crash", match=("generate.shard:0",)),
            FaultSpec(site="unit.exception", match=("generate.shard:1",)),
            FaultSpec(site="cache.read_corrupt"),
        ),
    )

    def test_sharded_generation_survives_chaos(self, tmp_path):
        import numpy as np

        from repro.analysis import analyze_shards, cause_breakdown
        from repro.traces import generate_shards, open_shards, write_shards

        clean = generate_dataset(_tiny_config())
        split_dir = tmp_path / "clean"
        write_shards(clean, split_dir, 2)

        cache_dir = tmp_path / "cache"
        chaos_cfg = _tiny_config(cache_dir, fault_plan=self.SHARD_PLAN)
        store = tmp_path / "chaos"
        manifest = generate_shards(chaos_cfg, store, 2)

        # Complete fleet: nothing quarantined, shard files byte-identical
        # to splitting the fault-free monolithic generation.
        assert "quarantined_machines" not in manifest.metadata
        for info in manifest.shards:
            assert (store / info.path).read_bytes() == (
                split_dir / info.path
            ).read_bytes()
        assert open_shards(store).load_full().equals(clean)

        # Merge-correct: streaming the chaos-generated shards reproduces
        # the monolithic Table 2 counts exactly.
        analysis = analyze_shards(str(store))
        np.testing.assert_array_equal(
            analysis.breakdown.totals, cause_breakdown(clean).totals
        )

    def test_exhausted_shard_is_quarantined(self, tmp_path):
        from repro.traces import generate_shards, open_shards

        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.crash",
                    match=("generate.shard:0",),
                    max_attempt=-1,
                ),
            )
        )
        manifest = generate_shards(
            _tiny_config(fault_plan=plan), tmp_path / "store", 2
        )
        # Shard 0 holds machine 0 of the 2-machine fleet; its placeholder
        # keeps the store tileable with zero events.
        assert manifest.metadata["quarantined_machines"] == [0]
        assert manifest.shards[0].n_events == 0
        assert manifest.shards[1].n_events > 0
        full = open_shards(tmp_path / "store").load_full()
        assert all(e.machine_id == 1 for e in full.events)

    def test_cli_sharded_quarantine_exit_3(self, tmp_path, capsys):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.crash",
                    match=("generate.shard:1",),
                    max_attempt=-1,
                ),
            )
        )
        plan_path = plan.save(tmp_path / "plan.json")
        manifest_path = tmp_path / "run.json"
        rc = cli.main(
            [
                "generate",
                str(tmp_path / "store"),
                "--shards",
                "2",
                "--machines",
                "2",
                "--days",
                "7",
                "--seed",
                "5",
                "--fault-plan",
                str(plan_path),
                "--metrics-out",
                str(manifest_path),
            ]
        )
        assert rc == 3
        assert "partial results" in capsys.readouterr().err
        run = json.loads(manifest_path.read_text(encoding="utf-8"))
        (shard_phase,) = run["shards"]
        assert shard_phase["phase"] == "generate"
        assert shard_phase["count"] == 2
        assert shard_phase["quarantined"] == 1
        assert run["retries"]["exhausted"] == 1


class TestCliChaos:
    """End-to-end: the CLI under a fault plan, manifest accounting included."""

    def _run(self, tmp_path, plan, *extra):
        plan_path = plan.save(tmp_path / "plan.json")
        out = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "manifest.json"
        rc = cli.main(
            [
                "generate",
                str(out),
                "--machines",
                "2",
                "--days",
                "7",
                "--seed",
                "5",
                "--fault-plan",
                str(plan_path),
                "--metrics-out",
                str(manifest_path),
                *extra,
            ]
        )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        return rc, out, manifest

    def test_chaos_run_matches_clean_run(self, tmp_path):
        clean_out = tmp_path / "clean.jsonl"
        assert (
            cli.main(
                [
                    "generate",
                    str(clean_out),
                    "--machines",
                    "2",
                    "--days",
                    "7",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        rc, chaos_out, manifest = self._run(tmp_path, CHAOS_PLAN)
        assert rc == 0
        assert chaos_out.read_bytes() == clean_out.read_bytes()
        # The manifest accounts for what the run survived.
        assert manifest["faults"]["injected"]["worker.crash"] == 1
        assert manifest["faults"]["injected"]["unit.exception"] == 1
        assert manifest["faults"]["failures"] == {
            "worker_crash": 1,
            "unit_error": 1,
        }
        assert manifest["retries"] == {"attempts": 2, "succeeded": 2}
        assert "quarantined" not in manifest["faults"]

    def test_quarantine_yields_exit_3_and_manifest_record(
        self, tmp_path, capsys
    ):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.crash",
                    match=("generate.machine:1",),
                    max_attempt=-1,
                ),
            )
        )
        rc, out, manifest = self._run(tmp_path, plan)
        assert rc == 3
        assert "partial results" in capsys.readouterr().err
        assert out.exists()  # the surviving events are still written
        (record,) = manifest["faults"]["quarantined"]
        assert record["unit"] == "generate.machine:1"
        assert record["attempts"] == 3
        assert manifest["retries"]["exhausted"] == 1
        assert manifest["exit_code"] == 3

    def test_cache_eviction_recorded_in_manifest(self, tmp_path):
        cache_dir = tmp_path / "cache"
        # Warm the cache fault-free, then read it through the chaos plan.
        assert (
            cli.main(
                [
                    "generate",
                    str(tmp_path / "warm.jsonl"),
                    "--machines",
                    "2",
                    "--days",
                    "7",
                    "--seed",
                    "5",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
        rc, out, manifest = self._run(
            tmp_path, CHAOS_PLAN, "--cache-dir", str(cache_dir)
        )
        assert rc == 0
        counters = manifest["metrics"]["counters"]
        assert counters["cache.corrupt_evicted"] >= 1
        assert manifest["faults"]["injected"]["cache.read_corrupt"] >= 1
        assert out.read_bytes() == (tmp_path / "warm.jsonl").read_bytes()


class TestWorkerTelemetryUnderChaos:
    """Worker-telemetry merge is exactly-once under crash + retry.

    A worker that crashes (or raises) mid-unit ships no telemetry back;
    only the settling attempt's capture is merged, so unit counts, span
    lanes, and histogram samples never double-count a retried unit.
    """

    def test_crash_and_retry_merge_exactly_once(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            dataset = generate_dataset(
                _tiny_config(fault_plan=CHAOS_PLAN, jobs=2)
            )
        assert not dataset.metadata.get("quarantined_machines")
        # Two machines, each retried once (one crash, one exception):
        # 4 attempts started, but exactly 2 units settled and merged.
        assert registry.counter_value("retries.attempts") == 2
        assert registry.counter_value("parallel.units") == 2
        lanes = registry.worker_lanes()
        assert sum(lane["units"] for lane in lanes.values()) == 2
        unit_roots = [
            span
            for lane in lanes.values()
            for span in lane["spans"]
            if span["name"].startswith("unit:")
        ]
        assert len(unit_roots) == 2
        hist = registry.histogram("parallel.unit_seconds")
        assert len(hist) == 2

    def test_merged_chaos_run_matches_clean_run_telemetry_shape(self):
        from repro.obs import MetricsRegistry, use_registry

        clean_reg, chaos_reg = MetricsRegistry(), MetricsRegistry()
        with use_registry(clean_reg):
            clean = generate_dataset(_tiny_config(jobs=2))
        with use_registry(chaos_reg):
            chaotic = generate_dataset(
                _tiny_config(fault_plan=CHAOS_PLAN, jobs=2)
            )
        assert clean.equals(chaotic)
        # Settled work is identical; only the fault/retry counters differ.
        for name in ("parallel.units", "cache.hit", "cache.miss"):
            assert clean_reg.counter_value(name) == chaos_reg.counter_value(
                name
            ), name
        clean_units = sum(
            lane["units"] for lane in clean_reg.worker_lanes().values()
        )
        chaos_units = sum(
            lane["units"] for lane in chaos_reg.worker_lanes().values()
        )
        assert clean_units == chaos_units == 2
