# Convenience targets for the FGCS reproduction.

.PHONY: install test tier1 bench artifacts report serve-smoke \
        scenarios-smoke fleet-smoke pool-smoke telemetry-smoke chaos-smoke \
        clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

# The tier-1 suite, from the source tree (no install needed).
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q

# Everything CI's tier-1 job checks, in its order:
# - the numpy and scipy versions, so a failing filter-kernel fast-path
#   test names the scipy that moved the kernel;
# - the tier-1 suite;
# - perfbench's self-tests;
# - that perfbench's tracer, which patches methods by name, still finds
#   each one: a renamed or moved method fails here instead of silently
#   emptying the traced per-layer breakdown;
# - a 3 s perfbench batch run (about 6 s on one core), which exits 0
#   only when the shard fold == the per-event analysis of the same
#   shards and the shard fingerprints agree across passes, so every
#   generator change meets the batch gates, not only benchmarked ones.
tier1:
	python -c "import numpy, scipy; print('numpy', numpy.__version__, 'scipy', scipy.__version__)"
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q --durations=10
	python -m pytest -q perfbench/test_perfbench.py
	cd perfbench && PYTHONPATH=../src python -c \
	    "import spans; spans.install_batch(); spans.install_serve()"
	python perfbench/run.py --workload batch --seed 3 --seconds 3 --trace 0

bench:
	pytest benchmarks/ --benchmark-only

artifacts: bench
	@ls benchmarks/out/

report:
	repro-fgcs report report_out/

# Serve one 200-machine fleet as a single process and as a 2-worker
# router; benchmarks/serve_smoke.sh queries, ingests and checks each
# manifest.
serve-smoke:
	rm -rf serve-fleet
	PYTHONPATH=src python -m repro.cli generate serve-fleet \
	    --machines 200 --days 14 --shards 8 --jobs 2 --format binary
	sh benchmarks/serve_smoke.sh 1 serve-fleet serve-manifest.json
	sh benchmarks/serve_smoke.sh 2 serve-fleet serve-scale-manifest.json

# The scenario registry and its harnesses: every library scenario
# validates; the DSL, property, golden and generation suites pass; the
# capacity and load harnesses pass on three scenarios that between them
# use every DSL feature (plain baseline, regime schedule and outages,
# flash crowds); and benchmarks/scenarios_smoke.sh renders their
# differential report and checks its manifest (in scenario-smoke-out/).
scenarios-smoke:
	PYTHONPATH=src python -m repro.cli scenario validate --all
	PYTHONPATH=src python -m pytest -x -q --durations=10 \
	    tests/test_scenarios_dsl.py tests/test_scenarios_property.py \
	    tests/test_scenarios_golden.py tests/test_scenarios_generate.py
	PYTHONPATH=src python -m pytest -x -q --durations=10 \
	    "tests/scenarios/test_capacity.py::TestScenarioCapacity::test_generate_and_analyze_under_budget[student-lab-baseline]" \
	    "tests/scenarios/test_capacity.py::TestScenarioCapacity::test_generate_and_analyze_under_budget[semester-break]" \
	    "tests/scenarios/test_capacity.py::TestScenarioCapacity::test_generate_and_analyze_under_budget[flash-crowd]" \
	    "tests/scenarios/test_load.py::TestScenarioLoad::test_serve_zero_5xx_and_batch_identity[student-lab-baseline]" \
	    "tests/scenarios/test_load.py::TestScenarioLoad::test_serve_zero_5xx_and_batch_identity[semester-break]" \
	    "tests/scenarios/test_load.py::TestScenarioLoad::test_serve_zero_5xx_and_batch_identity[flash-crowd]"
	sh benchmarks/scenarios_smoke.sh scenario-smoke-out

# The merge-equivalence suites, then benchmarks/fleet_smoke.sh: a
# 200-machine fleet generated as 8 shards by 2 workers, its Chrome trace,
# `analyze` of the JSONL and the binary store == the per-event reference
# rendered from the loaded store, and the manifests of every phase (in
# fleet-smoke-out/).
fleet-smoke:
	PYTHONPATH=src python -m pytest -x -q --durations=10 \
	    tests/test_accumulators_property.py tests/test_shards.py \
	    tests/test_analysis_edgecases.py
	sh benchmarks/fleet_smoke.sh fleet-smoke-out

# A tiny trace generated through the process pool twice with one cache:
# the second run hits the cache and writes byte-identical output (in
# pool-smoke-out/).
pool-smoke:
	rm -rf pool-smoke-out
	mkdir -p pool-smoke-out
	PYTHONPATH=src python -m repro.cli generate pool-smoke-out/smoke.jsonl \
	    --machines 2 --days 2 --jobs 2 --cache-dir pool-smoke-out/.fgcs-cache
	test -s pool-smoke-out/smoke.jsonl
	PYTHONPATH=src python -m repro.cli generate pool-smoke-out/smoke2.jsonl \
	    --machines 2 --days 2 --jobs 2 --cache-dir pool-smoke-out/.fgcs-cache
	cmp pool-smoke-out/smoke.jsonl pool-smoke-out/smoke2.jsonl

# benchmarks/telemetry_smoke.sh: analyze a tiny trace with telemetry on
# and check its run manifest (in telemetry-smoke-out/).
telemetry-smoke:
	sh benchmarks/telemetry_smoke.sh telemetry-smoke-out

# The chaos and golden-figure suites, then benchmarks/chaos_smoke.sh: a
# clean and a fault-injected generation must write byte-identical JSONL
# traces, and the chaotic run's manifest must account for every fault
# (in chaos-smoke-out/).
chaos-smoke:
	PYTHONPATH=src python -m pytest -x -q --durations=10 \
	    tests/test_chaos.py tests/test_goldens.py
	sh benchmarks/chaos_smoke.sh chaos-smoke-out

clean:
	rm -rf benchmarks/out .pytest_cache .hypothesis .benchmarks \
	       report_out test_output.txt bench_output.txt serve-fleet \
	       serve-manifest.json serve-scale-manifest.json \
	       scenario-smoke-out fleet-smoke-out pool-smoke-out \
	       telemetry-smoke-out chaos-smoke-out
	find . -name __pycache__ -type d -exec rm -rf {} +
