# Convenience targets for the FGCS reproduction.

.PHONY: install test tier1 bench artifacts report serve-smoke clean

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
#   only when streaming analysis == monolithic analysis of the same
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

clean:
	rm -rf benchmarks/out .pytest_cache .hypothesis .benchmarks \
	       report_out test_output.txt bench_output.txt serve-fleet \
	       serve-manifest.json serve-scale-manifest.json
	find . -name __pycache__ -type d -exec rm -rf {} +
