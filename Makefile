# Convenience targets for the FGCS reproduction.

.PHONY: install test bench artifacts report serve-smoke clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

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
