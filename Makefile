# Developer entry points. `make verify` is the tier-1 gate every PR must
# keep green; `make bench-smoke` times the query engine (GC off for stable
# numbers, appends to BENCH_query.json), the update path (bench-update,
# appends cold-recompile vs in-place-patch timings to BENCH_update.json),
# the search kernel (bench-search -> BENCH_search.json), the sharded
# prediction service (bench-serve, shard-count throughput/p50/p99 sweeps
# -> BENCH_serve.json), and the network gateway (bench-net, connect /
# pipelined-QPS / delta-push-latency sweeps -> BENCH_net.json).
# `make examples` runs every script under examples/ and fails on the
# first non-zero exit (~30 s; kept out of tier-1).

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: verify bench-smoke bench bench-update bench-search bench-serve bench-net bench-obs equivalence examples

verify:
	$(PYTEST) -x -q

bench-update:
	BENCH_RECORD=1 $(PYTEST) benchmarks/test_update_performance.py -q

bench-search:
	BENCH_RECORD=1 $(PYTEST) benchmarks/test_search_performance.py -q
	python benchmarks/check_search_floor.py

bench-serve:
	BENCH_RECORD=1 $(PYTEST) benchmarks/test_serve_performance.py -q
	python benchmarks/check_serve_floor.py

bench-net:
	BENCH_RECORD=1 $(PYTEST) benchmarks/test_net_performance.py -q
	python benchmarks/check_net_floor.py
	python benchmarks/check_obs_overhead.py

bench-obs:
	BENCH_RECORD=1 $(PYTEST) benchmarks/test_net_performance.py -q -k bench_gateway
	python benchmarks/check_obs_overhead.py

bench-smoke: bench-update bench-search bench-serve bench-net
	BENCH_RECORD=1 $(PYTEST) benchmarks/test_query_performance.py -q \
		--benchmark-disable-gc --benchmark-min-rounds=5 --benchmark-warmup=off

bench:
	BENCH_RECORD=1 $(PYTEST) benchmarks -q --benchmark-disable-gc

equivalence:
	$(PYTEST) tests/test_compiled_equivalence.py \
		tests/test_runtime_delta_chain.py \
		tests/test_search_kernel_property.py \
		tests/test_delta_codec.py \
		tests/test_serve_equivalence.py \
		tests/test_net_equivalence.py -q

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; \
		PYTHONPATH=src python $$f > /dev/null || exit 1; \
	done
