# Developer entry points. Run from the repository root.
#
#   make test        - tier-1 test suite (the gate every PR must keep green)
#   make chaos       - fault-injection suite for the sharded service
#                      (shards killed with SIGKILL, hung with SIGSTOP)
#                      under a hard wall-clock timeout
#   make bench-smoke - fast serving + streaming + kernel + service benchmarks
#                      (assert speedups; smoke runs gate against
#                      benchmarks/baselines.json with recorded margins).
#                      Every gate runs and prints its verdict and wall
#                      time; the target fails at the end, naming the
#                      gates that failed
#   make bench       - every paper-table benchmark (slow: trains many selectors)
#   make stream-demo - run the streaming quickstart example end to end
#   make obs-demo    - run the observability walkthrough example end to end
#   make distill-demo - run the distill + quantize + refresh example end to end
#   make cascade-demo - run the cost-aware cascade + SLO admission example
#   make examples    - run every script in examples/ end to end
#   make docs-check  - docstring + documentation-link checks

PYTHON ?= python
PYTHONPATH := src

#: hard wall-clock ceiling for the chaos suite — a hung shard or a stuck
#: recovery loop must fail the build, not wedge it
CHAOS_TIMEOUT ?= 600

.PHONY: test chaos bench-smoke bench stream-demo obs-demo distill-demo cascade-demo examples docs-check

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

chaos:
	PYTHONPATH=$(PYTHONPATH) timeout $(CHAOS_TIMEOUT) $(PYTHON) -m pytest -x -q tests/chaos

bench-smoke:
	@export PYTHONPATH=$(PYTHONPATH); \
	total=$$(date +%s); failed=""; \
	gate() { name=$$1; shift; start=$$(date +%s); \
	  if "$$@"; then verdict=pass; else verdict=FAIL; failed="$$failed $$name"; fi; \
	  echo "gate $$name: $$verdict in $$(( $$(date +%s) - start ))s"; }; \
	gate bench-pytest        $(PYTHON) -m pytest -q benchmarks/bench_serving_throughput.py benchmarks/bench_streaming_throughput.py; \
	gate detector-kernels    $(PYTHON) benchmarks/bench_detector_kernels.py --smoke; \
	gate streaming           $(PYTHON) benchmarks/bench_streaming_throughput.py --smoke; \
	gate service-scalability $(PYTHON) benchmarks/bench_service_scalability.py --smoke; \
	gate serving-tiers       $(PYTHON) benchmarks/bench_serving_throughput.py --smoke; \
	gate e2e-slo             $(PYTHON) benchmarks/bench_e2e_slo.py --smoke; \
	echo "bench-smoke total: $$(( $$(date +%s) - total ))s"; \
	if [ -n "$$failed" ]; then echo "bench-smoke failed gates:$$failed"; exit 1; fi

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q benchmarks/

stream-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/streaming_quickstart.py

obs-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/observability_demo.py

distill-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/distill_demo.py

cascade-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/cascade_demo.py

examples:
	@for example in examples/*.py; do \
	  echo "== $$example"; PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$example || exit 1; \
	done

docs-check:
	$(PYTHON) tools/docs_check.py
