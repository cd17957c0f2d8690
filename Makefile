# ACACIA reproduction -- developer entry points

PYTHON ?= python

.PHONY: test lint perfbench-selftest bench bench-resilience examples quick exp-smoke scenario-validate reachability all clean-results

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q

lint:   ## same gate as CI (needs ruff on PATH: pip install ruff)
	ruff check src/ tests/ benchmarks/ tools/ examples/

perfbench-selftest:   ## benchmark self-tests, every figure benchmark collects, one pinned traced pass per workload
	$(PYTHON) -m pytest perfbench -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks --collect-only -q
	$(PYTHON) perfbench/run.py --workload relocation_walk --seconds 0 --trace 1
	$(PYTHON) perfbench/run.py --workload attach_storm --seconds 0 --trace 1
	$(PYTHON) perfbench/run.py --workload ar_session --seconds 0 --trace 1

exp-smoke:   ## tiny 2-seed experiment spec end-to-end through the parallel runner
	PYTHONPATH=src $(PYTHON) -m repro exp run smoke --workers 2

scenario-validate:   ## validate the whole scenario catalogue, then run the CI smoke scenario
	PYTHONPATH=src $(PYTHON) -m repro scenario validate
	PYTHONPATH=src $(PYTHON) -m repro scenario run quick_test --serial --output /tmp/quick_test_result.json

reachability:   ## functions in src/repro that no shipped run reaches (16-18 min on 2 CPUs)
	$(PYTHON) tools/reachability.py

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q

bench-resilience:   ## chaos sweep: control-plane success under signalling loss
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_resilience_chaos.py -q

quick:   ## tests + the sub-second benchmarks only
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q \
	    --ignore=benchmarks/test_ext_tcp_dataplane.py \
	    --ignore=benchmarks/test_fig3g_background_traffic.py \
	    --ignore=benchmarks/test_fig8_dataplane.py \
	    --ignore=benchmarks/test_fig9_localization.py \
	    --ignore=benchmarks/test_fig10a_qci_rtt.py \
	    --ignore=benchmarks/test_fig10b_isolation.py

examples:   ## run every example script end to end
	@for script in examples/*.py; do \
	    echo "=== $$script ==="; \
	    PYTHONPATH=src $(PYTHON) $$script || exit 1; \
	done

all: test bench examples

clean-results:
	rm -rf benchmarks/results
