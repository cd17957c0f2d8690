# ACACIA reproduction -- developer entry points

PYTHON ?= python

.PHONY: test lint bench bench-matcher bench-resilience bench-scale bench-scale-smoke bench-continuity bench-continuity-smoke bench-shard bench-shard-smoke examples quick exp-smoke scenario-validate ops-soak-smoke all clean-results

test:
	$(PYTHON) -m pytest tests/ -q

lint:   ## same gate as CI (needs ruff on PATH: pip install ruff)
	ruff check src/ tests/ benchmarks/ tools/ examples/

exp-smoke:   ## tiny 2-seed experiment spec end-to-end through the parallel runner
	PYTHONPATH=src $(PYTHON) -m repro exp run smoke --workers 2

scenario-validate:   ## validate the whole scenario catalogue, then run the CI smoke scenario
	PYTHONPATH=src $(PYTHON) -m repro scenario validate
	PYTHONPATH=src $(PYTHON) -m repro scenario run quick_test --serial --output /tmp/quick_test_result.json

ops-soak-smoke:   ## compressed diurnal soak through the operator runtime: 0 dropped sessions, autoscaler active, byte-identical reruns
	PYTHONPATH=src $(PYTHON) tools/ops_soak_smoke.py --duration 600

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-matcher:   ## engine comparison on the Fig 11a workload -> BENCH_matcher.json
	PYTHONPATH=src $(PYTHON) tools/bench_matcher.py

bench-resilience:   ## chaos sweep: control-plane success under signalling loss
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_resilience_chaos.py --benchmark-only -q

bench-scale:   ## fluid vs packet data plane + 100k-UE scenario -> BENCH_scale.json
	PYTHONPATH=src $(PYTHON) tools/bench_scale.py

bench-scale-smoke:   ## quick fluid-plane gates, no committed output
	PYTHONPATH=src $(PYTHON) tools/bench_scale.py --smoke --out /tmp/BENCH_scale_smoke.json

bench-continuity:   ## relocation policies across the edge fabric -> BENCH_continuity.json
	PYTHONPATH=src $(PYTHON) tools/bench_continuity.py

bench-continuity-smoke:   ## quick continuity + determinism gates, no committed output
	PYTHONPATH=src $(PYTHON) tools/bench_continuity.py --smoke --out /tmp/BENCH_continuity_smoke.json

bench-shard:   ## sharded vs single-process: identity on all presets + 4-site speedup -> BENCH_shard.json
	PYTHONPATH=src $(PYTHON) tools/bench_shard.py

bench-shard-smoke:   ## 2-site digest identity + speedup floor, no committed output
	PYTHONPATH=src $(PYTHON) tools/bench_shard.py --smoke --out /tmp/BENCH_shard_smoke.json

quick:   ## tests + the sub-second benchmarks only
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q \
	    --ignore=benchmarks/test_fig3g_background_traffic.py \
	    --ignore=benchmarks/test_fig10a_qci_rtt.py \
	    --ignore=benchmarks/test_fig10b_isolation.py

examples:
	@for script in examples/*.py; do \
	    echo "=== $$script ==="; \
	    $(PYTHON) $$script || exit 1; \
	done

all: test bench examples

clean-results:
	rm -rf benchmarks/results .benchmarks
