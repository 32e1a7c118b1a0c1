# Convenience targets for the REFINE reproduction.

PY ?= python3
SAMPLES ?= 60

.PHONY: install test test-fast bench bench-paper campaign results-tables examples loc profile profile-hangs clean

install:
	pip install -e .

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY) -m pytest tests/

test-fast:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY) -m pytest tests/ -x -q -p no:warnings

bench:
	REPRO_SAMPLES=$(SAMPLES) $(PY) -m pytest benchmarks/ --benchmark-only

# The paper's statistical setting (n = 1068): expect ~30 min on one core.
bench-paper:
	REPRO_SAMPLES=1068 $(PY) -m pytest benchmarks/ --benchmark-only

# Full 44,856-experiment campaign -> results/full_campaign.json
campaign:
	$(PY) scripts/run_full_campaign.py 1068 results/full_campaign.json

results-tables:
	$(PY) scripts/render_results.py results/full_campaign.json

examples:
	@for f in examples/*.py; do \
	  echo "== $$f"; REPRO_SAMPLES=50 $(PY) $$f || exit 1; \
	done

# Line counts per package (src/repro, tests, perfbench): what CHANGES.md quotes.
loc:
	$(PY) scripts/loc.py

# One cold cell (compile -> load -> profile -> run_batch) under cProfile:
# the tails by how they ended, top functions and every builtins.compile
# call by caller.
profile:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY) scripts/profile_cell.py lulesh REFINE -n 24

# The cell where hangs repeat: its census reads "timeout 125 -> 48 executed,
# 77 reused" (a hang is executed once per distinct state, not per experiment).
profile-hangs:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY) scripts/profile_cell.py EP REFINE --fault-model cache-line -n 320

# results/bench_artifacts/ holds the tracked paper tables: not build debris.
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
