# Convenience targets for the REFINE reproduction.

PY ?= python3

.PHONY: install test test-fast bench paper experiments-md examples loc profile profile-hangs profile-cold clean

install:
	pip install -e .

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY) -m pytest tests/

test-fast:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY) -m pytest tests/ -x -q -p no:warnings

# Listings, Table 3, sampling appendix, ablations (none runs a campaign).
bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# The paper's 14 x 3 x 1068 matrix at both published seeds, the way a user
# runs it: refine-campaign --submit to a service (2 workers, queue, results
# DB) -> refine-db report -> compare report.json with
# results/full_campaign*.json outside `provenance`.  Measured: 2 x 3.2 min on
# a 2-core box (~235 exps/s through the service; inline, one core, 2 x 2.8 min).
# A number that moved on purpose: copy the report.json the failure names
# over the published file, `make experiments-md`, say why in CHANGES.md.
paper:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY) -m pytest -x -q -m slow tests/test_paper.py

# Refill EXPERIMENTS.md's <!-- generated:NAME --> blocks with what
# `refine-db report` renders over results/full_campaign*.json (tier-1 holds
# the document to it: tests/test_published.py).
experiments-md:
	PYTHONPATH=src:.$${PYTHONPATH:+:$$PYTHONPATH} $(PY) -c "import tests.test_published as t; t.EXPERIMENTS.write_text(t.spliced_experiments(), encoding='utf-8')"

examples:
	@for f in examples/*.py; do \
	  echo "== $$f"; REPRO_SAMPLES=50 $(PY) $$f || exit 1; \
	done

# Line counts per package (src/repro, benchmarks, scripts, tests, perfbench):
# what CHANGES.md quotes.
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

# One cold_small lap (14 programs x 3 tools x n = 24, each cell built from
# nothing) under one profiler: the census and cursor cost summed over the 42
# cells, then the top 40 by self time and by cumulative time — where the next
# cold-path change should look before anyone guesses.
profile-cold:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY) scripts/profile_cell.py all all -n 24 --top 40

# results/ holds the tracked paper data and listings: not build debris.
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
