# Convenience targets; everything also runs as the plain commands shown.
PYTHONPATH := src

.PHONY: test coverage lint reprolint typecheck check docs docs-coverage \
	bench-serve

test:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q

# One side of the serving claim's paired runs: serve_zipf, tracing off,
# seeds 211-213, result records into OUT, run from the checkout TREE
# (default: this one).  Run it for both trees, then `python -m
# benchmarks.e2e compare PARENT_OUT CHANGE_OUT` (README, "Serving over HTTP").
TREE ?= .
bench-serve:
	@test -n "$(OUT)" || \
		{ echo "usage: make bench-serve OUT=dir [TREE=checkout]"; exit 2; }
	cd "$(TREE)" && for seed in 211 212 213; do \
		python3 benchmarks/e2e/run.py --workload serve_zipf --trace 0 \
			--seed $$seed --out "$(abspath $(OUT))" || exit 1; \
	done

# Branch coverage over repro.index + the stdlib gate (tools/coverage_gate:
# package line floor, binfmt.py at 100% branch). Needs `pip install
# pytest-cov` (the `cov` extra; CI's coverage job installs it).
coverage:
	@python -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed: pip install pytest-cov"; exit 1; }
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q \
		--cov=repro.index --cov-branch --cov-report=xml --cov-report=term
	python tools/coverage_gate.py coverage.xml

# Lint gate (rule set pinned in pyproject.toml). Needs `pip install ruff`
# (the CI lint job installs it; the runtime itself stays stdlib-only).
lint:
	@command -v ruff >/dev/null 2>&1 || \
		{ echo "ruff is not installed: pip install ruff"; exit 1; }
	ruff check .

# Repo-specific invariant linter (stdlib-only, no install needed).
# Rules + escape-hatch grammar: DESIGN.md, "Static guarantees".
reprolint:
	python -m tools.reprolint

# Strict typing gate. Needs `pip install mypy` (CI installs the pinned
# version from the `typecheck` extra; the runtime stays stdlib-only).
typecheck:
	@command -v mypy >/dev/null 2>&1 || \
		{ echo "mypy is not installed: pip install mypy"; exit 1; }
	mypy --strict src/repro tests/typing

# The full static gate, exactly what CI runs: style+bug lint, strict
# types, and the repo's own invariants.
check: lint typecheck reprolint

# Generated API reference (docs/api/). Needs `pip install pdoc` (CI
# installs it; the runtime itself stays stdlib-only).
docs:
	@python -c "import pdoc" 2>/dev/null || \
		{ echo "pdoc is not installed: pip install pdoc"; exit 1; }
	PYTHONPATH=$(PYTHONPATH) python -m pdoc repro.service repro.index repro.exec repro.serve repro.cli -o docs/api
	@echo "API reference written to docs/api/"

# Stdlib-only docstring gate (CI additionally runs interrogate).
docs-coverage:
	python tools/docstring_coverage.py --fail-under 95 -v \
		src/repro/service src/repro/index src/repro/exec src/repro/serve \
		src/repro/cli.py src/repro/core src/repro/inference \
		src/repro/flow src/repro/consolidate
