"""The command ``BENCHMARK.json`` names: ``python3 benchmarks/e2e/run.py``.

Finds the checkout from its own location, puts the engine's sources
(``src/``) and the repo root on ``sys.path``, and hands over to
:func:`benchmarks.e2e.cli.main`.  In a directory that holds the benchmark
but not the program it measures, it exits with code 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
            "measures the engine in src/ and cannot run without it\n"
        )
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.cli import main

    raise SystemExit(main())
