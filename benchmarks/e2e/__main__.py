"""``python -m benchmarks.e2e`` (from the repo root, ``PYTHONPATH=src``)."""

from .cli import main

raise SystemExit(main())
