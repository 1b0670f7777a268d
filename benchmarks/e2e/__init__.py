"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root is the contract; this package is the
program behind it.  The engine under test (``src/repro``) is measured from
outside: it receives only generated inputs, and every span is recorded by
this package around calls into the engine's public functions.

See ``README.md`` in this directory for the workload and metric glossary,
the run/compare commands and the recorded baseline.
"""
