"""The repo benchmark: ``benchmarks/e2e`` (declared in ``BENCHMARK.json``)."""
