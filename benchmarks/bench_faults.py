# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock availability/latency by design; results are reports, not ranked answers
"""Fault-tolerance benchmark: availability and latency under injected chaos.

Measures what the failure-domain machinery (``repro.faults`` +
``ShardedCorpus`` health tracking) buys the serving path:

- **fault-rate sweep**: for shard-probe fault rates of 0%, 1%, and 10%
  (seeded, deterministic), the availability (fraction of queries
  answered at full coverage), the degraded ratio, served-latency
  p50/p95, and the crash count — which must be **zero** at every rate:
  injected shard failures degrade answers, they never break them;
- **recovery**: quarantine one shard with a one-shot fault, then measure
  the wall-clock time until a query again answers at full coverage —
  the reopen-probation lifecycle observed end-to-end.

The 0% row doubles as the inertness gate: with the health machinery
armed but no faults injected, every answer must be complete and
undegraded (fatal under ``--strict``, as is any crash or a shard that
never recovers).  Latency numbers are recorded, never gated
(shared-runner jitter).

Emits machine-readable ``BENCH_faults.json``; CI runs ``--smoke
--strict`` and uploads the artifact.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_faults.py --smoke
    PYTHONPATH=src python benchmarks/bench_faults.py \
        --scale 0.4 --rates 0 0.01 0.1 --out results/BENCH_faults.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.corpus.generator import CorpusConfig, generate_corpus  # noqa: E402
from repro.exec.stats import percentile  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultRule,
    HealthPolicy,
    Once,
    WithProbability,
    injected,
)
from repro.faults.injection import POINT_SHARD_SEARCH  # noqa: E402
from repro.index import ShardedCorpus, build_sharded_corpus  # noqa: E402
from repro.query.workload import WORKLOAD  # noqa: E402
from repro.service import EngineConfig, WWTService  # noqa: E402

NUM_SHARDS = 3

#: Caches off: every answer exercises the scatter path, so availability
#: reflects the corpus, not the result cache.
UNCACHED = dict(cache_size=0, probe_cache_size=0)  # reprolint: disable=R004 -- config constant (never mutated), not a cache


def health_corpus(tables, policy):
    """A health-enabled serial sharded corpus over ``tables``."""
    built = build_sharded_corpus(tables, NUM_SHARDS)
    return ShardedCorpus(
        built.shards, built.stats, validate=False, health=policy,
    )


def bench_fault_rate(tables, queries, rate, seed, policy):
    """One fault rate: availability, degraded ratio, latency, crashes."""
    service = WWTService(health_corpus(tables, policy),
                         EngineConfig(**UNCACHED))
    served_ms = []
    degraded = 0
    crashes = 0
    fires = 0
    rules = (
        [FaultRule(POINT_SHARD_SEARCH, WithProbability(rate, seed))]
        if rate > 0.0 else []
    )
    with injected(*rules) as injector:
        for query in queries:
            t0 = time.perf_counter()
            try:
                full = service.answer_full(query, use_cache=False)
            except Exception:  # noqa: BLE001 - the metric being measured
                crashes += 1
                continue
            served_ms.append((time.perf_counter() - t0) * 1000.0)
            if full.degraded:
                degraded += 1
        fires = injector.fires()
    return {
        "fault_rate": rate,
        "injected_faults": fires,
        "availability": round((len(queries) - degraded - crashes)
                              / len(queries), 3),
        "degraded_ratio": round(degraded / len(queries), 3),
        "crashes": crashes,
        "served_p50_ms": round(percentile(served_ms, 0.50), 3)
        if served_ms else None,
        "served_p95_ms": round(percentile(served_ms, 0.95), 3)
        if served_ms else None,
    }


def bench_recovery(tables, query, policy, timeout_s=30.0):
    """Quarantine one shard, then time the heal back to full coverage."""
    corpus = health_corpus(tables, policy)
    service = WWTService(corpus, EngineConfig(**UNCACHED))
    with injected(FaultRule(POINT_SHARD_SEARCH, Once(), key="1")):
        first = service.answer_full(query, use_cache=False)
    outage_start = time.perf_counter()
    queries_to_recover = 0
    recovered = False
    while time.perf_counter() - outage_start < timeout_s:
        queries_to_recover += 1
        service.answer_full(query, use_cache=False)
        if corpus.coverage().complete:
            recovered = True
            break
        time.sleep(policy.reopen_after_s / 10.0)
    recovery_s = time.perf_counter() - outage_start
    return {
        "outage_was_partial": first.degraded,
        "reopen_after_s": policy.reopen_after_s,
        "recovered": recovered,
        "recovery_s": round(recovery_s, 3),
        "queries_to_recover": queries_to_recover,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--scale", type=float, default=None,
                        help="corpus scale (default 0.4)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--queries", type=int, default=None,
                        help="workload queries to run (default: all 59)")
    parser.add_argument("--rates", type=float, nargs="+", default=None,
                        help="shard-probe fault rates to sweep "
                             "(default: 0 0.01 0.1)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast sweep for CI; fills any unset "
                             "option with scale 0.1 and 16 queries")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on any crash, on a degraded "
                             "answer at rate 0, or on a shard that never "
                             "recovers (latency is recorded, never gated)")
    parser.add_argument("--out", metavar="PATH",
                        default=str(REPO_ROOT / "results"
                                    / "BENCH_faults.json"))
    args = parser.parse_args(argv)

    smoke_defaults = (0.1, 16, [0.0, 0.01, 0.10])
    full_defaults = (0.4, None, [0.0, 0.01, 0.10])
    for name, value in zip(
        ("scale", "queries", "rates"),
        smoke_defaults if args.smoke else full_defaults,
    ):
        if getattr(args, name) is None:
            setattr(args, name, value)

    # Heal windows sized to the query cadence (a few ms each): a failed
    # shard gets retried within a query or two, so the sweep shows the
    # full outage -> backoff -> heal cycle instead of one sticky outage.
    policy = HealthPolicy(
        max_retries=1, backoff_s=0.005, backoff_factor=2.0,
        max_backoff_s=0.1, reopen_after_s=0.05,
    )
    queries = [wq.query for wq in WORKLOAD[: args.queries]]
    t0 = time.perf_counter()
    synthetic = generate_corpus(CorpusConfig(seed=args.seed, scale=args.scale))
    tables = list(synthetic.corpus)
    print(f"faults benchmark: scale={args.scale} "
          f"({len(tables)} tables, {NUM_SHARDS} shards, "
          f"{time.perf_counter() - t0:.1f}s to build), "
          f"{len(queries)} queries, rates={args.rates}", flush=True)

    sweep = []
    for i, rate in enumerate(args.rates):
        row = bench_fault_rate(tables, queries, rate, args.seed + i, policy)
        sweep.append(row)
        print(f"  rate {rate:>5.1%}: availability {row['availability']:.0%}, "
              f"degraded {row['degraded_ratio']:.0%}, "
              f"crashes {row['crashes']}, "
              f"faults {row['injected_faults']}, "
              f"served p95 {row['served_p95_ms']}ms", flush=True)

    recovery = bench_recovery(tables, queries[0], policy)
    print(f"  recovery: partial outage={recovery['outage_was_partial']}, "
          f"healed in {recovery['recovery_s']}s "
          f"({recovery['queries_to_recover']} probes, "
          f"reopen window {recovery['reopen_after_s']}s)", flush=True)

    report = {
        "benchmark": "faults",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "config": {
            "seed": args.seed,
            "scale": args.scale,
            "num_queries": len(queries),
            "num_shards": NUM_SHARDS,
            "rates": args.rates,
            "smoke": args.smoke,
            "health_policy": {
                "max_retries": policy.max_retries,
                "backoff_s": policy.backoff_s,
                "reopen_after_s": policy.reopen_after_s,
            },
        },
        "fault_sweep": sweep,
        "recovery": recovery,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"wrote {out}")

    failures = []
    total_crashes = sum(row["crashes"] for row in sweep)
    if total_crashes:
        failures.append(f"{total_crashes} crash(es) under injected faults")
    zero_rows = [row for row in sweep if row["fault_rate"] == 0.0]
    if any(row["degraded_ratio"] > 0.0 for row in zero_rows):
        failures.append("degraded answers with no faults injected "
                        "(inertness regression)")
    if not recovery["recovered"]:
        failures.append("quarantined shard never recovered")
    for failure in failures:
        print(f"WARNING: {failure}", file=sys.stderr)
    if failures and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
