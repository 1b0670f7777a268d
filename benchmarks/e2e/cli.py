"""Command line of the benchmark: run workloads, compare result sets.

::

    python3 benchmarks/e2e/run.py --workload paper59 --seed 1 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e --seed 42            # all four
    PYTHONPATH=src python -m benchmarks.e2e --seed 42 --trace    # + traced
    PYTHONPATH=src python -m benchmarks.e2e compare results/a results/b

Each run prints its metrics by name with unit, sample count and regression
bound, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` (exactly the end-to-end metrics of ``BENCHMARK.json`` with
tracing off, exactly its per-layer metrics with tracing on).  The exit
code is non-zero when a correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from . import inputs
from .compare import compare_main
from .measure import Tracer, spin_ms
from .serving import serve_zipf
from .workloads import Outcome, Run, bigcorpus, ingest_live, paper59

__all__ = ["ROOT", "WORKLOADS", "load_spec", "main", "run_workload"]

#: The checkout: the directory that holds ``BENCHMARK.json`` and ``src/``.
ROOT = Path(__file__).resolve().parents[2]

WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "paper59": paper59,
    "bigcorpus": bigcorpus,
    "serve_zipf": serve_zipf,
    "ingest_live": ingest_live,
}


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fingerprint() -> Dict[str, Any]:
    """Where a result came from: machine, interpreter, commit if known."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Tuple[Dict[str, Any], Optional[Tracer]]:
    """Run one workload; returns the result record (see ``README.md``)
    and, for a traced run, the tracer that holds its spans."""
    spec = load_spec()
    spin_before = spin_ms()
    # Everything the run builds lives under the checkout and is removed
    # afterwards, whether the run succeeded or not.
    scratch = Path(tempfile.mkdtemp(prefix=".bench_scratch-", dir=ROOT))
    try:
        outcome = WORKLOADS[name](Run(
            seed=seed, seconds=seconds, trace=trace,
            sizes=inputs.SMOKE if smoke else inputs.FULL,
            scratch=scratch, root=ROOT,
        ))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.extras["host.spin_ms"] = ((spin_before + spin_ms()) / 2, "ms")
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {missing}")
    metrics = {
        m["name"]: {
            "value": outcome.metrics[m["name"]][0],
            "unit": outcome.metrics[m["name"]][1],
        }
        for m in wanted
    }
    named = {m["name"] for m in wanted}
    extras = {
        key: {"value": value, "unit": unit}
        for key, (value, unit) in sorted(
            list(outcome.extras.items())
            + [kv for kv in outcome.metrics.items() if kv[0] not in named]
        )
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": metrics,
        "extras": extras,
        "samples": outcome.samples,
        "digests": outcome.digests,
        "machine": fingerprint(),
    }
    return record, outcome.tracer


def print_result(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """The human-readable table above the final JSON line."""
    trace = result["trace"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"seconds={result['seconds']:g}  trace={trace}"
        f"{'  (smoke)' if result['smoke'] else ''} =="
    )
    print(
        "per-layer metrics (traced replay)" if trace
        else "end-to-end metrics (tracing off)"
    )
    samples = result["samples"]
    for name, cell in result["metrics"].items():
        count = samples.get("traced_queries" if trace else name, "")
        bound = bounds.get(name)
        print(
            f"  {name:<34} {cell['value']:>14.4f} {cell['unit']:<6}"
            f" n={count!s:<6}"
            + (f" bound={bound:g}" if bound is not None else "")
        )
    if result["extras"]:
        print("workload extras (outside BENCHMARK.json's metric set)")
        for name, cell in result["extras"].items():
            print(f"  {name:<34} {cell['value']:>14.4f} {cell['unit']}")
    ratio = result["failed"] / max(1, result["attempted"])
    print(
        f"correctness: attempted={result['attempted']} "
        f"failed={result['failed']} failed_ratio={ratio:.6f}"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for key, value in result["digests"].items():
        print(f"digest {key}: {value}")


def save_result(
    result: Dict[str, Any], tracer: Optional[Tracer], out: Path
) -> None:
    """Write the record (and the span log of a traced run) under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-trace{result['trace']}-seed{result['seed']}"
    if tracer is not None:
        spans = out / f"spans-{result['workload']}.jsonl"
        tracer.write(spans)
        result["spans_file"] = spans.name
    (out / f"{stem}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the exit code."""
    # A terminated run still stops its server and removes its scratch
    # directory: SIGTERM unwinds through the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:], load_spec())
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="run one workload (default: all four, in BENCHMARK.json order)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed phase (default: BENCHMARK.json's "
             "run_seconds; 1 with --smoke)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=2, default=0,
        help="0: end-to-end metrics, tracing off (the default); 1: the "
             "traced layer replay and per-layer metrics; bare --trace: "
             "each workload untraced, then again traced",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpora and one set-up, for the smoke test",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / "results" / "e2e",
        help="directory for result records and span logs "
             "(default: results/e2e, which git ignores)",
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    names = (
        [args.workload] if args.workload is not None
        else [w["name"] for w in spec["workloads"]]
    )
    modes = (False, True) if args.trace == 2 else (bool(args.trace),)
    correct = True
    for name in names:
        for trace in modes:
            result, tracer = run_workload(
                name, args.seed, seconds, trace, args.smoke
            )
            print_result(result, spec)
            save_result(result, tracer, args.out)
            correct = correct and result["correct"]
            print(json.dumps({
                key: result[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }), flush=True)
    return 0 if correct else 1
