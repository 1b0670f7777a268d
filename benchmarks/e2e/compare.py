"""``compare A B``: is result set B a regression against result set A?

A result set is a directory of the JSON records a run writes under
``--out``.  For each workload and end-to-end metric the untraced records
of each side are reduced to a median and quartiles, and judged against the
bound ``BENCHMARK.json`` fixes for the metric:

- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: the run-to-run spread of either side is wider than the
  bound, so a difference of that size cannot be told from noise (unless
  every run of B reads better than every run of A);
- ``ok``: otherwise.

Traced records are matched by workload and seed, and their exact-repeat
counts (``*_per_query``) must be equal.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["compare_main", "load_set", "quartiles", "spread", "verdict"]

Records = List[Dict[str, Any]]


def load_set(path: Path) -> Records:
    """Every result record under ``path`` (a directory or one file)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    if not records:
        raise SystemExit(f"{path}: no result records")
    return records


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """(``ok`` / ``regressed`` / ``unresolved``, share by which B is worse)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        clean_win = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("ok" if clean_win else "unresolved"), worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def _values(records: Records, workload: str, metric: str) -> List[float]:
    return [
        r["metrics"][metric]["value"] for r in records
        if r["workload"] == workload and not r["trace"]
        and metric in r["metrics"]
    ]


def compare_main(argv: Sequence[str], spec: Dict[str, Any]) -> int:
    """Print the comparison table; exit code 1 on any ``regressed``,
    differing exact count, or failed correctness gate in B."""
    if len(argv) != 2:
        raise SystemExit("usage: compare A B   (two result directories)")
    side_a, side_b = load_set(Path(argv[0])), load_set(Path(argv[1]))
    bad = False
    print(
        f"{'workload':<12} {'metric':<14} {'A q1/median/q3':>30} "
        f"{'B q1/median/q3':>30} {'B/A':>7} {'bound':>6}  verdict"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = _values(side_a, workload, name)
            b = _values(side_b, workload, name)
            if not a or not b:
                continue
            result, worse_by = verdict(a, b, metric["better"], metric["bound"])
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"{workload:<12} {name:<14} "
                f"{qa[0]:>9.3f}/{qa[1]:>9.3f}/{qa[2]:>9.3f}  "
                f"{qb[0]:>9.3f}/{qb[1]:>9.3f}/{qb[2]:>9.3f} "
                f"{qb[1] / qa[1]:>7.3f} {metric['bound']:>6g}  {result}"
                f" (B worse by {worse_by:+.1%} of A's {qa[1]:.3f} "
                f"{metric['unit']}; n={len(a)}/{len(b)})"
            )
            bad = bad or result == "regressed"

    traced_b = {
        (r["workload"], r["seed"]): r for r in side_b if r["trace"]
    }
    for r in side_a:
        other = traced_b.get((r["workload"], r["seed"])) if r["trace"] else None
        if other is None:
            continue
        for name, cell in r["metrics"].items():
            if not name.endswith("_per_query"):
                continue
            same = cell["value"] == other["metrics"][name]["value"]
            print(
                f"{r['workload']:<12} seed={r['seed']} {name}: "
                f"{cell['value']} vs {other['metrics'][name]['value']}  "
                f"{'identical' if same else 'DIFFERS'}"
            )
            bad = bad or not same
    for r in side_b:
        if r["failed"]:
            print(
                f"{r['workload']:<12} seed={r['seed']} trace={r['trace']}: "
                f"{r['failed']} of {r['attempted']} operations failed in B"
            )
            bad = True
    return 1 if bad else 0
