"""R008 — recovery paths must record the failures they absorb."""

from __future__ import annotations

import ast
from typing import List

from ..base import Rule, SourceFile, Violation

#: The packages whose recovery paths this rule patrols: the storage layer
#: (shard loads, journal replay, scrubbing), the serving front door, and
#: the fault-injection machinery itself.
RECOVERY_PACKAGES = ("repro.index", "repro.serve", "repro.faults")

#: Call names that count as recording the absorbed failure to a counter
#: or error seam.  Matched on the called name's final segment, so both
#: ``front.count_refusal(...)`` and a local ``record_issue(...)`` qualify.
RECORDING_NAMES = frozenset({
    "record_issue",      # scrub: structured defect reporting
    "set_exception",     # Future: the failure travels to the waiter
    "count_refusal",     # serve counters: refusal taxonomy
    "mark_degraded",     # ExecutionContext: degradation flag + reason
    "fail",              # binfmt._Reader: uniform path:offset ValueError
})


def _handler_records(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in RECORDING_NAMES:
            return True
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) for node in ast.walk(handler)
    )


class UnrecordedRecoveryRule(Rule):
    """Recovery paths in ``repro.index``/``repro.serve``/``repro.faults``
    must record every failure they absorb.

    These packages are where the engine's robustness machinery lives:
    shard loads, journal replay, the serving front door, and offline
    scrubbing.  Their value rests on one property — **no failure is
    silent**: an absorbed exception either travels on (to a waiting
    future), degrades the answer (and says why), or surfaces as a
    counted refusal or a structured report.  An ``except`` that merely
    swallows breaks that chain: the answer is silently wrong — the
    precise failure mode the chaos suite exists to rule out.  Every
    handler here must re-raise, or call a recording seam
    (``record_issue``, ``set_exception``, ``count_refusal``,
    ``mark_degraded``, the binfmt reader's ``fail``), or carry a
    ``reprolint: disable=R008`` comment whose reason explains why
    silence is correct there.
    """

    id = "R008"
    title = "except clause absorbs a failure without recording it"

    def check(self, source: SourceFile) -> List[Violation]:
        if not source.module.startswith(RECOVERY_PACKAGES):
            return []
        violations: List[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _reraises(node) or _handler_records(node):
                continue
            violations.append(self.violation(
                source, node,
                "except clause absorbs a failure without recording it to a "
                "counter or error seam (record_issue, set_exception, "
                "count_refusal, ...); record it, re-raise, or disable with "
                "a reasoned comment",
            ))
        return violations
