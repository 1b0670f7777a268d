"""R006 — ``repro.exec`` never swallows deadlines or cancellation."""

from __future__ import annotations

import ast
from typing import List

from ..base import Rule, SourceFile, Violation

#: Exception names that carry a deadline/cancellation signal — or are
#: broad enough to catch one by accident.
SIGNAL_EXCEPTIONS = frozenset({
    "DeadlineExceeded",
    "ExecutionCancelled",
    "TimeoutError",
    "CancelledError",
    "Exception",
    "BaseException",
})

#: The execution engine package this rule patrols.
EXEC_PACKAGE = "repro.exec"


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    node = handler.type
    if node is None:
        return ["<bare except>"]
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names: List[str] = []
    for expr in exprs:
        if isinstance(expr, ast.Name):
            names.append(expr.id)
        elif isinstance(expr, ast.Attribute):
            names.append(expr.attr)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) for node in ast.walk(handler)
    )


class SwallowedCancellationRule(Rule):
    """No ``except`` in ``repro.exec`` may swallow deadline/cancellation.

    The execution engine's contract (DESIGN.md, "Execution engine") is
    that :class:`DeadlineExceeded` (with ``degraded_ok`` off) and
    :class:`ExecutionCancelled` propagate to the caller — they are the
    *mechanism* of deadline enforcement and cooperative cancellation, not
    error conditions a stage may recover from.  A handler inside
    ``repro.exec`` that catches them (directly, or via ``TimeoutError``/
    ``Exception``/a bare ``except``) and does not re-raise turns a
    hard-deadline query into a silent full-latency one and makes
    ``CancellationToken.cancel()`` a no-op.  Catch narrower exceptions,
    or re-raise after cleanup.
    """

    id = "R006"
    title = "except clause swallows deadline/cancellation in repro.exec"

    def check(self, source: SourceFile) -> List[Violation]:
        if not source.module.startswith(EXEC_PACKAGE):
            return []
        violations: List[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = [
                name for name in _handler_names(node)
                if name in SIGNAL_EXCEPTIONS or name == "<bare except>"
            ]
            if caught and not _reraises(node):
                violations.append(self.violation(
                    source, node,
                    f"except clause catching {', '.join(sorted(caught))} "
                    "swallows the engine's deadline/cancellation signal; "
                    "catch narrower exceptions or re-raise",
                ))
        return violations
