"""reprolint — the repo-specific invariant linter (stdlib ``ast`` only).

Nine machine-checkable rules encode the invariants behind the engine's
headline guarantee — bit-identical rankings across every backend — plus
the concurrency discipline the execution engine relies on and the
annotation hygiene the CI type checkers enforce:

==== =====================================================================
R001 wall-clock reads only through the ``repro.exec.context`` clock seam
R002 no module-level/unseeded ``random`` — rngs are passed explicitly
R003 no float accumulation in a set's order, direct or inherited (scoring)
R004 no unbounded dict-shaped caches — memoization uses ``BoundedCache``
R005 attributes written under ``self._lock`` are written only under it
R007 no mutable default arguments, repo-wide
R008 recovery paths record every failure they absorb
R009 a ``WebTable`` is never written outside ``repro.tables.table``
R010 every name an annotation uses is bound in its module
==== =====================================================================

Run ``python -m tools.reprolint`` (defaults to ``src benchmarks tools``),
or ``make reprolint`` / ``make check``.  Suppress a finding with
``# reprolint: disable=RXXX -- reason`` — the reason is mandatory and a
bare disable is itself an error.  See DESIGN.md, "Static guarantees".
"""

from __future__ import annotations

from .base import Rule, SourceFile, Violation
from .engine import (
    DEFAULT_TARGETS,
    Suppressions,
    iter_python_files,
    lint_file,
    lint_paths,
)
from .rules import ALL_RULES, RULES_BY_ID

__version__ = "1.0.0"

__all__ = [
    "ALL_RULES",
    "DEFAULT_TARGETS",
    "RULES_BY_ID",
    "Rule",
    "SourceFile",
    "Suppressions",
    "Violation",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "__version__",
]
