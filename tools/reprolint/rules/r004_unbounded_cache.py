"""R004 — memoization state must be bounded (``BoundedCache``), not a dict."""

from __future__ import annotations

import ast
from typing import List, Optional

from ..base import (
    DICT_BUILDERS,
    Rule,
    SourceFile,
    Violation,
    self_attribute,
)

def _cache_like(name: str) -> bool:
    lowered = name.lower()
    return "cache" in lowered or "memo" in lowered


def _dict_shaped(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        callee: Optional[str] = None
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        return callee in DICT_BUILDERS
    return False


class UnboundedCacheRule(Rule):
    """No dict-shaped ``*_cache``/``*_memo`` attributes — use ``BoundedCache``.

    A plain ``self._foo_cache = {}`` grows with its key space forever: for
    corpus-keyed memos (terms, cells, query columns) that is unbounded
    memory on a long-lived service, and — the lesson of PR 4's PMI² cache
    promotion — such dicts also tend to be mutated from probe threads
    without a lock.  :class:`repro.core.features.BoundedCache` is the one
    sanctioned primitive: LRU-bounded (eviction only ever costs
    recomputation, never correctness), thread-safe, and hit/miss
    instrumented so ``WWTService.stats()`` can report it.  Instance,
    class, and module-level bindings are checked; function locals are
    exempt (they die with the call, so they are bounded by construction).
    """

    id = "R004"
    title = "unbounded dict-shaped cache attribute; use BoundedCache"

    def check(self, source: SourceFile) -> List[Violation]:
        violations: List[Violation] = []
        module_level = set(source.tree.body)
        class_level = {
            stmt
            for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
        }
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not _dict_shaped(value):
                continue
            for target in targets:
                attr = self_attribute(target)
                if attr is not None and _cache_like(attr):
                    violations.append(self.violation(
                        source, node,
                        f"`self.{attr}` is an unbounded dict-shaped cache; "
                        "use repro.core.features.BoundedCache",
                    ))
                elif (
                    isinstance(target, ast.Name)
                    and _cache_like(target.id)
                    and (node in module_level or node in class_level)
                ):
                    violations.append(self.violation(
                        source, node,
                        f"`{target.id}` is an unbounded dict-shaped cache; "
                        "use repro.core.features.BoundedCache",
                    ))
        return violations
