"""R009 — a ``WebTable`` is immutable once constructed."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from ..base import Rule, SourceFile, Violation

#: The only module that may write a table's content: its constructor.
OWNER_MODULE = "repro.tables.table"

#: The ``WebTable`` attributes the compiled form is derived from.
TABLE_FIELDS = frozenset({
    "grid", "num_title_rows", "num_header_rows", "context", "page_title",
})

#: The two of them that are containers, and the calls that write one.
CONTAINER_FIELDS = frozenset({"grid", "context"})
MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
})


def _table_field(node: ast.AST, fields: frozenset) -> Optional[str]:
    """``"X"`` when ``node`` is ``<expr>.X`` for a table field ``X`` and
    ``<expr>`` is not ``self`` (another class's own attribute)."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in fields
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ):
        return node.attr
    return None


def _container_field(node: ast.AST) -> Optional[str]:
    """The table container ``node`` indexes into: ``t.grid[0][1]`` -> grid."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _table_field(node, CONTAINER_FIELDS)


def _written_targets(node: ast.AST) -> Iterator[ast.AST]:
    """The leaf targets an assignment, augmented assignment or ``del`` writes."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            yield target


class TableImmutabilityRule(Rule):
    """Nothing outside ``repro.tables.table`` writes a ``WebTable``.

    A table's :class:`~repro.tables.compiled.CompiledTable` — every cell
    tokenized once, kept on the table object — is computed on first use
    and never invalidated: it has no key, no capacity and no clear hook,
    because it is data derived from the table.  That is only sound if the
    table cannot change underneath it.  So outside the constructor's
    module no code may assign, augment or delete ``<t>.grid``,
    ``<t>.num_title_rows``, ``<t>.num_header_rows``, ``<t>.context`` or
    ``<t>.page_title``, write an item of ``<t>.grid`` / ``<t>.context``
    (``t.grid[0][1] = ...``), or call a mutating list method on them
    (``append``, ``extend``, ``insert``, ``pop``, ``remove``, ``clear``,
    ``sort``, ``reverse``).  Cells and context snippets are frozen
    dataclasses already.  A receiver spelled ``self`` is another class's
    own attribute and is exempt.  To change a table, build a new one
    (``WebTable(...)``): a new object starts with no compiled form, which
    is also why delete-then-re-add under one id cannot serve a stale one.
    """

    id = "R009"
    title = "WebTable written after construction"

    def check(self, source: SourceFile) -> List[Violation]:
        if source.module == OWNER_MODULE:
            return []
        violations: List[Violation] = []
        for node in ast.walk(source.tree):
            for target in _written_targets(node):
                field = _table_field(target, TABLE_FIELDS)
                what = f"`.{field}` is assigned"
                if field is None and isinstance(target, ast.Subscript):
                    field = _container_field(target)
                    what = f"an item of `.{field}` is written"
                if field is not None:
                    violations.append(self._flag(source, target, what))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
            ):
                field = _container_field(node.func.value)
                if field is not None:
                    violations.append(self._flag(
                        source, node,
                        f"`.{field}` is mutated by `.{node.func.attr}()`",
                    ))
        return violations

    def _flag(self, source: SourceFile, node: ast.AST, what: str) -> Violation:
        return self.violation(
            source, node,
            f"{what} outside {OWNER_MODULE}: a WebTable is immutable once "
            "constructed (its compiled form is never invalidated); build "
            "a new table instead",
        )
