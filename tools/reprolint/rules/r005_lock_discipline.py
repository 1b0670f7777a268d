"""R005 — attributes written under a lock are written *only* under it."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..base import Rule, SourceFile, Violation, self_attribute

#: Method names whose call mutates the receiver in place.
MUTATING_METHODS = frozenset({
    "add", "append", "extend", "insert", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "move_to_end", "put",
    "subtract", "sort", "reverse",
})

#: Methods that establish object state before it is shared — mutations
#: here are single-threaded by construction and exempt.
CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _lock_name(item: ast.withitem) -> Optional[str]:
    """``"X"`` when the with-item is ``self.X`` and X looks like a lock."""
    expr = item.context_expr
    attr = self_attribute(expr)
    if attr is not None and "lock" in attr.lower():
        return attr
    return None


@dataclass
class _Mutation:
    """One write to ``self.<attr>`` with the lock context it happened in."""

    attr: str
    node: ast.AST
    method: str
    locks: Tuple[str, ...]  # lock attrs held lexically at the write
    describe: str


@dataclass
class _MethodFacts:
    """Per-method summary: mutations, and self-calls with their lock context."""

    name: str
    mutations: List[_Mutation] = field(default_factory=list)
    #: (callee method name, locks held at the call site)
    calls: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)


class _MethodVisitor(ast.NodeVisitor):
    """Collect mutations and self-calls of one method, tracking lock nesting."""

    def __init__(self, method: str) -> None:
        self.method = method
        self.facts = _MethodFacts(method)
        self._locks: List[str] = []

    # -- lock scopes ------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        names = [n for n in (_lock_name(item) for item in node.items) if n]
        self._locks.extend(names)
        for stmt in node.body:
            self.visit(stmt)
        for _ in names:
            self._locks.pop()
        # items' context expressions may contain calls worth tracking
        for item in node.items:
            self.visit(item.context_expr)

    # -- nested defs get their own (conservative: same-lock) context ------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.generic_visit(node)

    # -- mutations --------------------------------------------------------

    def _record(self, attr: str, node: ast.AST, describe: str) -> None:
        self.facts.mutations.append(_Mutation(
            attr=attr,
            node=node,
            method=self.method,
            locks=tuple(self._locks),
            describe=describe,
        ))

    def _check_target(self, target: ast.AST, node: ast.AST, verb: str) -> None:
        attr = self_attribute(target)
        if attr is not None:
            self._record(attr, node, f"{verb} of `self.{attr}`")
        elif isinstance(target, ast.Subscript):
            attr = self_attribute(target.value)
            if attr is not None:
                self._record(attr, node, f"item {verb} on `self.{attr}`")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element, node, verb)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node, "assignment")
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node, "assignment")
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node, "augmented assignment")
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node, "deletion")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver_attr = self_attribute(func.value)
            if receiver_attr is not None and func.attr in MUTATING_METHODS:
                self._record(
                    receiver_attr, node,
                    f"mutating call `self.{receiver_attr}.{func.attr}(...)`",
                )
            callee = self_attribute(func)
            if callee is not None:
                self.facts.calls.append((callee, tuple(self._locks)))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # A bare `self.method` reference handed somewhere (e.g. a callback
        # passed while holding the lock) counts as a call in that context.
        if isinstance(node.ctx, ast.Load):
            attr = self_attribute(node)
            if attr is not None:
                self.facts.calls.append((attr, tuple(self._locks)))
        self.generic_visit(node)


class LockDisciplineRule(Rule):
    """Attributes written under ``self._lock`` are never written outside it.

    If *any* method writes ``self.x`` inside ``with self._lock:``, the
    class has declared ``x`` to be lock-protected shared state — a write
    to it anywhere else in the class without that lock is a race window
    (half-applied mutations become visible to the locked readers).  This
    is exactly the discipline the corpus's probe/mutation serialization
    and the service's stats counters rely on.

    The analysis is per class, flow-insensitive, and propagates through
    private helpers: a method only ever invoked (or referenced) while the
    lock is held — e.g. ``_recount`` called from ``add_tables``'s locked
    region — inherits the lock context transitively, so helpers don't
    need renaming or re-locking.  ``__init__``/``__post_init__``/``__new__``
    are exempt (state is not yet shared during construction).  Reads are
    out of scope — the rule polices writers, the side that tears state.
    """

    id = "R005"
    title = "lock-guarded attribute mutated outside its lock"

    def check(self, source: SourceFile) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                violations.extend(self._check_class(source, node))
        return violations

    def _check_class(
        self, source: SourceFile, cls: ast.ClassDef
    ) -> List[Violation]:
        methods: Dict[str, _MethodFacts] = {}
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visitor = _MethodVisitor(stmt.name)
                for inner in stmt.body:
                    visitor.visit(inner)
                methods[stmt.name] = visitor.facts

        # Pass 1: which methods are *always* entered with some lock held?
        # A method qualifies when every self-call/reference to it happens
        # inside a lock region (directly, or from another qualifying
        # method) and at least one such reference exists.
        held: Dict[str, Set[str]] = {}  # method -> locks guaranteed held
        changed = True
        while changed:
            changed = False
            for name in methods:
                if name in CONSTRUCTION_METHODS:
                    continue
                call_sites: List[Set[str]] = []
                for facts in methods.values():
                    for callee, locks in facts.calls:
                        if callee != name:
                            continue
                        site = set(locks)
                        if facts.name in held:
                            site |= held[facts.name]
                        call_sites.append(site)
                if not call_sites:
                    continue
                common = set.intersection(*call_sites)
                if common and held.get(name) != common:
                    held[name] = common
                    changed = True
                elif not common and name in held:
                    del held[name]
                    changed = True

        def effective_locks(mutation: _Mutation) -> Set[str]:
            locks = set(mutation.locks)
            locks |= held.get(mutation.method, set())
            return locks

        # Pass 2: the guarded set — attrs written with some lock held.
        guarded: Dict[str, Set[str]] = {}  # attr -> locks it was written under
        for facts in methods.values():
            if facts.name in CONSTRUCTION_METHODS:
                continue
            for mutation in facts.mutations:
                locks = effective_locks(mutation)
                if locks:
                    guarded.setdefault(mutation.attr, set()).update(locks)

        # Never treat the locks themselves as guarded state.
        for attr in list(guarded):
            if "lock" in attr.lower():
                del guarded[attr]

        # Pass 3: flag unprotected writes to guarded attrs.
        violations: List[Violation] = []
        for facts in methods.values():
            if facts.name in CONSTRUCTION_METHODS:
                continue
            for mutation in facts.mutations:
                if mutation.attr not in guarded:
                    continue
                if effective_locks(mutation) & guarded[mutation.attr]:
                    continue
                locks = " / ".join(sorted(guarded[mutation.attr]))
                violations.append(self.violation(
                    source, mutation.node,
                    f"{mutation.describe} in `{cls.name}.{facts.name}` "
                    f"without holding `self.{locks}`, but the attribute is "
                    "lock-guarded elsewhere in this class",
                ))
        return violations
