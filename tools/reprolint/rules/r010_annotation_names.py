"""R010 — every name an annotation uses is bound in its module."""

from __future__ import annotations

import ast
import builtins
from typing import Iterator, List, Set

from ..base import Rule, SourceFile, Violation

#: Names every module can use without binding them.
BUILTIN_NAMES = frozenset(dir(builtins))


def _bound_names(tree: ast.Module) -> Set[str]:
    """Every name the module binds anywhere, at any depth.

    Imports count wherever they sit — under ``if TYPE_CHECKING:`` included,
    which is where annotation-only imports belong — as do defs, classes,
    parameters, and any assignment, loop, ``with``, ``except`` or
    comprehension target.  Binding anywhere is deliberately generous: the
    rule exists to catch a name that no line of the module binds at all.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    """Every annotation expression: parameters, returns, annotated targets."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            for param in params:
                if param.annotation is not None:
                    yield param.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(annotation: ast.expr) -> Iterator[ast.Name]:
    """The names an annotation reads, quoted forward references included.

    An attribute chain contributes only its root (``typing.List`` reads
    ``typing``).  The strings inside ``Literal[...]`` are values, not
    references, and a string that does not parse as an expression is
    documentation; both are left alone.
    """
    stack: List[ast.AST] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            for inner in _used_names(quoted.body):
                # Report at the quoted string's own position.
                yield ast.copy_location(inner, node)
        elif isinstance(node, ast.Subscript) and _is_literal(node.value):
            stack.append(node.value)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _is_literal(node: ast.expr) -> bool:
    """``Literal`` or ``<module>.Literal``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "Literal"
    return isinstance(node, ast.Name) and node.id == "Literal"


class AnnotationNamesRule(Rule):
    """Every name an annotation uses is bound in its module.

    With ``from __future__ import annotations`` an annotation is never
    evaluated at run time, so a name it uses that the module never
    imports or defines — ``InferenceFn`` in an exec stage helper,
    ``Tuple``/``Optional`` in the HTML parser's hooks — runs fine,
    passes every test, and fails ``mypy --strict`` and ruff's F821 in CI
    only.  This rule catches it where those tools are not installed.  A
    name counts as bound when the module binds it anywhere: an import
    (under ``if TYPE_CHECKING:`` too), a def or class, a parameter, or an
    assignment target; builtins are always bound.  Quoted forward
    references are checked like bare ones.
    """

    id = "R010"
    title = "annotation uses a name its module never binds"

    def check(self, source: SourceFile) -> List[Violation]:
        bound = _bound_names(source.tree) | BUILTIN_NAMES
        violations: List[Violation] = []
        for annotation in _annotations(source.tree):
            for name in _used_names(annotation):
                if name.id not in bound:
                    violations.append(self.violation(
                        source, name,
                        f"annotation uses `{name.id}`, which this module "
                        "never imports or defines; import it (under "
                        "`if TYPE_CHECKING:` when only annotations need it)",
                    ))
        return violations
