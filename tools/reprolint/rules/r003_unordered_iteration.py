"""R003 — no order-sensitive accumulation over unordered collections."""

from __future__ import annotations

import ast
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Union

from ..base import (
    Rule,
    SourceFile,
    Violation,
    assigned_names,
    iter_function_scopes,
    walk_scope,
)

#: Packages whose float pipelines feed ranked answers.  An
#: order-of-summation difference here changes score bits, which changes
#: tie-breaks, which changes answers.
SCORING_PACKAGES = ("repro.core", "repro.index", "repro.inference", "repro.text")

#: Builtins/constructors that produce a set.
SET_BUILDERS = frozenset({"set", "frozenset"})

#: Methods returning a set when called on a set-ish receiver.
SET_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference",
})

#: Dict-view accessors (insertion-ordered, but still flagged inside float
#: sums — see the rule docstring for why).
DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})

#: Accumulation callables whose result depends on float summation order.
SUM_CALLABLES = frozenset({"sum", "fsum"})

#: Annotations that declare a set-typed attribute (``values: Set[str]``).
SET_ANNOTATIONS = frozenset({"Set", "FrozenSet", "AbstractSet", "set", "frozenset"})

#: Calls that copy their argument's iteration order into a sequence.
ORDER_KEEPERS = frozenset({"list", "tuple", "dict", "enumerate", "reversed", "iter"})

#: Methods that grow a list/dict/deque in call order.
FILL_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "setdefault", "update",
})

_Comp = Union[ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp]

#: Position of a hash-ordered value in what a function returns: an index
#: into a returned tuple, or ``WHOLE`` for a single returned value.
WHOLE = -1


def _is_sorted_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("sorted", "min", "max", "len")
    )


class _ScopeSets:
    """Best-effort, single-pass inference of set-typed local names."""

    def __init__(
        self, body: Sequence[ast.stmt], set_attrs: AbstractSet[str] = frozenset()
    ) -> None:
        self.names: Set[str] = set()
        #: Attribute names the module annotates as sets (``x.values``).
        self.set_attrs = set_attrs
        for node in walk_scope(body):
            if isinstance(node, ast.Assign):
                self._note(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._note([node.target], node.value)

    def _note(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        bound: Set[str] = set()
        for target in targets:
            bound |= assigned_names(target)
        if not bound:
            return
        if self.is_set_expr(value):
            self.names |= bound
        else:
            self.names -= bound  # rebound to something non-set

    def is_set_expr(self, node: ast.AST) -> bool:
        """Is ``node`` statically recognizable as producing a set?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in SET_BUILDERS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in SET_METHODS
                and self.is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def is_dict_view(self, node: ast.AST) -> bool:
        """Is ``node`` a ``.keys()``/``.values()``/``.items()`` call?"""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in DICT_VIEW_METHODS
            and not node.args
        )


def _set_typed_attributes(tree: ast.Module) -> Set[str]:
    """Attribute names some class body of the module annotates as a set."""
    attrs: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                continue
            annotation = stmt.annotation
            if isinstance(annotation, ast.Subscript):
                annotation = annotation.value
            if isinstance(annotation, ast.Attribute):  # typing.Set[...]
                name: Optional[str] = annotation.attr
            else:
                name = annotation.id if isinstance(annotation, ast.Name) else None
            if name in SET_ANNOTATIONS:
                attrs.add(stmt.target.id)
    return attrs


def _accumulates(body: Sequence[ast.stmt]) -> bool:
    """Does ``body`` fold values with ``+=``/``*=``/…?  (``+= 1`` only counts.)"""
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.AugAssign) and not (
                isinstance(sub.value, ast.Constant)
                and isinstance(sub.value.value, int)
            ):
                return True
    return False


def _container_name(node: ast.AST) -> Optional[str]:
    """The local a subscript / fill-method chain bottoms out in, if any."""
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Subscript):
            node = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FILL_METHODS
        ):
            node = node.func.value  # x.setdefault(k, []).append(v)
        else:
            return None


def _filled_names(body: Sequence[ast.stmt]) -> Set[str]:
    """Locals that ``body`` grows in execution order (append, ``x[k] = v``…)."""
    names: Set[Optional[str]] = set()
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                names.add(_container_name(sub))
            elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                names.update(
                    _container_name(t) for t in targets
                    if isinstance(t, ast.Subscript)
                )
    return {name for name in names if name is not None}


class _OrderFlow:
    """Which locals hold a set's iteration order, statement by statement.

    A set iterated into a list or dict hands its hash-salted order to an
    insertion-ordered container, and every container filled while
    iterating *that* inherits it in turn.  The rule walks one scope in
    source order and feeds this tracker every statement: a ``for`` over an
    unordered iterable taints what its body fills, assignment from an
    order-keeping expression taints the target, and ``x.sort()`` or
    re-assignment from anything else (``sorted(x)``) clears it.  Calls to
    functions of the same module carry the taint through their return
    values (``returns``: function name -> hash-ordered positions).
    """

    def __init__(self, sets: _ScopeSets, returns: Dict[str, Set[int]]) -> None:
        self.sets = sets
        self.returns = returns
        self.tainted: Set[str] = set()
        self.returned: Set[int] = set()

    def is_unordered(self, node: ast.AST) -> bool:
        """Does iterating ``node`` follow a set's order, directly or not?"""
        return not _is_sorted_call(node) and (
            self.sets.is_set_expr(node) or self.holds_set_order(node)
        )

    def holds_set_order(self, node: ast.AST) -> bool:
        """Is ``node`` an ordered container whose order came from a set?"""
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return any(self.is_unordered(comp.iter) for comp in node.generators)
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ORDER_KEEPERS:
                return any(self.is_unordered(arg) for arg in node.args)
            return WHOLE in self.returns.get(func.id, ())
        return (
            isinstance(func, ast.Attribute)
            and func.attr in DICT_VIEW_METHODS | {"copy"}
            and self.holds_set_order(func.value)
        )

    def visit(self, node: ast.AST) -> None:
        """Update the tainted set for one statement of the scope."""
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind(node.target, node.value)
        elif isinstance(node, ast.For):
            if self.is_unordered(node.iter):
                self.tainted |= _filled_names(node.body)
        elif isinstance(node, ast.Call):
            func = node.func  # x.sort(): canonical order restored
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "sort"
                and isinstance(func.value, ast.Name)
            ):
                self.tainted.discard(func.value.id)
        elif isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Tuple):
                self.returned |= {
                    pos for pos, elt in enumerate(node.value.elts)
                    if self.holds_set_order(elt)
                }
            elif self.holds_set_order(node.value):
                self.returned.add(WHOLE)

    def _bind(self, target: ast.AST, value: ast.AST) -> None:
        positions = (
            self.returns.get(value.func.id)
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            else None
        )
        if positions and isinstance(target, (ast.Tuple, ast.List)):
            for pos, element in enumerate(target.elts):  # a, b = f(...)
                self._mark(assigned_names(element), pos in positions)
        else:
            self._mark(assigned_names(target), self.holds_set_order(value))

    def _mark(self, names: Set[str], tainted: bool) -> None:
        if tainted:
            self.tainted |= names
        else:
            self.tainted -= names


def _in_source_order(body: Sequence[ast.stmt]) -> List[ast.AST]:
    nodes = [n for n in walk_scope(body) if hasattr(n, "lineno")]
    nodes.sort(key=lambda n: (n.lineno, n.col_offset))
    return nodes


def _hash_ordered_returns(
    tree: ast.Module, set_attrs: AbstractSet[str]
) -> Dict[str, Set[int]]:
    """Per module-level function: which returned values hold a set's order."""
    functions = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    returns: Dict[str, Set[int]] = {}
    changed = True
    while changed:  # monotone: taint only ever grows, so this terminates
        changed = False
        for func in functions:
            flow = _OrderFlow(_ScopeSets(func.body, set_attrs), returns)
            for node in _in_source_order(func.body):
                flow.visit(node)
            if flow.returned - returns.get(func.name, set()):
                returns.setdefault(func.name, set()).update(flow.returned)
                changed = True
    return returns


class UnorderedIterationRule(Rule):
    """No float accumulation over set (or dict-view) iteration in scoring code.

    Set iteration order depends on element hashes — and string hashing is
    salted per process (``PYTHONHASHSEED``) — so ``sum(w(x) for x in s)``
    over a set ``s`` of strings can produce *different float bits on
    different runs* of the same corpus and query: float addition is not
    associative.  Inside ``repro.core``/``repro.index``/``repro.inference``/
    ``repro.text`` — the packages whose floats feed ranked answers — that
    breaks the engine's headline bit-identity guarantee.  Iterate
    ``sorted(...)`` (canonical order, run-independent) or restructure so
    the accumulation happens over an insertion-ordered sequence.

    Three shapes are flagged:

    - ``sum(...)``/``math.fsum(...)`` whose generator iterates a set-typed
      expression *or* a dict view (dict order is insertion order — stable
      within one build path, but two backends may populate the same dict
      in different orders, so a float reduction over a view still deserves
      a look; suppress with a reason when the insertion order is provably
      input-determined);
    - a ``for`` loop over a set-typed expression whose body accumulates
      via augmented assignment (``+=``, ``*=``, …; ``+= 1`` is counting and
      exempt);
    - either of the above over a list or dict that was *filled while
      iterating a set* — directly, through further containers filled from
      it, or through the return value of a function in the same module
      (the ``by_value`` -> ``shared`` -> ``candidates`` -> ``matched``
      chain that put ``PYTHONHASHSEED`` into ``build_edges``' nsim sums).
      A set-typed attribute counts when a class in the module annotates
      it (``values: Set[str]``).

    Wrapping the iterable in ``sorted()``, or calling ``.sort()`` on the
    container before it is summed, satisfies the rule.
    """

    id = "R003"
    title = "order-sensitive accumulation over an unordered collection"

    def applies(self, source: SourceFile) -> bool:
        return source.module.startswith(SCORING_PACKAGES)

    def check(self, source: SourceFile) -> List[Violation]:
        if not self.applies(source):
            return []
        set_attrs = _set_typed_attributes(source.tree)
        returns = _hash_ordered_returns(source.tree, set_attrs)
        violations: List[Violation] = []
        for _scope, body in iter_function_scopes(source.tree):
            flow = _OrderFlow(_ScopeSets(body, set_attrs), returns)
            for node in _in_source_order(body):
                if isinstance(node, ast.Call):
                    violations.extend(self._check_sum(source, node, flow))
                elif isinstance(node, ast.For):
                    violations.extend(self._check_loop(source, node, flow))
                flow.visit(node)
        return violations

    def _check_sum(
        self, source: SourceFile, node: ast.Call, flow: _OrderFlow
    ) -> List[Violation]:
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in SUM_CALLABLES or not node.args:
            return []
        arg = node.args[0]
        if not isinstance(
            arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
        ):
            return []
        sets = flow.sets
        out: List[Violation] = []
        for comp in arg.generators:
            if _is_sorted_call(comp.iter):
                continue
            if sets.is_set_expr(comp.iter):
                out.append(self.violation(
                    source, comp.iter,
                    f"float `{name}(...)` iterates a set — order is "
                    "hash-salted per process; iterate sorted(...) instead",
                ))
            elif sets.is_dict_view(comp.iter):
                out.append(self.violation(
                    source, comp.iter,
                    f"float `{name}(...)` iterates a dict view — order is "
                    "insertion order, which must be proven backend-invariant; "
                    "iterate sorted(...) or suppress with a reason",
                ))
            elif flow.holds_set_order(comp.iter):
                out.append(self.violation(
                    source, comp.iter,
                    f"float `{name}(...)` iterates a container filled in a "
                    "set's iteration order — hash-salted per process; sort "
                    "it before summing",
                ))
        return out

    def _check_loop(
        self, source: SourceFile, node: ast.For, flow: _OrderFlow
    ) -> List[Violation]:
        if not flow.is_unordered(node.iter) or not _accumulates(node.body):
            return []
        if flow.sets.is_set_expr(node.iter):
            return [self.violation(
                source, node.iter,
                "loop over a set accumulates via augmented "
                "assignment — set order is hash-salted per process; "
                "iterate sorted(...) instead",
            )]
        return [self.violation(
            source, node.iter,
            "loop accumulates over a container filled in a set's iteration "
            "order — hash-salted per process; sort it before the loop",
        )]
