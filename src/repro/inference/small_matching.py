"""Exact small-instance matching for Section 4.1 and Fig. 3 (§4.2.3).

Every candidate table is one tiny capacitated bipartite matching: its
``n_t`` columns against the ``q`` query labels plus ``na``.  Max flow
saturates the left side, so a solution is an *assignment*: each column
takes exactly one label, each query label at most once, ``na`` at most
``na_cap`` times.  :class:`~repro.flow.bipartite.BipartiteMatcher` solves
it as a min-cost max-flow; for the small instances of a query this module
computes the same floats, bit for bit, without building a flow network —
or declines, and the caller runs the matcher, which stays the general
solver and the test oracle.

**When it decides.**  Only when the best assignment beats every other
feasible one by more than :data:`GAP`.  The flow solver compares path
costs with a tolerance of ``EPS`` = 1e-9 per edge, so its result is within
a few 1e-8 of optimal; with the optimum ``GAP`` clear of the runner-up no
other assignment is within reach, and the flow's matching *is* the unique
optimum.  ``GAP`` also dwarfs float spacing at the ``M1`` bonus (1e6,
spacing ~1.2e-10), so comparing float totals cannot misrank two
assignments either.

**The total.**  ``MatchingResult.total_weight`` accumulates the matched
weights with ``+`` in row-major ``(i, j)`` order from ``0.0``, one pair per
row; :func:`rank_assignments` adds the same floats in the same order.  It
never calls ``sum()``: Python 3.12's float ``sum`` is compensated.

**Max-marginals.**  Fig. 3 reads ``mm[i][j] = opt - d - (-w[i][j])`` off the
final residual graph, ``d`` being the Bellman–Ford distance from label
node ``R_j`` to column node ``L_i``.  Once the assignment is unique the
residual graph is fixed by it: unmatched ``L_i -> R_k`` at cost ``-w``,
matched ``R_k -> L_i`` at ``w``, and the balancing dummy's edges (at
``0.0`` into a label that a column holds, at ``-0.0`` back out of a label
the dummy fills); the source is a dead end and the sink unreachable.
Bellman–Ford's distance is the float of some simple path, summed along
the path from ``0.0``, whose cost is within a few ``EPS`` of the shortest.
:func:`max_marginal_matrix` enumerates every simple path from ``R_j``
and, per target ``L_i``, keeps the smallest float and the smallest
*different* float.  When the two are more than ``GAP`` apart every path
Bellman–Ford could have settled on sums to the first float, so ``d`` is
known exactly; when they are not, the whole table goes to the matcher.

**Width.**  Enumeration grows with ``n_t`` and ``q`` faster than the flow
solver does; wider or more-labelled tables than :data:`MAX_EXACT_COLUMNS`
and :data:`MAX_EXACT_LABELS` go to the matcher.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "GAP",
    "MAX_EXACT_COLUMNS",
    "MAX_EXACT_LABELS",
    "Ranking",
    "max_marginal_matrix",
    "rank_assignments",
]

#: The margin by which an exact answer must beat its runner-up.
GAP = 1e-6
#: Widest table solved exactly: the measured crossover against the flow
#: solver.  At ``q = 3`` (the worst case) the exact path took 94 / 197 us
#: (solve / Fig. 3) against the flow's 132 / 226 us at 6 columns, and
#: 159 / 283 us against 160 / 257 us at 7 (random potentials, CPython
#: 3.11, 2 vCPU; DESIGN.md, "Hot-path engine").
MAX_EXACT_COLUMNS = 6
#: Most query labels solved exactly (queries have at most three columns).
MAX_EXACT_LABELS = 3

INF = float("inf")
NEG_INF = float("-inf")

_Rows = Sequence[Sequence[float]]
#: One label per column, ``q`` meaning ``na``.
_Assignment = Tuple[int, ...]


def _enumerate(nt: int, q: int) -> List[Tuple[_Assignment, int]]:
    """Every assignment of ``nt`` columns with query labels used at most
    once, with its number of ``na`` columns."""
    out: List[Tuple[_Assignment, int]] = []
    for assign in itertools.product(range(q + 1), repeat=nt):
        used = [j for j in assign if j != q]
        if len(used) == len(set(used)):
            out.append((assign, nt - len(used)))
    return out


#: ``_ASSIGNMENTS[nt][q]``: the feasible assignments of every shape solved
#: exactly, built once at import (a few thousand small tuples).
_ASSIGNMENTS: Dict[int, Dict[int, List[Tuple[_Assignment, int]]]] = {
    nt: {q: _enumerate(nt, q) for q in range(1, MAX_EXACT_LABELS + 1)}
    for nt in range(MAX_EXACT_COLUMNS + 1)
}


class Ranking(NamedTuple):
    """The best assignment of a table and how far it leads."""

    #: One label per column, ``q`` meaning ``na``.
    assignment: _Assignment
    #: Its weights added in row order from ``0.0``.
    total: float
    #: The largest total of any other feasible assignment.
    runner_up: float

    def unique(self) -> bool:
        """Does the best beat the runner-up by more than :data:`GAP`?"""
        return self.total - self.runner_up > GAP


def rank_assignments(rows: _Rows, q: int, na_cap: int) -> Optional[Ranking]:
    """The best assignment, its flow-order total and the runner-up's total.

    ``rows[i]`` holds column ``i``'s weights for labels ``0..q-1`` and, at
    index ``q``, ``na``; at most ``na_cap`` columns take ``na``.  When the
    ranking is :meth:`~Ranking.unique`, the best is what
    ``BipartiteMatcher(rows, [1] * n_t, [1] * q + [na_cap]).solve()``
    returns: its pairs are ``enumerate(assignment)`` and its
    ``total_weight`` is the total, bit for bit.  Whatever the gap, no
    assignment the matcher can return has a larger total.  ``None`` when
    the shape is too large or a weight is not finite.
    """
    nt = len(rows)
    if nt > MAX_EXACT_COLUMNS or not 1 <= q <= MAX_EXACT_LABELS:
        return None
    if not math.isfinite(sum(map(sum, rows))):
        return None
    best = second = NEG_INF
    best_assign: _Assignment = ()
    for assign, n_na in _ASSIGNMENTS[nt][q]:
        if n_na > na_cap:
            continue
        total = 0.0
        for row, j in zip(rows, assign):
            total += row[j]
        if total > best:
            best, second, best_assign = total, best, assign
        elif total > second:
            second = total
    return Ranking(best_assign, best, second)


def _residual_graph(
    rows: _Rows, q: int, assign: _Assignment
) -> List[List[Tuple[int, float]]]:
    """Fig. 3's residual graph after the flow solver found ``assign``.

    Nodes: ``L_i = i``, ``R_k = n_t + k`` (``k = q`` is ``na``, capacity
    ``n_t``) and the dummy ``n_t + q + 1`` that feeds the ``q`` surplus
    units of right capacity.  The source (every edge out of it saturated)
    and the sink (every edge into it saturated) add no path and are left
    out.  Costs are the network's: ``-w`` forward, its negation backward.
    """
    nt = len(rows)
    dummy = nt + q + 1
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(dummy + 1)]
    for i, row in enumerate(rows):
        a = assign[i]
        adj[i] = [(nt + k, -row[k]) for k in range(q + 1) if k != a]
        adj[nt + a].append((i, row[a]))  # -(-w): negation is exact
    # Right node k receives the dummy's flow for its capacity the columns
    # leave unused: a free label fully, na for n_t minus its columns.
    held = [0] * (q + 1)
    for a in assign:
        held[a] += 1
    caps = [1] * q + [nt]
    for k in range(q + 1):
        if held[k] > 0:
            adj[dummy].append((nt + k, 0.0))
        if held[k] < caps[k]:
            adj[nt + k].append((dummy, -0.0))
    return adj


def _path_floats(
    adj: List[List[Tuple[int, float]]], src: int, nt: int
) -> Tuple[List[float], List[float]]:
    """Per column node: the smallest float of a simple path from ``src``
    (summed along the path from ``0.0``) and the smallest different one.

    A column node is entered only from its own label's node, which is
    then on the path, so the search steps through column nodes without
    marking them and recurses on label and dummy nodes only.
    """
    best = [INF] * nt
    second = [INF] * nt
    on_path = [False] * len(adj)

    def visit(u: int, d: float) -> None:
        on_path[u] = True
        for v, cost in adj[u]:
            if on_path[v]:
                continue
            x = d + cost
            if v >= nt:
                visit(v, x)
                continue
            b = best[v]
            if x < b:
                second[v] = b
                best[v] = x
            elif b < x < second[v]:
                second[v] = x
            for m, step in adj[v]:
                if not on_path[m]:
                    visit(m, x + step)
        on_path[u] = False

    visit(src, 0.0)
    return best, second


def max_marginal_matrix(rows: _Rows, q: int) -> Optional[List[List[float]]]:
    """Fig. 3's all-pairs forced optima, or ``None``.

    Returns what ``BipartiteMatcher(rows, [1] * n_t, [1] * q + [n_t])``'s
    ``solve()`` then ``max_marginals()`` return, or ``None`` when
    the assignment or some forced optimum's path is not :data:`GAP`-unique.
    """
    nt = len(rows)
    ranked = rank_assignments(rows, q, nt)
    if ranked is None or not ranked.unique():
        return None
    assign, opt = ranked.assignment, ranked.total
    adj = _residual_graph(rows, q, assign)
    mm = [[NEG_INF] * (q + 1) for _ in range(nt)]
    for j in range(q + 1):
        best, second = _path_floats(adj, nt + j, nt)
        for i in range(nt):
            if assign[i] == j:
                mm[i][j] = opt
                continue
            d = best[i]
            if d == INF:
                continue
            if not second[i] - d > GAP:
                return None
            mm[i][j] = opt - d - (-rows[i][j])
    return mm
