"""Max-marginal computation (Section 4.2.3, Fig. 3).

``µ_tc(l)`` is the best achievable table score when column ``c`` is forced
to take label ``l``, under mutex and all-Irr only — must-match and
min-match are *deliberately excluded* so the relative magnitudes across
labels stay comparable (the paper calls this out explicitly).

For query labels and ``na`` this is a forced-assignment bipartite optimum,
computed for all (c, l) pairs at once from the residual graph of a single
min-cost-flow solve (one Bellman–Ford per label) — or, for a small table
whose optimum and residual paths are unique, the same floats from
:func:`~repro.inference.small_matching.max_marginal_matrix` without a
flow network.  For ``nr``, all-Irr forces the whole table, so
``µ_tc(nr)`` is the all-``nr`` table score.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.model import ColumnMappingProblem
from ..flow.bipartite import BipartiteMatcher
from .small_matching import max_marginal_matrix

__all__ = ["table_max_marginals", "all_max_marginals"]


_Rows = Tuple[Tuple[float, ...], ...]


def _solve_rows(thetas: _Rows, q: int) -> _Rows:
    """Fig. 3 for one table: a pure function of its potential rows and q.

    The exact small-instance solver answers when it can; the flow solver
    otherwise, with the same floats either way.
    """
    nt = len(thetas)
    # Bipartite graph without must-match (no M1) and without min-match
    # (na capacity = nt), exactly Fig. 3's construction.
    weights = [row[: q + 1] for row in thetas]
    mm = max_marginal_matrix(weights, q)
    if mm is None:
        matcher = BipartiteMatcher(weights, [1] * nt, [1] * q + [nt])
        matcher.solve()
        mm = matcher.max_marginals()
    # nr: all-Irr forces the whole table.
    nr_score = sum(row[q + 1] for row in thetas)
    return tuple((*mm[ci], nr_score) for ci in range(nt))


def table_max_marginals(
    problem: ColumnMappingProblem,
    ti: int,
    potentials: Optional[Dict[Tuple[int, int], List[float]]] = None,
) -> Dict[Tuple[int, int], List[float]]:
    """µ_tc(l) for every column of table ``ti`` and every label.

    Returns dense per-column lists over the full label space
    (q query labels, na, nr).  Solved once per distinct potential rows
    when the problem carries a feature cache: the confidence pass and the
    column-map stage of one query see the same stage-1 tables.
    """
    q = problem.labels.q
    theta = potentials if potentials is not None else problem.node_potentials
    thetas = tuple(
        tuple(theta[(ti, ci)]) for ci in range(problem.tables[ti].num_cols)
    )
    cache = problem.feature_cache
    rows = (
        cache.solved((q, thetas), lambda: _solve_rows(thetas, q))
        if cache is not None
        else _solve_rows(thetas, q)
    )
    return {(ti, ci): list(row) for ci, row in enumerate(rows)}


def all_max_marginals(
    problem: ColumnMappingProblem,
    potentials: Optional[Dict[Tuple[int, int], List[float]]] = None,
) -> Dict[Tuple[int, int], List[float]]:
    """Max-marginals for every column of every table."""
    out: Dict[Tuple[int, int], List[float]] = {}
    for ti in range(len(problem.tables)):
        out.update(table_max_marginals(problem, ti, potentials))
    return out
