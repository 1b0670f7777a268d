"""Table-independent inference (Section 4.1).

With edge potentials dropped, Eq. 9 decouples per table, and the optimum for
one table reduces to a generalized maximum bipartite matching: columns on
the left; labels ``1..q`` plus ``na`` on the right; label capacities one
except ``na`` with ``n_t - m`` (enforcing min-match); a large constant
``M_1`` on edges into label 1 (enforcing must-match).  The relevant-branch
optimum is compared with the all-``nr`` score and the better one wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.model import ColumnMappingProblem
from ..flow.bipartite import BipartiteMatcher
from .base import MappingResult, column_distributions
from .max_marginals import all_max_marginals
from .small_matching import rank_assignments

__all__ = ["solve_table", "independent_inference", "M1_BONUS"]

#: The large constant added to label-1 edges; dominates any real potential.
M1_BONUS = 1e6


def _weight_rows(
    problem: ColumnMappingProblem,
    ti: int,
    theta: Dict[Tuple[int, int], List[float]],
) -> List[List[float]]:
    """The bipartite reduction's weights for one table.

    Row ``ci`` holds the query labels' potentials, label 1 carrying
    :data:`M1_BONUS` (must-match), then ``na``'s.
    """
    labels = problem.labels
    q = labels.q
    weights: List[List[float]] = []
    for ci in range(problem.tables[ti].num_cols):
        row = [theta[(ti, ci)][l] for l in range(q)]
        row[0] += M1_BONUS
        row.append(theta[(ti, ci)][labels.na])
        weights.append(row)
    return weights


def solve_table(
    problem: ColumnMappingProblem,
    ti: int,
    potentials: Optional[Dict[Tuple[int, int], List[float]]] = None,
) -> Dict[Tuple[int, int], int]:
    """Optimal labeling of one table under all four constraints.

    Returns the per-column dense labels, choosing between the best relevant
    labeling (via matching) and the all-``nr`` labeling by score.  The
    matching is :func:`~repro.inference.small_matching.rank_assignments`
    when it decides, else the min-cost-flow :class:`BipartiteMatcher`;
    both give the same pairs and the same ``total_weight`` float.
    """
    table = problem.tables[ti]
    labels = problem.labels
    q = labels.q
    nt = table.num_cols
    theta = potentials if potentials is not None else problem.node_potentials

    nr_score = sum(theta[(ti, ci)][labels.nr] for ci in range(nt))

    weights = _weight_rows(problem, ti, theta)
    # na capacity n_t - m enforces min-match.
    na_cap = max(0, nt - problem.min_match(ti))
    ranked = rank_assignments(weights, q, na_cap)
    if ranked is not None and nr_score >= ranked.total - M1_BONUS:
        # No assignment the matcher could return beats all-nr, whichever
        # of a tie it settles on.
        return {(ti, ci): labels.nr for ci in range(nt)}
    if ranked is not None and ranked.unique():
        pairs = list(enumerate(ranked.assignment))
        total_weight = ranked.total
    else:
        result = BipartiteMatcher(weights, [1] * nt, [1] * q + [na_cap]).solve()
        pairs, total_weight = result.pairs, result.total_weight

    relevant_assignment: Optional[Dict[Tuple[int, int], int]] = None
    relevant_score = float("-inf")
    used_labels = {j for _i, j in pairs}
    if 0 in used_labels:  # must-match achievable
        relevant_score = total_weight - M1_BONUS
        right_of = dict(pairs)  # every column has capacity one
        relevant_assignment = {}
        for ci in range(nt):
            j = right_of.get(ci)
            relevant_assignment[(ti, ci)] = (
                labels.na if j is None or j == q  # unmatched or matched to na
                else j
            )

    if relevant_assignment is None or nr_score >= relevant_score:
        return {(ti, ci): labels.nr for ci in range(nt)}
    return relevant_assignment


def independent_inference(problem: ColumnMappingProblem) -> MappingResult:
    """Solve every table independently (the "None" column of Table 2)."""
    assignment: Dict[Tuple[int, int], int] = {}
    for ti in range(len(problem.tables)):
        assignment.update(solve_table(problem, ti))
    return MappingResult(
        problem=problem,
        labels=assignment,
        distributions=column_distributions(
            problem, all_max_marginals(problem)
        ),
        algorithm="independent",
    )
