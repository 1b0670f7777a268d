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
from .registry import register_algorithm

__all__ = ["solve_table", "independent_inference", "M1_BONUS"]

#: The large constant added to label-1 edges; dominates any real potential.
M1_BONUS = 1e6


def _build_matcher(
    problem: ColumnMappingProblem,
    ti: int,
    potentials: Optional[Dict[Tuple[int, int], List[float]]] = None,
    enforce_must_match: bool = True,
    enforce_min_match: bool = True,
) -> BipartiteMatcher:
    """The bipartite reduction for one table.

    ``potentials`` overrides the problem's node potentials (the
    table-centric algorithm re-solves with message-boosted potentials).
    """
    table = problem.tables[ti]
    labels = problem.labels
    q = labels.q
    nt = table.num_cols
    theta = potentials if potentials is not None else problem.node_potentials

    weights: List[List[float]] = []
    for ci in range(nt):
        row = [theta[(ti, ci)][l] for l in range(q)]
        if enforce_must_match:
            row[0] += M1_BONUS
        row.append(theta[(ti, ci)][labels.na])  # na column
        weights.append(row)

    na_cap = max(0, nt - problem.min_match(ti)) if enforce_min_match else nt
    right_caps = [1] * q + [na_cap]
    return BipartiteMatcher(weights, [1] * nt, right_caps)


def solve_table(
    problem: ColumnMappingProblem,
    ti: int,
    potentials: Optional[Dict[Tuple[int, int], List[float]]] = None,
) -> Dict[Tuple[int, int], int]:
    """Optimal labeling of one table under all four constraints.

    Returns the per-column dense labels, choosing between the best relevant
    labeling (via matching) and the all-``nr`` labeling by score.
    """
    table = problem.tables[ti]
    labels = problem.labels
    q = labels.q
    nt = table.num_cols
    theta = potentials if potentials is not None else problem.node_potentials

    nr_score = sum(theta[(ti, ci)][labels.nr] for ci in range(nt))

    relevant_assignment: Optional[Dict[Tuple[int, int], int]] = None
    relevant_score = float("-inf")
    matcher = _build_matcher(problem, ti, potentials)
    result = matcher.solve()
    used_labels = {j for _i, j in result.pairs}
    if 0 in used_labels:  # must-match achievable
        relevant_score = result.total_weight - M1_BONUS
        right_of = dict(result.pairs)  # every column has capacity one
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


@register_algorithm(
    "none",
    collective=False,
    description="per-table exact matching, no cross-table signals",
)
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
