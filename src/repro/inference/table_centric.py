"""Table-centric collective inference (Section 4.2).

The paper's best algorithm.  Three stages:

1. per table, compute max-marginals ``µ_tc(l)`` (Fig. 3) and normalize to
   per-column distributions ``p_tc(l)``;
2. every column collects messages from its max-matching neighbors:
   ``msg(tc, l) = Σ_{t'c'} w_e · nsim(tc, t'c') · p_t'c'(l)`` — neighbors
   only speak when they are confident (Section 3.3's gating);
3. per table, re-run the Section 4.1 matching with node potentials boosted
   to ``max(msg(tc, l), θ(tc, l))``.

Edges influence table decisions only through stage 3's bounded boost, which
is what makes the algorithm robust to similar-but-irrelevant tables.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.model import ColumnMappingProblem
from .base import MappingResult, column_distributions, confident_map
from .independent import solve_table
from .max_marginals import all_max_marginals

__all__ = ["table_centric_inference"]


def _messages(
    problem: ColumnMappingProblem,
    distributions: Dict[Tuple[int, int], List[float]],
    confident: Dict[Tuple[int, int], bool],
) -> Dict[Tuple[int, int], List[float]]:
    """Stage 2: aggregate neighbor distributions along nsim edges."""
    labels = problem.labels
    query_labels = labels.query_labels()
    we = problem.params.we
    msgs: Dict[Tuple[int, int], List[float]] = {
        tc: [0.0] * labels.size for tc in problem.columns()
    }
    # Messages flow only on query labels (Eq. 4 excludes nr; na carries no
    # rescue semantics and confident senders put little mass on it), and
    # only from confident senders.  ``we * nsim * p`` multiplies left to
    # right, so hoisting ``we * nsim`` out of the label loop keeps every
    # product.
    for a, b, _sim, nsim_ab, nsim_ba in problem.edges:
        for sender, receiver, nsim in ((b, a, nsim_ab), (a, b, nsim_ba)):
            dist = distributions.get(sender)
            if dist and confident.get(sender, False):
                weight = we * nsim
                msg = msgs[receiver]
                for l in query_labels:
                    msg[l] += weight * dist[l]
    return msgs


def table_centric_inference(problem: ColumnMappingProblem) -> MappingResult:
    """Run the three-stage table-centric algorithm."""
    # Stage 1: independent max-marginals -> distributions + confidence.
    mm = all_max_marginals(problem)
    distributions = column_distributions(problem, mm)
    confident = confident_map(problem, distributions)

    # Stage 2: messages.
    msgs = _messages(problem, distributions, confident)

    # Stage 3: re-solve each table with boosted potentials.
    boosted: Dict[Tuple[int, int], List[float]] = {}
    for tc in problem.columns():
        theta = problem.node_potentials[tc]
        boosted[tc] = [max(msgs[tc][l], theta[l]) for l in problem.labels.all_labels()]

    assignment: Dict[Tuple[int, int], int] = {}
    for ti in range(len(problem.tables)):
        assignment.update(solve_table(problem, ti, potentials=boosted))

    return MappingResult(
        problem=problem,
        labels=assignment,
        distributions=distributions,
        algorithm="table-centric",
    )
