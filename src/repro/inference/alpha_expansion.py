"""Constrained α-expansion (Section 4.3).

Standard α-expansion improves a labeling by repeatedly solving, for each
label α, a binary min-cut deciding which variables switch to α.  Two of the
paper's table constraints need special treatment:

* **all-Irr** lowers to the submodular pairwise energy of Eq. 11 and rides
  along in the move graph;
* **mutex** is *not* submodular as a pairwise term, so for α a query label
  the move is solved with the constrained min s-t cut of Fig. 4 — at most
  one column per table may sit on the switch side of the cut;
* **must-match/min-match** are repaired post hoc per Section 4.3.

Move graphs use the standard submodular binary-energy construction
(s-side = keep current label, t-side = switch to α).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.model import ColumnMappingProblem
from ..flow.constrained_cut import constrained_min_cut
from ..flow.network import FlowNetwork
from .base import MappingResult
from .pairwise import BIG, PairwiseModel, build_pairwise_model
from .repair import repair_assignment

__all__ = ["alpha_expansion_inference"]

_EPS = 1e-9


def _expansion_move(
    model: PairwiseModel,
    labeling: List[int],
    alpha: int,
    constrain_groups: bool,
) -> List[int]:
    """Best single α-expansion of ``labeling`` (may return it unchanged)."""
    n = len(model.nodes)
    # e0[i] / e1[i]: unary energy of keeping y_i vs switching to α.
    e0 = [model.unary[i][labeling[i]] for i in range(n)]
    e1 = [model.unary[i][alpha] for i in range(n)]
    pair_terms: List[Tuple[int, int, float]] = []  # (i, j, cap of i->j)

    for term in model.terms:
        if term.kind == "mutex":
            continue  # handled by the constrained cut / fixed-α unaries
        i, j = term.a, term.b
        yi, yj = labeling[i], labeling[j]
        a = model.pair_energy(term, yi, yj)  # keep, keep
        b = model.pair_energy(term, yi, alpha)  # keep, switch
        c = model.pair_energy(term, alpha, yj)  # switch, keep
        d = model.pair_energy(term, alpha, alpha)  # switch, switch
        # E(xi,xj) = a + (c-a)xi + (d-c)xj + (b+c-a-d)[xi=0, xj=1]
        e1[i] += c - a
        e1[j] += d - c
        e0[j] += 0.0
        cap = b + c - a - d
        if cap < -1e-6:
            raise AssertionError(
                f"non-submodular move term {term.kind} (cap={cap})"
            )
        if cap > _EPS:
            pair_terms.append((i, j, cap))

    # mutex with already-α columns: a query-α column pins its table — no
    # other column of that table may adopt α.
    if model.labels.is_query(alpha):
        tables_with_alpha = {
            model.nodes[i][0] for i in range(n) if labeling[i] == alpha
        }
        for i in range(n):
            if labeling[i] != alpha and model.nodes[i][0] in tables_with_alpha:
                e1[i] += BIG

    # Build the move graph: node ids shifted by 2 (0 = s, 1 = t).
    net = FlowNetwork(2 + n)
    s, t = 0, 1
    for i in range(n):
        if labeling[i] == alpha:
            # Already α: switching is a no-op; pin to the switch side so
            # pairwise terms see label α.
            net.add_edge(i + 2, t, BIG * 10)
            continue
        diff = e1[i] - e0[i]
        if diff > _EPS:
            net.add_edge(s, i + 2, diff)
        elif diff < -_EPS:
            net.add_edge(i + 2, t, -diff)
    for i, j, cap in pair_terms:
        net.add_edge(i + 2, j + 2, cap)

    if constrain_groups and model.labels.is_query(alpha):
        groups: Dict[int, List[int]] = {}
        for i in range(n):
            if labeling[i] == alpha:
                continue  # pinned nodes handled above
            groups.setdefault(model.nodes[i][0], []).append(i + 2)
        t_side, _ = constrained_min_cut(
            net, s, t, groups=[g for g in groups.values() if len(g) > 1]
        )
    else:
        _, t_side = net.min_cut(s, t)

    new_labeling = list(labeling)
    for i in range(n):
        if i + 2 in t_side:
            new_labeling[i] = alpha
    return new_labeling


def alpha_expansion_inference(
    problem: ColumnMappingProblem,
    max_rounds: int = 5,
    init: Optional[List[int]] = None,
) -> MappingResult:
    """Run constrained α-expansion to a local optimum, then repair."""
    model = build_pairwise_model(problem, include_mutex_edges=True)
    labels = problem.labels
    labeling = list(init) if init is not None else [labels.na] * len(model.nodes)
    energy = model.energy(labeling)

    for _ in range(max_rounds):
        improved = False
        for alpha in labels.all_labels():
            candidate = _expansion_move(model, labeling, alpha, constrain_groups=True)
            cand_energy = model.energy(candidate)
            if cand_energy < energy - 1e-9:
                labeling = candidate
                energy = cand_energy
                improved = True
        if not improved:
            break

    assignment = repair_assignment(problem, model.to_assignment(labeling))
    return MappingResult(
        problem=problem,
        labels=assignment,
        distributions=model.distributions,
        algorithm="alpha-expansion",
    )
