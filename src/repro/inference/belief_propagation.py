"""Loopy max-product belief propagation (compared in Section 5.3).

Runs min-sum message passing on the pairwise lowering of the problem —
cross-table potts edges plus the all-Irr and mutex constraints as pairwise
energies (the paper reduced mutex to edge potentials for BP and TRW-S).
Messages are damped and normalized; decoding takes per-node belief argmins;
must-match/min-match violations are repaired post hoc.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.model import ColumnMappingProblem
from .base import MappingResult
from .pairwise import PairwiseModel, PairwiseTerm, build_pairwise_model
from .repair import repair_assignment

__all__ = ["belief_propagation_inference"]


def _min_sum_message(
    model: PairwiseModel,
    term: PairwiseTerm,
    from_node: int,
    incoming: List[float],
) -> List[float]:
    """m_{i->j}(x_j) = min_{x_i} (h_i(x_i) + E_ij(x_i, x_j))."""
    L = model.labels.size
    out = []
    for lj in range(L):
        best = float("inf")
        for li in range(L):
            e = (
                model.pair_energy(term, li, lj)
                if from_node == term.a
                else model.pair_energy(term, lj, li)
            )
            v = incoming[li] + e
            if v < best:
                best = v
        out.append(best)
    floor = min(out)
    return [v - floor for v in out]


def belief_propagation_inference(
    problem: ColumnMappingProblem,
    max_iterations: int = 30,
    damping: float = 0.5,
    tolerance: float = 1e-4,
) -> MappingResult:
    """Run damped loopy BP and decode."""
    model = build_pairwise_model(problem, include_mutex_edges=True)
    L = model.labels.size
    n = len(model.nodes)

    # messages[(term_idx, direction)] with direction 0 = a->b, 1 = b->a.
    messages: Dict[Tuple[int, int], List[float]] = {}
    for t_idx in range(len(model.terms)):
        messages[(t_idx, 0)] = [0.0] * L
        messages[(t_idx, 1)] = [0.0] * L

    incident: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for t_idx, term in enumerate(model.terms):
        incident[term.a].append((t_idx, 1))  # message b->a arrives at a
        incident[term.b].append((t_idx, 0))  # message a->b arrives at b

    for _ in range(max_iterations):
        max_delta = 0.0
        for t_idx, term in enumerate(model.terms):
            for direction, sender in ((0, term.a), (1, term.b)):
                h = list(model.unary[sender])
                for in_t, in_dir in incident[sender]:
                    if in_t == t_idx:
                        continue  # exclude the reverse message
                    msg = messages[(in_t, in_dir)]
                    for l in range(L):
                        h[l] += msg[l]
                new_msg = _min_sum_message(model, term, sender, h)
                old = messages[(t_idx, direction)]
                damped = [
                    damping * o + (1.0 - damping) * m
                    for o, m in zip(old, new_msg)
                ]
                max_delta = max(
                    max_delta, max(abs(a - b) for a, b in zip(old, damped))
                )
                messages[(t_idx, direction)] = damped
        if max_delta < tolerance:
            break

    labeling = []
    for i in range(n):
        belief = list(model.unary[i])
        for in_t, in_dir in incident[i]:
            msg = messages[(in_t, in_dir)]
            for l in range(L):
                belief[l] += msg[l]
        labeling.append(min(range(L), key=lambda l: belief[l]))

    assignment = repair_assignment(problem, model.to_assignment(labeling))
    return MappingResult(
        problem=problem,
        labels=assignment,
        distributions=model.distributions,
        algorithm="belief-propagation",
    )
