"""Sequential tree-reweighted message passing, TRW-S (compared in §5.3).

Implements Kolmogorov's sequential TRW with uniform edge appearance
probabilities: nodes are processed in a fixed order; a forward pass sends
messages along edges to later nodes, a backward pass the reverse, with the
per-node reparameterization weighted by ``γ_i = 1 / max(n_fwd(i),
n_bwd(i))``.  The pairwise structure is the same lowering BP uses (potts
cross-table edges + all-Irr + mutex pairwise).  Decoding takes per-node
argmins of the reparameterized beliefs on the final backward pass, followed
by the usual constraint repair.

On tree-structured instances with a single pass direction this computes
exact min-energy labelings, which the unit tests verify.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.model import ColumnMappingProblem
from .base import MappingResult
from .pairwise import PairwiseTerm, build_pairwise_model
from .repair import repair_assignment

__all__ = ["trws_inference"]


def trws_inference(
    problem: ColumnMappingProblem,
    max_iterations: int = 30,
    tolerance: float = 1e-4,
) -> MappingResult:
    """Run sequential TRW message passing and decode."""
    model = build_pairwise_model(problem, include_mutex_edges=True)
    L = model.labels.size
    n = len(model.nodes)

    # Edge direction follows node order: term (a, b) is "forward" from
    # min(a,b) to max(a,b).
    fwd_count = [0] * n
    bwd_count = [0] * n
    for term in model.terms:
        lo, hi = min(term.a, term.b), max(term.a, term.b)
        fwd_count[lo] += 1
        bwd_count[hi] += 1
    gamma = [
        1.0 / max(1, max(fwd_count[i], bwd_count[i])) for i in range(n)
    ]

    # messages[(t_idx, dir)]: dir 0 = a->b, 1 = b->a.
    messages: Dict[Tuple[int, int], List[float]] = {
        (t, d): [0.0] * L for t in range(len(model.terms)) for d in (0, 1)
    }
    incident: List[List[Tuple[int, int, PairwiseTerm]]] = [[] for _ in range(n)]
    for t_idx, term in enumerate(model.terms):
        incident[term.a].append((t_idx, 1, term))  # b->a arrives at a
        incident[term.b].append((t_idx, 0, term))  # a->b arrives at b

    def belief(i: int) -> List[float]:
        out = list(model.unary[i])
        for t_idx, d, _term in incident[i]:
            msg = messages[(t_idx, d)]
            for l in range(L):
                out[l] += msg[l]
        return out

    def send(i: int, t_idx: int, term: PairwiseTerm) -> float:
        """Update the message from i along term; returns max change."""
        b = belief(i)
        if i == term.a:
            reverse = messages[(t_idx, 1)]
            out_dir = 0
        else:
            reverse = messages[(t_idx, 0)]
            out_dir = 1
        g = gamma[i]
        new_msg = []
        for lj in range(L):
            best = float("inf")
            for li in range(L):
                e = (
                    model.pair_energy(term, li, lj)
                    if i == term.a
                    else model.pair_energy(term, lj, li)
                )
                v = g * b[li] - reverse[li] + e
                if v < best:
                    best = v
            new_msg.append(best)
        floor = min(new_msg)
        new_msg = [v - floor for v in new_msg]
        old = messages[(t_idx, out_dir)]
        delta = max(abs(a - c) for a, c in zip(old, new_msg))
        messages[(t_idx, out_dir)] = new_msg
        return delta

    labeling = [0] * n
    for _ in range(max_iterations):
        max_delta = 0.0
        # Forward pass: messages to later nodes.
        for i in range(n):
            for t_idx, _d, term in incident[i]:
                other = term.b if i == term.a else term.a
                if other > i:
                    max_delta = max(max_delta, send(i, t_idx, term))
        # Backward pass: messages to earlier nodes, decoding as we go.
        for i in range(n - 1, -1, -1):
            b = belief(i)
            labeling[i] = min(range(L), key=lambda l: b[l])
            for t_idx, _d, term in incident[i]:
                other = term.b if i == term.a else term.a
                if other < i:
                    max_delta = max(max_delta, send(i, t_idx, term))
        if max_delta < tolerance:
            break

    assignment = repair_assignment(problem, model.to_assignment(labeling))
    return MappingResult(
        problem=problem,
        labels=assignment,
        distributions=model.distributions,
        algorithm="trws",
    )
