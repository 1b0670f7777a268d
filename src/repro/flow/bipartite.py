"""Capacitated max-weight bipartite matching (Sections 4.1–4.2.3).

The table-independent inference step reduces column labeling to a
generalized maximum matching: columns on the left, labels on the right,
node capacities enforcing mutex/min-match, solved as min-cost max-flow
(§4.2.1).  The matcher keeps its residual network alive after solving so
Fig. 3's max-marginals — "optimum under a forced assignment (c, l)" — can
be read off with one Bellman–Ford pass per right node.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .network import EPS, FlowNetwork

__all__ = ["MatchingResult", "BipartiteMatcher", "one_to_one_pairs"]

NEG_INF = float("-inf")


class MatchingResult:
    """Outcome of a matching solve."""

    __slots__ = ("pairs", "total_weight")

    def __init__(self, pairs: List[Tuple[int, int]], total_weight: float) -> None:
        self.pairs = pairs
        self.total_weight = total_weight

    def right_of(self, left: int) -> Optional[int]:
        """The right node matched to ``left``, if any."""
        for l, r in self.pairs:
            if l == left:
                return r
        return None


class BipartiteMatcher:
    """Max-weight matching between capacitated left and right node sets.

    Parameters
    ----------
    weights:
        Dense ``len(left_caps) x len(right_caps)`` weight matrix; weights may
        be negative (the matching must still saturate left capacity — flow
        maximization comes first, exactly as in the paper's reduction).
    left_caps, right_caps:
        Non-negative integer capacities per node.
    """

    def __init__(
        self,
        weights: Sequence[Sequence[float]],
        left_caps: Sequence[int],
        right_caps: Sequence[int],
    ) -> None:
        self.weights = [list(row) for row in weights]
        self.left_caps = list(left_caps)
        self.right_caps = list(right_caps)
        if len(self.weights) != len(self.left_caps):
            raise ValueError("weights rows must match left_caps")
        for row in self.weights:
            if len(row) != len(self.right_caps):
                raise ValueError("weights columns must match right_caps")
        if any(c < 0 for c in self.left_caps + self.right_caps):
            raise ValueError("capacities must be non-negative")

        self._network: Optional[FlowNetwork] = None
        self._left_nodes: List[int] = []
        self._right_nodes: List[int] = []
        self._lr_edges: Dict[Tuple[int, int], int] = {}
        self._result: Optional[MatchingResult] = None

    # -- solving -----------------------------------------------------------

    def solve(self) -> MatchingResult:
        """Build the flow network, run min-cost max-flow, extract matching."""
        n_left, n_right = len(self.left_caps), len(self.right_caps)
        total_left = sum(self.left_caps)
        total_right = sum(self.right_caps)

        net = FlowNetwork(2)  # 0 = source, 1 = sink
        s, t = 0, 1
        self._left_nodes = [net.add_node() for _ in range(n_left)]
        self._right_nodes = [net.add_node() for _ in range(n_right)]

        for i, u in enumerate(self._left_nodes):
            net.add_edge(s, u, float(self.left_caps[i]), 0.0)
        for j, v in enumerate(self._right_nodes):
            net.add_edge(v, t, float(self.right_caps[j]), 0.0)
        for i, u in enumerate(self._left_nodes):
            for j, v in enumerate(self._right_nodes):
                cap = float(min(self.left_caps[i], self.right_caps[j]))
                if cap <= 0:
                    continue
                eid = net.add_edge(u, v, cap, -self.weights[i][j])
                self._lr_edges[(i, j)] = eid

        # Balance the two sides with a dummy node on the deficient side
        # (§4.2.1) so max flow saturates every real capacity.
        if total_right > total_left:
            dummy = net.add_node()
            net.add_edge(s, dummy, float(total_right - total_left), 0.0)
            for j, v in enumerate(self._right_nodes):
                if self.right_caps[j] > 0:
                    net.add_edge(dummy, v, float(self.right_caps[j]), 0.0)
        elif total_left > total_right:
            dummy = net.add_node()
            net.add_edge(dummy, t, float(total_left - total_right), 0.0)
            for i, u in enumerate(self._left_nodes):
                if self.left_caps[i] > 0:
                    net.add_edge(u, dummy, float(self.left_caps[i]), 0.0)

        net.min_cost_max_flow(s, t)
        self._network = net

        pairs: List[Tuple[int, int]] = []
        total_weight = 0.0
        for (i, j), eid in self._lr_edges.items():
            if net.flow[eid] > EPS:
                pairs.append((i, j))
                total_weight += self.weights[i][j] * round(net.flow[eid])
        pairs.sort()
        self._result = MatchingResult(pairs, total_weight)
        return self._result

    # -- max-marginals (Fig. 3) -----------------------------------------------

    def max_marginals(self) -> List[List[float]]:
        """All-pairs forced-assignment optima.

        ``mm[i][j]`` is the best total matching weight subject to left ``i``
        being matched to right ``j``; ``-inf`` when infeasible.  Requires
        :meth:`solve` to have run.  Implements Fig. 3: one Bellman–Ford pass
        from each right node over the final residual graph, then
        ``Opt - d(j, i) - cost(i, j)``.
        """
        if self._network is None or self._result is None:
            raise RuntimeError("call solve() before max_marginals()")
        net = self._network
        opt = self._result.total_weight
        n_left, n_right = len(self.left_caps), len(self.right_caps)

        mm = [[NEG_INF] * n_right for _ in range(n_left)]
        for j in range(n_right):
            if self.right_caps[j] == 0:
                continue
            dist = net.residual_shortest_paths(self._right_nodes[j])
            for i in range(n_left):
                eid = self._lr_edges.get((i, j))
                if eid is None:
                    continue
                if net.flow[eid] > EPS:
                    # (i, j) already in the optimum.
                    mm[i][j] = opt
                    continue
                d = dist[self._left_nodes[i]]
                if d == float("inf"):
                    continue
                # cost(i, j) = -weight; mm = Opt - d(j,i) - cost(i,j).
                mm[i][j] = opt - d - (-self.weights[i][j])
        return mm

    @property
    def network(self) -> FlowNetwork:
        """The underlying flow network (after :meth:`solve`)."""
        if self._network is None:
            raise RuntimeError("call solve() first")
        return self._network


def one_to_one_pairs(
    weights: Mapping[Tuple[int, int], float], n_left: int, n_right: int
) -> List[Tuple[int, int]]:
    """Positive-weight pairs of a maximum-weight one-to-one matching.

    ``weights`` records the non-zero entries of an ``n_left x n_right``
    matrix (everything else is 0); the result is sorted as
    ``BipartiteMatcher.solve().pairs`` is.  When every recorded weight is
    positive and no row or column holds two of them, the recorded entries
    are themselves a matching, any matching lacking one of them weighs
    strictly less, and so they *are* the answer — the optimum is unique and
    no flow network is built.  Every other instance (a conflict, a zero or
    negative weight) goes to :class:`BipartiteMatcher`.  Weights are
    similarity scores, orders of magnitude above the solver's ``EPS``.
    """
    if (
        len({i for i, _j in weights}) == len(weights)
        and len({j for _i, j in weights}) == len(weights)
        and all(w > 0 for w in weights.values())
    ):
        return sorted(weights)
    dense = [[0.0] * n_right for _ in range(n_left)]
    for (i, j), w in weights.items():
        dense[i][j] = w
    result = BipartiteMatcher(dense, [1] * n_left, [1] * n_right).solve()
    return [(i, j) for i, j in result.pairs if dense[i][j] > 0]
