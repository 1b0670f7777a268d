"""Flow network with explicit residual edges.

All of Section 4's machinery — max-weight bipartite matching (§4.1),
max-marginals over the residual graph (§4.2.3, Fig. 3), min s-t cuts and the
constrained-cut loop (§4.3, Fig. 4) — runs on this one structure.  Edges are
stored in pairs: edge ``e`` and ``e ^ 1`` are mutual reverses, so residual
bookkeeping is index arithmetic.

Capacities and costs are floats; comparisons use a small epsilon because
potentials are real-valued similarity scores.
"""

from __future__ import annotations

import math

from typing import Dict, List, Optional, Set, Tuple

__all__ = ["EPS", "FlowNetwork"]

EPS = 1e-9


class FlowNetwork:
    """A directed flow network supporting costs, cuts, and cloning."""

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self.num_nodes = num_nodes
        # Parallel edge arrays; edge i and i^1 are reverses of each other.
        self.to: List[int] = []
        self.cap: List[float] = []
        self.cost: List[float] = []
        self.flow: List[float] = []
        self.adj: List[List[int]] = [[] for _ in range(num_nodes)]

    # -- construction -----------------------------------------------------------

    def add_node(self) -> int:
        """Add a node; returns its id."""
        self.adj.append([])
        self.num_nodes += 1
        return self.num_nodes - 1

    def add_edge(self, u: int, v: int, cap: float, cost: float = 0.0) -> int:
        """Add edge ``u -> v``; returns the forward edge id.

        The reverse edge (id ``^1``) is created with zero capacity and
        negated cost, as the residual formulation requires.
        """
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise IndexError("edge endpoint out of range")
        if cap < 0:
            raise ValueError("capacity must be non-negative")
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.flow.append(0.0)
        self.adj[u].append(eid)
        self.to.append(u)
        self.cap.append(0.0)
        self.cost.append(-cost)
        self.flow.append(0.0)
        self.adj[v].append(eid + 1)
        return eid

    def edge_tail(self, eid: int) -> int:
        """Tail (source node) of edge ``eid``."""
        return self.to[eid ^ 1]

    def residual(self, eid: int) -> float:
        """Residual capacity of edge ``eid``."""
        return self.cap[eid] - self.flow[eid]

    def push(self, eid: int, amount: float) -> None:
        """Push ``amount`` of flow along edge ``eid`` (and its reverse)."""
        self.flow[eid] += amount
        self.flow[eid ^ 1] -= amount

    def set_capacity(self, eid: int, cap: float) -> None:
        """Raise/lower an edge capacity (used by the constrained-cut loop)."""
        self.cap[eid] = cap

    def clone(self) -> FlowNetwork:
        """Deep copy (topology + current flow)."""
        other = FlowNetwork(self.num_nodes)
        other.to = list(self.to)
        other.cap = list(self.cap)
        other.cost = list(self.cost)
        other.flow = list(self.flow)
        other.adj = [list(a) for a in self.adj]
        return other

    # -- max flow (costs ignored) -------------------------------------------------

    def max_flow(self, s: int, t: int, limit: float = math.inf) -> float:
        """Edmonds–Karp augmentation from the *current* flow state.

        Returns the amount of flow added (so it can be called again after
        capacity changes, which is exactly what Fig. 4 needs).
        """
        total = 0.0
        while total < limit - EPS:
            parent_edge = self._bfs_augmenting_path(s, t)
            if parent_edge is None:
                break
            bottleneck = limit - total
            v = t
            while v != s:
                eid = parent_edge[v]
                bottleneck = min(bottleneck, self.residual(eid))
                v = self.edge_tail(eid)
            v = t
            while v != s:
                eid = parent_edge[v]
                self.push(eid, bottleneck)
                v = self.edge_tail(eid)
            total += bottleneck
        return total

    def _bfs_augmenting_path(self, s: int, t: int) -> Optional[Dict[int, int]]:
        """BFS in the residual graph; returns parent-edge map or None."""
        parent_edge: Dict[int, int] = {}
        visited = [False] * self.num_nodes
        visited[s] = True
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for eid in self.adj[u]:
                v = self.to[eid]
                if not visited[v] and self.residual(eid) > EPS:
                    visited[v] = True
                    parent_edge[v] = eid
                    if v == t:
                        return parent_edge
                    queue.append(v)
        return None

    def source_side(self, s: int) -> Set[int]:
        """Nodes reachable from ``s`` in the residual graph (the s-side)."""
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for eid in self.adj[u]:
                v = self.to[eid]
                if v not in seen and self.residual(eid) > EPS:
                    seen.add(v)
                    stack.append(v)
        return seen

    def min_cut(self, s: int, t: int) -> Tuple[float, Set[int]]:
        """Run max-flow and return ``(cut value, t-side nodes)``."""
        value = self.max_flow(s, t)
        s_side = self.source_side(s)
        t_side = set(range(self.num_nodes)) - s_side
        return value, t_side

    # -- shortest paths over residual edges -----------------------------------------

    def residual_shortest_paths(self, src: int) -> List[float]:
        """Bellman–Ford distances from ``src`` using residual edges only.

        Edge costs may be negative (reverse edges of matched pairs); residual
        graphs of min-cost flows contain no negative cycles, so Bellman–Ford
        converges in ``num_nodes - 1`` rounds.  Used by Fig. 3's
        max-marginal computation.
        """
        inf = float("inf")
        # The hot loop of Fig. 3: arrays bound to locals, residual inline.
        to, cap, cost, flow, adj = self.to, self.cap, self.cost, self.flow, self.adj
        num_nodes = self.num_nodes
        dist = [inf] * num_nodes
        dist[src] = 0.0
        for _ in range(num_nodes - 1):
            changed = False
            for u in range(num_nodes):
                du = dist[u]
                if du == inf:
                    continue
                for eid in adj[u]:
                    if cap[eid] - flow[eid] > EPS:
                        v = to[eid]
                        nd = du + cost[eid]
                        if nd < dist[v] - EPS:
                            dist[v] = nd
                            changed = True
            if not changed:
                break
        return dist

    # -- min-cost max-flow ---------------------------------------------------------

    def min_cost_max_flow(self, s: int, t: int) -> Tuple[float, float]:
        """Successive-shortest-paths min-cost max-flow.

        Returns ``(total flow, total cost)`` of the flow the network holds
        on return: a maximum s-t flow, and the summed cost of every unit
        pushed.  Augments along Bellman–Ford shortest (cost) paths, which
        keeps the residual graph free of negative cycles — the invariant
        Fig. 3 relies on.

        The ``EPS``-tolerant relaxations can, on near-ties, leave the
        parent edges looping through a residual cycle that never reaches
        ``s``.  The trace then cancels that cycle instead of following it
        forever: it pushes the cycle's bottleneck residual around it, adds
        that flow's cost to the total, and searches again.  The returned
        flow is then still maximum, and the cost is that of the flow as
        re-routed; an input whose parent edges always reach ``s`` never
        takes this branch and returns the same floats as without it.

        Precondition: the input graph has no negative-cost *directed
        cycle*.  Negative edge costs are fine (matching reductions negate
        weights); all graphs built in Section 4 are DAGs plus source/sink,
        so the precondition holds by construction.
        """
        total_flow = 0.0
        total_cost = 0.0
        while True:
            dist, parent_edge = self._bellman_ford_path(s)
            if dist[t] == float("inf"):
                break
            # path[i] is the parent edge of the i-th node traced back from
            # t; position[v] is the index of v's own parent edge in path.
            path: List[int] = []
            position = {t: 0}
            v = t
            while v != s:
                eid = parent_edge[v]
                path.append(eid)
                v = self.edge_tail(eid)
                if v in position:
                    break
                position[v] = len(path)
            if v != s:
                cycle = path[position[v]:]
                bottleneck = min(self.residual(eid) for eid in cycle)
                for eid in cycle:
                    self.push(eid, bottleneck)
                    total_cost += bottleneck * self.cost[eid]
                continue
            bottleneck = min(
                (self.residual(eid) for eid in path), default=float("inf")
            )
            if bottleneck <= EPS or bottleneck == float("inf"):
                break
            for eid in path:
                self.push(eid, bottleneck)
                total_cost += bottleneck * self.cost[eid]
            total_flow += bottleneck
        return total_flow, total_cost

    def _bellman_ford_path(self, s: int) -> Tuple[List[float], Dict[int, int]]:
        """Bellman–Ford with parent-edge tracking over residual edges."""
        inf = float("inf")
        # The hot loop of every solve: arrays bound to locals, residual
        # inline, dist[u] read once (only a negative self-loop could move it
        # mid-scan, and the precondition rules negative cycles out).
        to, cap, cost, flow, adj = self.to, self.cap, self.cost, self.flow, self.adj
        dist = [inf] * self.num_nodes
        parent_edge: Dict[int, int] = {}
        dist[s] = 0.0
        in_queue = [False] * self.num_nodes
        queue = [s]
        in_queue[s] = True
        head = 0
        rounds = 0
        max_rounds = self.num_nodes * max(1, len(to))
        while head < len(queue) and rounds < max_rounds:
            u = queue[head]
            head += 1
            in_queue[u] = False
            rounds += 1
            du = dist[u]
            for eid in adj[u]:
                if cap[eid] - flow[eid] > EPS:
                    v = to[eid]
                    nd = du + cost[eid]
                    if nd < dist[v] - EPS:
                        dist[v] = nd
                        parent_edge[v] = eid
                        if not in_queue[v]:
                            queue.append(v)
                            in_queue[v] = True
        return dist, parent_edge
