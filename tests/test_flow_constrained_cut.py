"""Tests for the constrained minimum s-t cut (Fig. 4)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.constrained_cut import constrained_min_cut
from repro.flow.network import FlowNetwork


def build(edges, num_nodes):
    net = FlowNetwork(num_nodes)
    for u, v, c in edges:
        net.add_edge(u, v, float(c))
    return net


def cut_capacity(edges, t_side):
    return sum(c for u, v, c in edges if u not in t_side and v in t_side)


def brute_force_constrained(edges, num_nodes, s, t, groups):
    """Minimum feasible cut by enumerating all partitions."""
    others = [v for v in range(num_nodes) if v not in (s, t)]
    best = float("inf")
    for r in range(len(others) + 1):
        for subset in itertools.combinations(others, r):
            t_side = set(subset) | {t}
            if any(sum(v in t_side for v in g) > 1 for g in groups):
                continue
            best = min(best, cut_capacity(edges, t_side))
    return best


class TestConstrainedCut:
    def test_unconstrained_when_feasible(self):
        # Min cut naturally satisfies groups -> no repair needed.
        edges = [(0, 2, 1), (0, 3, 5), (2, 1, 5), (3, 1, 1)]
        net = build(edges, 4)
        t_side, _ = constrained_min_cut(net, 0, 1, groups=[[2], [3]])
        assert 1 in t_side and 0 not in t_side
        assert cut_capacity(edges, t_side) == 2  # cut {0->2, 3->1}

    def test_group_violation_repaired(self):
        for edges, num_nodes, groups in [
            # Both 2 and 3 would naturally sit on the t side; the group
            # forces one out.
            ([(0, 2, 1), (0, 3, 1), (2, 1, 10), (3, 1, 10)], 4, [[2, 3]]),
            # Two groups, one of them a chain 4 -> 5 -> t.
            ([(0, 2, 3), (0, 3, 2), (0, 4, 2), (2, 1, 4), (3, 1, 3),
              (4, 5, 2), (5, 1, 2), (2, 3, 1)], 8, [[2, 3], [4, 5]]),
        ]:
            net = build(edges, num_nodes)
            t_side, _ = constrained_min_cut(net, 0, 1, groups=groups)
            assert 1 in t_side and 0 not in t_side
            for group in groups:
                assert len(t_side & set(group)) <= 1

    def test_picks_cheaper_member_to_keep(self):
        # Keeping node 3 on the t side costs less extra flow than keeping 2.
        edges = [(0, 2, 2), (0, 3, 1), (2, 1, 10), (3, 1, 10)]
        net = build(edges, 4)
        t_side, _ = constrained_min_cut(net, 0, 1, groups=[[2, 3]])
        feasible = brute_force_constrained(edges, 4, 0, 1, [[2, 3]])
        assert cut_capacity(edges, t_side) == feasible

    def test_disjointness_validated(self):
        net = build([(0, 2, 1), (2, 1, 1)], 3)
        with pytest.raises(ValueError):
            constrained_min_cut(net, 0, 1, groups=[[2], [2]])

    def test_terminal_separation_kept(self):
        edges = [(0, 2, 3), (2, 3, 2), (3, 1, 3)]
        net = build(edges, 4)
        t_side, flow = constrained_min_cut(net, 0, 1, groups=[[2], [3]])
        assert 0 not in t_side
        assert 1 in t_side
        assert flow == 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 6)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=2,
            max_size=10,
        )
    )
    def test_feasibility_and_quality(self, raw_edges):
        # s=0, t=1; two groups over the middle nodes.
        merged = {}
        for u, v, c in raw_edges:
            merged[(u, v)] = merged.get((u, v), 0) + c
        edges = [(u, v, c) for (u, v), c in merged.items()]
        groups = [[2, 3], [4]]
        net = build(edges, 5)
        t_side, _ = constrained_min_cut(net, 0, 1, groups=groups)

        # Feasible: group constraint + terminal separation.
        for g in groups:
            assert sum(v in t_side for v in g) <= 1
        assert 0 not in t_side and 1 in t_side

        # Never better than the true optimum; here we also sanity-bound it
        # by the trivial cut (all middle nodes on the s side).
        opt = brute_force_constrained(edges, 5, 0, 1, groups)
        got = cut_capacity(edges, t_side)
        trivial = cut_capacity(edges, {1})
        assert got + 1e-9 >= opt
        assert got <= trivial + opt  # loose guard against pathological repair
