"""Collective inference: table-centric, alpha-expansion, BP, TRW-S."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference import (
    REGISTRY,
    alpha_expansion_inference,
    belief_propagation_inference,
    exhaustive_inference,
    independent_inference,
    table_centric_inference,
    trws_inference,
)
from repro.inference.repair import repair_assignment, table_violates_constraints

from .conftest import make_problem

COLLECTIVE = [
    table_centric_inference,
    alpha_expansion_inference,
    belief_propagation_inference,
    trws_inference,
]


def rescue_problem(nsim=0.8):
    """A headerless table (t1) rescued by a confident neighbor (t0).

    t0 maps clearly; t1 has flat potentials (weak nr pull) and strong
    content edges to t0's columns.
    """
    return make_problem(
        "a | b",
        [2, 2],
        {
            (0, 0): [3.0, -0.4, 0.0, 0.1],
            (0, 1): [-0.4, 3.0, 0.0, 0.1],
            (1, 0): [-0.4, -0.4, 0.0, 0.3],
            (1, 1): [-0.4, -0.4, 0.0, 0.3],
        },
        edges=[((0, 0), (1, 0), nsim), ((0, 1), (1, 1), nsim)],
    )


class TestTableCentric:
    def test_edge_rescue(self):
        problem = rescue_problem()
        base = independent_inference(problem)
        assert not base.is_relevant(1)  # headerless table lost on its own
        result = table_centric_inference(problem)
        assert result.is_relevant(1)
        assert result.labels[(1, 0)] == 0
        assert result.labels[(1, 1)] == 1

    def test_no_rescue_without_confident_neighbor(self):
        # Neighbor's own potentials are flat: it is not confident, so no
        # message flows (Section 3.3's gating).
        problem = make_problem(
            "a | b",
            [2, 2],
            {
                (0, 0): [0.1, -0.1, 0.0, 0.3],
                (0, 1): [-0.1, 0.1, 0.0, 0.3],
                (1, 0): [-0.4, -0.4, 0.0, 0.3],
                (1, 1): [-0.4, -0.4, 0.0, 0.3],
            },
            edges=[((0, 0), (1, 0), 0.9), ((0, 1), (1, 1), 0.9)],
        )
        result = table_centric_inference(problem)
        assert not result.is_relevant(1)

    def test_messages_respect_nsim_magnitude(self):
        weak = table_centric_inference(rescue_problem(nsim=0.05))
        assert not weak.is_relevant(1)  # rescue needs meaningful overlap

    def test_no_edges_equals_independent(self):
        problem = make_problem(
            "a | b",
            [2],
            {(0, 0): [1.0, -0.3, 0.0, 0.2], (0, 1): [-0.3, 1.0, 0.0, 0.2]},
        )
        a = table_centric_inference(problem)
        b = independent_inference(problem)
        assert a.labels == b.labels


class TestConstraintsAlwaysHold:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-2, 3, width=16), min_size=4, max_size=4),
            min_size=2,
            max_size=4,
        ),
        st.floats(0.0, 1.0),
    )
    def test_all_algorithms_satisfy_constraints(self, rows, nsim):
        # Two tables with random potentials and one cross edge.
        half = max(1, len(rows) // 2)
        potentials = {}
        widths = [half, len(rows) - half]
        if widths[1] == 0:
            widths = [half]
        idx = 0
        for ti, w in enumerate(widths):
            for ci in range(w):
                r = rows[idx]
                potentials[(ti, ci)] = [r[0], r[1], 0.0, r[3]]
                idx += 1
        edges = []
        if len(widths) == 2:
            edges = [((0, 0), (1, 0), nsim)]
        problem = make_problem("a | b", widths, potentials, edges=edges)
        for name, algo in REGISTRY.items():
            result = algo(problem)
            assert problem.constraints_satisfied(result.labels), (
                f"{name} violated constraints"
            )


class TestEdgeCentricAlgorithms:
    def test_alpha_expansion_finds_decisive_optimum(self):
        problem = make_problem(
            "a | b",
            [2],
            {(0, 0): [2.0, -0.3, 0.0, 0.1], (0, 1): [-0.3, 2.0, 0.0, 0.1]},
        )
        result = alpha_expansion_inference(problem)
        want = exhaustive_inference(problem)
        assert problem.score(result.labels) == pytest.approx(
            problem.score(want.labels)
        )

    def test_bp_trws_match_exhaustive_on_tree(self):
        # A two-table chain (tree) with one edge: message passing is exact.
        problem = make_problem(
            "a",
            [1, 1],
            {(0, 0): [2.0, 0.0, 0.1], (1, 0): [0.5, 0.0, 0.4]},
            edges=[((0, 0), (1, 0), 0.9)],
        )
        want = exhaustive_inference(problem)
        for algo in (belief_propagation_inference, trws_inference):
            got = algo(problem)
            assert problem.score(got.labels) == pytest.approx(
                problem.score(want.labels), rel=1e-6
            ), algo.__name__

    def test_alpha_expansion_respects_mutex_via_constrained_cut(self):
        # Two columns both preferring label 1; mutex allows only one.
        problem = make_problem(
            "a | b",
            [2],
            {(0, 0): [2.0, 0.5, 0.0, 0.0], (0, 1): [1.9, 0.5, 0.0, 0.0]},
        )
        result = alpha_expansion_inference(problem)
        labels = [result.labels[(0, 0)], result.labels[(0, 1)]]
        assert sorted(labels) == [0, 1]

    def test_algorithms_report_names(self):
        problem = make_problem("a", [1], {(0, 0): [1.0, 0.0, 0.1]})
        assert table_centric_inference(problem).algorithm == "table-centric"
        assert alpha_expansion_inference(problem).algorithm == "alpha-expansion"
        assert belief_propagation_inference(problem).algorithm == "belief-propagation"
        assert trws_inference(problem).algorithm == "trws"


class TestRepair:
    def test_detects_violations(self):
        problem = make_problem(
            "a | b",
            [2],
            {(0, 0): [1.0, 0.0, 0.0, 0.1], (0, 1): [0.0, 1.0, 0.0, 0.1]},
        )
        # mutex violation: both columns take label 1.
        bad = {(0, 0): 0, (0, 1): 0}
        assert table_violates_constraints(problem, bad, 0)
        fixed = repair_assignment(problem, bad)
        assert problem.constraints_satisfied(fixed)

    def test_all_nr_is_valid(self):
        problem = make_problem(
            "a | b",
            [2],
            {(0, 0): [1.0, 0.0, 0.0, 0.1], (0, 1): [0.0, 1.0, 0.0, 0.1]},
        )
        nr = problem.labels.nr
        assert not table_violates_constraints(
            problem, {(0, 0): nr, (0, 1): nr}, 0
        )

    def test_partial_nr_violates_all_irr(self):
        problem = make_problem(
            "a | b",
            [2],
            {(0, 0): [1.0, 0.0, 0.0, 0.1], (0, 1): [0.0, 1.0, 0.0, 0.1]},
        )
        labels = problem.labels
        bad = {(0, 0): labels.nr, (0, 1): 0}
        assert table_violates_constraints(problem, bad, 0)
