"""The exact small-instance solver against the min-cost-flow oracle.

``repro.inference.small_matching`` replaces :class:`BipartiteMatcher`
inside ``solve_table`` (Section 4.1) and Fig. 3's ``_solve_rows``
(§4.2.3) only when its answer is provably the matcher's.  These tests
hold it to that, float bit for float bit, on generated tables of every
shape it accepts, and show that the layouts where it must decline —
near-tied assignments, near-tied residual paths, wide tables — are both
reachable and sent to the matcher.
"""

from unittest import mock

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.flow.bipartite import BipartiteMatcher
from repro.inference import independent, max_marginals, solve_table
from repro.inference.independent import M1_BONUS
from repro.inference.small_matching import (
    MAX_EXACT_COLUMNS,
    max_marginal_matrix,
    rank_assignments,
)

from .conftest import make_problem

QUERIES = {1: "a", 2: "a | b", 3: "a | b | c"}

# Potentials as the model makes them: exact zeros, repeated values (ties
# are common), one-decimal values (whose sums round differently along
# different paths) and arbitrary floats.
one_decimal = st.sampled_from([-0.3, -0.1, 0.0, 0.1, 0.2, 0.3, 0.7, 1.1])
potential = st.one_of(
    st.just(0.0),
    st.sampled_from([-0.45, 0.25, 0.5, 1.25]),
    one_decimal,
    st.floats(-2, 3, allow_nan=False),
)


@st.composite
def tables(
    draw, min_width=0, max_width=MAX_EXACT_COLUMNS, max_q=3, values=potential
):
    """``(q, rows)``: rows of ``q + 2`` potentials (labels, na, nr), some
    rows duplicated, as identical columns of a real table are."""
    q = draw(st.integers(1, max_q))
    width = draw(st.integers(min_width, max_width))
    rows = [draw(st.lists(values, min_size=q + 2, max_size=q + 2))
            for _ in range(width)]
    for i in range(1, width):
        if draw(st.integers(0, 3)) == 0:
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    return q, rows


def matcher_rows(thetas, q):
    """What ``_solve_rows`` computes with the flow solver alone."""
    with mock.patch.object(max_marginals, "max_marginal_matrix",
                           lambda rows, q: None):
        return max_marginals._solve_rows(thetas, q)


def table_problem(q, rows):
    """A one-table problem with the given potential rows."""
    return make_problem(
        QUERIES[q], [len(rows)],
        {(0, ci): row for ci, row in enumerate(rows)},
    )


class TestAgainstTheMatcher:
    @settings(max_examples=150, deadline=None)
    @given(tables(), st.booleans(), st.data())
    def test_assignment_and_total(self, table, must_match, data):
        q, thetas = table
        nt = len(thetas)
        rows = [list(row[: q + 1]) for row in thetas]
        if must_match:
            for row in rows:
                row[0] += M1_BONUS
        na_cap = data.draw(st.integers(max(0, nt - q), nt))
        ranked = rank_assignments(rows, q, na_cap)
        oracle = BipartiteMatcher(rows, [1] * nt, [1] * q + [na_cap]).solve()
        # Whatever the gap, the matcher never finds a larger total.
        assert oracle.total_weight <= ranked.total
        if ranked.unique():
            assert list(enumerate(ranked.assignment)) == oracle.pairs
            assert repr(ranked.total) == repr(oracle.total_weight)

    @settings(max_examples=100, deadline=None)
    @given(tables(min_width=1))
    def test_solve_table_labels(self, table):
        q, rows = table
        problem = table_problem(q, rows)
        with mock.patch.object(independent, "rank_assignments",
                               lambda rows, q, na_cap: None):
            want = solve_table(problem, 0)
        assert solve_table(problem, 0) == want

    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_fig3_rows(self, table):
        q, rows = table
        thetas = tuple(tuple(row) for row in rows)
        assert repr(max_marginals._solve_rows(thetas, q)) == repr(
            matcher_rows(thetas, q)
        )


def assignment_tie(q, rows):
    """The best assignment is not ``GAP`` clear of the runner-up."""
    weights = [row[: q + 1] for row in rows]
    return not rank_assignments(weights, q, len(rows)).unique()


def path_tie(q, rows):
    """A unique assignment whose max-marginals the exact path declines."""
    weights = [row[: q + 1] for row in rows]
    return (not assignment_tie(q, rows)
            and max_marginal_matrix(weights, q) is None)


class TestDeclinedLayoutsGoToTheMatcher:
    """Ties are reachable, and each one costs exactly one matcher build."""

    def count_builds(self, monkeypatch):
        built = []

        class CountingMatcher(BipartiteMatcher):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(independent, "BipartiteMatcher", CountingMatcher)
        monkeypatch.setattr(max_marginals, "BipartiteMatcher", CountingMatcher)
        return built

    @pytest.mark.parametrize("tie", [assignment_tie, path_tie])
    def test_tie_layouts_are_reachable(self, tie):
        # Path ties need costs that tie while their sums round
        # differently: 1.5 % of the 3-column, q = 1 tables over these four
        # one-decimal values are such layouts.
        q, rows = find(
            tables(min_width=3, max_width=3, max_q=1,
                   values=st.sampled_from([-0.1, 0.3, 0.7, 1.1])),
            lambda t: tie(*t),
            settings=settings(
                derandomize=True, database=None, max_examples=2000
            ),
        )
        assert tie(q, rows)

    def test_unique_optimum_builds_no_matcher(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        rows = ((2.0, -0.3, 0.0, 0.1), (-0.3, 1.5, 0.0, 0.1), (0.2, 0.4, 0.0, 0.1))
        problem = table_problem(2, [list(r) for r in rows])
        assert solve_table(problem, 0) == {(0, 0): 0, (0, 1): 1, (0, 2): 2}
        max_marginals._solve_rows(rows, 2)
        assert built == []

    def test_tied_assignment_builds_one_matcher(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        # Two identical columns compete for label 1; the relevant branch
        # wins, so the label depends on the matcher's tie-break.
        rows = ((1.0, 0.5, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0))
        problem = table_problem(2, [list(r) for r in rows])
        assert assignment_tie(2, rows)
        with mock.patch.object(independent, "rank_assignments",
                               lambda rows, q, na_cap: None):
            want = solve_table(problem, 0)
        want_rows = matcher_rows(rows, 2)
        built.clear()
        assert solve_table(problem, 0) == want
        assert built == [1]
        built.clear()
        assert repr(max_marginals._solve_rows(rows, 2)) == repr(want_rows)
        assert built == [1]

    def test_tie_that_all_nr_wins_builds_no_matcher(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        # Tied, but no tied assignment beats the all-nr labeling.
        rows = [[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.5]]
        problem = table_problem(2, rows)
        assert solve_table(problem, 0) == {(0, 0): 3, (0, 1): 3}
        assert built == []

    def test_path_tie_builds_one_matcher(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        # The assignment is unique, but two residual paths to one column
        # cost the same and sum to different floats.
        rows = ((1.1, 0.7, 0.0), (1.1, -0.1, 0.0), (0.3, -0.1, 0.0))
        assert path_tie(1, rows)
        want = matcher_rows(rows, 1)
        built.clear()
        assert repr(max_marginals._solve_rows(rows, 1)) == repr(want)
        assert built == [1]

    def test_wide_table_builds_one_matcher(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        width = MAX_EXACT_COLUMNS + 1
        rows = [[0.1 * ci, -0.1 * ci, 0.0, 0.0] for ci in range(width)]
        problem = table_problem(2, rows)
        solve_table(problem, 0)
        assert built == [1]
        assert rank_assignments([r[:3] for r in rows], 2, width) is None
        # A query with more labels than MAX_EXACT_LABELS is declined too.
        assert rank_assignments([[0.5] * 5], 4, 1) is None
