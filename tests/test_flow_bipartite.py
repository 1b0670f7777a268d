"""Bipartite matcher and max-marginals vs brute-force enumeration."""

import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.flow import bipartite
from repro.flow.bipartite import BipartiteMatcher, one_to_one_pairs

NEG_INF = float("-inf")


def brute_force_best(weights, right_caps, forced=None):
    """Best max-cardinality assignment weight; left capacities all one.

    ``forced`` optionally pins left node i to right node j.  Returns -inf
    when infeasible.
    """
    n_left = len(weights)
    n_right = len(right_caps)
    total_right = sum(right_caps)
    target = min(n_left, total_right)
    best = NEG_INF
    options = [None] + list(range(n_right))
    for assign in itertools.product(options, repeat=n_left):
        if forced is not None and assign[forced[0]] != forced[1]:
            continue
        chosen = [a for a in assign if a is not None]
        if len(chosen) != target:
            continue
        counts = Counter(chosen)
        if any(counts[j] > right_caps[j] for j in counts):
            continue
        w = sum(weights[i][a] for i, a in enumerate(assign) if a is not None)
        best = max(best, w)
    return best


weight_matrix = st.integers(1, 3).flatmap(
    lambda n_left: st.integers(1, 3).flatmap(
        lambda n_right: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 9), min_size=n_right, max_size=n_right),
                min_size=n_left,
                max_size=n_left,
            ),
            st.lists(st.integers(0, 2), min_size=n_right, max_size=n_right),
        )
    )
)


class TestMatcherBasics:
    def test_simple_diagonal(self):
        m = BipartiteMatcher([[5, 1], [1, 5]], [1, 1], [1, 1])
        r = m.solve()
        assert r.pairs == [(0, 0), (1, 1)]
        assert r.total_weight == 10.0

    def test_negative_weights_still_saturate(self):
        # Flow maximization precedes cost: both columns must be matched even
        # though one weight is negative (paper Section 4.1 semantics).
        m = BipartiteMatcher([[-1.0, -5.0], [-5.0, -1.0]], [1, 1], [1, 1])
        r = m.solve()
        assert len(r.pairs) == 2
        assert r.total_weight == -2.0

    def test_capacity_sharing(self):
        # One right node with capacity 2 absorbs both left nodes.
        m = BipartiteMatcher([[3.0], [2.0]], [1, 1], [2])
        r = m.solve()
        assert r.pairs == [(0, 0), (1, 0)]
        assert r.total_weight == 5.0

    def test_mapper_sized_instance_with_absorbing_label(self):
        # The column mapper's shape: 8 columns, 4 unit-capacity query
        # labels, and one label (na) that can absorb every column.
        rng = random.Random(3)
        weights = [[rng.uniform(-1, 2) for _ in range(5)] for _ in range(8)]
        m = BipartiteMatcher(weights, [1] * 8, [1] * 4 + [8])
        r = m.solve()
        assert [i for i, _j in r.pairs] == list(range(8))
        mm = m.max_marginals()
        assert [len(row) for row in mm] == [5] * 8
        for i, j in r.pairs:
            assert mm[i][j] == pytest.approx(r.total_weight)

    def test_right_surplus_uses_best(self):
        m = BipartiteMatcher([[1.0, 9.0, 2.0]], [1], [1, 1, 1])
        r = m.solve()
        assert r.pairs == [(0, 1)]

    def test_zero_capacity_right_unused(self):
        m = BipartiteMatcher([[100.0, 1.0]], [1], [0, 1])
        r = m.solve()
        assert r.pairs == [(0, 1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            BipartiteMatcher([[1.0]], [1, 2], [1])
        with pytest.raises(ValueError):
            BipartiteMatcher([[1.0, 2.0]], [1], [1])
        with pytest.raises(ValueError):
            BipartiteMatcher([[1.0]], [-1], [1])

    def test_right_of(self):
        m = BipartiteMatcher([[5, 1], [1, 5]], [1, 1], [1, 1])
        r = m.solve()
        assert r.right_of(0) == 0
        assert r.right_of(7) is None

    def test_network_requires_solve(self):
        m = BipartiteMatcher([[1.0]], [1], [1])
        with pytest.raises(RuntimeError):
            _ = m.network
        with pytest.raises(RuntimeError):
            m.max_marginals()


class TestAgainstBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(weight_matrix)
    def test_optimal_weight(self, data):
        weights, right_caps = data
        expected = brute_force_best(weights, right_caps)
        m = BipartiteMatcher(weights, [1] * len(weights), right_caps)
        r = m.solve()
        if expected == NEG_INF:
            assert r.pairs == []
        else:
            assert abs(r.total_weight - expected) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(weight_matrix)
    def test_max_marginals_match_brute_force(self, data):
        weights, right_caps = data
        m = BipartiteMatcher(weights, [1] * len(weights), right_caps)
        m.solve()
        mm = m.max_marginals()
        for i in range(len(weights)):
            for j in range(len(right_caps)):
                expected = brute_force_best(weights, right_caps, forced=(i, j))
                got = mm[i][j]
                if expected == NEG_INF:
                    assert got == NEG_INF
                else:
                    assert abs(got - expected) < 1e-6, (
                        f"mm[{i}][{j}]: got {got}, want {expected}, "
                        f"weights={weights}, caps={right_caps}"
                    )

    @settings(max_examples=40, deadline=None)
    @given(weight_matrix)
    def test_matching_respects_capacities(self, data):
        weights, right_caps = data
        m = BipartiteMatcher(weights, [1] * len(weights), right_caps)
        r = m.solve()
        counts = Counter(j for _, j in r.pairs)
        for j, c in counts.items():
            assert c <= right_caps[j]
        lefts = [i for i, _ in r.pairs]
        assert len(lefts) == len(set(lefts))


# Similarity-like weights: exact zeros, repeated values (ties) and arbitrary
# floats, all far from the solver's EPS.  A third of the entries are zero,
# so both conflict-free and conflicting layouts are common at every shape.
similarity = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 0.25, 0.5, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
similarity_matrix = st.integers(1, 4).flatmap(
    lambda n_left: st.integers(1, 4).flatmap(
        lambda n_right: st.lists(
            st.lists(similarity, min_size=n_right, max_size=n_right),
            min_size=n_left,
            max_size=n_left,
        )
    )
)


def recorded(dense):
    """The sparse form ``build_edges`` hands over: non-zero entries only."""
    return {
        (i, j): w
        for i, row in enumerate(dense)
        for j, w in enumerate(row)
        if w != 0
    }


def is_conflict_free(weights):
    rows = [i for i, _ in weights]
    cols = [j for _, j in weights]
    return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


class TestOneToOnePairs:
    """The closed form agrees with the flow solver, which stays the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(similarity_matrix, st.booleans())
    def test_same_positive_pairs_as_the_flow_solver(self, dense, record_zeros):
        n, m = len(dense), len(dense[0])
        oracle = BipartiteMatcher(dense, [1] * n, [1] * m).solve()
        expected = [(i, j) for i, j in oracle.pairs if dense[i][j] > 0]
        weights = recorded(dense)
        if record_zeros:  # a recorded zero must not be mistaken for a match
            weights.update(
                ((i, j), 0.0) for i in range(n) for j in range(m)
                if dense[i][j] == 0
            )
        assert one_to_one_pairs(weights, n, m) == expected

    def test_generator_reaches_both_layouts(self):
        for wanted in (True, False):
            dense = find(
                similarity_matrix,
                lambda d, wanted=wanted: len(recorded(d)) >= 2
                and is_conflict_free(recorded(d)) == wanted,
            )
            assert is_conflict_free(recorded(dense)) == wanted

    @pytest.mark.parametrize("dense", [
        [[0.5, 0.0], [0.0, 0.5]],  # conflict-free, tied weights
        [[0.5, 0.5], [0.5, 0.0]],  # conflicting, tied weights
        [[0.5, 0.5], [0.5, 0.5]],  # every perfect matching ties
    ])
    def test_tied_weights(self, dense):
        n, m = len(dense), len(dense[0])
        oracle = BipartiteMatcher(dense, [1] * n, [1] * m).solve()
        assert one_to_one_pairs(recorded(dense), n, m) == oracle.pairs

    def test_negative_weight_goes_to_the_solver(self):
        # Flow maximisation comes first (the matching is perfect), so a
        # negative entry is not simply ignored: the diagonal (0.4) beats the
        # zero anti-diagonal, but the diagonal at -0.1 does not.
        assert one_to_one_pairs({(0, 0): -0.5, (1, 1): 0.9}, 2, 2) == [(1, 1)]
        assert one_to_one_pairs({(0, 0): -0.5, (1, 1): 0.4}, 2, 2) == []

    def test_only_a_conflict_builds_a_flow_network(self, monkeypatch):
        built = []

        class CountingNetwork(bipartite.FlowNetwork):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bipartite, "FlowNetwork", CountingNetwork)
        conflict_free = {(0, 1): 0.4, (1, 0): 0.9, (2, 2): 0.4}
        assert one_to_one_pairs(conflict_free, 3, 3) == [(0, 1), (1, 0), (2, 2)]
        assert built == []
        conflicting = {(0, 0): 0.4, (0, 1): 0.9, (1, 1): 0.7}
        assert one_to_one_pairs(conflicting, 2, 2) == [(0, 0), (1, 1)]
        assert built == [1]


#: Near-tie weights whose Bellman–Ford parent edges loop through a residual
#: cycle that never reaches the source; tracing them used to spin forever.
NEAR_TIE_WEIGHTS = [
    [1.1000000010000002, 0.299998, 0.7000000009999999, 1.0999995],
    [1.1000005000000002, 0.299998, 0.7000099999999999, 1.1],
    [1.1000005000000002, 0.299998, 0.699998, 1.1],
    [0.799999999, 0.300000001, 0.39999999999999997, 0.8000005000000001],
    [1.4000005000000002, 1.0000000272292198e-09, 0.9999994999999999,
     1.4000020000000002],
]
NEAR_TIE_RIGHT_CAPS = [1, 1, 1, 5]


class TestNearTies:
    def test_parent_cycle_is_cancelled_not_followed(self):
        # A subprocess with a timeout, so a regression fails instead of
        # hanging the suite.
        script = (
            "import json, sys\n"
            "from repro.flow.bipartite import BipartiteMatcher\n"
            "w, caps = json.loads(sys.argv[1])\n"
            "r = BipartiteMatcher(w, [1] * len(w), caps).solve()\n"
            "print(json.dumps([r.pairs, r.total_weight]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", script,
             json.dumps([NEAR_TIE_WEIGHTS, NEAR_TIE_RIGHT_CAPS])],
            capture_output=True, text=True, timeout=30,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert done.returncode == 0, done.stderr
        pairs, total = json.loads(done.stdout)
        assert total == pytest.approx(
            brute_force_best(NEAR_TIE_WEIGHTS, NEAR_TIE_RIGHT_CAPS), abs=1e-6
        )
        assert sum(NEAR_TIE_WEIGHTS[i][j] for i, j in pairs) == (
            pytest.approx(total, abs=1e-12)
        )
