"""Micro-benchmarks of the substrate kernels.

Times the building blocks everything else composes: HTML extraction, the
inverted-index probe, segmented similarity, bipartite matching with
max-marginals, the constrained cut, and row consolidation.
"""

import random

from repro.consolidate.merge import consolidate
from repro.corpus.domains import REGISTRY
from repro.corpus.pages import render_page
from repro.flow.bipartite import BipartiteMatcher
from repro.flow.constrained_cut import constrained_min_cut
from repro.flow.network import FlowNetwork
from repro.html.parser import parse_html
from repro.query.model import Query
from repro.tables.extractor import extract_tables


def test_html_extraction(benchmark):
    rng = random.Random(1)
    page = render_page(REGISTRY["countries"], 0, rng)

    def extract():
        return extract_tables(parse_html(page.html))

    tables = benchmark(extract)
    assert len(tables) >= 1


def test_index_probe(env, benchmark):
    tokens = Query.parse("country | currency | population").all_tokens()
    hits = benchmark(env.synthetic.corpus.search, tokens, 60)
    assert hits


def test_bipartite_matching_with_marginals(benchmark):
    rng = random.Random(3)
    weights = [[rng.uniform(-1, 2) for _ in range(5)] for _ in range(8)]

    def solve():
        matcher = BipartiteMatcher(weights, [1] * 8, [1] * 4 + [8])
        matcher.solve()
        return matcher.max_marginals()

    mm = benchmark(solve)
    assert len(mm) == 8


def test_constrained_cut(benchmark):
    def solve():
        net = FlowNetwork(8)
        for u, v, c in [(0, 2, 3), (0, 3, 2), (0, 4, 2), (2, 1, 4),
                        (3, 1, 3), (4, 5, 2), (5, 1, 2), (2, 3, 1)]:
            net.add_edge(u, v, float(c))
        return constrained_min_cut(net, 0, 1, groups=[[2, 3], [4, 5]])

    t_side, _flow = benchmark(solve)
    assert 1 in t_side


def test_consolidation(env, benchmark):
    wq = env.queries[14]  # country | currency
    probe = env.candidates[wq.query_id]
    mappings = {}
    for ti, table in enumerate(probe.tables):
        label = env.truth.label(wq.query_id, table.table_id)
        if label.relevant:
            mappings[ti] = label.mapping
    answer = benchmark(consolidate, wq.query, probe.tables, mappings)
    assert answer.num_rows > 0
