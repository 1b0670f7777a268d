"""Edge structure: content overlap across table columns (Section 3.3).

The paper's custom edge potential needs three ingredients computed here:

* **raw column similarity** — a weighted sum of content and header
  similarity between two columns of *different* tables;
* **max-matching edges** — per table pair, each column connects to at most
  one column of the other table, chosen by a maximum-weight one-to-one
  matching (robust when a table's own columns resemble each other);
* **normalized similarity** ``nsim(tc, t'c') = sim / (λ + Σ sim)`` with
  λ = 0.3, neighbors below 0.1 raw similarity ignored.

All three run in one pass over integer column ids ``0..n-1``, numbered in
``(table, column)`` order: column pairs are *blocked* on shared normalized
cell values, only the columns of a blocked pair are weighed, and each
table pair is matched apart (DESIGN.md, "The column-pair kernel").
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations, repeat
from math import sqrt
from operator import mul
from typing import (
    Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from ..flow.bipartite import one_to_one_pairs
from ..tables.compiled import CompiledColumn
from ..tables.table import WebTable
from ..text.tfidf import TermStatistics

__all__ = [
    "SIM_FLOOR", "NSIM_LAMBDA", "MappingEdge", "all_similar_pairs", "build_edges",
]

#: Neighbors with raw similarity below this are ignored (Section 3.3).
SIM_FLOOR = 0.1
#: Smoothing constant λ in the nsim normalization (Section 3.3).
NSIM_LAMBDA = 0.3
#: Weight of content similarity vs header similarity in the matching.
CONTENT_WEIGHT = 0.8
HEADER_WEIGHT = 1.0 - CONTENT_WEIGHT
#: A value held by more columns than this (e.g. "euro" everywhere) is too
#: common to block on.
STOP_VALUE_COLUMNS = 60
#: A column with fewer distinct values than this blocks on one shared value.
SMALL_COLUMN = 4

#: The default of every ``b.get(t, 0.0)`` in a cosine (an endless repeat
#: holds no state).
_ZEROS = repeat(0.0)

_Key = Tuple[int, int]  # (table_idx, col_idx)
#: A column's weighed comparison data: values, token weights and norm,
#: header weights and norm.
_Profile = Tuple[
    FrozenSet[str], Mapping[str, float], float, Mapping[str, float], float
]


class MappingEdge(NamedTuple):
    """A max-matching edge between columns of two tables."""

    a: _Key
    b: _Key
    sim: float  # raw similarity
    nsim_ab: float  # normalized from a's perspective
    nsim_ba: float  # normalized from b's perspective


class _IdfTable(Dict[str, float]):
    """``stats.idf`` per token, each computed once per call."""

    def __init__(self, stats: TermStatistics) -> None:
        super().__init__()
        self._idf = stats.idf

    def __missing__(self, term: str) -> float:
        value = self[term] = self._idf(term)
        return value


def _weighted(
    counts: Dict[str, int], idf: Optional[_IdfTable]
) -> Tuple[Mapping[str, float], float]:
    """Raw token counts times IDF, in the counts' own order, and the norm.

    Without ``idf`` every IDF is 1 and the compiled counts are used as
    they are (shared with the table, never written).
    """
    weighted: Mapping[str, float] = counts
    if idf is not None:
        weighted = dict(
            zip(counts, map(mul, counts.values(), map(idf.__getitem__, counts)))
        )
    values = weighted.values()
    return weighted, sqrt(sum(map(mul, values, values)))  # reprolint: disable=R003 -- the compiled counts are in the column's first-occurrence token order, fixed by the input table


def _profile(column: CompiledColumn, idf: Optional[_IdfTable]) -> _Profile:
    tokens, token_norm = _weighted(column.token_counts, idf)
    header, header_norm = _weighted(column.header_counts, idf)
    return column.values, tokens, token_norm, header, header_norm


def _cosine(
    a: Mapping[str, float], an: float, b: Mapping[str, float], bn: float
) -> float:
    if an <= 0 or bn <= 0:
        return 0.0
    if len(b) < len(a):
        a, an, b, bn = b, bn, a, an
    dot: float = sum(map(mul, a.values(), map(b.get, a, _ZEROS)))  # reprolint: disable=R003 -- the compiled counts are in the column's first-occurrence token order, fixed by the input table
    return dot / (an * bn)


def _scored_pairs(
    tables: Sequence[WebTable], stats: Optional[TermStatistics]
) -> Tuple[List[_Key], List[Tuple[int, int, float]]]:
    """Number the columns, block the candidate pairs and score them.

    Returns each id's ``(table, column)`` key and every candidate
    ``(a, b, sim)`` with ids ``a < b`` in different tables.  Blocking:
    pairs sharing >= 2 normalized cell values, stop values not counted, or
    1 when either column is small.  The pairs' order follows set
    iteration, so callers sort before anything order-sensitive.
    """
    keys: List[_Key] = []
    columns: List[CompiledColumn] = []
    by_value: Dict[str, List[int]] = defaultdict(list)
    for ti, table in enumerate(tables):
        compiled = table.compiled().columns
        for ci in range(table.num_cols):
            cid = len(keys)
            keys.append((ti, ci))
            columns.append(compiled[ci])
            for value in compiled[ci].values:
                by_value[value].append(cid)

    # Each value's ids ascend, so every combination is (a, b) with a < b.
    # A pair's count is its shared values, stop values aside.
    shared: Counter[Tuple[int, int]] = Counter()
    has_stop_value = [False] * len(keys)
    for ids in by_value.values():
        if len(ids) > STOP_VALUE_COLUMNS:
            for cid in ids:
                has_stop_value[cid] = True
        elif len(ids) > 1:
            shared.update(combinations(ids, 2))
    small = [len(column.values) < SMALL_COLUMN for column in columns]
    candidates = [
        (a, b, count) for (a, b), count in shared.items()
        if keys[a][0] != keys[b][0] and (count >= 2 or small[a] or small[b])
    ]

    idf = _IdfTable(stats) if stats is not None else None
    profiles = {
        c: _profile(columns[c], idf)
        for c in {c for a, b, _count in candidates for c in (a, b)}
    }
    scored: List[Tuple[int, int, float]] = []
    for a, b, inter in candidates:
        va, ta, tna, ha, hna = profiles[a]
        vb, tb, tnb, hb, hnb = profiles[b]
        if has_stop_value[a] or has_stop_value[b]:
            inter = len(va & vb)
        # A blocked pair shares a value, so neither value set is empty.
        overlap = inter / (len(va) + len(vb) - inter)
        content = 0.5 * (overlap + _cosine(ta, tna, tb, tnb))
        header = _cosine(ha, hna, hb, hnb)
        scored.append((a, b, CONTENT_WEIGHT * content + HEADER_WEIGHT * header))
    return keys, scored


def _flow_matching(
    pairs: List[Tuple[int, int, float]], kept: List[Tuple[int, int, float]]
) -> List[Tuple[int, int, float]]:
    """One table pair's matching over a matrix of its candidates' columns."""
    ids_a = sorted({a for a, _b, _sim in pairs})
    ids_b = sorted({b for _a, b, _sim in pairs})
    pos_a = {c: i for i, c in enumerate(ids_a)}
    pos_b = {c: i for i, c in enumerate(ids_b)}
    sims = {(pos_a[a], pos_b[b]): sim for a, b, sim in kept}
    return [
        (ids_a[ia], ids_b[ib], sims[(ia, ib)])
        for ia, ib in one_to_one_pairs(sims, len(ids_a), len(ids_b))
    ]


def all_similar_pairs(
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics] = None,
    sim_floor: float = SIM_FLOOR,
) -> List[Tuple[_Key, _Key, float]]:
    """Every cross-table column pair above the similarity floor.

    This is the *unprotected* neighbor structure the NbrText baseline uses
    (Section 5): no max-matching, no normalization, no confidence gating —
    exactly the ad hoc variant the paper shows to be fragile.  Returns
    ``(a, b, sim)`` triples.
    """
    keys, scored = _scored_pairs(tables, stats)
    scored.sort()
    return [(keys[a], keys[b], sim) for a, b, sim in scored if sim >= sim_floor]


def build_edges(
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics] = None,
    sim_floor: float = SIM_FLOOR,
    nsim_lambda: float = NSIM_LAMBDA,
) -> List[MappingEdge]:
    """Build the cross-table neighbor structure.

    Returns max-matching edges with both directional nsim values filled in.
    """
    keys, scored = _scored_pairs(tables, stats)
    by_tables: Dict[Tuple[int, int], List[Tuple[int, int, float]]] = defaultdict(list)
    for pair in scored:
        by_tables[keys[pair[0]][0], keys[pair[1]][0]].append(pair)

    # Per table pair: the maximum one-to-one matching.  Positive pairs that
    # share no column are their own unique optimum (``one_to_one_pairs``).
    matched: List[Tuple[int, int, float]] = []
    for pairs in by_tables.values():
        kept = [p for p in pairs if p[2] >= sim_floor and p[2] > 0]
        if len(kept) < 2 or (
            len({p[0] for p in kept}) == len(kept) == len({p[1] for p in kept})
        ):
            matched.extend(kept)
        else:
            matched.extend(_flow_matching(pairs, kept))

    # nsim normalization per column over its matched neighbors, summed in
    # edge order so every float is a function of the edge set alone.
    matched.sort()
    sums = [0.0] * len(keys)
    for a, b, sim in matched:
        sums[a] += sim
        sums[b] += sim
    return [
        MappingEdge(
            keys[a], keys[b], sim,
            sim / (nsim_lambda + sums[a]), sim / (nsim_lambda + sums[b]),
        )
        for a, b, sim in matched
    ]
