"""The pre-kernel edge construction, kept verbatim as the oracle.

``repro.core.edges`` builds Section 3.3's edges in one integer-indexed
pass; this module is the profile-per-column version it replaced, copied
unchanged (imports aside).  ``tests/test_core_edges.py`` asserts that the
``repr`` of both modules' ``build_edges`` and ``all_similar_pairs`` agree
bit for bit.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import sqrt
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.flow.bipartite import one_to_one_pairs
from repro.tables.table import WebTable
from repro.text.tfidf import TermStatistics

#: Neighbors with raw similarity below this are ignored (Section 3.3).
SIM_FLOOR = 0.1
#: Smoothing constant λ in the nsim normalization (Section 3.3).
NSIM_LAMBDA = 0.3
#: Weight of content similarity vs header similarity in the matching.
CONTENT_WEIGHT = 0.8


class _IdfTable(Dict[str, float]):
    """``stats.idf`` per token, each computed once: one per ``build_edges``
    call, shared by every column profile of the call."""

    def __init__(self, stats: TermStatistics) -> None:
        super().__init__()
        self._idf = stats.idf

    def __missing__(self, term: str) -> float:
        value = self[term] = self._idf(term)
        return value


def _weighted(
    counts: Dict[str, int], idf: Optional[Mapping[str, float]]
) -> Tuple[Mapping[str, float], float]:
    """Raw token counts times IDF, in the counts' own order, and the norm.

    Without ``idf`` every IDF is 1 and the compiled counts are used as
    they are (shared with the table, never written).
    """
    weighted: Mapping[str, float] = counts
    if idf is not None:
        weighted = {t: c * idf[t] for t, c in counts.items()}
    norm = sqrt(
        sum(w * w for w in weighted.values())  # reprolint: disable=R003 -- the compiled counts are in the column's first-occurrence token order, fixed by the input table
    )
    return weighted, norm


@dataclass
class ColumnProfile:
    """One column's comparison data under one corpus-statistics regime."""

    table_idx: int
    col_idx: int
    values: FrozenSet[str]
    token_counts: Mapping[str, float]
    token_norm: float
    header_counts: Mapping[str, float]
    header_norm: float

    @classmethod
    def build(
        cls,
        table_idx: int,
        col_idx: int,
        table: WebTable,
        idf: Optional[Mapping[str, float]],
    ) -> ColumnProfile:
        """Re-weight the table's compiled column; no cell is tokenized.

        ``idf`` maps a token to its IDF (``build_edges`` passes one table
        per call); ``None`` weighs every token 1.
        """
        column = table.compiled().columns[col_idx]
        token_counts, token_norm = _weighted(column.token_counts, idf)
        header_counts, header_norm = _weighted(column.header_counts, idf)
        return cls(
            table_idx=table_idx,
            col_idx=col_idx,
            values=column.values,
            token_counts=token_counts,
            token_norm=token_norm,
            header_counts=header_counts,
            header_norm=header_norm,
        )


def _cosine(
    a: Mapping[str, float], an: float, b: Mapping[str, float], bn: float
) -> float:
    if an <= 0 or bn <= 0:
        return 0.0
    if len(b) < len(a):
        a, an, b, bn = b, bn, a, an
    dot = sum(
        w * b.get(t, 0.0) for t, w in a.items()  # reprolint: disable=R003 -- the compiled counts are in the column's first-occurrence token order, fixed by the input table
    )
    return dot / (an * bn)


def column_pair_similarity(a: ColumnProfile, b: ColumnProfile) -> float:
    """Weighted content + header similarity between two column profiles."""
    if a.values and b.values:
        inter = len(a.values & b.values)
        overlap = inter / (len(a.values) + len(b.values) - inter)
    else:
        overlap = 0.0
    content = 0.5 * (overlap + _cosine(a.token_counts, a.token_norm,
                                       b.token_counts, b.token_norm))
    header = _cosine(a.header_counts, a.header_norm,
                     b.header_counts, b.header_norm)
    return CONTENT_WEIGHT * content + (1.0 - CONTENT_WEIGHT) * header


@dataclass(frozen=True)
class MappingEdge:
    """A max-matching edge between columns of two tables."""

    a: Tuple[int, int]  # (table_idx, col_idx)
    b: Tuple[int, int]
    sim: float  # raw similarity
    nsim_ab: float  # normalized from a's perspective
    nsim_ba: float  # normalized from b's perspective


_ColumnKey = Tuple[int, int]  # (table_idx, col_idx)


def _blocked_pairs(
    tables: Sequence[WebTable], stats: Optional[TermStatistics]
) -> Tuple[
    Dict[_ColumnKey, ColumnProfile], List[Tuple[_ColumnKey, _ColumnKey]]
]:
    """Profile every column and block the cross-table candidate pairs.

    Blocking: column pairs (different tables) sharing >= 2 normalized cell
    values, or 1 when either column is tiny.  Returns the profiles and the
    candidate ``(a, b)`` pairs (``a < b``); their order follows set
    iteration, so callers sort before anything order-sensitive.
    """
    idf = _IdfTable(stats) if stats is not None else None
    profiles: Dict[_ColumnKey, ColumnProfile] = {}
    by_value: Dict[str, List[_ColumnKey]] = defaultdict(list)
    for ti, table in enumerate(tables):
        for ci in range(table.num_cols):
            profile = ColumnProfile.build(ti, ci, table, idf)
            profiles[(ti, ci)] = profile
            for value in profile.values:
                by_value[value].append((ti, ci))

    # Each value's columns are ascending, so every combination is (a, b)
    # with a < b; same-table pairs are counted and dropped below.
    shared: Counter[Tuple[_ColumnKey, _ColumnKey]] = Counter()
    for _value, cols in by_value.items():
        if len(cols) > 60:
            continue  # stop-value (e.g. "euro" everywhere) — too common to block on
        if len(cols) > 1:
            shared.update(itertools.combinations(cols, 2))

    candidates: List[Tuple[_ColumnKey, _ColumnKey]] = []
    for (a, b), cnt in shared.items():
        if a[0] == b[0]:
            continue
        small = min(len(profiles[a].values), len(profiles[b].values)) < 4
        if cnt >= 2 or (small and cnt >= 1):
            candidates.append((a, b))
    return profiles, candidates


def all_similar_pairs(
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics] = None,
    sim_floor: float = SIM_FLOOR,
) -> List[Tuple[_ColumnKey, _ColumnKey, float]]:
    """Every cross-table column pair above the similarity floor.

    This is the *unprotected* neighbor structure the NbrText baseline uses
    (Section 5): no max-matching, no normalization, no confidence gating —
    exactly the ad hoc variant the paper shows to be fragile.  Returns
    ``(a, b, sim)`` triples.
    """
    profiles, candidates = _blocked_pairs(tables, stats)
    out: List[Tuple[_ColumnKey, _ColumnKey, float]] = []
    for a, b in candidates:
        sim = column_pair_similarity(profiles[a], profiles[b])
        if sim >= sim_floor:
            out.append((a, b, sim))
    out.sort()
    return out


def build_edges(
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics] = None,
    sim_floor: float = SIM_FLOOR,
    nsim_lambda: float = NSIM_LAMBDA,
) -> List[MappingEdge]:
    """Build the cross-table neighbor structure.

    Returns max-matching edges with both directional nsim values filled in.
    """
    profiles, candidates = _blocked_pairs(tables, stats)
    candidate_pairs: Dict[
        Tuple[int, int], List[Tuple[_ColumnKey, _ColumnKey]]
    ] = defaultdict(list)
    for a, b in candidates:
        candidate_pairs[(a[0], b[0])].append((a, b))

    # Per table pair: maximum one-one matching over candidate column pairs.
    matched: List[Tuple[Tuple[int, int], Tuple[int, int], float]] = []
    for (ta, tb), pairs in candidate_pairs.items():
        cols_a = sorted({a[1] for a, _b in pairs})
        cols_b = sorted({b[1] for _a, b in pairs})
        pos_a = {c: i for i, c in enumerate(cols_a)}
        pos_b = {c: i for i, c in enumerate(cols_b)}
        sims: Dict[Tuple[int, int], float] = {}
        for a, b in pairs:
            sim = column_pair_similarity(profiles[a], profiles[b])
            if sim >= sim_floor:
                sims[(pos_a[a[1]], pos_b[b[1]])] = sim
        if not sims:
            continue
        for ia, ib in one_to_one_pairs(sims, len(cols_a), len(cols_b)):
            matched.append(((ta, cols_a[ia]), (tb, cols_b[ib]), sims[(ia, ib)]))

    # nsim normalization per column over its matched neighbors.  Blocking
    # order follows set iteration (hash-seed dependent); summing in edge
    # order makes every float a function of the edge set alone.
    matched.sort()
    sim_sums: Dict[Tuple[int, int], float] = defaultdict(float)
    for a, b, sim in matched:
        sim_sums[a] += sim
        sim_sums[b] += sim

    return [
        MappingEdge(
            a=a,
            b=b,
            sim=sim,
            nsim_ab=sim / (nsim_lambda + sim_sums[a]),
            nsim_ba=sim / (nsim_lambda + sim_sums[b]),
        )
        for a, b, sim in matched
    ]
