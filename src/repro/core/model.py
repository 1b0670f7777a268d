"""Graphical model assembly for the column mapping task (Section 3).

:class:`ColumnMappingProblem` bundles everything inference needs: one
variable per (table, column) with the ``q + 2`` label space, node potentials
(Eq. 3), the cross-table edge structure (Eq. 4's static part), and the four
hard table constraints (Eqs. 5-8).  :func:`build_problem` evaluates all
features; the labeling objective (Eq. 9) is exposed via :meth:`score` so
tests and algorithm comparisons can rank labelings exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..query.model import Query
from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from .edges import MappingEdge, build_edges
from .features import FeatureCache, query_feature_key
from .labels import LabelSpace
from .params import DEFAULT_PARAMS, ModelParams
from .pmi import PmiScorer
from .segsim import (
    DEFAULT_RELIABILITIES,
    Reliabilities,
    TablePartIndex,
    segmented_similarity,
    unsegmented_similarity,
)

__all__ = ["ColumnFeatures", "ColumnMappingProblem", "build_problem"]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ColumnFeatures:
    """Raw feature values of one column against every query column."""

    segsim: Tuple[float, ...]
    cover: Tuple[float, ...]
    pmi: Tuple[float, ...]


class ColumnMappingProblem:
    """The assembled joint labeling problem for one query."""

    def __init__(
        self,
        query: Query,
        tables: Sequence[WebTable],
        params: ModelParams,
        node_potentials: Dict[Tuple[int, int], List[float]],
        features: Dict[Tuple[int, int], ColumnFeatures],
        table_relevance: List[float],
        edges: List[MappingEdge],
        feature_cache: Optional[FeatureCache] = None,
    ) -> None:
        self.query = query
        self.tables = list(tables)
        self.params = params
        self.labels = LabelSpace(query.q)
        self.node_potentials = node_potentials
        self.features = features
        self.table_relevance = table_relevance
        self.edges = edges
        #: The query's shared memo; inference reuses solved max-marginals
        #: through it (content-keyed, so re-weighted problems share it too).
        self.feature_cache = feature_cache

    # -- structure ---------------------------------------------------------------

    def columns(self) -> Iterator[Tuple[int, int]]:
        """Iterate all (table_idx, col_idx) variables."""
        for ti, table in enumerate(self.tables):
            for ci in range(table.num_cols):
                yield (ti, ci)

    @property
    def num_columns(self) -> int:
        """Total number of column variables."""
        return sum(t.num_cols for t in self.tables)

    def table_columns(self, ti: int) -> List[Tuple[int, int]]:
        """The column variables of one table."""
        return [(ti, ci) for ci in range(self.tables[ti].num_cols)]

    def min_match(self, ti: int) -> int:
        """The per-table min-match constant (clamped to the table width)."""
        return min(self.query.min_match(), self.tables[ti].num_cols, self.query.q)

    # -- objective (Eq. 9) ----------------------------------------------------------

    def constraints_satisfied(self, y: Mapping[Tuple[int, int], int]) -> bool:
        """Check mutex, all-Irr, must-match and min-match for labeling y."""
        labels = self.labels
        for ti in range(len(self.tables)):
            cols = self.table_columns(ti)
            assigned = [y[tc] for tc in cols]
            n_nr = sum(1 for l in assigned if l == labels.nr)
            if n_nr not in (0, len(assigned)):  # all-Irr
                return False
            if n_nr == len(assigned):
                continue  # irrelevant table: remaining constraints vacuous
            query_labels = [l for l in assigned if labels.is_query(l)]
            if len(set(query_labels)) != len(query_labels):  # mutex
                return False
            if 0 not in query_labels:  # must-match (first query column)
                return False
            if len(query_labels) < self.min_match(ti):  # min-match
                return False
        return True

    def edge_score(
        self,
        edge: MappingEdge,
        label_a: int,
        label_b: int,
        confident: Mapping[Tuple[int, int], bool],
    ) -> float:
        """θ(tc, l, t'c', l') of Eq. 4 for one edge."""
        if label_a != label_b or label_a == self.labels.nr:
            return 0.0
        score = 0.0
        if confident.get(edge.b, False):
            score += edge.nsim_ab
        if confident.get(edge.a, False):
            score += edge.nsim_ba
        return self.params.we * score

    def score(
        self,
        y: Mapping[Tuple[int, int], int],
        confident: Optional[Mapping[Tuple[int, int], bool]] = None,
    ) -> float:
        """Total objective of Eq. 9 (``-inf`` when constraints are violated).

        ``confident`` is the edge-gating map (Section 3.3); when omitted,
        all columns are treated as confident — the upper envelope used by
        tests that only care about relative labeling quality.
        """
        if not self.constraints_satisfied(y):
            return NEG_INF
        if confident is None:
            confident = {tc: True for tc in self.columns()}
        total = sum(self.node_potentials[tc][y[tc]] for tc in self.columns())
        for edge in self.edges:
            total += self.edge_score(edge, y[edge.a], y[edge.b], confident)
        return total

    def all_nr_labeling(self) -> Dict[Tuple[int, int], int]:
        """The labeling marking every table irrelevant."""
        return {tc: self.labels.nr for tc in self.columns()}

    def with_params(self, params: ModelParams) -> ColumnMappingProblem:
        """Re-weight node potentials without re-extracting features.

        Features (SegSim, Cover, PMI², R) and the edge structure do not
        depend on the weights, so grid training (Section 3.4) only needs to
        recombine them — this is what makes exhaustive enumeration cheap.
        """
        q = self.query.q
        node_potentials: Dict[Tuple[int, int], List[float]] = {}
        for ti, table in enumerate(self.tables):
            nt = table.num_cols
            nr_potential = (
                params.w4 * (min(q, nt) / nt) * (1.0 - self.table_relevance[ti])
            )
            for ci in range(nt):
                f = self.features[(ti, ci)]
                theta = [
                    params.w1 * f.segsim[l]
                    + params.w2 * f.cover[l]
                    + params.w3 * f.pmi[l]
                    + params.w5
                    for l in range(q)
                ]
                theta.append(0.0)
                theta.append(nr_potential)
                node_potentials[(ti, ci)] = theta
        return ColumnMappingProblem(
            query=self.query,
            tables=self.tables,
            params=params,
            node_potentials=node_potentials,
            features=self.features,
            table_relevance=self.table_relevance,
            edges=self.edges,
            feature_cache=self.feature_cache,
        )


def _clip(a: float, b: float) -> float:
    """The clip function of Eq. 2."""
    return 0.0 if a < b else a


def build_problem(
    query: Query,
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics] = None,
    params: ModelParams = DEFAULT_PARAMS,
    pmi_scorer: Optional[PmiScorer] = None,
    reliabilities: Reliabilities = DEFAULT_RELIABILITIES,
    feature_cache: Optional[FeatureCache] = None,
    with_edges: bool = True,
) -> ColumnMappingProblem:
    """Evaluate all features and assemble the labeling problem.

    ``pmi_scorer`` is only consulted when ``params.w3`` is non-zero (PMI² is
    expensive — Section 5.1 measures a ~6x query slowdown with it on).

    ``with_edges=False`` skips the O(tables² x columns²) cross-table edge
    construction (Section 3.3) — for solvers that never read edges, e.g.
    the execution engine's non-collective degraded fallback, where edge
    assembly would dominate the post-deadline cost.

    ``feature_cache`` memoizes each table's :class:`ColumnFeatures` (and
    its relevance ``R(Q, t)``) per query, so re-assembling a problem over
    an overlapping table set — the probe's confidence pass followed by the
    facade's full inference — computes features only for tables not seen
    before; everything downstream of the features (node potentials, edges)
    is still evaluated fresh.  The cache is pinned to this call's
    ``(stats, reliabilities, pmi_scorer)`` regime and auto-clears if a
    different regime arrives (see
    :meth:`~repro.core.features.FeatureCache.pin`).
    """
    q = query.q
    query_tokens = [query.column_tokens(l) for l in range(q)]
    pmi_active = params.w3 != 0.0 and pmi_scorer is not None

    cache_prefix: Optional[Tuple] = None
    cache_generation = 0
    if feature_cache is not None:
        cache_generation = feature_cache.pin(
            stats, reliabilities, pmi_scorer if pmi_active else None
        )
        cache_prefix = (
            query_feature_key(query), params.use_segmented, pmi_active
        )

    node_potentials: Dict[Tuple[int, int], List[float]] = {}
    features: Dict[Tuple[int, int], ColumnFeatures] = {}
    table_relevance: List[float] = []

    for ti, table in enumerate(tables):
        nt = table.num_cols
        cached = (
            feature_cache.get(
                cache_prefix + (table.table_id,),
                generation=cache_generation,
            )
            if cache_prefix is not None else None
        )
        if cached is not None:
            col_features, relevance = cached
        else:
            part_index = TablePartIndex(table)
            col_features = []
            for ci in range(nt):
                seg: List[float] = []
                cov: List[float] = []
                pmi: List[float] = []
                for l in range(q):
                    scores = (
                        segmented_similarity(
                            query_tokens[l], part_index, ci, stats,
                            reliabilities,
                        )
                        if params.use_segmented
                        else unsegmented_similarity(
                            query_tokens[l], part_index, ci, stats
                        )
                    )
                    seg.append(scores.segsim)
                    cov.append(scores.cover)
                    if pmi_active:
                        pmi.append(
                            pmi_scorer.score(query.columns[l], table, ci)
                        )
                    else:
                        pmi.append(0.0)
                col_features.append(
                    ColumnFeatures(tuple(seg), tuple(cov), tuple(pmi))
                )

            # Table relevance R(Q, t) of Eq. 2.
            cover_sum = sum(
                max(col_features[ci].cover[l] for ci in range(nt))
                for l in range(q)
            )
            relevance = _clip(cover_sum, min(q, 1.5)) / q
            if cache_prefix is not None:
                feature_cache.put(
                    cache_prefix + (table.table_id,),
                    (tuple(col_features), relevance),
                    generation=cache_generation,
                )
        table_relevance.append(relevance)

        nr_potential = params.w4 * (min(q, nt) / nt) * (1.0 - relevance)
        for ci in range(nt):
            theta = []
            for l in range(q):
                f = col_features[ci]
                theta.append(
                    params.w1 * f.segsim[l]
                    + params.w2 * f.cover[l]
                    + params.w3 * f.pmi[l]
                    + params.w5
                )
            theta.append(0.0)  # na
            theta.append(nr_potential)  # nr
            node_potentials[(ti, ci)] = theta
            features[(ti, ci)] = col_features[ci]

    edges = build_edges(tables, stats) if with_edges else []
    return ColumnMappingProblem(
        query=query,
        tables=tables,
        params=params,
        node_potentials=node_potentials,
        features=features,
        table_relevance=table_relevance,
        edges=edges,
        feature_cache=feature_cache,
    )
