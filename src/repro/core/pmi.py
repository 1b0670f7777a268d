"""The PMI² corpus co-occurrence feature (Section 3.2.3).

``PMI²(Q_l, tc)`` measures, averaged over the rows of table ``t``, how
strongly the corpus associates the query keywords with the *content* of
column ``c``:

    PMI²(Q_l, tc) = (1/#Rows) * sum_r |H(Q_l) ∩ B(cell(r,c))|² /
                                   (|H(Q_l)| * |B(cell(r,c))|)

where ``H(Q_l)`` is the set of corpus tables containing all of ``Q_l`` in
header or context, and ``B(cell)`` the set of tables matching the cell's
words in their content.  The paper found the signal noisy (overweighting
low-frequency cells) and expensive — WWT leaves it out by default; it exists
here to reproduce the PMI² baseline and the cost comparison of Section 5.1.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, Sequence, Set

from ..tables.table import WebTable
from ..text.tokenize import tokenize
from .features import PMI_B_CACHE_SIZE, PMI_H_CACHE_SIZE, BoundedCache

__all__ = ["PmiScorer"]


class ContainmentIndex(Protocol):
    """The slice of an index PMI² needs: the conjunctive containment probe.

    Both :class:`~repro.index.inverted.InvertedIndex` (the PMI baseline
    feeds one directly) and every :class:`~repro.index.protocol.
    CorpusProtocol` corpus satisfy it.
    """

    def docs_containing_all(
        self, terms: Sequence[str], fields: Iterable[str]
    ) -> Set[str]:
        """Ids of documents holding every term in one of ``fields``."""
        ...


class PmiScorer:
    """Computes PMI² scores against a corpus index, with caching.

    ``index`` is anything exposing ``docs_containing_all(terms, fields)`` —
    a bare :class:`~repro.index.inverted.InvertedIndex` or a whole corpus
    (:class:`~repro.index.ShardedCorpus`, whose union-over-shards
    conjunction returns the identical set).

    The ``H(Q_l)`` / ``B(cell)`` containment-probe results are cached in
    bounded, thread-safe corpus-level caches
    (:class:`~repro.core.features.BoundedCache`).  By default each scorer
    gets a private pair; pass ``h_cache`` / ``b_cache`` to share them
    across scorers.  The serving facade holds one scorer per service, so
    every query it answers reuses earlier probes.  Eviction only ever
    costs a recomputed probe, never a different score.
    """

    def __init__(
        self,
        index: ContainmentIndex,
        max_rows: int = 30,
        h_cache: Optional[BoundedCache[str, frozenset[str]]] = None,
        b_cache: Optional[BoundedCache[str, frozenset[str]]] = None,
    ) -> None:
        self.index = index
        self.max_rows = max_rows
        self._h_cache = h_cache if h_cache is not None else BoundedCache(
            PMI_H_CACHE_SIZE
        )
        self._b_cache = b_cache if b_cache is not None else BoundedCache(
            PMI_B_CACHE_SIZE
        )

    def clear_caches(self) -> None:
        """Drop both probe caches (after the indexed corpus mutates)."""
        self._h_cache.clear()
        self._b_cache.clear()

    def _h_set(self, query_text: str) -> frozenset[str]:
        """H(Q_l): tables containing all query tokens in header or context."""
        cached = self._h_cache.get(query_text)
        if cached is None:
            tokens = tokenize(query_text)
            cached = frozenset(
                self.index.docs_containing_all(tokens, ("header", "context"))
            )
            self._h_cache.put(query_text, cached)
        return cached

    def _b_set(self, cell_text: str) -> frozenset[str]:
        """B(cell): tables matching the cell's words in their content."""
        cached = self._b_cache.get(cell_text)
        if cached is None:
            tokens = tokenize(cell_text)
            cached = frozenset(self.index.docs_containing_all(tokens, ("content",)))
            self._b_cache.put(cell_text, cached)
        return cached

    def score(self, query_text: str, table: WebTable, col: int) -> float:
        """PMI²(Q_l, tc); 0 when the query matches no table at all."""
        h_set = self._h_set(query_text)
        if not h_set:
            return 0.0
        values = table.column_values(col)[: self.max_rows]
        if not values:
            return 0.0
        total = 0.0
        for value in values:
            b_set = self._b_set(value)
            if not b_set:
                continue
            inter = len(h_set & b_set)
            total += (inter * inter) / (len(h_set) * len(b_set))
        return total / len(values)
