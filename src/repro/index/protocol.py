"""The corpus contract the query pipeline is written against.

The two-stage probe (Section 2.2.1) and the PMI² containment probes
(Section 3.2.3) only need five operations from a corpus: disjunctive ranked
retrieval, conjunctive containment, table reads, and the corpus-global
:class:`~repro.text.tfidf.TermStatistics` that keeps every similarity's IDF
weights comparable.  :class:`CorpusProtocol` names that contract so the
pipeline is written once; :class:`~repro.index.sharded.ShardedCorpus`
(hash-partitioned scatter-gather over N >= 1 shards, mutable in place)
is the package's one implementation.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, Sequence, Set, runtime_checkable

from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from .inverted import SearchHit

__all__ = ["CorpusProtocol"]


@runtime_checkable
class CorpusProtocol(Protocol):
    """What a corpus must provide to serve the query pipeline.

    Code written against this contract runs unchanged whatever the shard
    count, and before or after live mutations::

        def candidate_ids(corpus: CorpusProtocol, tokens):
            hits = corpus.search(tokens, limit=60)
            return [h.doc_id for h in hits]

        candidate_ids(build_corpus_index(tables), tokens)       # one shard
        candidate_ids(build_sharded_corpus(tables, 4), tokens)  # four
        candidate_ids(load_corpus("corpus-dir"), tokens)        # persisted

    Every call answers from the whole corpus or raises: an error in any
    shard fails the call that hit it.
    """

    @property
    def stats(self) -> TermStatistics:
        """Corpus-global document-frequency table: the statistics of the
        *whole* corpus (never of one shard), which is the invariant that
        keeps scores independent of the shard count."""
        ...

    @property
    def num_tables(self) -> int:
        """Number of tables in the corpus."""
        ...

    @property
    def num_shards(self) -> int:
        """Number of shards the corpus is partitioned into (>= 1)."""
        ...

    def search(self, terms: Sequence[str], limit: int = 100) -> List[SearchHit]:
        """Disjunctive boosted TF-IDF retrieval: top ``limit`` hits."""
        ...

    def docs_containing_all(
        self, terms: Sequence[str], fields: Iterable[str]
    ) -> Set[str]:
        """Conjunctive containment probe: ids of tables holding every term."""
        ...

    def get_table(self, table_id: str) -> WebTable:
        """Fetch one table by id (KeyError if absent)."""
        ...

    def get_many(self, table_ids: Iterable[str]) -> List[WebTable]:
        """Fetch several tables, preserving input order, skipping unknowns."""
        ...

    def close(self) -> None:
        """Release the corpus's resources (idempotent)."""
        ...
