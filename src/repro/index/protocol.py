"""The corpus contract the query pipeline is written against.

``two_stage_probe`` (Section 2.2.1) and the PMI² containment probes
(Section 3.2.3) only need five operations from a corpus: disjunctive ranked
retrieval, conjunctive containment, table reads, and the corpus-global
:class:`~repro.text.tfidf.TermStatistics` that keeps every similarity's IDF
weights comparable.  :class:`CorpusProtocol` names that contract so the
pipeline is written once and runs unchanged against a
:class:`~repro.index.sharded.ShardedCorpus` snapshot (hash-partitioned
scatter-gather over N >= 1 shards) or the mutable
:class:`~repro.index.journal.JournaledCorpus` wrapped around one.

:class:`ShardProtocol` is the narrower *per-shard* contract
``ShardedCorpus`` consumes: the eager :class:`~repro.index.sharded.Shard`
and the mmap-backed :class:`~repro.index.binfmt.LazyShard` (version-3
snapshots, materialized on first probe) both satisfy it.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Protocol,
    Sequence,
    Set,
    runtime_checkable,
)

from ..faults.health import Coverage
from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from .inverted import InvertedIndex, SearchHit
from .store import TableStore

__all__ = ["CorpusProtocol", "ShardProtocol"]


@runtime_checkable
class ShardProtocol(Protocol):
    """What one shard must provide to sit inside a ``ShardedCorpus``.

    ``num_tables`` and ``boosts`` must be answerable from cheap metadata
    (a lazy shard serves them straight from the manifest); ``index`` and
    ``store`` may materialize on first access.  ``stats`` is the *shared
    corpus-global* statistics object, same as on the corpus itself.
    """

    #: Corpus-global document-frequency table (shared across shards).
    stats: TermStatistics

    @property
    def num_tables(self) -> int:
        """Number of tables in this shard (cheap; no materialization)."""
        ...

    @property
    def boosts(self) -> Dict[str, float]:
        """Field boosts of this shard's index (cheap; no materialization)."""
        ...

    @property
    def index(self) -> InvertedIndex:
        """The shard's inverted index (may materialize on first access)."""
        ...

    @property
    def store(self) -> TableStore:
        """The shard's table store (may materialize on first access)."""
        ...

    def close(self) -> None:
        """Release the store's file map (idempotent; never materializes)."""
        ...


@runtime_checkable
class CorpusProtocol(Protocol):
    """What a corpus must provide to serve the query pipeline.

    Code written against this contract runs unchanged on a snapshot and
    on a journaled corpus, whatever the shard count::

        def candidate_ids(corpus: CorpusProtocol, tokens):
            hits = corpus.search(tokens, limit=60)
            return [h.doc_id for h in hits]

        candidate_ids(build_corpus_index(tables), tokens)       # one shard
        candidate_ids(build_sharded_corpus(tables, 4), tokens)  # four
        candidate_ids(load_corpus("corpus-dir"), tokens)        # journaled
    """

    #: Corpus-global document-frequency table: the statistics of the
    #: *whole* corpus (never of one shard), which is the invariant that
    #: keeps scores independent of the shard count.
    stats: TermStatistics

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

    def coverage(self) -> Coverage:
        """How much of the corpus a probe routed right now reaches."""
        ...

    def close(self) -> None:
        """Release the corpus's resources (idempotent)."""
        ...
