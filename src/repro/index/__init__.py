"""Index substrate: fielded inverted index, table store, corpus builders.

One corpus class implements :class:`CorpusProtocol`:
:class:`ShardedCorpus`, hash-partitioned scatter-gather over N >= 1
:class:`Shard` records (loaded at construction, or opened from disk and
materialized on first probe), mutable in place with
``add_tables``/``delete_tables``, and persisted with ``save`` /
:func:`load_corpus`.  A corpus opened from a directory journals each
mutation to a crash-safe write-ahead log first (:mod:`repro.index.journal`)
and ``compact()`` writes the live shards back.  One :class:`TableStore`
holds every shard's tables, parsed lazily from a persisted
``tables.jsonl`` or held in memory.

Every save writes, and every load reads, the version-3 binary columnar
layout of :mod:`repro.index.binfmt` (mmap'd, checksummed);
:func:`build_corpus_stream` builds a persisted corpus from a table
stream in O(shard) memory, analyzing each table once.
"""

from .binfmt import read_index_bin, write_index_bin
from .builder import analyze_table, build_corpus_index, build_corpus_stream
from .inverted import FIELD_BOOSTS, InvertedIndex, SearchHit
from .protocol import CorpusProtocol
from .sharded import (
    Shard,
    ShardedCorpus,
    build_sharded_corpus,
    load_corpus,
    shard_of,
)
from .store import TableStore

__all__ = [
    "CorpusProtocol",
    "FIELD_BOOSTS",
    "InvertedIndex",
    "SearchHit",
    "Shard",
    "ShardedCorpus",
    "TableStore",
    "analyze_table",
    "build_corpus_index",
    "build_corpus_stream",
    "build_sharded_corpus",
    "load_corpus",
    "read_index_bin",
    "shard_of",
    "write_index_bin",
]
