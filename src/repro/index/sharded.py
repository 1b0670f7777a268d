"""``repro.index.sharded`` — the corpus: hash-partitioned, mutable in place.

The paper's engine fronts a 25M-table crawl; one in-memory index rebuilt
per process start does not scale to that.  :class:`ShardedCorpus` — the
one corpus class, for every N >= 1 — partitions tables across N
independent shards by a stable hash of the table id and answers the
pipeline's probes by scatter-gather:

- **Disjunctive ranked probe** (:meth:`ShardedCorpus.search`): every shard
  retrieves its local top-``limit`` with the *corpus-global* IDF, then a
  global merge re-sorts by ``(-score, doc_id)`` and truncates.  Because tf,
  field length, and field boost are per-document quantities and the IDF is
  computed from the corpus statistics (whose df is the df of one index
  over all tables), per-document scores are bit-identical to one index
  over all tables — the merge reproduces single-index ranking exactly,
  not approximately.
- **Conjunctive containment probe** (:meth:`docs_containing_all`): each
  shard intersects locally; the union over shards is the global conjunction
  (again because shards partition the documents).

The scatter is one serial loop over the shards in the calling thread: a
probe is 1-3 % of a query, and fanning it over a thread pool measured
slower at every width (DESIGN.md, "Modes removed").

**Live mutation.**  :meth:`ShardedCorpus.add_tables` and
:meth:`ShardedCorpus.delete_tables` change the owning shard's index and
store in place, so a mutated corpus *is* the corpus a fresh build of its
live tables gives — same ids in the same order, same scores, same
statistics.  A corpus opened from a directory first appends each batch to
the per-shard write-ahead journal (:mod:`repro.index.journal`);
:meth:`ShardedCorpus.compact` writes the live shards back and retires the
journal.

Persistence is a directory (see DESIGN.md): ``manifest.json`` +
``stats.json`` (the shared :class:`~repro.text.tfidf.TermStatistics`) +
one ``shard-NNNN/`` per shard holding the binary index snapshot
(``index.bin``), the table store (``tables.jsonl``) and any unfolded
``journal.jsonl``.  :func:`load_corpus` opens a directory in O(manifest)
plus its journal: each shard comes from :meth:`Shard.open`, whose snapshot
and table file materialize on first access, not at open.
"""

from __future__ import annotations

import heapq
import os
import threading
import zlib
from collections import Counter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from ..faults.injection import POINT_SHARD_MATERIALIZE, POINT_SHARD_SEARCH, trip
from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from .binfmt import SHARD_BIN_FILE, read_index_bin
from .builder import (
    JOURNAL_FILE,
    MANIFEST_FILE,
    SHARD_TABLES_FILE,
    analyze_table,
    load_stats,
    read_manifest,
    save_corpus_dir,
)
from .inverted import InvertedIndex, SearchHit, lucene_idf
from .journal import append_records, read_journal, repair_journal
from .store import TableStore

__all__ = [
    "Shard",
    "ShardedCorpus",
    "build_sharded_corpus",
    "load_corpus",
    "shard_of",
]

T = TypeVar("T")


def shard_of(table_id: str, num_shards: int) -> int:
    """Stable shard assignment for a table id.

    CRC32 (not Python's salted ``hash``) so the partition is identical
    across processes, platforms, and persisted corpora.
    """
    return zlib.crc32(table_id.encode()) % num_shards


class Shard:
    """One shard: an index and its table store.

    ``Shard(index, store)`` is loaded from construction — what a build
    produces.  :meth:`open` is a persisted shard, materialized on first
    access to :attr:`index` or :attr:`store`; until then
    :attr:`num_tables` and :attr:`boosts` answer from the manifest.
    """

    #: Number of tables in this shard (never materializes).
    num_tables: int
    #: Field boosts of this shard's index (never materializes).
    boosts: Dict[str, float]
    #: ``(index, store)`` once loaded; ``None`` until an opened shard's
    #: first access.
    _pair: Optional[Tuple[InvertedIndex, TableStore]]
    #: An opened shard's directory and manifest entry.
    _dir: Path
    _entry: Mapping[str, Any]

    def __init__(self, index: InvertedIndex, store: TableStore) -> None:
        self.num_tables = len(store)
        self.boosts = dict(index.boosts)
        self._pair = (index, store)
        self._lock = threading.Lock()

    @classmethod
    def open(
        cls,
        shard_dir: Union[str, Path],
        entry: Mapping[str, Any],
        boosts: Mapping[str, float],
    ) -> Shard:
        """A persisted shard, read from ``shard_dir`` on first access.

        Opening touches no file.  The first :attr:`index` or :attr:`store`
        access decodes ``index.bin`` — verified against the manifest
        ``entry``'s recorded byte length and CRC-32 — and opens
        ``tables.jsonl`` lazily, exactly once, under a lock so concurrent
        first probes materialize it a single time.
        """
        shard = cls.__new__(cls)
        shard.num_tables = int(entry["num_tables"])
        shard.boosts = {str(f): float(b) for f, b in boosts.items()}
        shard._pair = None
        shard._dir = Path(shard_dir)
        shard._entry = entry
        shard._lock = threading.Lock()
        return shard

    @property
    def materialized(self) -> bool:
        """Are this shard's index and store loaded?"""
        return self._pair is not None

    def _materialize(self) -> Tuple[InvertedIndex, TableStore]:
        with self._lock:
            pair = self._pair
            if pair is None:
                pair = self._pair = self._read()
        return pair

    def _read(self) -> Tuple[InvertedIndex, TableStore]:
        """Decode an opened shard's files, checked against the manifest."""
        trip(POINT_SHARD_MATERIALIZE, key=self._dir.name)
        index = read_index_bin(
            self._dir / SHARD_BIN_FILE,
            expected_bytes=int(self._entry["index_bytes"]),
            expected_crc32=int(self._entry["index_crc32"]),
        )
        # The decoded index's doc-name order *is* the tables.jsonl line
        # order (both follow build insertion order), and a decoded
        # snapshot is removal-free (the encoder renumbers live documents),
        # hence the cast.  The open itself refuses a tables.jsonl with
        # more or fewer rows than the index has documents.
        store = TableStore.open(
            self._dir / SHARD_TABLES_FILE, cast(List[str], index._doc_names)
        )
        if len(store) != self.num_tables:
            raise ValueError(
                f"{self._dir}: shard holds {len(store)} tables but the "
                f"manifest records {self.num_tables}"
            )
        if index.boosts != self.boosts:
            raise ValueError(
                f"{self._dir}: snapshot boosts {index.boosts} do not match "
                f"the manifest's {self.boosts}"
            )
        return index, store

    @property
    def index(self) -> InvertedIndex:
        """The shard's inverted index (an opened shard decodes it now)."""
        pair = self._pair
        return (pair if pair is not None else self._materialize())[0]

    @property
    def store(self) -> TableStore:
        """The shard's table store (an opened shard opens it now)."""
        pair = self._pair
        return (pair if pair is not None else self._materialize())[1]

    def close(self) -> None:
        """Release the store's file map, if loaded (idempotent; never
        materializes)."""
        pair = self._pair
        if pair is not None:
            pair[1].close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "loaded" if self.materialized else "unopened"
        return f"Shard({self.num_tables} tables, {state})"


class ShardedCorpus:
    """N >= 1 shards behind one ``CorpusProtocol`` front, mutable in place.

    Every probe scores with the corpus-global IDF — the invariant that
    makes rankings shard-invariant — and :attr:`stats` is the statistics
    of the whole corpus, never of one shard::

        from repro.index import build_sharded_corpus, load_corpus

        sharded = build_sharded_corpus(tables, num_shards=4)
        hits = sharded.search(["country", "currency"], limit=20)
        sharded.save("corpus-dir")              # manifest + per-shard files
        corpus = load_corpus("corpus-dir")      # O(manifest), replays journal
        corpus.add_tables(new_tables)           # WAL append, then in place
        corpus.compact()                        # write shards, drop journal

    One corpus lock serializes mutations with every read of the shards
    (probes, table reads, ``ids``, ``stats``): a probe racing a mutation
    sees the corpus from before or after it, never a torn one.

    A shard error — open, decode, search or table read — raises out of
    the call that hit it; no read answers from part of the corpus.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        stats: TermStatistics,
        validate: bool = True,
    ) -> None:
        if not shards:
            raise ValueError("a ShardedCorpus needs at least one shard")
        self.shards: List[Shard] = list(shards)
        # Table access routes by shard_of(), so the shards MUST be the
        # CRC32 partition — arbitrary shard lists (e.g. two independently
        # built corpora glued together) would make get_table/get_many miss
        # silently.  Fail loudly at construction instead.  The trusted
        # paths (build_sharded_corpus, load) pass validate=False: their
        # partition is correct by construction, and the O(num_tables) check
        # would defeat the O(read) load this module exists to provide.
        if validate:
            for si, shard in enumerate(self.shards):
                for table_id in shard.store.ids():
                    expected = shard_of(table_id, len(self.shards))
                    if expected != si:
                        raise ValueError(
                            f"table {table_id!r} is in shard {si} but hashes "
                            f"to shard {expected}; shards must follow "
                            "shard_of() (use build_sharded_corpus to "
                            "partition)"
                        )
        self._num_tables = sum(s.num_tables for s in self.shards)
        #: The current statistics vintage; ``None`` from a mutation until
        #: the next :attr:`stats` read derives the new one.
        self._stats: Optional[TermStatistics] = stats
        #: Live corpus-global document frequencies, copied from the
        #: statistics at the first mutation and kept current after it.
        self._live_df: Optional[Counter[str]] = None
        #: The directory this corpus journals to (``None``: in memory).
        self._path: Optional[Path] = None
        #: Highest journal sequence number folded into the snapshots, and
        #: the next one to hand out.
        self._base_seq = 0
        self._next_seq = 1
        self._lock = threading.RLock()

    # -- shape -----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def num_tables(self) -> int:
        """Number of live tables across all shards."""
        return self._num_tables

    @property
    def journal_depth(self) -> int:
        """Mutations since the last compaction (the unfolded journal)."""
        return self._next_seq - 1 - self._base_seq

    @property
    def boosts(self) -> Dict[str, float]:
        """Field boosts shared by every shard's index (copy).

        Served from shard 0's manifest-level attribute — reading it never
        materializes an opened shard.
        """
        return dict(self.shards[0].boosts)

    def shard_sizes(self) -> List[int]:
        """Per-shard table counts (partition balance diagnostics)."""
        return [s.num_tables for s in self.shards]

    @property
    def stats(self) -> TermStatistics:
        """Corpus-global :class:`TermStatistics` of the live tables.

        One object per vintage: reads between two mutations return the
        same object (``FeatureCache.pin`` keys on that identity), and the
        first read after a mutation returns a new one, equal to what a
        fresh build of the live tables computes.
        """
        stats = self._stats
        if stats is not None:
            return stats
        with self._lock:
            if self._stats is None:
                self._stats = TermStatistics.from_dict({
                    "num_docs": self._num_tables, "df": self._live_df,
                })
            return self._stats

    # -- scatter-gather machinery ----------------------------------------------

    def _scatter(self, fn: Callable[[Shard], T]) -> List[T]:
        """Apply ``fn`` to every shard, serially, in shard order.

        Both probes go through here, so each trips the ``shard.search``
        fault point.  A shard error raises through: a probe either hears
        from every shard or fails.
        """
        results: List[T] = []
        for si, shard in enumerate(self.shards):
            trip(POINT_SHARD_SEARCH, key=str(si))
            results.append(fn(shard))
        return results

    def global_idf(self, term: str) -> float:
        """Lucene-classic IDF from the corpus statistics.

        Same :func:`~repro.index.inverted.lucene_idf` expression as
        :meth:`InvertedIndex.idf`, over :attr:`stats`' document frequency
        — the df of one index over all tables, since every shard indexes
        the same fields the statistics count.  It never reads a shard, so
        a broken shard fails only the probe that reaches it, never a
        peer's scoring.
        """
        with self._lock:
            return lucene_idf(
                self._num_tables, self.stats.document_frequency(term)
            )

    # -- CorpusProtocol --------------------------------------------------------

    def search(self, terms: Sequence[str], limit: int = 100) -> List[SearchHit]:
        """Scatter-gather disjunctive retrieval.

        Each shard returns its local top-``limit`` scored with
        :meth:`global_idf`; the gather concatenates, selects the global
        top-``limit`` by ``(-score, doc_id)`` with a bounded heap, and
        returns it.  Any document in the global top-``limit`` is
        necessarily in its own shard's top-``limit`` (a shard holds a
        subset of its competitors), so the merge equals the ranking of
        one index over all tables.  Any shard error raises through.
        """
        with self._lock:
            if self._num_tables == 0:
                return []
            results = self._scatter(
                lambda s: s.index.search(
                    terms, limit=limit, idf=self.global_idf
                )
            )
        merged = [hit for hits in results for hit in hits]
        return heapq.nsmallest(
            limit, merged, key=lambda h: (-h.score, h.doc_id)
        )

    def docs_containing_all(
        self, terms: Sequence[str], fields: Iterable[str]
    ) -> Set[str]:
        """Scatter-gather conjunctive containment probe (PMI²'s H and B sets)."""
        field_list = list(fields)
        out: Set[str] = set()
        with self._lock:
            for docs in self._scatter(
                lambda s: s.index.docs_containing_all(terms, field_list)
            ):
                out.update(docs)
        return out

    def _shard_for(self, table_id: str) -> Shard:
        return self.shards[shard_of(table_id, len(self.shards))]

    def get_table(self, table_id: str) -> WebTable:
        """Fetch one table by id — routed straight to its shard."""
        with self._lock:
            return self._shard_for(table_id).store.get(table_id)

    def get_many(self, table_ids: Iterable[str]) -> List[WebTable]:
        """Fetch several tables, preserving input order, skipping unknowns.

        A failing read raises through, as in :meth:`search`.
        """
        out: List[WebTable] = []
        with self._lock:
            for table_id in table_ids:
                store = self._shard_for(table_id).store
                if table_id in store:
                    out.append(store.get(table_id))
        return out

    def ids(self) -> List[str]:
        """All table ids, shard-major, each shard in insertion order."""
        with self._lock:
            return [i for shard in self.shards for i in shard.store.ids()]

    def __contains__(self, table_id: str) -> bool:
        with self._lock:
            return table_id in self._shard_for(table_id).store

    def __iter__(self) -> Iterator[WebTable]:
        """The live tables in :meth:`ids` order, as of the call."""
        with self._lock:
            tables = [t for shard in self.shards for t in shard.store]
        return iter(tables)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedCorpus({self.num_shards} shards, "
            f"{self.num_tables} tables, depth={self.journal_depth})"
        )

    # -- live mutation ---------------------------------------------------------

    def add_tables(self, tables: Iterable[WebTable]) -> int:
        """Add ``tables`` to their shards; searchable on return.

        The batch is validated first — a missing id, or a duplicate within
        the batch or against the corpus, rejects the whole call — then
        journaled durably (:meth:`_commit`), then applied.  Returns the
        number added.
        """
        batch = list(tables)
        with self._lock:
            seen: Set[str] = set()
            for table in batch:
                if not table.table_id:
                    raise ValueError("table must have a table_id")
                if table.table_id in seen:
                    raise ValueError(
                        f"duplicate table id {table.table_id!r} in batch"
                    )
                if table.table_id in self:
                    raise ValueError(
                        f"table id {table.table_id!r} already in corpus"
                    )
                seen.add(table.table_id)
            self._commit([
                (t.table_id, {"op": "add", "table": t.to_dict()})
                for t in batch
            ])
            for table in batch:
                self._apply_add(table)
        return len(batch)

    def delete_tables(self, table_ids: Iterable[str]) -> int:
        """Remove tables from their shards; gone from every read on return.

        Unknown or repeated ids raise ``KeyError`` and reject the whole
        batch.  Same journal discipline as :meth:`add_tables`.  Returns
        the number deleted.
        """
        ids = list(table_ids)
        with self._lock:
            seen: Set[str] = set()
            for table_id in ids:
                if table_id in seen:
                    raise KeyError(
                        f"duplicate table id {table_id!r} in batch"
                    )
                if table_id not in self:
                    raise KeyError(f"table id {table_id!r} not in corpus")
                seen.add(table_id)
            self._commit([
                (i, {"op": "delete", "table_id": i}) for i in ids
            ])
            for table_id in ids:
                self._apply_delete(table_id)
        return len(ids)

    def _commit(self, batch: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        """Journal one validated batch, then advance the sequence.

        ``batch`` pairs each table id with its record minus ``seq``.
        Records carry corpus-global sequence numbers and land in the
        journal of the shard owning their table, one fsync per touched
        shard.  All or nothing: if a later shard's append fails (disk
        full, permissions), the shards already written are truncated back
        to their pre-batch length, so a rejected batch can never partially
        resurrect on replay.  An in-memory corpus journals nothing.
        """
        if self._path is not None:
            by_shard: Dict[int, List[Dict[str, Any]]] = {}
            for offset, (table_id, record) in enumerate(batch):
                by_shard.setdefault(
                    shard_of(table_id, len(self.shards)), []
                ).append({"seq": self._next_seq + offset, **record})
            undo: List[Tuple[Path, int]] = []
            try:
                for si, records in sorted(by_shard.items()):
                    journal = self._path / f"shard-{si:04d}" / JOURNAL_FILE
                    undo.append(
                        (journal,
                         journal.stat().st_size if journal.exists() else -1)
                    )
                    append_records(journal, records)
            except BaseException:
                for journal, size in undo:
                    try:
                        if size < 0:
                            journal.unlink(missing_ok=True)
                        else:
                            with journal.open("r+b") as fh:
                                fh.truncate(size)
                                fh.flush()
                                os.fsync(fh.fileno())
                    except OSError:  # reprolint: disable=R008 -- best-effort rollback inside a handler that re-raises the original append failure below; a rarer rollback error must not mask it # pragma: no cover
                        pass
                raise
        self._next_seq += len(batch)

    def _apply_add(self, table: WebTable) -> None:
        shard = self._shard_for(table.table_id)
        fields = analyze_table(table)
        shard.store.add(table)
        shard.index.add_document(table.table_id, fields)
        shard.num_tables += 1
        self._recount(fields, 1)

    def _apply_delete(self, table_id: str) -> None:
        shard = self._shard_for(table_id)
        fields = analyze_table(shard.store.remove(table_id))
        shard.index.remove_document(table_id, fields)
        shard.num_tables -= 1
        self._recount(fields, -1)

    def _recount(self, fields: Mapping[str, Sequence[str]], sign: int) -> None:
        """Move the corpus counts by one document and retire the vintage."""
        df = self._live_df
        if df is None:
            df = self._live_df = Counter(
                cast(Dict[str, int], self.stats.to_dict()["df"])
            )
        for term in sorted({t for toks in fields.values() for t in toks}):
            count = df[term] + sign
            if count:
                df[term] = count
            else:
                del df[term]
        self._num_tables += sign
        self._stats = None

    def compact(self) -> int:
        """Write the live shards back and retire the journal.

        Returns the number of journal records folded.  The directory
        write is :meth:`save` to the corpus's own path with
        ``journal_seq`` advanced to the last record, through the atomic
        write-new-then-rename path of
        :func:`~repro.index.builder.save_corpus_dir`: a crash at any point
        leaves either the old snapshot + journal or the new snapshot,
        never a mix.  Nothing is re-analyzed — the shards already hold the
        live tables.
        """
        with self._lock:
            folded = self.journal_depth
            if folded:
                if self._path is not None:
                    self.save(self._path)
                self._base_seq = self._next_seq - 1
            return folded

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the shards' ``tables.jsonl`` maps (idempotent).

        An opened shard keeps its table file mapped from the moment it
        materializes; processes that cycle through corpus directories
        (benchmark sweeps, index reloads) should close the instances they
        discard rather than wait for the collector.  Shards that never
        materialized hold nothing and stay unopened.  After ``close``
        the indexes and every row already parsed keep answering; reading
        an un-parsed row raises a ``ValueError`` naming the closed store.
        """
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> ShardedCorpus:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- persistence -----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the live corpus: manifest + shared stats + per-shard files.

        The written directory has no journal to replay: its manifest's
        ``journal_seq`` covers every mutation so far, and deleted
        documents and rows are dropped with the survivors renumbered in
        order.  The write (:func:`~repro.index.builder.save_corpus_dir`)
        is crash-safe (temp dir + swap), which also means a re-save with a
        different shard count cannot leave stale shard directories
        behind.  Saving necessarily materializes opened shards.
        """
        with self._lock:
            return save_corpus_dir(
                path,
                [(shard.index, shard.store) for shard in self.shards],
                self.stats,
                journal_seq=self._next_seq - 1,
            )

    @classmethod
    def load(cls, path: Union[str, Path]) -> ShardedCorpus:
        """Open a corpus directory in O(manifest) and replay its journal.

        Each shard is a :meth:`Shard.open`, decoded on first access.  A
        crash that interrupted a previous save or compaction between its
        two directory renames is healed first by restoring the backup
        sibling.  Journal records with ``seq <= manifest["journal_seq"]``
        were already folded into the snapshots and are skipped; everything
        newer is re-applied in global sequence order, restoring exactly
        the pre-crash state (minus a torn final append, which never
        committed and is truncated here before the journal is appended to
        again).
        """
        path = Path(path)
        _restore_backup_if_orphaned(path)
        manifest = read_manifest(path)
        stats = load_stats(path)
        shards = [
            Shard.open(path / entry["dir"], entry, manifest["boosts"])
            for entry in manifest["shards"]
        ]
        # validate=False: the persisted partition came from shard_of() at
        # build time; re-hashing every id would make load O(num_tables)
        # (and materialize every shard).
        corpus = cls(shards=shards, stats=stats, validate=False)
        corpus._path = path
        corpus._base_seq = manifest["journal_seq"]
        corpus._next_seq = corpus._base_seq + 1
        corpus._replay(manifest)
        return corpus

    def _replay(self, manifest: Mapping[str, Any]) -> None:
        """Re-apply the unfolded journal records, in sequence order."""
        assert self._path is not None
        pending: List[Tuple[int, Path, Dict[str, Any]]] = []
        for entry in manifest["shards"]:
            journal = self._path / entry["dir"] / JOURNAL_FILE
            if not journal.is_file():
                continue
            repair_journal(journal)
            for record in read_journal(journal):
                if record["seq"] > self._base_seq:
                    pending.append((record["seq"], journal, record))
        pending.sort(key=lambda item: item[0])
        with self._lock:
            for seq, journal, record in pending:
                try:
                    if record["op"] == "add":
                        self._apply_add(WebTable.from_dict(record["table"]))
                    else:
                        self._apply_delete(record["table_id"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{journal}: replay of journal record seq={seq} "
                        f"failed: {exc!r}"
                    ) from exc
                self._next_seq = seq + 1


def build_sharded_corpus(
    tables: Iterable[WebTable], num_shards: int
) -> ShardedCorpus:
    """Hash-partition ``tables`` across ``num_shards`` indexed shards.

    Every document goes through the one analysis path
    (:func:`~repro.index.builder.analyze_table`) and the shared
    :class:`TermStatistics` folds tables in input order, so the global
    statistics do not depend on ``num_shards``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    indexes = [InvertedIndex() for _ in range(num_shards)]
    stores = [TableStore() for _ in range(num_shards)]
    stats = TermStatistics()
    for table in tables:
        si = shard_of(table.table_id, num_shards)
        stores[si].add(table)
        fields = analyze_table(table)
        indexes[si].add_document(table.table_id, fields)
        stats.add_document([t for toks in fields.values() for t in toks])
    shards = [Shard(index, store) for index, store in zip(indexes, stores)]
    # validate=False: the loop above IS the shard_of() partition.
    return ShardedCorpus(shards=shards, stats=stats, validate=False)


def _restore_backup_if_orphaned(path: Path) -> None:
    """Recover from a crash between the two renames of a save/compaction.

    :func:`~repro.index.builder.save_corpus_dir` swaps directories as
    ``path -> .path.replaced`` then ``tmp -> path``; a kill between the
    renames leaves the corpus alive only as the backup sibling.  A retried
    *save* already restores it — this makes a plain *load* after the crash
    self-healing too.
    """
    backup = path.parent / f".{path.name}.replaced"
    if backup.is_dir() and not (path / MANIFEST_FILE).is_file():
        if path.exists():
            # A half-written non-corpus dir at `path` would block the
            # rename; save_corpus_dir never leaves one (it writes to the
            # temp sibling), so anything here is foreign — keep it and
            # let read_manifest report the problem.
            return
        backup.rename(path)


def load_corpus(
    path: Union[str, Path], parallel_mode: str = "serial"
) -> ShardedCorpus:
    """Open a persisted corpus directory (:meth:`ShardedCorpus.load`)::

        from repro.index import load_corpus

        corpus = load_corpus("corpus-dir")       # replays any journal
        corpus.add_tables(new_tables)            # durable live mutation
        corpus.compact()                         # write shards, drop journal

    ``parallel_mode`` is a checked constant: ``"serial"`` is the only
    scatter there is, and the name stays only because ``benchmarks/e2e``
    still passes it (DESIGN.md, "Modes removed").
    """
    if parallel_mode != "serial":
        raise ValueError(
            f"parallel_mode {parallel_mode!r} was removed: the shard "
            'scatter is always serial ("serial" is the only accepted value)'
        )
    return ShardedCorpus.load(path)
