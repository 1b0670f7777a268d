"""``repro.index.journal`` — crash-safe incremental mutation for corpora.

PR 2 made the index persistent but immutable: new WebTables only became
searchable through an O(corpus) rebuild.  This module adds *live mutation*
on top of the persisted layout without giving up either crash safety or
the ranking-equivalence guarantee:

- **Write-ahead journal.**  :meth:`JournaledCorpus.add_tables` /
  :meth:`JournaledCorpus.delete_tables` append JSONL records (fsync'd,
  monotonic global sequence numbers) to a per-shard ``journal.jsonl``
  living next to the shard snapshot the record mutates.  The manifest's
  ``journal_seq`` records the highest sequence number folded into the
  snapshots, so replay after a crash mid-compaction can never double-apply.
- **Delta index.**  Journaled adds are indexed into a small in-memory
  :class:`~repro.index.inverted.InvertedIndex`; deletes become tombstones.
  Probes merge delta hits into the base scatter-gather results, so a
  journaled table is searchable *immediately* — no shard is re-indexed.
- **Exact lazy statistics.**  Corpus-global document frequencies are
  maintained as signed deltas over the base's, and the merged
  :class:`~repro.text.tfidf.TermStatistics` is re-derived lazily, at most
  once per probe, whenever a mutation is pending.  Every per-document
  score therefore equals what a full rebuild would produce — journaled
  and compacted corpora answer the 59-query workload identically to
  freshly built ones (``tests/test_journal.py``).
- **Compaction.**  :meth:`JournaledCorpus.compact` folds the journal into
  fresh shard snapshots through the same atomic write-new-then-rename
  writer as ``save`` (:func:`~repro.index.builder.save_corpus_dir`), so an
  interrupted compaction leaves the old snapshot + journal intact.  Only
  shards with deletions are rebuilt; add-only shards are extended in
  place; untouched shards are not re-indexed at all.

``repro.index.load_corpus`` replays any surviving journal on startup and
returns a :class:`JournaledCorpus`, so a crash between append and
compaction loses nothing.
"""

from __future__ import annotations

import copy
import gc
import heapq
import json
import os
import threading
from collections import Counter
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..faults.injection import POINT_JOURNAL_APPEND, trip
from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from .builder import JOURNAL_FILE, analyze_table, save_corpus_dir
from .inverted import InvertedIndex, SearchHit, lucene_idf
from .sharded import Shard, ShardedCorpus, shard_of
from .store import TableStore

__all__ = [
    "JournaledCorpus",
    "append_records",
    "journal_depth_on_disk",
    "read_journal",
    "repair_journal",
]


# -- journal file format -------------------------------------------------------
#
# One JSON object per line (see DESIGN.md, "On-disk corpus format"):
#
#   {"seq": 7, "op": "add", "table": {<WebTable.to_dict()>}}
#   {"seq": 8, "op": "delete", "table_id": "finance_p3_t0"}
#
# ``seq`` is a corpus-global monotonic sequence number; each record lands in
# the journal of the shard that owns its table id, so per-file sequences are
# strictly increasing but not contiguous.


def append_records(path: Union[str, Path], records: Sequence[dict]) -> None:
    """Append journal ``records`` as JSONL and fsync before returning.

    The fsync is what makes the journal a *write-ahead* log: once
    ``add_tables`` returns, the mutation survives a process kill.  A torn
    final line (power loss mid-write) is tolerated by :func:`read_journal`.
    """
    if not records:
        return
    trip(POINT_JOURNAL_APPEND)
    path = Path(path)
    with path.open("a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())


def _parse_record(line: str) -> dict:
    """Decode + shape-check one journal line (raises on any defect)."""
    record = json.loads(line)
    if record["op"] == "add":
        record["table"]  # key check only; decoded lazily by replay
    elif record["op"] == "delete":
        record["table_id"]
    else:
        raise KeyError(f"unknown op {record['op']!r}")
    record["seq"] = int(record["seq"])
    return record


def read_journal(path: Union[str, Path]) -> List[dict]:
    """Read one shard journal, tolerating a torn final line.

    A line that fails to parse raises ``ValueError`` naming ``path:line`` —
    *unless* it is the last non-blank line of the file, which is the
    signature of a crash mid-append; that record never committed, so it is
    dropped (:func:`repair_journal` physically truncates it before the
    journal is appended to again).  Sequence numbers must be strictly
    increasing within a file.
    """
    path = Path(path)
    raw: List[Tuple[int, str]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                raw.append((lineno, line))
    records: List[dict] = []
    last_seq = None
    for i, (lineno, line) in enumerate(raw):
        try:
            record = _parse_record(line)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if i == len(raw) - 1:
                break  # torn final line: the append never committed
            raise ValueError(
                f"{path}:{lineno}: corrupt journal record: {exc!r}"
            ) from exc
        if last_seq is not None and record["seq"] <= last_seq:
            raise ValueError(
                f"{path}:{lineno}: journal sequence went backwards "
                f"({record['seq']} after {last_seq})"
            )
        last_seq = record["seq"]
        records.append(record)
    return records


def repair_journal(path: Union[str, Path]) -> bool:
    """Truncate the torn final record a crash mid-append leaves behind.

    Appending after a torn tail would otherwise concatenate the next
    record onto the garbage and corrupt it too, so
    :meth:`JournaledCorpus.open` repairs every journal before the corpus
    accepts new mutations.  Returns True when bytes were truncated.
    """
    path = Path(path)
    data = path.read_bytes()
    kept = data.rstrip(b"\n")
    if not kept:
        return False
    cut = kept.rfind(b"\n") + 1  # start of the last non-empty line
    try:
        _parse_record(kept[cut:].decode())
        return False
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,  # reprolint: disable=R008 -- an unparsable tail IS the detection result this function exists to find; the truncation below acts on it and the caller is told bytes were dropped
            ValueError):
        pass
    with path.open("r+b") as fh:
        fh.truncate(cut)
        fh.flush()
        os.fsync(fh.fileno())
    return True


def journal_depth_on_disk(
    path: Union[str, Path], manifest: dict
) -> int:
    """Pending (unfolded) journal records of a corpus directory.

    Cheap manifest-level inspection for ``repro index info`` — counts
    records with ``seq > manifest["journal_seq"]`` without loading the
    corpus.
    """
    path = Path(path)
    base_seq = manifest["journal_seq"]
    depth = 0
    for entry in manifest["shards"]:
        journal = path / entry["dir"] / JOURNAL_FILE
        if journal.is_file():
            depth += sum(
                1 for r in read_journal(journal) if r["seq"] > base_seq
            )
    return depth


class JournaledCorpus:
    """A mutable corpus: immutable base snapshot + journaled delta.

    Implements the full :class:`~repro.index.protocol.CorpusProtocol`
    (probes see journaled tables immediately) and delegates everything else
    to the wrapped base, so it drops into :class:`~repro.service.WWTService`
    unchanged.  The usual way to get one is :func:`~repro.index.load_corpus`
    on a persisted directory::

        from repro.index import build_corpus_index, load_corpus

        build_corpus_index(tables, num_shards=4, save="corpus-dir")
        corpus = load_corpus("corpus-dir")     # JournaledCorpus
        corpus.add_tables(new_tables)          # WAL append + delta index
        corpus.search(["country"])             # sees new_tables immediately
        corpus.compact()                       # fold journal into snapshots

    ``path=None`` gives an ephemeral in-memory journal (no WAL, no
    durability) — handy for tests and streaming experiments.

    Concurrency: mutations, compaction, and the delta-merge probe path
    are serialized by one internal lock (a probe racing a mutation sees
    the state from before or after it, never a torn one); probes against
    a clean corpus — the common serving case — stay lock-free on the
    base.
    """

    def __init__(
        self,
        base: ShardedCorpus,
        path: Optional[Union[str, Path]] = None,
        base_seq: int = 0,
    ) -> None:
        self.base = base
        self._path = Path(path) if path is not None else None
        self._base_seq = base_seq
        self._next_seq = base_seq + 1
        self._lock = threading.Lock()

        # Boosts (like the shard count _route reads) come from the base's
        # cheap surfaces, NOT from its (index, store) pairs — touching
        # those would materialize every opened shard at load and
        # forfeit the O(manifest) load this wrapper sits on top of.
        self._boosts = base.boosts
        self._delta_index = InvertedIndex(self._boosts)
        self._delta_store = TableStore()
        #: Distinct analyzed terms per delta table (for df decrements when
        #: a journaled add is itself deleted, and for compaction stats).
        self._delta_terms: Dict[str, Set[str]] = {}
        #: Base table ids deleted but not yet compacted away.
        self._tombstones: Set[str] = set()
        #: Signed corpus-global document-frequency delta vs. the base.
        self._df_delta: Counter = Counter()
        self._docs_delta = 0

        # The merged statistics, re-derived lazily at the next probe (or
        # ``stats`` read) after a mutation.
        self._merged_stats: Optional[TermStatistics] = None
        self._mutations = 0
        self._synced_at = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        base: ShardedCorpus,
        manifest: dict,
    ) -> JournaledCorpus:
        """Wrap a freshly loaded snapshot, replaying any surviving journal.

        Records with ``seq <= manifest["journal_seq"]`` were already folded
        into the snapshots by a completed compaction and are skipped;
        everything newer is re-applied in global sequence order, restoring
        exactly the pre-crash state (minus a torn final append, which never
        committed).
        """
        path = Path(path)
        corpus = cls(base, path=path, base_seq=manifest["journal_seq"])
        pending: List[Tuple[int, Path, dict]] = []
        for entry in manifest["shards"]:
            journal = path / entry["dir"] / JOURNAL_FILE
            if not journal.is_file():
                continue
            repair_journal(journal)
            for record in read_journal(journal):
                if record["seq"] > corpus._base_seq:
                    pending.append((record["seq"], journal, record))
        pending.sort(key=lambda item: item[0])
        for seq, journal, record in pending:
            try:
                if record["op"] == "add":
                    corpus._apply_add(WebTable.from_dict(record["table"]))
                else:
                    corpus._apply_delete(record["table_id"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{journal}: replay of journal record seq={seq} "
                    f"failed: {exc!r}"
                ) from exc
            corpus._next_seq = seq + 1
        return corpus

    def _base_pairs(self) -> List[Tuple[InvertedIndex, TableStore]]:
        """The base's ``(index, store)`` shards, in shard order."""
        return [(s.index, s.store) for s in self.base.shards]

    # -- shape -----------------------------------------------------------------

    @property
    def num_tables(self) -> int:
        """Live table count: base − tombstones + journaled adds."""
        return (
            self.base.num_tables - len(self._tombstones)
            + len(self._delta_store)
        )

    @property
    def journal_depth(self) -> int:
        """Write-ahead records not yet folded into the shard snapshots."""
        return self._next_seq - 1 - self._base_seq

    @property
    def _clean(self) -> bool:
        """True when the live state equals the base snapshot exactly."""
        return not self._delta_store and not self._tombstones

    # -- mutation --------------------------------------------------------------

    def add_tables(self, tables: Iterable[WebTable]) -> int:
        """Make ``tables`` searchable immediately; journal them durably.

        Write-ahead discipline, all under the mutation lock: the batch is
        validated (duplicate ids — within the batch, against the base, or
        against earlier adds — reject the whole call), journaled to the
        per-shard WALs with one fsync per touched shard (all-or-nothing:
        a failed append rolls the touched files back), and only then
        applied to the in-memory delta.  Returns the number added.
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
            records: Dict[int, List[dict]] = {}
            for offset, table in enumerate(batch):
                records.setdefault(self._route(table.table_id), []).append({
                    "seq": self._next_seq + offset,
                    "op": "add",
                    "table": table.to_dict(),
                })
            self._write_records(records)
            self._next_seq += len(batch)
            for table in batch:
                self._apply_add(table)
        return len(batch)

    def delete_tables(self, table_ids: Iterable[str]) -> int:
        """Remove tables from the live corpus; journal the tombstones.

        Unknown ids raise ``KeyError`` and reject the whole batch.
        Deleting a journaled add removes it from the delta; deleting a base
        table tombstones it (the snapshot row disappears at the next
        :meth:`compact`).  Same write-ahead discipline as
        :meth:`add_tables`.  Returns the number of tables deleted.
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
            records: Dict[int, List[dict]] = {}
            for offset, table_id in enumerate(ids):
                records.setdefault(self._route(table_id), []).append({
                    "seq": self._next_seq + offset,
                    "op": "delete",
                    "table_id": table_id,
                })
            self._write_records(records)
            self._next_seq += len(ids)
            for table_id in ids:
                self._apply_delete(table_id)
        return len(ids)

    def _route(self, table_id: str) -> int:
        return shard_of(table_id, self.base.num_shards)

    def _write_records(self, by_shard: Dict[int, List[dict]]) -> None:
        """Append one batch to the touched shard WALs, all-or-nothing.

        If a later shard's append fails (disk full, permissions), the
        shards already written are truncated back to their pre-batch
        length, so a rejected batch can never partially resurrect on
        replay.
        """
        if self._path is None:
            return
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

    def _apply_add(self, table: WebTable) -> None:
        fields = analyze_table(table)
        self._delta_store.add(table)
        self._delta_index.add_document(table.table_id, fields)
        terms = {t for toks in fields.values() for t in toks}
        self._delta_terms[table.table_id] = terms
        for term in sorted(terms):
            self._df_delta[term] += 1
        self._docs_delta += 1
        self._mutations += 1

    def _apply_delete(self, table_id: str) -> None:
        if table_id in self._delta_store:
            terms = self._delta_terms.pop(table_id)
            table = self._delta_store.remove(table_id)
            self._delta_index.remove_document(table_id, analyze_table(table))
        else:
            table = self.base.get_table(table_id)
            terms = {
                t for toks in analyze_table(table).values() for t in toks
            }
            self._tombstones.add(table_id)
        for term in terms:
            self._df_delta[term] -= 1
        self._docs_delta -= 1
        self._mutations += 1

    # -- derived ranking state -------------------------------------------------

    def _maybe_refresh(self) -> None:
        """Re-derive the merged stats when a mutation is pending.

        Called at probe entry — rebuilt *here* (not lazily) so what
        :attr:`stats` serves is the same vintage the probe scored with.
        """
        if self._mutations != self._synced_at:
            self._merged_stats = (
                None if self._clean else self._build_merged_stats()
            )
            self._synced_at = self._mutations

    def _effective_idf(self, term: str) -> float:
        """Lucene-classic IDF over the live corpus.

        Same expression as :meth:`ShardedCorpus.global_idf`, with N and df
        adjusted by the journal's signed deltas — the ingredient that
        keeps journaled rankings bit-identical to a full rebuild.  Only
        called under the mutation lock, so one probe reads one vintage of
        the deltas; the base df comes from :meth:`ShardedCorpus.global_df`
        (cached there, and health-gated like the probe itself).
        """
        return lucene_idf(
            self.base.num_tables + self._docs_delta,
            self.base.global_df(term) + self._df_delta.get(term, 0),
        )

    def _build_merged_stats(self) -> TermStatistics:
        df = Counter(self.base.stats.to_dict()["df"])
        for term, delta in self._df_delta.items():
            if delta:
                df[term] += delta
        return TermStatistics.from_dict({
            "num_docs": self.base.stats.num_docs + self._docs_delta,
            "df": {t: int(n) for t, n in df.items() if n > 0},
        })

    @property
    def stats(self) -> TermStatistics:
        """Corpus-global :class:`TermStatistics` over the live corpus.

        The base object itself while the journal nets out to nothing (so
        identity — and therefore bit-identical feature weights — is
        preserved for an unchanged corpus); a merged view otherwise,
        re-derived here when a mutation is pending.
        """
        if self._clean:
            return self.base.stats
        with self._lock:
            self._maybe_refresh()
            if self._merged_stats is not None:
                return self._merged_stats
        return self.base.stats

    # -- CorpusProtocol --------------------------------------------------------

    def search(self, terms: Sequence[str], limit: int = 100) -> List[SearchHit]:
        """Ranked retrieval over base + delta, tombstones excluded.

        Base shards are scattered — through the base's own fault- and
        health-gated :meth:`ShardedCorpus.scatter` — with the *live* IDF
        (not the base's) and asked for ``limit + |tombstones|`` hits each,
        which guarantees every live base document of the true global
        top-``limit`` survives the tombstone filter; delta hits are scored
        with the same IDF and merged by ``(-score, doc_id)`` — the exact
        ranking a full rebuild would produce.

        A clean corpus (the common serving case) probes the base directly,
        lock-free; the delta-merge path serializes with mutations so a
        probe never iterates structures a mutation is rewriting.
        """
        if self._clean:
            return self.base.search(terms, limit=limit)
        with self._lock:
            self._maybe_refresh()
            eff_limit = limit + len(self._tombstones)
            results = self.base.scatter(
                lambda s: s.index.search(
                    terms, limit=eff_limit, idf=self._effective_idf
                )
            )
            merged = [
                hit for hits in results for hit in hits
                if hit.doc_id not in self._tombstones
            ]
            merged.extend(self._delta_index.search(
                terms, limit=limit, idf=self._effective_idf
            ))
        return heapq.nsmallest(
            limit, merged, key=lambda h: (-h.score, h.doc_id)
        )

    def docs_containing_all(
        self, terms: Sequence[str], fields: Iterable[str]
    ) -> Set[str]:
        """Conjunctive containment over base + delta, tombstones excluded."""
        field_list = list(fields)
        if self._clean:
            return self.base.docs_containing_all(terms, field_list)
        with self._lock:
            out = self.base.docs_containing_all(terms, field_list)
            out -= self._tombstones
            out |= self._delta_index.docs_containing_all(terms, field_list)
        return out

    def get_table(self, table_id: str) -> WebTable:
        """Fetch one live table by id (KeyError if absent or deleted)."""
        if table_id in self._delta_store:
            return self._delta_store.get(table_id)
        if table_id in self._tombstones:
            raise KeyError(table_id)
        return self.base.get_table(table_id)

    def get_many(self, table_ids: Iterable[str]) -> List[WebTable]:
        """Fetch several tables, preserving input order, skipping unknowns.

        Base tables are read through :meth:`ShardedCorpus.get_many`, so a
        journaled corpus skips tables on a failing or backing-off shard
        exactly like a clean one; journaled adds come from the delta and
        tombstoned ids are skipped.
        """
        if self._clean:
            return self.base.get_many(table_ids)
        ids = list(table_ids)
        with self._lock:
            delta = self._delta_store
            fetched = {
                table.table_id: table
                for table in self.base.get_many(
                    i for i in ids
                    if i not in delta and i not in self._tombstones
                )
            }
            return [
                delta.get(i) if i in delta else fetched[i]
                for i in ids if i in delta or i in fetched
            ]

    def ids(self) -> List[str]:
        """All live table ids: base order (minus tombstones), then adds."""
        if self._clean:
            return self.base.ids()
        with self._lock:
            out = [i for i in self.base.ids() if i not in self._tombstones]
            out.extend(self._delta_store.ids())
        return out

    def __contains__(self, table_id: str) -> bool:
        if table_id in self._delta_store:
            return True
        if table_id in self._tombstones:
            return False
        return table_id in self.base

    def __iter__(self) -> Iterator[WebTable]:
        for table in self.base:
            if table.table_id not in self._tombstones:
                yield table
        yield from self._delta_store

    # -- compaction and export -------------------------------------------------

    def _folded_pairs(
        self, in_place: bool
    ) -> List[Tuple[InvertedIndex, TableStore]]:
        """The base shard pairs with the delta folded in.

        Shards with deletions are rebuilt (postings are append-only by
        design); shards with only adds are extended — mutating the base's
        own objects when ``in_place`` (compaction, which retires them
        right after), or copies of them otherwise (export, which must
        leave the live instance untouched).  Untouched shards are reused
        as-is in both modes; existing documents are never re-analyzed.
        Caller holds the mutation lock.
        """
        pairs = self._base_pairs()
        adds: Dict[int, List[WebTable]] = {}
        for table in self._delta_store:
            adds.setdefault(self._route(table.table_id), []).append(table)
        dels: Dict[int, Set[str]] = {}
        for table_id in self._tombstones:
            dels.setdefault(self._route(table_id), set()).add(table_id)
        for si, (index, store) in enumerate(pairs):
            if si in dels:
                new_index = InvertedIndex(self._boosts)
                new_store = TableStore()
                survivors = [
                    t for t in store if t.table_id not in dels[si]
                ] + adds.get(si, [])
                for table in survivors:
                    new_store.add(table)
                    new_index.add_document(
                        table.table_id, analyze_table(table)
                    )
                pairs[si] = (new_index, new_store)
            elif si in adds:
                if not in_place:
                    index = copy.deepcopy(index)
                    store = TableStore(list(store))
                for table in adds[si]:
                    store.add(table)
                    index.add_document(table.table_id, analyze_table(table))
                pairs[si] = (index, store)
        return pairs

    def save(self, path: Union[str, Path]) -> Path:
        """Export the *live* corpus (snapshot + journal folded) to ``path``.

        This instance is left untouched — same journal, same in-memory
        state; the written directory simply has no journal to replay
        (its manifest's ``journal_seq`` already covers every record).  To
        fold the served directory itself, prefer :meth:`compact`, which
        does the same write without copying add-only shards.
        """
        with self._lock:
            merged = (
                self.base.stats if self._clean
                else self._build_merged_stats()
            )
            pairs = self._folded_pairs(in_place=False)
            return save_corpus_dir(
                path, pairs, merged, journal_seq=self._next_seq - 1
            )

    def compact(self) -> int:
        """Fold the journal into fresh shard snapshots; returns records folded.

        Only shards with deletions are rebuilt; shards with only adds are
        extended in place (no re-indexing of existing documents); untouched
        shards are reused as-is.  The directory write goes through the
        atomic write-new-then-rename path of
        :func:`~repro.index.builder.save_corpus_dir` with
        ``journal_seq`` advanced to the last folded record, and the old
        directory — journals included — is replaced wholesale, so a crash
        at any point leaves either the old snapshot + journal or the new
        snapshot, never a mix.  Stale temp/backup dirs from a previous
        crash are pruned by the same writer.

        A fold that replaced the base ends with a full garbage collection
        whose survivors are frozen.  The rebuilt shards are about as many
        new objects as the old generation held, so the collector's next
        full pass is due, and at ~55 ms on the paper corpus it is longer
        than the median query: left alone it lands inside whichever query
        crosses its threshold, and every later pass traverses again a base
        that cannot change before the next compaction.  The caller of
        ``compact`` already waits for a stop-the-world rewrite, so the
        pass is taken here; ``gc.unfreeze`` comes first so that what the
        previous fold froze and this one dropped is reclaimed.
        """
        with self._lock:
            folded = self.journal_depth
            if folded == 0 and self._clean:
                return 0
            merged = (
                self.base.stats if self._clean
                else self._build_merged_stats()
            )
            if self._clean:
                # Nothing to fold in memory (the journal netted out to
                # zero): leave the base — and any probes running against
                # it — completely alone; just rewrite the directory so
                # the journal files disappear under the advanced seq.
                pairs = self._base_pairs()
            else:
                pairs = self._folded_pairs(in_place=True)
                self._swap_base(pairs, merged)
                gc.unfreeze()
                gc.collect()
                gc.freeze()
            folded_through = self._next_seq - 1
            if self._path is not None:
                save_corpus_dir(
                    self._path, pairs, merged, journal_seq=folded_through
                )
            self._base_seq = folded_through
            return folded

    def _swap_base(
        self,
        pairs: List[Tuple[InvertedIndex, TableStore]],
        merged: TermStatistics,
    ) -> None:
        """Rebuild ``self.base`` around the folded shards and reset the delta.

        Reconstructing (rather than patching) the base refreshes its
        table counts, df cache and health tracker in one stroke.  The old
        base is *not* closed: the new one reuses the stores of every shard
        the fold left alone or extended.
        """
        old = self.base
        self.base = ShardedCorpus(
            shards=[Shard(index, store, merged) for index, store in pairs],
            stats=merged, validate=False,
            health=old.health_policy, clock=old._clock,
        )
        self._delta_index = InvertedIndex(self._boosts)
        self._delta_store = TableStore()
        self._delta_terms = {}
        self._tombstones = set()
        self._df_delta = Counter()
        self._docs_delta = 0
        self._merged_stats = None
        self._synced_at = self._mutations

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the base's table file maps (idempotent)."""
        self.base.close()

    def __enter__(self) -> JournaledCorpus:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __getattr__(self, name: str) -> Any:
        """Delegate anything not defined here to the wrapped base corpus.

        Keeps the wrapper transparent for the base's other surfaces
        (``num_shards``, ``shard_sizes``, ``coverage``, ``shards``, …).
        """
        return getattr(self.base, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"JournaledCorpus({self.base!r}, +{len(self._delta_store)} "
            f"-{len(self._tombstones)}, depth={self.journal_depth})"
        )
