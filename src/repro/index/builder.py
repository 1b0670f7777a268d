"""Building the searchable corpus: index + store from extracted tables.

Ties the offline half of Figure 2 together: given :class:`WebTable` objects
(from the extractor or the synthetic generator), produce the
:class:`~repro.index.inverted.InvertedIndex`, the
:class:`~repro.index.store.TableStore`, and the corpus-wide
:class:`~repro.text.tfidf.TermStatistics` every feature shares.

``build_corpus_index`` returns a hash-partitioned
:class:`~repro.index.sharded.ShardedCorpus` (one shard unless
``num_shards=`` says otherwise) and can persist it to a directory
(``save=``) for O(manifest) reloads.  :func:`build_corpus_stream` is the
O(shard)-memory streaming builder for corpora that don't fit in RAM at
once.

Every save writes manifest ``version: 3`` — the :mod:`repro.index.binfmt`
binary columnar snapshot that loads through ``mmap`` and materializes per
shard on first probe — and version 3 is the only one that loads.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from ..text.tokenize import tokenize
from .binfmt import SHARD_BIN_FILE, write_index_bin
from .inverted import FIELD_BOOSTS, InvertedIndex
from .store import TableStore, write_offsets_sidecar

if TYPE_CHECKING:
    from .sharded import ShardedCorpus

__all__ = [
    "analyze_table",
    "build_corpus_index",
    "build_corpus_stream",
    "INDEX_FORMAT",
    "INDEX_VERSION",
]

#: Manifest ``format`` marker of the persisted corpus directory layout.
INDEX_FORMAT = "repro-index"
#: The manifest ``version`` every save writes and the only one a load
#: accepts: binary columnar shard snapshots (:mod:`repro.index.binfmt`)
#: with per-shard byte lengths + CRC-32 checksums in the manifest (see
#: DESIGN.md, "On-disk corpus format, version 3").
INDEX_VERSION = 3

#: File names inside a persisted corpus directory (see DESIGN.md).
MANIFEST_FILE = "manifest.json"
STATS_FILE = "stats.json"
SHARD_TABLES_FILE = "tables.jsonl"
#: Per-shard write-ahead journal (``repro.index.journal``), living next to
#: the shard snapshot it mutates.
JOURNAL_FILE = "journal.jsonl"


# -- shared persistence helpers ------------------------------------------------


def _write_shard_index(
    shard_dir: Path, index: InvertedIndex
) -> Dict[str, Any]:
    """Write one shard's ``index.bin``; returns its manifest-entry keys.

    The manifest records the snapshot's byte length and CRC-32 so a lazy
    load can verify it before materializing it.
    """
    nbytes, crc = write_index_bin(shard_dir / SHARD_BIN_FILE, index)
    return {"index_bytes": nbytes, "index_crc32": crc}


def _save_shard(
    shard_dir: Path, index: InvertedIndex, store: TableStore
) -> Dict[str, Any]:
    """Write one shard's index snapshot + table store under ``shard_dir``.

    Returns the manifest-entry keys of :func:`_write_shard_index`.
    """
    shard_dir.mkdir(parents=True, exist_ok=True)
    extras = _write_shard_index(shard_dir, index)
    store.save(shard_dir / SHARD_TABLES_FILE)
    # Row-offset sidecar: lets Shard.open open the table store without
    # parsing (or even reading) tables.jsonl — see store.TableStore.open.
    write_offsets_sidecar(shard_dir / SHARD_TABLES_FILE)
    return extras


def load_stats(path: Path) -> TermStatistics:
    """Read the shared ``stats.json`` of a persisted corpus directory."""
    stats_path = Path(path) / STATS_FILE
    try:
        return TermStatistics.from_dict(
            json.loads(stats_path.read_text(encoding="utf-8"))
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(
            f"{stats_path}: corrupt term statistics: {exc!r}"
        ) from exc


class _SaveTransaction:
    """The crash-safe directory swap underlying every corpus save.

    Everything (manifest last) goes into a temporary sibling directory
    which :meth:`finish` swaps into place, so an interrupted save never
    destroys an existing corpus at ``path`` and never leaves a
    half-written one behind — at worst the temp/backup sibling remains
    for manual cleanup.  Stale shards from a previous save can't survive
    either, since the directory is replaced wholesale.

    :func:`save_corpus_dir` drives it for in-memory corpora;
    :func:`build_corpus_stream` drives it directly so shard files can be
    written incrementally without ever holding the whole corpus.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.tmp = self.path.parent / f".{self.path.name}.saving"
        self._backup = self.path.parent / f".{self.path.name}.replaced"
        if self._backup.exists():
            if self.path.exists():
                shutil.rmtree(self._backup)
            else:
                # A previous save crashed between the two renames: the
                # backup is the only surviving copy.  Restore it instead of
                # deleting it, so a retried save can never destroy the last
                # good corpus.
                self._backup.rename(self.path)
        if self.tmp.exists():
            shutil.rmtree(self.tmp)
        self.tmp.mkdir()

    def shard_dir(self, shard_num: int) -> Path:
        """Create (if needed) and return the staged ``shard-NNNN`` directory."""
        shard_dir = self.tmp / f"shard-{shard_num:04d}"
        shard_dir.mkdir(exist_ok=True)
        return shard_dir

    def finish(
        self,
        shard_entries: Sequence[Dict[str, Any]],
        stats: TermStatistics,
        journal_seq: int,
        boosts: Dict[str, float],
    ) -> Path:
        """Write stats + manifest into the staging dir and swap it live."""
        (self.tmp / STATS_FILE).write_text(
            json.dumps(stats.to_dict()), encoding="utf-8"
        )
        manifest = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "kind": "sharded",
            "num_shards": len(shard_entries),
            "num_tables": sum(e["num_tables"] for e in shard_entries),
            "journal_seq": journal_seq,
            "boosts": boosts,
            "shards": list(shard_entries),
        }
        (self.tmp / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        if self.path.exists():
            self.path.rename(self._backup)
        self.tmp.rename(self.path)
        if self._backup.exists():
            shutil.rmtree(self._backup)
        return self.path


def save_corpus_dir(
    path: Union[str, Path],
    shard_pairs: Sequence[Tuple[InvertedIndex, TableStore]],
    stats: TermStatistics,
    journal_seq: int = 0,
) -> Path:
    """Write the persisted corpus layout — the one writer of every save.

    ``shard_pairs`` is a list of ``(InvertedIndex, TableStore)`` tuples, one
    per shard; ``journal_seq`` is the highest write-ahead-journal sequence
    number folded into the snapshots being written (0 for a fresh build —
    see ``repro.index.journal``).  The write is crash-safe (see
    :class:`_SaveTransaction`).
    """
    txn = _SaveTransaction(path)
    shard_entries = []
    for i, (index, store) in enumerate(shard_pairs):
        shard_dir = txn.shard_dir(i)
        entry: Dict[str, Any] = {
            "dir": shard_dir.name, "num_tables": len(store),
        }
        entry.update(_save_shard(shard_dir, index, store))
        shard_entries.append(entry)
    return txn.finish(
        shard_entries, stats, journal_seq=journal_seq,
        boosts=dict(shard_pairs[0][0].boosts),
    )


#: Manifest keys every loader indexes unconditionally.
_MANIFEST_REQUIRED = (
    "kind", "num_shards", "num_tables", "journal_seq", "boosts", "shards",
)


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a persisted corpus manifest."""
    path = Path(path)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise ValueError(f"{path} is not a persisted corpus (no {MANIFEST_FILE})")
    try:
        manifest: Dict[str, Any] = json.loads(
            manifest_path.read_text(encoding="utf-8")
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: invalid manifest JSON: {exc}") from exc
    if manifest.get("format") != INDEX_FORMAT:
        raise ValueError(
            f"{manifest_path}: unexpected format {manifest.get('format')!r}"
        )
    if manifest.get("version") != INDEX_VERSION:
        raise ValueError(
            f"{manifest_path}: unsupported version {manifest.get('version')!r} "
            f"(this build reads only version {INDEX_VERSION}); rebuild the "
            "corpus from its shards' tables.jsonl files with "
            "repro.index.build_corpus_stream"
        )
    missing = [k for k in _MANIFEST_REQUIRED if k not in manifest]
    if missing:
        raise ValueError(
            f"{manifest_path}: manifest is missing required keys {missing} "
            "(truncated write or hand edit?)"
        )
    shards = manifest["shards"]
    if not isinstance(shards, list) or not all(
        isinstance(e, dict) and "dir" in e for e in shards
    ):
        raise ValueError(
            f"{manifest_path}: malformed 'shards' list — every entry needs "
            "a 'dir' key"
        )
    # Writers emit the constant "sharded"; the other accepted kind is
    # legacy input and names the same layout with exactly one shard.
    kind = manifest["kind"]
    if kind not in ("sharded", "monolithic"):
        raise ValueError(f"{manifest_path}: unknown corpus kind {kind!r}")
    if kind != "sharded" and (manifest["num_shards"] != 1 or len(shards) != 1):
        raise ValueError(
            f"{manifest_path}: a {kind!r} corpus has exactly one shard, "
            f"but the manifest records num_shards={manifest['num_shards']!r} "
            f"with {len(shards)} shard entries"
        )
    if not all(
        isinstance(e.get("index_bytes"), int)
        and isinstance(e.get("index_crc32"), int)
        for e in shards
    ):
        raise ValueError(
            f"{manifest_path}: shard entries need integer 'index_bytes' "
            "and 'index_crc32' keys"
        )
    return manifest


def analyze_table(table: WebTable) -> Dict[str, List[str]]:
    """Tokenize one table into its three boosted document fields.

    THE analysis path: the in-memory builder, the streaming builder, live
    adds and deletes, and repair all tokenize through this one function,
    so "a journaled table is analyzed exactly as a rebuilt one" is
    structural rather than a convention the call sites must honor.
    """
    return {
        name: tokenize(table.field_text(name))
        for name in ("header", "context", "content")
    }


def build_corpus_stream(
    tables: Iterable[WebTable],
    save: Union[str, Path],
    num_shards: Optional[int] = None,
) -> Path:
    """Stream ``tables`` straight to a persisted corpus directory.

    The O(shard)-memory build path for corpora too large to hold at once
    (ROADMAP item 2): pass 1 routes each table's JSON row directly to its
    staged shard's ``tables.jsonl`` (nothing retained in memory); pass 2
    loads the staged shards back *one at a time*, indexes each through the
    same :func:`analyze_table` path as the in-memory builder, folds the
    shared statistics, and writes the shard snapshot before moving on —
    peak memory is one shard, not the corpus.  Document frequencies are
    order-independent counts, so the shard-major statistics fold produces
    rankings bit-identical to the in-memory build of the same tables.

    The directory swap is the same crash-safe transaction every save uses
    (:class:`_SaveTransaction`).  Returns the corpus path; open it with
    :func:`~repro.index.sharded.load_corpus`.
    """
    from .sharded import shard_of

    n = 1 if num_shards is None else num_shards
    if n < 1:
        raise ValueError("num_shards must be >= 1")
    txn = _SaveTransaction(save)

    # Pass 1: spill every table to its shard's tables.jsonl, exactly the
    # bytes TableStore.save would write (one JSON object per line).
    shard_dirs = [txn.shard_dir(i) for i in range(n)]
    handles = [
        (d / SHARD_TABLES_FILE).open("w", encoding="utf-8")
        for d in shard_dirs
    ]
    try:
        for table in tables:
            fh = handles[shard_of(table.table_id, n)]
            fh.write(json.dumps(table.to_dict(), ensure_ascii=False))
            fh.write("\n")
    finally:
        for fh in handles:
            fh.close()

    # Pass 2: index one shard at a time (duplicate ids surface here, from
    # TableStore.load's path:line contract — equal ids hash to equal
    # shards, so no duplicate can hide across two spill files).
    stats = TermStatistics()
    shard_entries: List[Dict[str, Any]] = []
    for shard_dir in shard_dirs:
        store = TableStore.load(shard_dir / SHARD_TABLES_FILE)
        index = InvertedIndex()
        for table in store:
            fields = analyze_table(table)
            index.add_document(table.table_id, fields)
            stats.add_document([t for toks in fields.values() for t in toks])
        entry: Dict[str, Any] = {
            "dir": shard_dir.name, "num_tables": len(store),
        }
        entry.update(_write_shard_index(shard_dir, index))
        write_offsets_sidecar(shard_dir / SHARD_TABLES_FILE)
        shard_entries.append(entry)
    return txn.finish(
        shard_entries, stats, journal_seq=0, boosts=dict(FIELD_BOOSTS)
    )


def build_corpus_index(
    tables: Iterable[WebTable],
    num_shards: Optional[int] = None,
    save: Optional[Union[str, Path]] = None,
) -> ShardedCorpus:
    """Index ``tables`` into a queryable corpus.

    Each table becomes one document with the three boosted fields of
    Section 2.1; document frequencies for the shared TF-IDF space count each
    table once per term across all its fields.

    Returns a :class:`~repro.index.sharded.ShardedCorpus` hash-partitioned
    over ``num_shards`` shards (``None``, the default, means one);
    rankings do not depend on the shard count (see DESIGN.md).  ``save=``
    additionally persists the built corpus to that directory; to build a
    persisted corpus without holding it in memory, use
    :func:`build_corpus_stream`.
    """
    from .sharded import build_sharded_corpus

    corpus = build_sharded_corpus(
        tables, 1 if num_shards is None else num_shards
    )
    if save is not None:
        corpus.save(save)
    return corpus
