"""Offline corpus scrubbing: ``repro index verify`` and ``repro index repair``.

A persisted corpus directory carries enough redundancy to detect — and
often to undo — at-rest corruption without any backup:

- the manifest records every shard snapshot's byte length and CRC-32,
  and the snapshot itself checksums every section internally;
- the table store (``tables.jsonl``) is the *source* data the snapshot
  was compiled from, so a corrupt ``index.bin`` over an intact
  ``tables.jsonl`` can be re-derived exactly (the builder's
  :func:`~repro.index.builder.analyze_table` path is deterministic).

:func:`verify_corpus` is the read-only scrub: it walks the manifest,
checks every shard's snapshot against the recorded length/CRC, decodes
it, loads the table store, cross-checks the three against each other,
and parses any write-ahead journal — reporting every defect as a
structured :class:`ScrubIssue` instead of stopping at the first.

:func:`repair_corpus` re-derives each *repairable* defect (a broken
index snapshot whose ``tables.jsonl`` still verifies) by rebuilding the
shard's index from its tables and atomically replacing ``index.bin``
(write to a temp sibling, ``os.replace``).  If the rebuilt bytes differ
from what the manifest recorded, the manifest is rewritten atomically
too — the snapshot and its checksum move together or not at all.
Defects in the source data itself (a corrupt ``tables.jsonl``, a table
count that contradicts the manifest) are *not* repairable from within
the directory and are reported as such, never guessed at.  Neither is
a manifest this build cannot read (a version-2 directory, say): the
``manifest`` issue names the way out, a rebuild from the shards'
``tables.jsonl``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .binfmt import SHARD_BIN_FILE, read_index_bin, write_index_bin
from .builder import (
    MANIFEST_FILE,
    SHARD_TABLES_FILE,
    analyze_table,
    read_manifest,
)
from .inverted import InvertedIndex
from .journal import JOURNAL_FILE, read_journal
from .store import TableStore

__all__ = ["ScrubIssue", "ScrubReport", "verify_corpus", "repair_corpus"]


@dataclass(frozen=True)
class ScrubIssue:
    """One defect the scrub found.

    ``repairable`` means :func:`repair_corpus` can re-derive the damaged
    artifact from data that still verifies (a broken index snapshot over
    an intact table store); everything else needs a rebuild from the
    original table source.
    """

    #: Shard directory name, or ``""`` for corpus-level defects.
    shard: str
    #: Defect class: ``missing`` / ``size`` / ``checksum`` / ``decode`` /
    #: ``tables`` / ``cross`` / ``journal`` / ``manifest``.
    kind: str
    message: str
    repairable: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON output."""
        return {
            "shard": self.shard,
            "kind": self.kind,
            "message": self.message,
            "repairable": self.repairable,
        }


@dataclass
class ScrubReport:
    """Everything one scrub (or repair) pass found and did."""

    path: str
    shards_checked: int = 0
    issues: List[ScrubIssue] = field(default_factory=list)
    #: Shard directory names whose snapshots were re-derived (repair only).
    repaired: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Did every artifact verify?"""
        return not self.issues

    @property
    def repairable(self) -> bool:
        """Would :func:`repair_corpus` fix every issue found?"""
        return bool(self.issues) and all(i.repairable for i in self.issues)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON output."""
        return {
            "path": self.path,
            "ok": self.ok,
            "shards_checked": self.shards_checked,
            "issues": [i.to_dict() for i in self.issues],
            "repaired": list(self.repaired),
        }


def _verify_tables(
    shard_dir: Path, entry: Dict[str, Any], record_issue: Any
) -> Optional[TableStore]:
    """Check one shard's table store; returns it when it verifies (the
    cross-checks read it), else ``None``."""
    tables_path = shard_dir / SHARD_TABLES_FILE
    if not tables_path.is_file():
        record_issue(
            shard_dir.name, "missing", f"{tables_path} is missing"
        )
        return None
    try:
        store = TableStore.load(tables_path)
    except ValueError as exc:  # reprolint: disable=R008 -- the corrupt store IS the scrub finding; record_issue reports it and verification of this shard continues with the snapshot checks
        record_issue(shard_dir.name, "tables", str(exc))
        return None
    if len(store) != int(entry["num_tables"]):
        record_issue(
            shard_dir.name,
            "cross",
            f"{tables_path} holds {len(store)} tables but the manifest "
            f"records {entry['num_tables']}",
        )
        return None
    return store


def _verify_journal(shard_dir: Path, record_issue: Any) -> None:
    """Parse one shard's write-ahead journal, if present and non-empty."""
    journal_path = shard_dir / JOURNAL_FILE
    if not journal_path.is_file() or journal_path.stat().st_size == 0:
        return
    try:
        read_journal(journal_path)
    except ValueError as exc:  # reprolint: disable=R008 -- the unreadable journal IS the scrub finding; record_issue reports it (load-time repair_journal owns the fix)
        record_issue(shard_dir.name, "journal", str(exc))


def verify_corpus(path: Union[str, Path]) -> ScrubReport:
    """Read-only scrub of a persisted corpus directory.

    Walks the manifest and checks, per shard: the snapshot file's size
    and whole-file CRC-32 against the manifest's record, a full decode
    (every internal section checksum), the table store, the
    snapshot/store/manifest cross-invariants, and the write-ahead
    journal's parseability.  Never modifies anything; collects *every*
    defect rather than stopping at the first, so one pass sizes the
    damage.
    """
    return _scrub(Path(path))[0]


def _scrub(path: Path) -> Tuple[ScrubReport, Dict[str, TableStore]]:
    """:func:`verify_corpus`'s pass, plus the verified table store of each
    shard whose snapshot is repairable, so a repair parses none again."""
    report = ScrubReport(path=str(path))
    stores: Dict[str, TableStore] = {}

    def record_issue(
        shard: str, kind: str, message: str, repairable: bool = False
    ) -> None:
        report.issues.append(ScrubIssue(shard, kind, message, repairable))

    try:
        manifest = read_manifest(path)
    except ValueError as exc:  # reprolint: disable=R008 -- an unreadable manifest IS the scrub finding; record_issue reports it and the scrub ends (nothing else is walkable without it)
        record_issue("", "manifest", str(exc))
        return report, stores

    for entry in manifest["shards"]:
        shard_dir = path / entry["dir"]
        report.shards_checked += 1
        if not shard_dir.is_dir():
            record_issue(entry["dir"], "missing", f"{shard_dir} is missing")
            continue
        store = _verify_tables(shard_dir, entry, record_issue)
        tables_ok = store is not None
        if store is not None:  # kept for a repair until the snapshot verifies
            stores[entry["dir"]] = store
        _verify_journal(shard_dir, record_issue)

        bin_path = shard_dir / SHARD_BIN_FILE
        if not bin_path.is_file():
            record_issue(
                entry["dir"],
                "missing",
                f"{bin_path} is missing",
                repairable=tables_ok,
            )
            continue
        size = bin_path.stat().st_size
        if size != int(entry["index_bytes"]):
            record_issue(
                entry["dir"],
                "size",
                f"{bin_path} is {size} bytes but the manifest records "
                f"{entry['index_bytes']}",
                repairable=tables_ok,
            )
            continue
        crc = zlib.crc32(bin_path.read_bytes())
        if crc != int(entry["index_crc32"]):
            record_issue(
                entry["dir"],
                "checksum",
                f"{bin_path} checksum {crc:#010x} does not match the "
                f"manifest's {int(entry['index_crc32']):#010x}",
                repairable=tables_ok,
            )
            continue
        try:
            index = read_index_bin(
                bin_path,
                expected_bytes=int(entry["index_bytes"]),
                expected_crc32=int(entry["index_crc32"]),
            )
        except ValueError as exc:  # reprolint: disable=R008 -- the undecodable snapshot IS the scrub finding; record_issue reports it with the decoder's path:offset detail
            record_issue(
                entry["dir"], "decode", str(exc), repairable=tables_ok
            )
            continue
        if store is None:
            continue  # cross-checks need both sides intact
        del stores[entry["dir"]]
        if index.num_docs != len(store):
            record_issue(
                entry["dir"],
                "cross",
                f"{bin_path} indexes {index.num_docs} documents but "
                f"{SHARD_TABLES_FILE} holds {len(store)}",
            )
        elif [n for n in index._doc_names if n is not None] != store.ids():
            record_issue(
                entry["dir"],
                "cross",
                f"{bin_path} document ids do not match "
                f"{SHARD_TABLES_FILE} (same count, different ids/order)",
            )
    return report, stores


def _rebuild_index(store: TableStore, boosts: Dict[str, float]) -> InvertedIndex:
    """Re-derive one shard's index from its verified table store.

    Mirrors the builder exactly — same :func:`analyze_table` fields, same
    insertion order as the store — so a shard originally written by the
    builder re-encodes to bit-identical snapshot bytes.
    """
    index = InvertedIndex(boosts=boosts)
    for table in store:
        index.add_document(table.table_id, analyze_table(table))
    return index


def repair_corpus(path: Union[str, Path]) -> ScrubReport:
    """Re-derive every repairable defect :func:`verify_corpus` finds.

    For each shard whose index snapshot is damaged but whose
    ``tables.jsonl`` verifies, the index is rebuilt from the tables
    (bit-identical to the builder's output), written to a temp sibling,
    and atomically swapped over ``index.bin``; the manifest is rewritten
    (atomically, last) when the recorded length/CRC changed.  The
    returned report lists what was repaired and carries only the issues
    that *remain* — unrepairable ones, plus journal defects (owned by
    load-time ``repair_journal``).  ``report.ok`` after a repair means a
    subsequent :func:`verify_corpus` would be clean except for those.
    """
    path = Path(path)
    found, stores = _scrub(path)
    report = ScrubReport(
        path=str(path), shards_checked=found.shards_checked
    )
    report.issues = [i for i in found.issues if not i.repairable]
    broken = {i.shard for i in found.issues if i.repairable}
    if not broken:
        return report

    manifest = read_manifest(path)
    boosts = {str(f): float(b) for f, b in manifest["boosts"].items()}
    manifest_dirty = False
    for entry in manifest["shards"]:
        if entry["dir"] not in broken:
            continue
        shard_dir = path / entry["dir"]
        index = _rebuild_index(stores[entry["dir"]], boosts)
        bin_path = shard_dir / SHARD_BIN_FILE
        tmp_path = shard_dir / f".{SHARD_BIN_FILE}.repairing"
        nbytes, crc = write_index_bin(tmp_path, index)
        os.replace(tmp_path, bin_path)
        if (
            nbytes != int(entry["index_bytes"])
            or crc != int(entry["index_crc32"])
        ):
            entry["index_bytes"] = nbytes
            entry["index_crc32"] = crc
            manifest_dirty = True
        report.repaired.append(entry["dir"])
    if manifest_dirty:
        manifest_path = path / MANIFEST_FILE
        tmp_manifest = path / f".{MANIFEST_FILE}.repairing"
        tmp_manifest.write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        os.replace(tmp_manifest, manifest_path)
    return report
