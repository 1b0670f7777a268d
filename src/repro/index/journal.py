"""``repro.index.journal`` — the write-ahead journal codec.

A corpus opened from a directory journals every mutation before applying
it (:meth:`~repro.index.sharded.ShardedCorpus.add_tables` /
:meth:`~repro.index.sharded.ShardedCorpus.delete_tables`): JSONL records
with monotonic corpus-global sequence numbers, appended and fsync'd to the
``journal.jsonl`` of the shard that owns the record's table.  The
manifest's ``journal_seq`` is the highest sequence number already folded
into the shard snapshots, so a replay after a crash never double-applies.
This module reads and writes those files; the corpus applies them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from .builder import JOURNAL_FILE

__all__ = [
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
    :meth:`~repro.index.sharded.ShardedCorpus.load` repairs every journal
    before the corpus accepts new mutations.  Returns True when bytes were
    truncated.
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
