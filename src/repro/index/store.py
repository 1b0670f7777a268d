"""Table store: persistence for the extracted table corpus.

The offline pipeline extracts tables once and stores them on disk; query
time reads raw tables back by id (the "Table Read" slices of Figure 7).
Storage is JSON-lines — one table per line — which keeps the store
greppable and append-friendly.

One :class:`TableStore` serves every use.  It holds rows from an optional
backing ``tables.jsonl`` — a persisted shard's, opened by
:meth:`TableStore.open` — plus rows added in memory (a build, live adds).
Removing a row of either kind drops it from every read and from the next
:meth:`TableStore.save`.  A backing file is never parsed at open: the
store knows every row's byte offset (from the
``tables.offsets`` sidecar, or a newline scan of the mmap'd file) and
parses a row's JSON only when that table is first read.  At 10^5 tables
this turns shard materialization's eager parse — tens of seconds of
``json.loads`` — into an O(rows) offset load, with per-row cost deferred
to first access.
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..tables.table import WebTable

__all__ = [
    "TableStore",
    "TABLES_OFFSETS_FILE",
    "scan_line_offsets",
    "write_offsets_sidecar",
    "read_offsets_sidecar",
]

#: Per-shard sidecar recording each ``tables.jsonl`` row's byte offset, so
#: a lazy open never touches the table file at all (see DESIGN.md).
TABLES_OFFSETS_FILE = "tables.offsets"

#: Sidecar magic + version; bumping the layout bumps the trailing byte.
_OFFSETS_MAGIC = b"RPOF\x00\x01"


class TableStore:
    """An id-addressable collection of :class:`WebTable` objects.

    ``TableStore()`` / ``TableStore(tables)`` is an in-memory store;
    :meth:`open` fronts a ``tables.jsonl`` file whose rows parse on first
    read (and are cached, so steady-state reads cost the same as the
    in-memory ones); :meth:`load` parses a file eagerly.  Either way
    :meth:`add` appends rows in memory after the file's, :meth:`remove`
    drops a row of either kind, and ``ids()`` / iteration / :meth:`save`
    follow the surviving rows in that order.
    """

    def __init__(self, tables: Optional[Iterable[WebTable]] = None) -> None:
        #: The backing file, ``None`` for a store without one.
        self._path: Optional[Path] = None
        #: The file's row ids in line order (``None``: removed), and each
        #: live id's row number.
        self._line_ids: List[Optional[str]] = []
        self._line_of: Dict[str, int] = {}
        #: Row ``i``'s bytes are ``file[_offsets[i]:_offsets[i + 1]]``.
        self._offsets: List[int] = []
        #: The mapped backing file; ``None`` without rows and after close().
        self._mm: Optional[mmap.mmap] = None
        #: File rows parsed so far.
        self._parsed: Dict[str, WebTable] = {}
        #: Rows added in memory, in insertion order.
        self._added: Dict[str, WebTable] = {}
        for table in tables or ():
            self.add(table)

    @classmethod
    def open(
        cls, path: Union[str, Path], table_ids: Sequence[str]
    ) -> TableStore:
        """Open a tables file lazily, preferring the offsets sidecar.

        ``table_ids`` supplies the row ids in line order — for a persisted
        shard the decoded index's document names, whose insertion order
        *is* the ``tables.jsonl`` line order by the builder's
        single-analysis-path invariant.  A file with more or fewer rows
        fails here; each parsed row is verified against its expected id,
        so a mismatched id list surfaces as a ``path:line`` ``ValueError``
        at first read, not as a silently misrouted table.
        """
        path = Path(path)
        offsets = read_offsets_sidecar(
            path.parent / TABLES_OFFSETS_FILE,
            expected_rows=len(table_ids),
            data_size=path.stat().st_size,
        )
        if offsets is None:
            offsets = scan_line_offsets(path)
        if len(offsets) != len(table_ids) + 1:
            raise ValueError(
                f"{path}: {len(table_ids)} table ids expected but the table "
                f"store holds {len(offsets) - 1} rows (truncated or tampered "
                "tables file?)"
            )
        store = cls()
        store._path = path
        line_ids = [str(t) for t in table_ids]
        store._line_ids = list(line_ids)
        store._line_of = {tid: i for i, tid in enumerate(line_ids)}
        if len(store._line_of) != len(line_ids):
            raise ValueError(f"{path}: duplicate table ids in row order")
        store._offsets = offsets
        if table_ids:
            with path.open("rb") as fh:
                store._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        return store

    @classmethod
    def load(cls, path: Union[str, Path]) -> TableStore:
        """Read a store written by :meth:`save`, parsing every row now.

        Preserves the file's line order as insertion order.  Corrupt JSON
        and duplicate table ids raise ``ValueError`` naming the offending
        ``path:line`` so a bad corpus file is diagnosable at a glance.
        """
        path = Path(path)
        store = cls()
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: invalid table JSON: {exc}"
                    ) from exc
                table = WebTable.from_dict(data)
                if table.table_id in store:
                    raise ValueError(
                        f"{path}:{lineno}: duplicate table id {table.table_id!r}"
                    )
                store.add(table)
        return store

    # -- file rows -------------------------------------------------------------

    def _row_bytes(self, row: int) -> bytes:
        """The raw bytes of file row ``row``."""
        mm = self._mm
        if mm is None:
            raise ValueError(
                f"{self._path}: table store is closed; row {row + 1} "
                f"({self._line_ids[row]!r}) was not parsed before close()"
            )
        return bytes(mm[self._offsets[row]: self._offsets[row + 1]])

    def _lineno(self, row: int) -> int:
        """1-based physical line number of ``row`` (error paths only)."""
        mm = self._mm
        if mm is None:
            return row + 1
        return bytes(mm[: self._offsets[row]]).count(b"\n") + 1

    def _parse_row(self, row: int) -> WebTable:
        """Parse file row ``row``'s JSON line into its :class:`WebTable`."""
        raw = self._row_bytes(row).strip()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{self._path}:{self._lineno(row)}: invalid table JSON: {exc}"
            ) from exc
        table = WebTable.from_dict(data)
        if table.table_id != self._line_ids[row]:
            raise ValueError(
                f"{self._path}:{self._lineno(row)}: row holds table id "
                f"{table.table_id!r} but {self._line_ids[row]!r} was expected "
                "(tables file and index snapshot disagree)"
            )
        return table

    def _fetch(self, table_id: str) -> WebTable:
        """Added-or-parsed row lookup, parsing a file row on first read.

        ``setdefault`` makes a race between two first reads hand both
        callers the same parsed object.
        """
        table = self._added.get(table_id)
        if table is None:
            table = self._parsed.get(table_id)
        if table is None:
            row = self._line_of[table_id]  # KeyError(table_id) when absent
            table = self._parsed.setdefault(table_id, self._parse_row(row))
        return table

    # -- the store contract ----------------------------------------------------

    def add(self, table: WebTable) -> None:
        """Add a table in memory; ids must be unique across the store."""
        if not table.table_id:
            raise ValueError("table must have a table_id")
        if table.table_id in self:
            raise ValueError(f"duplicate table id {table.table_id!r}")
        self._added[table.table_id] = table

    def get(self, table_id: str) -> WebTable:
        """Fetch a table by id (KeyError if absent)."""
        return self._fetch(table_id)

    def remove(self, table_id: str) -> WebTable:
        """Remove and return a table (KeyError if absent).

        O(1).  A row of the backing file is parsed first (the caller needs
        its content to un-index it) and then forgotten: the file itself is
        untouched, and the next :meth:`save` skips the row.
        """
        if table_id in self._added:
            return self._added.pop(table_id)
        table = self._fetch(table_id)
        self._line_ids[self._line_of.pop(table_id)] = None
        del self._parsed[table_id]
        return table

    def get_many(self, table_ids: Iterable[str]) -> List[WebTable]:
        """Fetch several tables, preserving input order, skipping unknowns."""
        return [self._fetch(t) for t in table_ids if t in self]

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._added or table_id in self._line_of

    def __len__(self) -> int:
        return len(self._line_of) + len(self._added)

    def __iter__(self) -> Iterator[WebTable]:
        for table_id in self.ids():
            yield self._fetch(table_id)

    def ids(self) -> List[str]:
        """All table ids: file row order first, then in-memory adds."""
        return [
            i for i in self._line_ids if i is not None
        ] + list(self._added)

    def close(self) -> None:
        """Release the backing file's map (idempotent).

        Parsed and added rows keep answering; reading an un-parsed row —
        or saving — afterwards raises a ``ValueError`` naming this store.
        """
        mm = self._mm
        self._mm = None
        if mm is not None:
            mm.close()

    # -- persistence -----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> List[int]:
        """Write the store as JSON-lines, one table per line.

        Surviving file rows are copied byte-for-byte (no parse +
        re-serialize round trip), then the in-memory rows serialize after
        them, so ``load(save(s))`` round-trips both contents and ordering.
        All bytes are gathered *before* the target opens, so saving over
        the store's own backing file is safe.  Returns the written rows'
        offsets, as :func:`scan_line_offsets` would read them back.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        chunks: List[bytes] = []
        for row, table_id in enumerate(self._line_ids):
            if table_id is None:
                continue
            raw = self._row_bytes(row)
            chunks.append(raw if raw.endswith(b"\n") else raw + b"\n")
        for table in self._added.values():
            line = json.dumps(table.to_dict(), ensure_ascii=False)
            chunks.append(line.encode("utf-8") + b"\n")
        offsets = [0]
        with path.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                offsets.append(offsets[-1] + len(chunk))
        return offsets


# -- row-offset machinery ------------------------------------------------------


def scan_line_offsets(path: Union[str, Path]) -> List[int]:
    """Byte offsets of every non-empty line of ``path``, plus an end mark.

    The sidecar-less fallback: one pass over the mmap'd bytes looking for
    newlines — no JSON is parsed, which is the entire point.  Returns
    ``[start_0, start_1, ..., end_of_last_row]``; a row's bytes are
    ``data[offsets[i]:offsets[i + 1]]`` (trailing newline included).
    """
    path = Path(path)
    size = path.stat().st_size
    offsets: List[int] = []
    if size == 0:
        return [0]
    with path.open("rb") as fh:
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            pos = 0
            while pos < size:
                end = mm.find(b"\n", pos)
                if end == -1:
                    end = size - 1  # final line without a trailing newline
                if mm[pos:end + 1].strip():
                    offsets.append(pos)
                pos = end + 1
    offsets.append(size)
    return offsets


def write_offsets_sidecar(
    tables_path: Union[str, Path],
    offsets: Sequence[int],
    sidecar_path: Optional[Path] = None,
) -> Path:
    """Write the ``tables.offsets`` sidecar for a tables file.

    ``offsets`` are the row offsets in :func:`scan_line_offsets`'s form,
    counted by the file's writer as it wrote (what :meth:`TableStore.save`
    returns), so no save reads its file back.  Layout: magic, ``u64`` row
    count, ``count + 1`` little-endian ``i64`` offsets (the last is the
    data size), then a ``u32`` CRC-32 of the offset bytes.  Every reader
    cross-checks the CRC, the row count, and the recorded data size
    against the actual file, and falls back to :func:`scan_line_offsets`
    on any mismatch — a stale or corrupt sidecar degrades to a slower
    open, never to wrong rows.
    """
    tables_path = Path(tables_path)
    if sidecar_path is None:
        sidecar_path = tables_path.parent / TABLES_OFFSETS_FILE
    payload = struct.pack("<Q", len(offsets) - 1)
    payload += struct.pack(f"<{len(offsets)}q", *offsets)
    blob = _OFFSETS_MAGIC + payload + struct.pack("<I", zlib.crc32(payload))
    sidecar_path.write_bytes(blob)
    return sidecar_path


def read_offsets_sidecar(
    sidecar_path: Union[str, Path],
    expected_rows: int,
    data_size: int,
) -> Optional[List[int]]:
    """Read a sidecar written by :func:`write_offsets_sidecar`.

    Returns ``None`` — "scan instead" — when the sidecar is missing,
    truncated, checksum-corrupt, or disagrees with the live tables file
    (row count or total size): a sidecar is a cache, and a cache that
    cannot prove itself fresh must not be believed.
    """
    sidecar_path = Path(sidecar_path)
    try:
        blob = sidecar_path.read_bytes()
    except OSError:  # reprolint: disable=R008 -- a missing/unreadable sidecar is the documented "scan instead" signal, not a failure: the caller falls back to the authoritative newline scan and TableStore verifies every id on parse
        return None
    header_len = len(_OFFSETS_MAGIC) + 8
    if len(blob) < header_len + 4 or not blob.startswith(_OFFSETS_MAGIC):
        return None
    (count,) = struct.unpack_from("<Q", blob, len(_OFFSETS_MAGIC))
    body_end = header_len + (count + 1) * 8
    if count != expected_rows or len(blob) != body_end + 4:
        return None
    payload = blob[len(_OFFSETS_MAGIC):body_end]
    (crc,) = struct.unpack_from("<I", blob, body_end)
    if zlib.crc32(payload) != crc:
        return None
    offsets = list(struct.unpack_from(f"<{count + 1}q", blob, header_len))
    if offsets[-1] != data_size or any(
        offsets[i] >= offsets[i + 1] for i in range(count)
    ):
        return None
    return offsets
