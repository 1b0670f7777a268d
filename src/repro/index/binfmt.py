"""``repro.index.binfmt`` — the codec of version-3 binary index snapshots.

This module serializes the *compiled* posting layout of
:class:`~repro.index.inverted.InvertedIndex` (interned doc ids, parallel
``array`` columns of doc numbers / raw tfs / precomputed weights, dense norm
tables, df counters) directly, so loading is a handful of bulk
``array.frombytes`` copies out of an ``mmap`` view instead of a parse plus
recompilation — cheap enough to defer per shard:
:meth:`~repro.index.sharded.Shard.open` decodes a shard's snapshot on
first probe, so opening a corpus is O(manifest).

**On-disk layout** (normative spec: DESIGN.md, "On-disk corpus format,
version 3").  Everything is little-endian; integers are signed 64-bit
(matching ``array('q')``), floats IEEE-754 binary64 (``array('d')``):

- header ``<8sIIQ``: magic ``b"RPRIDX3\\0"``, version ``3``, section count,
  total file bytes;
- section table, one ``<4sQQI`` entry per section: tag, absolute byte
  offset, byte length, CRC-32 of the section payload;
- ``<I`` CRC-32 over the header + section table;
- the section payloads, contiguous and tiling the rest of the file exactly,
  in fixed order ``STRT`` (string table), ``DOCS`` (document ids), ``FLDS``
  (per-field boosts, sparse token lengths, dense norms), ``PSTG`` (posting
  lists), ``DFCT`` (document-frequency counters).

Weights and norms are stored as the exact float64 values the in-memory
index computed, so a loaded index scores **bit-identically** to the
instance that was saved — no recomputation happens on load.

**Failure contract.**  The decoder never crashes and never silently
misloads: every defect — truncation, a flipped byte (every byte is covered
by a checksum), a bad magic/version, an over-length string entry, an
out-of-range reference — raises ``ValueError`` naming ``path:offset``
(byte offset), mirroring :class:`~repro.index.store.TableStore`'s
``path:line`` contract.  ``tests/test_binfmt.py`` tortures exactly this.
"""

from __future__ import annotations

import mmap
import struct
import sys
import zlib
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, List, NoReturn, Optional, Set, Tuple, Union

from .inverted import InvertedIndex, _PostingList

__all__ = [
    "BIN_MAGIC",
    "BIN_VERSION",
    "SHARD_BIN_FILE",
    "encode_index",
    "read_index_bin",
    "write_index_bin",
]

#: First 8 bytes of every v3 snapshot.
BIN_MAGIC = b"RPRIDX3\x00"
#: Binary layout version; matches the manifest ``version`` that selects it.
BIN_VERSION = 3
#: File name of the binary index snapshot inside a shard directory.
SHARD_BIN_FILE = "index.bin"

_HEADER = struct.Struct("<8sIIQ")  # magic, version, section count, file bytes
_SECTION = struct.Struct("<4sQQI")  # tag, offset, length, payload crc32
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: The five sections, in their mandatory file order.
_SECTION_ORDER = (b"STRT", b"DOCS", b"FLDS", b"PSTG", b"DFCT")


def _le_bytes(values: Union["array[int]", "array[float]"]) -> bytes:
    """Raw little-endian bytes of an array (byte-swapping on BE hosts)."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        swapped = array(values.typecode, values)
        swapped.byteswap()
        return swapped.tobytes()
    return values.tobytes()


class _StringTable:
    """Interns strings to dense refs in first-use order (the writer side)."""

    def __init__(self) -> None:
        self._refs: Dict[str, int] = {}
        self.entries: List[str] = []

    def ref(self, value: str) -> int:
        """Return the dense table index of ``value``, interning it if new."""
        got = self._refs.get(value)
        if got is None:
            got = self._refs[value] = len(self.entries)
            self.entries.append(value)
        return got


# -- encoding ------------------------------------------------------------------


def encode_index(index: InvertedIndex) -> bytes:
    """Serialize an in-memory index to the v3 binary snapshot bytes.

    Removed documents are skipped and the survivors renumbered densely in
    their original order, so the snapshot of a mutated index decodes to
    the index a fresh build of its live documents gives.
    """
    doc_names = [name for name in index._doc_names if name is not None]
    renumber: Optional[Dict[int, int]] = None
    if len(doc_names) != len(index._doc_names):
        live = [
            num for num, name in enumerate(index._doc_names)
            if name is not None
        ]
        renumber = {old: new for new, old in enumerate(live)}

    def doc_nums(nums: "array[int]") -> "array[int]":
        if renumber is None:
            return nums
        return array("q", (renumber[d] for d in nums))

    strings = _StringTable()
    doc_refs = array("q", (strings.ref(name) for name in doc_names))
    docs = bytearray()
    docs += _I64.pack(len(doc_names))
    docs += _le_bytes(doc_refs)

    fields = list(index._postings)
    flds = bytearray()
    flds += _I64.pack(len(fields))
    for field in fields:
        lengths = index._lengths[field]
        norms = index._norms[field]
        if renumber is not None:
            norms = [norms[old] for old in renumber]
        flds += _I64.pack(strings.ref(field))
        flds += _F64.pack(index.boosts.get(field, 1.0))
        flds += _I64.pack(len(lengths))
        flds += _le_bytes(doc_nums(array("q", lengths.keys())))
        flds += _le_bytes(array("q", lengths.values()))
        flds += _le_bytes(array("d", norms))

    pstg = bytearray()
    pstg += _I64.pack(len(fields))
    for field in fields:
        postings = index._postings[field]
        pstg += _I64.pack(strings.ref(field))
        pstg += _I64.pack(len(postings))
        for term, plist in postings.items():
            pstg += _I64.pack(strings.ref(term))
            pstg += _I64.pack(len(plist))
            pstg += _le_bytes(doc_nums(plist.doc_nums))
            pstg += _le_bytes(plist.tfs)
            pstg += _le_bytes(plist.weights)

    dfct = bytearray()
    dfct += _I64.pack(len(index._df))
    for term, count in index._df.items():
        dfct += _I64.pack(strings.ref(term))
        dfct += _I64.pack(count)

    # The string table is written first in the file but assembled last:
    # refs are handed out while the other sections serialize.
    strt = bytearray()
    strt += _I64.pack(len(strings.entries))
    for value in strings.entries:
        raw = value.encode("utf-8")
        strt += _I64.pack(len(raw))
        strt += raw

    sections: List[Tuple[bytes, bytes]] = [
        (b"STRT", bytes(strt)),
        (b"DOCS", bytes(docs)),
        (b"FLDS", bytes(flds)),
        (b"PSTG", bytes(pstg)),
        (b"DFCT", bytes(dfct)),
    ]
    header_bytes = _HEADER.size + _SECTION.size * len(sections) + _U32.size
    total = header_bytes + sum(len(payload) for _, payload in sections)
    head = bytearray()
    head += _HEADER.pack(BIN_MAGIC, BIN_VERSION, len(sections), total)
    offset = header_bytes
    for tag, payload in sections:
        head += _SECTION.pack(tag, offset, len(payload), zlib.crc32(payload))
        offset += len(payload)
    head += _U32.pack(zlib.crc32(bytes(head)))
    return bytes(head) + b"".join(payload for _, payload in sections)


def write_index_bin(
    path: Union[str, Path], index: InvertedIndex
) -> Tuple[int, int]:
    """Write one index as a v3 binary snapshot file.

    Returns ``(byte_length, crc32)`` of the written file — the pair the
    corpus manifest records per shard so a later lazy load can verify the
    snapshot it is about to materialize.
    """
    data = encode_index(index)
    Path(path).write_bytes(data)
    return len(data), zlib.crc32(data)


# -- decoding ------------------------------------------------------------------


class _Reader:
    """A bounds-checked cursor over one byte range of a snapshot view.

    Every read states what it is reading; any read past ``end`` — the
    signature of truncation or a corrupt length field — raises
    ``ValueError`` naming the file and the absolute byte offset.
    """

    __slots__ = ("_view", "_path", "pos", "end")

    def __init__(
        self, view: memoryview, path: Path, start: int, end: int
    ) -> None:
        self._view = view
        self._path = path
        self.pos = start
        self.end = end

    def fail(self, offset: int, message: str) -> NoReturn:
        """Raise the decoder's uniform ``path:offset`` ValueError."""
        raise ValueError(f"{self._path}:{offset}: {message}")

    def take(self, nbytes: int, what: str) -> int:
        """Advance past ``nbytes``, returning their start offset."""
        start = self.pos
        if self.end - start < nbytes:
            self.fail(
                start,
                f"truncated {what}: need {nbytes} bytes, "
                f"{self.end - start} left",
            )
        self.pos = start + nbytes
        return start

    def done(self, what: str) -> None:
        """Assert the cursor consumed its range exactly."""
        if self.pos != self.end:
            self.fail(
                self.pos, f"{self.end - self.pos} trailing bytes in {what}"
            )

    def i64(self, what: str) -> int:
        """One signed little-endian 64-bit integer."""
        start = self.take(8, what)
        value: int = _I64.unpack_from(self._view, start)[0]
        return value

    def count(self, what: str) -> int:
        """One i64 that must be non-negative (an element count)."""
        start = self.pos
        value = self.i64(what)
        if value < 0:
            self.fail(start, f"negative {what} ({value})")
        return value

    def f64(self, what: str) -> float:
        """One little-endian IEEE-754 binary64 float."""
        start = self.take(8, what)
        value: float = _F64.unpack_from(self._view, start)[0]
        return value

    def i64_array(self, n: int, what: str) -> "array[int]":
        """``n`` consecutive i64 values as an ``array('q')`` (bulk copy)."""
        start = self.take(8 * n, what)
        out = array("q")
        out.frombytes(self._view[start : start + 8 * n])
        if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
            out.byteswap()
        return out

    def f64_array(self, n: int, what: str) -> "array[float]":
        """``n`` consecutive f64 values as an ``array('d')`` (bulk copy)."""
        start = self.take(8 * n, what)
        out = array("d")
        out.frombytes(self._view[start : start + 8 * n])
        if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
            out.byteswap()
        return out

    def text(self, what: str) -> str:
        """One length-prefixed UTF-8 string."""
        length = self.count(f"{what} length")
        start = self.take(length, what)
        try:
            return str(self._view[start : start + length], "utf-8")
        except UnicodeDecodeError as exc:
            self.fail(start, f"{what} is not valid UTF-8: {exc}")


def read_index_bin(
    path: Union[str, Path],
    expected_bytes: Optional[int] = None,
    expected_crc32: Optional[int] = None,
) -> InvertedIndex:
    """Load a v3 binary snapshot written by :func:`write_index_bin`.

    The file is mapped read-only and decoded with bulk array copies; the
    returned index is fully materialized (the map is released before
    returning).  ``expected_bytes``/``expected_crc32`` are the manifest's
    recorded size and checksum — when given, a mismatch is rejected before
    any decoding, catching a snapshot/manifest pair that drifted apart.

    Every defect raises ``ValueError`` naming ``path:offset``; no corrupt
    input crashes the decoder or yields a silently wrong index (see the
    module docstring for the contract and DESIGN.md for the layout spec).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        if size == 0:
            raise ValueError(f"{path}:0: empty snapshot file")
        if expected_bytes is not None and size != expected_bytes:
            raise ValueError(
                f"{path}:0: snapshot is {size} bytes but the manifest "
                f"records {expected_bytes} (truncated or replaced file?)"
            )
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        view = memoryview(mapped)
        try:
            if expected_crc32 is not None:
                actual = zlib.crc32(view)
                if actual != expected_crc32:
                    raise ValueError(
                        f"{path}:0: snapshot checksum {actual:#010x} does "
                        f"not match the manifest's {expected_crc32:#010x}"
                    )
            return _decode(view, path, size)
        finally:
            view.release()
    finally:
        mapped.close()


def _decode(view: memoryview, path: Path, size: int) -> InvertedIndex:
    """Decode one validated byte view into an :class:`InvertedIndex`."""
    head = _Reader(view, path, 0, size)
    at = head.take(_HEADER.size, "header")
    magic, version, section_count, file_bytes = _HEADER.unpack_from(view, at)
    if magic != BIN_MAGIC:
        head.fail(0, f"bad magic {bytes(magic)!r} (expected {BIN_MAGIC!r})")
    if version != BIN_VERSION:
        head.fail(
            8,
            f"unsupported binary version {version} "
            f"(this build reads version {BIN_VERSION})",
        )
    if section_count != len(_SECTION_ORDER):
        head.fail(
            12,
            f"header records {section_count} sections "
            f"(expected {len(_SECTION_ORDER)})",
        )
    if file_bytes != size:
        head.fail(
            16,
            f"snapshot is {size} bytes but the header records {file_bytes} "
            "(truncated write?)",
        )
    entries: List[Tuple[int, bytes, int, int, int]] = []
    for _ in range(section_count):
        at = head.take(_SECTION.size, "section table")
        tag, offset, length, crc = _SECTION.unpack_from(view, at)
        entries.append((at, bytes(tag), offset, length, crc))
    crc_at = head.take(_U32.size, "header checksum")
    stored: int = _U32.unpack_from(view, crc_at)[0]
    computed = zlib.crc32(view[:crc_at])
    if stored != computed:
        head.fail(
            crc_at,
            f"header checksum mismatch (stored {stored:#010x}, "
            f"computed {computed:#010x})",
        )

    readers: Dict[bytes, _Reader] = {}
    expected_offset = head.pos
    for (at, tag, offset, length, crc), want in zip(entries, _SECTION_ORDER):
        if tag != want:
            head.fail(at, f"section {want!r} expected, found {tag!r}")
        if offset != expected_offset:
            head.fail(
                at,
                f"section {tag!r} starts at {offset}, "
                f"expected {expected_offset}",
            )
        if length > size - offset:
            head.fail(at, f"section {tag!r} overruns the file")
        computed = zlib.crc32(view[offset : offset + length])
        if computed != crc:
            head.fail(
                offset,
                f"section {tag!r} checksum mismatch "
                f"(stored {crc:#010x}, computed {computed:#010x})",
            )
        readers[tag] = _Reader(view, path, offset, offset + length)
        expected_offset = offset + length
    if expected_offset != size:
        head.fail(
            expected_offset,
            f"{size - expected_offset} trailing bytes after the last section",
        )

    # STRT -- the string table every other section references into.
    r = readers[b"STRT"]
    num_strings = r.count("string count")
    strings: List[str] = []
    for _ in range(num_strings):
        strings.append(r.text("string-table entry"))
    r.done("string table")

    def str_ref(r: _Reader, what: str) -> str:
        at = r.pos
        i = r.i64(f"{what} ref")
        if not 0 <= i < len(strings):
            r.fail(
                at,
                f"{what} ref {i} out of range "
                f"(string table holds {len(strings)})",
            )
        return strings[i]

    # DOCS -- interned document ids, in doc-number order.
    r = readers[b"DOCS"]
    num_docs = r.count("document count")
    doc_ids: List[str] = []
    seen_docs: Set[str] = set()
    for _ in range(num_docs):
        at = r.pos
        doc_id = str_ref(r, "document id")
        if doc_id in seen_docs:
            r.fail(at, f"duplicate document id {doc_id!r}")
        seen_docs.add(doc_id)
        doc_ids.append(doc_id)
    r.done("document table")

    # FLDS -- per-field boost, sparse token lengths, dense norms.
    r = readers[b"FLDS"]
    num_fields = r.count("field count")
    boosts: Dict[str, float] = {}
    field_rows: List[
        Tuple[str, "array[int]", "array[int]", "array[float]"]
    ] = []
    for _ in range(num_fields):
        at = r.pos
        name = str_ref(r, "field name")
        if name in boosts:
            r.fail(at, f"duplicate field {name!r}")
        boosts[name] = r.f64("field boost")
        sparse = r.count("field length count")
        length_docs = r.i64_array(sparse, "field length doc numbers")
        length_vals = r.i64_array(sparse, "field token lengths")
        norms = r.f64_array(num_docs, "field norms")
        if sparse:
            if min(length_docs) < 0 or max(length_docs) >= num_docs:
                r.fail(
                    at,
                    f"field {name!r} has a length entry with a doc number "
                    f"out of range (corpus holds {num_docs} documents)",
                )
            if min(length_vals) < 0:
                r.fail(at, f"field {name!r} has a negative token length")
        field_rows.append((name, length_docs, length_vals, norms))
    r.done("field table")

    # PSTG -- posting lists, parallel columns per (field, term).
    r = readers[b"PSTG"]
    num_posting_fields = r.count("posting field count")
    if num_posting_fields != len(field_rows):
        r.fail(
            r.pos,
            f"posting section lists {num_posting_fields} fields, "
            f"field table lists {len(field_rows)}",
        )
    posting_rows: List[Tuple[str, List[Tuple[str, _PostingList]]]] = []
    for name, _, _, _ in field_rows:
        at = r.pos
        posting_field = str_ref(r, "posting field name")
        if posting_field != name:
            r.fail(
                at,
                f"posting section field {posting_field!r} does not follow "
                f"the field table order ({name!r} expected)",
            )
        num_terms = r.count("term count")
        terms: List[Tuple[str, _PostingList]] = []
        seen_terms: Set[str] = set()
        for _ in range(num_terms):
            at = r.pos
            term = str_ref(r, "posting term")
            if term in seen_terms:
                r.fail(
                    at,
                    f"duplicate posting term {term!r} in field {name!r}",
                )
            seen_terms.add(term)
            n = r.count("posting length")
            if n == 0:
                r.fail(at, f"empty posting list for term {term!r}")
            plist = _PostingList()
            plist.doc_nums = r.i64_array(n, "posting doc numbers")
            plist.tfs = r.i64_array(n, "posting term frequencies")
            plist.weights = r.f64_array(n, "posting weights")
            if min(plist.doc_nums) < 0 or max(plist.doc_nums) >= num_docs:
                r.fail(
                    at,
                    f"posting list for term {term!r} references a doc "
                    f"number out of range (corpus holds {num_docs} "
                    "documents)",
                )
            if min(plist.tfs) < 1:
                r.fail(
                    at,
                    f"non-positive term frequency in posting list for "
                    f"term {term!r}",
                )
            terms.append((term, plist))
        posting_rows.append((name, terms))
    r.done("posting lists")

    # DFCT -- incremental per-term document frequencies.
    r = readers[b"DFCT"]
    num_df = r.count("df entry count")
    df: "Counter[str]" = Counter()
    for _ in range(num_df):
        at = r.pos
        term = str_ref(r, "df term")
        if term in df:
            r.fail(at, f"duplicate df entry for term {term!r}")
        count = r.count("df count")
        if count == 0:
            r.fail(at, f"zero document frequency recorded for {term!r}")
        df[term] = count
    r.done("df counters")

    index = InvertedIndex(boosts=boosts)
    index._doc_names = list(doc_ids)
    index._doc_nums = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    index._num_docs = num_docs
    for name, length_docs, length_vals, norms in field_rows:
        index._lengths[name] = dict(zip(length_docs, length_vals))
        index._norms[name] = norms.tolist()
    for name, terms in posting_rows:
        postings = index._postings[name]
        for term, plist in terms:
            postings[term] = plist
    index._df = df
    return index
