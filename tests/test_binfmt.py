"""Torture, golden-fixture, and fuzz tests for the v3 binary snapshot format.

The decoder's contract (``repro.index.binfmt``): no corrupt input may
crash it or load silently wrong — every defect raises ``ValueError``
naming ``path:offset``.  These tests earn that claim the hard way: every
possible truncation, every possible single-byte flip, and a catalogue of
surgically crafted structural defects (checksums repaired so the defect
itself — not the checksum — is what the decoder must catch).

The golden-fixture tests freeze the byte layout: the committed
``tests/fixtures/binfmt_v3`` snapshot must match a fresh build of the
same tables byte for byte, so accidental format drift fails here before
it orphans anybody's persisted corpus.
"""

import io
import json
import shutil
import struct
import zlib

import pytest

from repro.cli import main as cli_main
from repro.corpus.generator import iter_synthetic_tables
from repro.index import (
    InvertedIndex,
    Shard,
    ShardedCorpus,
    build_corpus_index,
    build_corpus_stream,
    load_corpus,
    shard_of,
)
from repro.index.binfmt import encode_index, read_index_bin, write_index_bin
from repro.index.builder import read_manifest

from .binfmt_fixture import V3_DIR, fixture_tables

# The layout constants are *redeclared* here rather than imported: this
# file is the independent witness of the spec in DESIGN.md, so a change to
# the encoder's constants must fail these tests, not get inherited.
MAGIC = b"RPRIDX3\x00"
HEADER = struct.Struct("<8sIIQ")
SECTION = struct.Struct("<4sQQI")
U32 = struct.Struct("<I")
I64 = struct.Struct("<q")
ORDER = [b"STRT", b"DOCS", b"FLDS", b"PSTG", b"DFCT"]
HEADER_BYTES = HEADER.size + SECTION.size * len(ORDER) + U32.size

QUERIES = [
    ["country", "currency"],
    ["country", "capital"],
    ["dog", "breed"],
    ["height", "city"],
    ["academy", "award", "picture"],
]


def small_index():
    index = InvertedIndex()
    index.add_text_document(
        "d1", {"header": "Country Currency", "content": "france euro euro"}
    )
    index.add_text_document(
        "d2", {"header": "Country Capital", "content": "france paris"}
    )
    index.add_text_document(
        "d3",
        {"header": "Dog Breed", "context": "dogs of the world",
         "content": "beagle hound"},
    )
    return index


def rankings(corpus, queries=QUERIES, limit=25):
    """(doc_id, score) lists per query — the bit-identity currency."""
    return [
        [(h.doc_id, h.score) for h in corpus.search(q, limit=limit)]
        for q in queries
    ]


# -- crafting helpers ----------------------------------------------------------


def payloads_of(data):
    """Split a snapshot into its five section payloads, tag-keyed."""
    out = {}
    for i in range(len(ORDER)):
        tag, offset, length, _ = SECTION.unpack_from(
            data, HEADER.size + i * SECTION.size
        )
        out[bytes(tag)] = bytes(data[offset : offset + length])
    return out


def rebuild(payloads):
    """Reassemble a snapshot from (possibly doctored) section payloads.

    Offsets, lengths, section CRCs, total size, and the header CRC are all
    recomputed, so the *structural* defect planted in a payload is the only
    thing left for the decoder to find.
    """
    total = HEADER_BYTES + sum(len(payloads[t]) for t in ORDER)
    head = bytearray(HEADER.pack(MAGIC, 3, len(ORDER), total))
    offset = HEADER_BYTES
    for tag in ORDER:
        head += SECTION.pack(
            tag, offset, len(payloads[tag]), zlib.crc32(payloads[tag])
        )
        offset += len(payloads[tag])
    head += U32.pack(zlib.crc32(bytes(head)))
    return bytes(head) + b"".join(payloads[tag] for tag in ORDER)


def rewrite_header_crc(data):
    """Recompute the header checksum after an in-place header patch."""
    at = HEADER_BYTES - U32.size
    data[at : at + U32.size] = U32.pack(zlib.crc32(bytes(data[:at])))


def expect_offset_error(tmp_path, data, needle):
    """Write ``data``, decode, and demand a ``path:offset`` ValueError."""
    path = tmp_path / "index.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=needle) as excinfo:
        read_index_bin(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}:"), message
    offset = message[len(f"{path}:"):].split(":", 1)[0]
    assert offset.lstrip("-").isdigit(), message
    return message


# -- exhaustive sweeps ---------------------------------------------------------


class TestExhaustiveCorruption:
    def test_every_truncation_rejected(self, tmp_path):
        data = encode_index(small_index())
        path = tmp_path / "index.bin"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError) as excinfo:
                read_index_bin(path)
            assert str(excinfo.value).startswith(f"{path}:"), (
                f"truncation at {cut}: {excinfo.value}"
            )

    def test_every_single_byte_flip_rejected(self, tmp_path):
        # Every byte of the file is covered by a checksum (header+table by
        # the header CRC, payloads by their section CRCs), so each of the
        # len(data) corrupt variants must fail even WITHOUT the manifest's
        # whole-file checksum.
        data = encode_index(small_index())
        path = tmp_path / "index.bin"
        for at in range(len(data)):
            corrupt = bytearray(data)
            corrupt[at] ^= 0xFF
            path.write_bytes(bytes(corrupt))
            with pytest.raises(ValueError) as excinfo:
                read_index_bin(path)
            assert str(excinfo.value).startswith(f"{path}:"), (
                f"flip at {at}: {excinfo.value}"
            )

    def test_manifest_checksum_catches_flips_before_decode(self, tmp_path):
        path = tmp_path / "index.bin"
        nbytes, crc = write_index_bin(path, small_index())
        data = bytearray(path.read_bytes())
        data[nbytes // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="does not match the manifest"):
            read_index_bin(path, expected_bytes=nbytes, expected_crc32=crc)


# -- crafted structural defects ------------------------------------------------


class TestHeaderDefects:
    def test_empty_file(self, tmp_path):
        expect_offset_error(tmp_path, b"", "empty snapshot file")

    def test_manifest_size_mismatch(self, tmp_path):
        path = tmp_path / "index.bin"
        nbytes, crc = write_index_bin(path, small_index())
        with pytest.raises(ValueError, match="manifest records"):
            read_index_bin(path, expected_bytes=nbytes + 1, expected_crc32=crc)

    def test_bad_magic(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        data[0:8] = b"NOTMAGIC"
        rewrite_header_crc(data)
        expect_offset_error(tmp_path, bytes(data), "bad magic")

    def test_bad_version(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        struct.pack_into("<I", data, 8, 99)
        rewrite_header_crc(data)
        expect_offset_error(
            tmp_path, bytes(data), "unsupported binary version 99"
        )

    def test_wrong_section_count(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        struct.pack_into("<I", data, 12, 4)
        rewrite_header_crc(data)
        expect_offset_error(tmp_path, bytes(data), "records 4 sections")

    def test_header_size_field_mismatch(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        struct.pack_into("<Q", data, 16, len(data) + 8)
        rewrite_header_crc(data)
        expect_offset_error(tmp_path, bytes(data), "header records")

    def test_header_checksum_mismatch(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        # A section-table byte: only the header CRC guards those, and the
        # CRC check runs before any per-section validation.
        data[HEADER.size + 6] ^= 0x01
        expect_offset_error(tmp_path, bytes(data), "header checksum mismatch")


class TestSectionTableDefects:
    def test_sections_out_of_order(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        a = HEADER.size + 1 * SECTION.size
        b = HEADER.size + 2 * SECTION.size
        entry_a = bytes(data[a : a + SECTION.size])
        data[a : a + SECTION.size] = data[b : b + SECTION.size]
        data[b : b + SECTION.size] = entry_a
        rewrite_header_crc(data)
        expect_offset_error(tmp_path, bytes(data), "expected, found")

    def test_non_contiguous_sections(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        at = HEADER.size + 1 * SECTION.size
        tag, offset, length, crc = SECTION.unpack_from(data, at)
        SECTION.pack_into(data, at, tag, offset + 1, length, crc)
        rewrite_header_crc(data)
        expect_offset_error(tmp_path, bytes(data), "starts at")

    def test_section_overruns_file(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        at = HEADER.size + 4 * SECTION.size
        tag, offset, length, crc = SECTION.unpack_from(data, at)
        SECTION.pack_into(data, at, tag, offset, length + 1000, crc)
        rewrite_header_crc(data)
        expect_offset_error(tmp_path, bytes(data), "overruns the file")

    def test_section_checksum_mismatch(self, tmp_path):
        data = bytearray(encode_index(small_index()))
        data[-1] ^= 0xFF  # last payload byte; header crc is unaffected
        expect_offset_error(tmp_path, bytes(data), "checksum mismatch")

    def test_trailing_bytes_after_last_section(self, tmp_path):
        data = bytearray(encode_index(small_index()) + b"\x00" * 4)
        struct.pack_into("<Q", data, 16, len(data))
        rewrite_header_crc(data)
        expect_offset_error(
            tmp_path, bytes(data), "trailing bytes after the last section"
        )


class TestStringTableDefects:
    def test_over_length_string_entry(self, tmp_path):
        payloads = payloads_of(encode_index(small_index()))
        strt = bytearray(payloads[b"STRT"])
        # entry 0's length prefix sits right after the 8-byte count.
        struct.pack_into("<q", strt, 8, 10**9)
        payloads[b"STRT"] = bytes(strt)
        expect_offset_error(
            tmp_path, rebuild(payloads), "truncated string-table entry"
        )

    def test_negative_string_length(self, tmp_path):
        payloads = payloads_of(encode_index(small_index()))
        strt = bytearray(payloads[b"STRT"])
        struct.pack_into("<q", strt, 8, -5)
        payloads[b"STRT"] = bytes(strt)
        expect_offset_error(
            tmp_path, rebuild(payloads), "negative string-table entry length"
        )

    def test_invalid_utf8_entry(self, tmp_path):
        payloads = payloads_of(encode_index(small_index()))
        strt = bytearray(payloads[b"STRT"])
        length = I64.unpack_from(strt, 8)[0]
        strt[16 : 16 + length] = b"\xff" * length
        payloads[b"STRT"] = bytes(strt)
        expect_offset_error(tmp_path, rebuild(payloads), "not valid UTF-8")

    def test_trailing_bytes_inside_section(self, tmp_path):
        payloads = payloads_of(encode_index(small_index()))
        payloads[b"STRT"] += b"\x00" * 8
        expect_offset_error(
            tmp_path, rebuild(payloads), "trailing bytes in string table"
        )


class TestDocsDefects:
    def test_ref_out_of_range(self, tmp_path):
        payloads = payloads_of(encode_index(small_index()))
        docs = bytearray(payloads[b"DOCS"])
        struct.pack_into("<q", docs, 8, 10**6)
        payloads[b"DOCS"] = bytes(docs)
        expect_offset_error(tmp_path, rebuild(payloads), "out of range")

    def test_duplicate_document_id(self, tmp_path):
        payloads = payloads_of(encode_index(small_index()))
        docs = bytearray(payloads[b"DOCS"])
        docs[16:24] = docs[8:16]  # doc 1's ref := doc 0's ref
        payloads[b"DOCS"] = bytes(docs)
        expect_offset_error(
            tmp_path, rebuild(payloads), "duplicate document id"
        )

    def test_negative_document_count(self, tmp_path):
        payloads = payloads_of(encode_index(small_index()))
        docs = bytearray(payloads[b"DOCS"])
        struct.pack_into("<q", docs, 0, -1)
        payloads[b"DOCS"] = bytes(docs)
        expect_offset_error(
            tmp_path, rebuild(payloads), "negative document count"
        )


def one_term_index():
    """One doc, one field, one term — every PSTG byte at a known offset."""
    index = InvertedIndex(boosts={"content": 1.0})
    index.add_document("only-doc", {"content": ["solo"]})
    return index


class TestFieldAndPostingDefects:
    # PSTG layout of one_term_index():
    #   [0]  nfields=1   [8] field ref   [16] nterms=1   [24] term ref
    #   [32] n=1         [40] doc_num    [48] tf         [56] weight
    def test_duplicate_field(self, tmp_path):
        payloads = payloads_of(encode_index(small_index()))
        flds = bytearray(payloads[b"FLDS"])
        count = I64.unpack_from(flds, 0)[0]
        assert count >= 2
        # Field rows are variable-length; duplicating is easiest done by
        # pointing row 1's name ref at row 0's.  Row 0 starts at 8; its
        # layout is ref(8) boost(8) sparse(8) + arrays.  Recover row 1's
        # start by walking row 0.
        num_docs = I64.unpack_from(payloads[b"DOCS"], 0)[0]
        sparse0 = I64.unpack_from(flds, 8 + 16)[0]
        row1 = 8 + 24 + 16 * sparse0 + 8 * num_docs
        flds[row1 : row1 + 8] = flds[8:16]
        payloads[b"FLDS"] = bytes(flds)
        expect_offset_error(tmp_path, rebuild(payloads), "duplicate field")

    def test_length_doc_number_out_of_range(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        flds = bytearray(payloads[b"FLDS"])
        # one field, sparse=1: length doc-number array starts at 8+24.
        struct.pack_into("<q", flds, 32, 7)
        payloads[b"FLDS"] = bytes(flds)
        expect_offset_error(
            tmp_path, rebuild(payloads), "doc number .*out of range"
        )

    def test_negative_token_length(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        flds = bytearray(payloads[b"FLDS"])
        struct.pack_into("<q", flds, 40, -3)  # the length-values array
        payloads[b"FLDS"] = bytes(flds)
        expect_offset_error(
            tmp_path, rebuild(payloads), "negative token length"
        )

    def test_posting_field_count_mismatch(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        pstg = bytearray(payloads[b"PSTG"])
        struct.pack_into("<q", pstg, 0, 2)
        payloads[b"PSTG"] = bytes(pstg)
        expect_offset_error(
            tmp_path, rebuild(payloads), "posting section lists 2 fields"
        )

    def test_posting_field_order_mismatch(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        pstg = bytearray(payloads[b"PSTG"])
        term_ref = bytes(pstg[24:32])
        pstg[8:16] = term_ref  # field name ref := the term's ref
        payloads[b"PSTG"] = bytes(pstg)
        expect_offset_error(
            tmp_path, rebuild(payloads), "does not follow the field table"
        )

    def test_empty_posting_list(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        pstg = bytearray(payloads[b"PSTG"])
        struct.pack_into("<q", pstg, 32, 0)
        payloads[b"PSTG"] = bytes(pstg[:40])  # drop the 24 payload bytes
        expect_offset_error(
            tmp_path, rebuild(payloads), "empty posting list"
        )

    def test_negative_posting_length(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        pstg = bytearray(payloads[b"PSTG"])
        struct.pack_into("<q", pstg, 32, -4)
        payloads[b"PSTG"] = bytes(pstg)
        expect_offset_error(
            tmp_path, rebuild(payloads), "negative posting length"
        )

    def test_posting_doc_number_out_of_range(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        pstg = bytearray(payloads[b"PSTG"])
        struct.pack_into("<q", pstg, 40, 9)
        payloads[b"PSTG"] = bytes(pstg)
        expect_offset_error(
            tmp_path, rebuild(payloads), "doc .*number out of range"
        )

    def test_non_positive_term_frequency(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        pstg = bytearray(payloads[b"PSTG"])
        struct.pack_into("<q", pstg, 48, 0)
        payloads[b"PSTG"] = bytes(pstg)
        expect_offset_error(
            tmp_path, rebuild(payloads), "non-positive term frequency"
        )

    def test_duplicate_posting_term(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        pstg = bytearray(payloads[b"PSTG"])
        term_block = bytes(pstg[24:64])
        struct.pack_into("<q", pstg, 16, 2)
        payloads[b"PSTG"] = bytes(pstg) + term_block
        expect_offset_error(
            tmp_path, rebuild(payloads), "duplicate posting term"
        )


class TestDfDefects:
    # DFCT layout of one_term_index(): [0] count=1  [8] term ref  [16] df
    def test_zero_document_frequency(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        dfct = bytearray(payloads[b"DFCT"])
        struct.pack_into("<q", dfct, 16, 0)
        payloads[b"DFCT"] = bytes(dfct)
        expect_offset_error(
            tmp_path, rebuild(payloads), "zero document frequency"
        )

    def test_duplicate_df_entry(self, tmp_path):
        payloads = payloads_of(encode_index(one_term_index()))
        dfct = bytearray(payloads[b"DFCT"])
        entry = bytes(dfct[8:24])
        struct.pack_into("<q", dfct, 0, 2)
        payloads[b"DFCT"] = bytes(dfct) + entry
        expect_offset_error(
            tmp_path, rebuild(payloads), "duplicate df entry"
        )


class TestEncoderGuards:
    def test_encoder_renumbers_removed_documents(self, tmp_path):
        """Removed documents are skipped and the survivors renumbered:
        the snapshot is the one a build of the survivors writes."""
        index = InvertedIndex()
        index.add_document("a", {"content": ["x", "y"], "header": ["h"]})
        index.add_document("b", {"content": ["x"], "header": ["h", "h"]})
        index.add_document("c", {"content": ["y", "x"]})
        index.remove_document("a", {"content": ["x", "y"], "header": ["h"]})
        fresh = InvertedIndex()
        fresh.add_document("b", {"content": ["x"], "header": ["h", "h"]})
        fresh.add_document("c", {"content": ["y", "x"]})
        write_index_bin(tmp_path / "index.bin", index)
        decoded = read_index_bin(tmp_path / "index.bin")
        assert decoded._doc_names == ["b", "c"]
        for field in fresh.boosts:
            assert decoded._norms[field] == fresh._norms[field]
            assert decoded._lengths[field] == fresh._lengths[field]
        for term in ("x", "y", "h"):
            assert decoded.document_frequency(term) == (
                fresh.document_frequency(term)
            )
            for field in fresh.boosts:
                assert decoded.postings(field, term) == (
                    fresh.postings(field, term)
                )
        assert [(h.doc_id, h.score) for h in decoded.search(["x", "h"])] == [
            (h.doc_id, h.score) for h in fresh.search(["x", "h"])
        ]


# -- round trips and bit-identity ----------------------------------------------


class TestRoundTrip:
    def test_round_trip_restores_every_structure(self, tmp_path):
        index = small_index()
        path = tmp_path / "index.bin"
        nbytes, crc = write_index_bin(path, index)
        loaded = read_index_bin(path, expected_bytes=nbytes,
                                expected_crc32=crc)
        assert loaded._doc_names == index._doc_names
        assert loaded._doc_nums == index._doc_nums
        assert loaded._lengths == index._lengths
        assert loaded._norms == index._norms
        assert loaded._df == index._df
        assert loaded.boosts == index.boosts
        for field, postings in index._postings.items():
            got = loaded._postings[field]
            assert list(got) == list(postings)
            for term, plist in postings.items():
                assert got[term].doc_nums == plist.doc_nums
                assert got[term].tfs == plist.tfs
                assert got[term].weights == plist.weights

    def test_empty_index_round_trips(self, tmp_path):
        path = tmp_path / "index.bin"
        write_index_bin(path, InvertedIndex())
        loaded = read_index_bin(path)
        assert loaded.num_docs == 0
        assert loaded.boosts == {"header": 2.0, "context": 1.5,
                                 "content": 1.0}
        assert loaded.search(["anything"]) == []

    def test_field_with_no_postings_round_trips(self, tmp_path):
        # A boost field no document used serializes as a zero-sparse,
        # zero-term row and must come back intact.
        index = InvertedIndex(boosts={"header": 2.0, "content": 1.0})
        index.add_text_document("d1", {"content": "france euro"})
        path = tmp_path / "index.bin"
        write_index_bin(path, index)
        loaded = read_index_bin(path)
        assert loaded.boosts == {"header": 2.0, "content": 1.0}
        assert loaded._lengths["header"] == {}
        assert encode_index(loaded) == encode_index(index)

    def test_re_encode_is_byte_identical(self, tmp_path):
        path = tmp_path / "index.bin"
        write_index_bin(path, small_index())
        data = path.read_bytes()
        assert encode_index(read_index_bin(path)) == data

    def test_search_results_bit_identical(self, tmp_path):
        index = small_index()
        path = tmp_path / "index.bin"
        write_index_bin(path, index)
        loaded = read_index_bin(path)
        for terms in (["country"], ["france", "euro"], ["dog", "beagle"]):
            assert [
                (h.doc_id, h.score) for h in loaded.search(terms)
            ] == [(h.doc_id, h.score) for h in index.search(terms)]


class TestLazyShard:
    """``Shard.open``: a persisted shard decodes on first access only."""

    def make_corpus(self, tmp_path, num_shards=2):
        tables = list(iter_synthetic_tables(60, seed=11))
        build_corpus_index(tables, num_shards=num_shards,
                           save=tmp_path / "c")
        return tables, tmp_path / "c"

    def test_open_is_lazy_until_first_probe(self, tmp_path):
        tables, path = self.make_corpus(tmp_path)
        corpus = load_corpus(path)
        assert all(isinstance(s, Shard) for s in corpus.shards)
        assert not any(s.materialized for s in corpus.shards)
        # The cheap surfaces answer from the manifest alone.
        assert corpus.num_tables == len(tables)
        assert corpus.boosts == {"header": 2.0, "context": 1.5,
                                 "content": 1.0}
        assert not any(s.materialized for s in corpus.shards)
        corpus.search(["country"])
        assert all(s.materialized for s in corpus.shards)

    def test_routed_table_access_materializes_one_shard(self, tmp_path):
        tables, path = self.make_corpus(tmp_path)
        corpus = load_corpus(path)
        corpus.get_table(tables[0].table_id)
        assert sum(1 for s in corpus.shards if s.materialized) == 1

    def test_mutable_open_stays_lazy(self, tmp_path):
        _, path = self.make_corpus(tmp_path)
        corpus = load_corpus(path)
        extra = list(iter_synthetic_tables(1, seed=12, id_prefix="new-"))
        corpus.add_tables(extra)  # touches only the owning shard
        assert [s.materialized for s in corpus.shards] == [
            si == shard_of(extra[0].table_id, 2) for si in range(2)
        ]

    def test_corruption_surfaces_at_first_probe_not_open(self, tmp_path):
        tables, path = self.make_corpus(tmp_path)
        victim = path / "shard-0000" / "index.bin"
        victim.write_bytes(b"garbage")
        corpus = load_corpus(path)  # opens fine: lazy
        with pytest.raises(ValueError, match="index.bin"):
            corpus.search(["country"])

    def test_manifest_count_mismatch_rejected(self, tmp_path):
        _, path = self.make_corpus(tmp_path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][0]["num_tables"] += 1
        manifest["num_tables"] += 1
        manifest_path.write_text(json.dumps(manifest))
        corpus = load_corpus(path)
        with pytest.raises(ValueError, match="manifest records"):
            corpus.search(["country"])

    def test_manifest_boost_mismatch_rejected(self, tmp_path):
        _, path = self.make_corpus(tmp_path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["boosts"]["header"] = 9.0
        manifest_path.write_text(json.dumps(manifest))
        corpus = load_corpus(path)
        with pytest.raises(ValueError, match="boosts"):
            corpus.search(["country"])

    def test_store_index_count_mismatch_rejected(self, tmp_path):
        tables, path = self.make_corpus(tmp_path)
        extra = tables[0].to_dict()
        extra["table_id"] = "smuggled-row"
        with (path / "shard-0000" / "tables.jsonl").open("a") as fh:
            fh.write(json.dumps(extra) + "\n")
        corpus = load_corpus(path)
        with pytest.raises(ValueError, match="table store holds"):
            corpus.search(["country"])


# -- golden fixtures -----------------------------------------------------------


class TestGoldenFixture:
    def test_fresh_build_matches_committed_bytes(self, tmp_path):
        build_corpus_index(fixture_tables(), num_shards=2,
                           save=tmp_path / "c")
        for shard in ("shard-0000", "shard-0001"):
            fresh = (tmp_path / "c" / shard / "index.bin").read_bytes()
            golden = (V3_DIR / shard / "index.bin").read_bytes()
            assert fresh == golden, (
                f"{shard}: v3 byte layout drifted from the committed "
                "fixture — if the format change is intentional, bump the "
                "version and regenerate via tests/binfmt_fixture.py"
            )

    def test_loaded_fixture_re_encodes_identically(self):
        manifest = read_manifest(V3_DIR)
        for entry in manifest["shards"]:
            path = V3_DIR / entry["dir"] / "index.bin"
            golden = path.read_bytes()
            loaded = read_index_bin(
                path, expected_bytes=entry["index_bytes"],
                expected_crc32=entry["index_crc32"],
            )
            assert encode_index(loaded) == golden

    def test_fixture_loads_and_ranks_like_fresh_build(self):
        fresh = build_corpus_index(fixture_tables(), num_shards=2)
        corpus = load_corpus(V3_DIR)
        assert rankings(corpus) == rankings(fresh)

    def test_fixture_manifest_is_version_3(self):
        manifest = read_manifest(V3_DIR)
        assert manifest["version"] == 3
        for entry in manifest["shards"]:
            assert isinstance(entry["index_bytes"], int)
            assert isinstance(entry["index_crc32"], int)


class TestVerify:
    def test_verify_parses_each_shard_store_once(self, tmp_path, monkeypatch):
        """The store the table check parsed is the one the index
        cross-check reads; ``tables.jsonl`` is not parsed again."""
        from repro.index.scrub import verify_corpus
        from repro.index.store import TableStore

        build_corpus_index(fixture_tables(), num_shards=3, save=tmp_path / "c")
        real, loaded = TableStore.load.__func__, []

        def counting_load(cls, path):
            loaded.append(path.parent.name)
            return real(cls, path)

        monkeypatch.setattr(TableStore, "load", classmethod(counting_load))
        report = verify_corpus(tmp_path / "c")
        assert report.ok and report.shards_checked == 3
        assert sorted(loaded) == ["shard-0000", "shard-0001", "shard-0002"]


class TestCrossVersion:
    @staticmethod
    def v2_dir(tmp_path):
        """A copy of the v3 fixture whose manifest says version 2."""
        workdir = tmp_path / "v2"
        shutil.copytree(V3_DIR, workdir)
        manifest_path = workdir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 2
        manifest_path.write_text(json.dumps(manifest, indent=2))
        return workdir

    def test_v2_manifest_is_refused_with_the_rebuild_route(self, tmp_path):
        from repro.service import WWTService

        workdir = self.v2_dir(tmp_path)
        message = r"unsupported version 2 .*tables\.jsonl.*build_corpus_stream"
        for open_corpus in (
            load_corpus,
            ShardedCorpus.load,
            WWTService,
        ):
            with pytest.raises(ValueError, match=message):
                open_corpus(workdir)

    def test_v2_manifest_fails_info_and_verify_cleanly(self, tmp_path, capsys):
        workdir = self.v2_dir(tmp_path)
        assert cli_main(["index", "info", str(workdir)], out=io.StringIO()) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "version 2" in line
        out = io.StringIO()
        assert cli_main(
            ["index", "verify", str(workdir), "--json"], out=out
        ) == 1
        [issue] = json.loads(out.getvalue())["issues"]
        assert (issue["shard"], issue["kind"]) == ("", "manifest")
        assert "build_corpus_stream" in issue["message"]

    def test_legacy_directory_serves_mutates_and_compacts(self, tmp_path):
        """A v3 build whose manifest says ``kind: "monolithic"``, as the
        pre-one-backend writer did, serves, mutates and compacts."""
        workdir = tmp_path / "monolithic"
        build_corpus_index(fixture_tables(), num_shards=1, save=workdir)
        manifest = read_manifest(workdir)
        assert manifest["kind"] == "sharded"
        manifest["kind"] = "monolithic"
        (workdir / "manifest.json").write_text(json.dumps(manifest, indent=2))
        extra = list(iter_synthetic_tables(3, seed=9, id_prefix="live-"))
        with load_corpus(workdir) as corpus:
            assert type(corpus).__name__ == "ShardedCorpus"
            assert rankings(corpus) == rankings(
                build_corpus_index(fixture_tables())
            )
            assert corpus.add_tables(extra) == 3
            live = rankings(corpus)
            assert live == rankings(
                build_corpus_index(fixture_tables() + extra)
            )
            assert corpus.compact() == 3
        manifest = read_manifest(workdir)
        assert (manifest["version"], manifest["kind"]) == (3, "sharded")
        assert manifest["num_tables"] == 8
        assert rankings(load_corpus(workdir)) == live

    def test_monolithic_kind_with_several_shards_rejected(self, tmp_path):
        build_corpus_index(fixture_tables(), num_shards=2, save=tmp_path / "c")
        manifest_path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["kind"] = "monolithic"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="exactly one shard"):
            load_corpus(tmp_path / "c")
        manifest["kind"] = "federated"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown corpus kind"):
            load_corpus(tmp_path / "c")


# -- seeded round-trip fuzz ----------------------------------------------------


FUZZ_QUERIES = QUERIES + [["president"], ["explorer", "discovery"]]


class TestFuzzRoundTrip:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    @pytest.mark.parametrize("num_shards", [None, 2, 4])
    def test_v3_ranks_bit_identically_to_memory(
        self, tmp_path, seed, num_shards
    ):
        tables = list(iter_synthetic_tables(90, seed=seed))
        mem = build_corpus_index(
            tables, num_shards=num_shards, save=tmp_path / "c"
        )
        loaded = load_corpus(tmp_path / "c")
        assert rankings(loaded, FUZZ_QUERIES) == rankings(mem, FUZZ_QUERIES)

    @pytest.mark.parametrize("seed", [11, 22])
    def test_journal_churn_then_v3_round_trip(self, tmp_path, seed):
        tables = list(iter_synthetic_tables(80, seed=seed))
        extra = list(iter_synthetic_tables(20, seed=seed + 1,
                                           id_prefix="churn-"))
        save = tmp_path / "c"
        build_corpus_index(tables, num_shards=2, save=save)
        with load_corpus(save) as corpus:
            corpus.add_tables(extra)
            doomed = [t.table_id for t in tables[::7]]
            corpus.delete_tables(doomed)
            live = rankings(corpus, FUZZ_QUERIES)
            assert corpus.compact() > 0
        # The compacted v3 directory must reproduce the live rankings,
        # and so must the equivalent from-scratch in-memory build.
        reloaded = load_corpus(save)
        assert rankings(reloaded, FUZZ_QUERIES) == live
        survivors = [t for t in tables if t.table_id not in set(doomed)]
        rebuilt = build_corpus_index(survivors + extra, num_shards=2)
        assert rankings(rebuilt, FUZZ_QUERIES) == live

    def test_streamed_build_matches_memory_build(self, tmp_path):
        mem = build_corpus_index(list(iter_synthetic_tables(120, seed=5)),
                                 num_shards=3)
        build_corpus_stream(
            iter_synthetic_tables(120, seed=5), tmp_path / "c", num_shards=3
        )
        streamed = load_corpus(tmp_path / "c")
        assert rankings(streamed, FUZZ_QUERIES) == rankings(
            mem, FUZZ_QUERIES
        )
