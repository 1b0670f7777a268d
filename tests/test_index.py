"""Unit tests for the inverted index, table store, and corpus builder."""

import json

import pytest

from repro.index import InvertedIndex, TableStore, build_corpus_index
from repro.index.store import (
    TABLES_OFFSETS_FILE,
    read_offsets_sidecar,
    scan_line_offsets,
    write_offsets_sidecar,
)
from repro.tables.table import WebTable


def make_index():
    idx = InvertedIndex()
    idx.add_text_document(
        "d1", {"header": "name country", "context": "mountains list", "content": "denali usa"}
    )
    idx.add_text_document(
        "d2", {"header": "name height", "context": "mountains", "content": "logan canada"}
    )
    idx.add_text_document(
        "d3", {"header": "movie year", "context": "films", "content": "alien 1979"}
    )
    return idx


class TestInvertedIndex:
    def test_search_finds_matching_docs(self):
        # Search terms are pre-analyzed tokens (the analyzer stems plurals).
        hits = make_index().search(["mountain"])
        assert {h.doc_id for h in hits} == {"d1", "d2"}

    def test_search_ranks_by_score(self):
        hits = make_index().search(["mountains", "country"])
        assert hits[0].doc_id == "d1"  # matches in two fields

    def test_header_boost_beats_content(self):
        idx = InvertedIndex()
        idx.add_text_document("h", {"header": "winner", "context": "", "content": "x y"})
        idx.add_text_document("c", {"header": "a b", "context": "", "content": "winner"})
        hits = idx.search(["winner"])
        assert hits[0].doc_id == "h"

    def test_limit_respected(self):
        hits = make_index().search(["name"], limit=1)
        assert len(hits) == 1

    def test_duplicate_doc_id_rejected(self):
        idx = make_index()
        with pytest.raises(ValueError):
            idx.add_text_document("d1", {"header": "x"})

    def test_empty_index_search(self):
        assert InvertedIndex().search(["x"]) == []

    def test_document_frequency_across_fields(self):
        idx = make_index()
        assert idx.document_frequency("mountain") == 2
        assert idx.document_frequency("denali") == 1
        assert idx.document_frequency("absent") == 0

    def test_docs_containing_all_conjunctive(self):
        idx = make_index()
        assert idx.docs_containing_all(["name", "country"], ["header"]) == {"d1"}
        assert idx.docs_containing_all(["name"], ["header"]) == {"d1", "d2"}
        assert idx.docs_containing_all([], ["header"]) == set()
        assert idx.docs_containing_all(["name", "alien"], ["header"]) == set()

    def test_docs_containing_all_field_scoping(self):
        idx = make_index()
        assert idx.docs_containing_all(["denali"], ["header", "context"]) == set()
        assert idx.docs_containing_all(["denali"], ["content"]) == {"d1"}

    def test_term_statistics_export(self):
        stats = make_index().term_statistics()
        assert stats.num_docs == 3
        assert stats.document_frequency("mountain") == 2

    def test_deterministic_tie_break(self):
        idx = InvertedIndex()
        idx.add_text_document("b", {"header": "same", "context": "", "content": ""})
        idx.add_text_document("a", {"header": "same", "context": "", "content": ""})
        hits = idx.search(["same"])
        assert [h.doc_id for h in hits] == ["a", "b"]


@pytest.fixture(params=["memory", "file"])
def make_store(request, tmp_path):
    """Builds a store holding ``tables``: in memory, or opened from a file."""

    def make(tables):
        if request.param == "memory":
            return TableStore(tables)
        path = write_tables_file(tmp_path, tables, name="source.jsonl")
        return TableStore.open(path, [t.table_id for t in tables])

    return make


class TestTableStore:
    """The store contract, over an in-memory store and one opened from a
    file (rows parsed on first read)."""

    def test_add_get_roundtrip(self, tmp_path, make_store):
        t1 = WebTable.from_rows([["a", "1"]], header=["n", "v"], table_id="x1")
        t2 = WebTable.from_rows([["b", "2"]], header=["n", "v"], table_id="x2")
        store = make_store([t1, t2])
        assert len(store) == 2
        assert store.get("x1").column_values(0) == ["a"]

        path = tmp_path / "tables.jsonl"
        store.save(path)
        loaded = TableStore.load(path)
        assert len(loaded) == 2
        assert loaded.get("x2").column_values(1) == ["2"]

    def test_duplicate_id_rejected(self, make_store):
        t = WebTable.from_rows([["a"]], table_id="dup")
        store = make_store([t])
        with pytest.raises(ValueError):
            store.add(WebTable.from_rows([["b"]], table_id="dup"))

    def test_missing_id_rejected(self, make_store):
        store = make_store([WebTable.from_rows([["a"]], table_id="a")])
        with pytest.raises(ValueError):
            store.add(WebTable.from_rows([["b"]]))

    def test_get_many_preserves_order(self, make_store):
        tables = [
            WebTable.from_rows([[str(i)]], table_id=f"t{i}") for i in range(3)
        ]
        store = make_store(tables)
        got = store.get_many(["t2", "t0", "zz"])
        assert [t.table_id for t in got] == ["t2", "t0"]
        with pytest.raises(KeyError):
            store.get("zz")

    def test_rows_added_in_memory_follow_and_can_be_removed(self, make_store):
        store = make_store(lazy_fixture_tables(2))
        extra = WebTable.from_rows([["e"]], table_id="e1")
        store.add(extra)
        assert store.ids() == ["t0", "t1", "e1"] and len(store) == 3
        assert [t.table_id for t in store] == ["t0", "t1", "e1"]
        assert store.remove("e1") is extra
        assert "e1" not in store and store.ids() == ["t0", "t1"]
        with pytest.raises(KeyError):
            store.remove("e1")

    def test_save_load_preserves_insertion_order(self, tmp_path):
        # Deliberately non-sorted ids: order must come from insertion, not
        # from any sorting in the persistence layer.
        ids = ["z9", "a1", "m5", "b2"]
        store = TableStore(
            WebTable.from_rows([["x"]], table_id=i) for i in ids
        )
        path = tmp_path / "ordered.jsonl"
        store.save(path)
        assert TableStore.load(path).ids() == ids

    def test_load_rejects_duplicate_id_with_line_number(self, tmp_path):
        line = json.dumps(
            WebTable.from_rows([["a"]], table_id="dup").to_dict()
        )
        path = tmp_path / "dup.jsonl"
        path.write_text(line + "\n\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"dup\.jsonl:3: duplicate table id 'dup'"):
            TableStore.load(path)

    def test_load_rejects_corrupt_json_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: invalid table JSON"):
            TableStore.load(path)


def lazy_fixture_tables(n=4):
    return [
        WebTable.from_rows(
            [[f"val{i}", str(i)]], header=["name", "rank"], table_id=f"t{i}"
        )
        for i in range(n)
    ]


def write_tables_file(tmp_path, tables, name="tables.jsonl"):
    path = tmp_path / name
    TableStore(tables).save(path)
    return path


class TestOffsetsSidecar:
    def test_sidecar_round_trips_the_scan(self, tmp_path):
        path = write_tables_file(tmp_path, lazy_fixture_tables())
        scanned = scan_line_offsets(path)
        sidecar = write_offsets_sidecar(path, scanned)
        assert sidecar == tmp_path / TABLES_OFFSETS_FILE
        loaded = read_offsets_sidecar(
            sidecar, expected_rows=4, data_size=path.stat().st_size
        )
        assert loaded == scanned

    def test_scan_skips_blank_lines(self, tmp_path):
        path = write_tables_file(tmp_path, lazy_fixture_tables(2))
        raw = path.read_bytes()
        first, second = raw.splitlines(keepends=True)
        path.write_bytes(first + b"\n\n" + second)
        offsets = scan_line_offsets(path)
        assert len(offsets) == 3  # two rows + end mark, blanks ignored
        data = path.read_bytes()
        assert data[offsets[1]:offsets[2]].strip() == second.strip()

    def test_scan_of_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        assert scan_line_offsets(path) == [0]

    def test_missing_sidecar_means_scan_instead(self, tmp_path):
        assert read_offsets_sidecar(tmp_path / "nope", 1, 10) is None

    def test_corrupt_sidecar_is_rejected(self, tmp_path):
        path = write_tables_file(tmp_path, lazy_fixture_tables())
        sidecar = write_offsets_sidecar(path, scan_line_offsets(path))
        size = path.stat().st_size
        good = sidecar.read_bytes()

        flipped = bytearray(good)
        flipped[-6] ^= 0xFF  # corrupt an offset byte: CRC must catch it
        sidecar.write_bytes(bytes(flipped))
        assert read_offsets_sidecar(sidecar, 4, size) is None

        sidecar.write_bytes(good[: len(good) // 2])  # truncated
        assert read_offsets_sidecar(sidecar, 4, size) is None

        sidecar.write_bytes(b"XXXX\x00\x01" + good[6:])  # wrong magic
        assert read_offsets_sidecar(sidecar, 4, size) is None

    def test_stale_sidecar_is_rejected(self, tmp_path):
        path = write_tables_file(tmp_path, lazy_fixture_tables())
        sidecar = write_offsets_sidecar(path, scan_line_offsets(path))
        size = path.stat().st_size
        # Row-count disagreement (index snapshot grew).
        assert read_offsets_sidecar(sidecar, 5, size) is None
        # Data-size disagreement (tables file was rewritten).
        assert read_offsets_sidecar(sidecar, 4, size + 1) is None


class TestLazyTableStore:
    """``TableStore.open``: rows of the backing file parse on first read."""

    def open_lazy(self, tmp_path, tables=None, sidecar=True):
        tables = lazy_fixture_tables() if tables is None else tables
        path = write_tables_file(tmp_path, tables)
        if sidecar:
            write_offsets_sidecar(path, scan_line_offsets(path))
        return TableStore.open(path, [t.table_id for t in tables]), path

    def test_open_get_matches_eager(self, tmp_path):
        tables = lazy_fixture_tables()
        store, _ = self.open_lazy(tmp_path, tables)
        assert len(store) == len(tables)
        assert store.ids() == [t.table_id for t in tables]
        for t in tables:
            assert store.get(t.table_id).to_dict() == t.to_dict()
        store.close()

    def test_rows_parse_lazily_and_cache(self, tmp_path):
        store, _ = self.open_lazy(tmp_path)
        assert store._parsed == {}  # nothing parsed at open
        first = store.get("t2")
        assert set(store._parsed) == {"t2"}  # only the touched row
        assert store.get("t2") is first  # cached, not re-parsed
        store.close()

    def test_open_without_sidecar_scans(self, tmp_path):
        store, path = self.open_lazy(tmp_path, sidecar=False)
        assert not (path.parent / TABLES_OFFSETS_FILE).exists()
        assert store.get("t0").column_values(0) == ["val0"]
        store.close()

    def test_corrupt_sidecar_falls_back_to_scan(self, tmp_path):
        tables = lazy_fixture_tables()
        path = write_tables_file(tmp_path, tables)
        (path.parent / TABLES_OFFSETS_FILE).write_bytes(b"garbage")
        store = TableStore.open(path, [t.table_id for t in tables])
        assert [t.table_id for t in store] == [t.table_id for t in tables]
        store.close()

    def test_row_count_mismatch_rejected_at_open(self, tmp_path):
        tables = lazy_fixture_tables()
        path = write_tables_file(tmp_path, tables)
        with pytest.raises(ValueError, match="table store holds"):
            TableStore.open(path, [t.table_id for t in tables] + ["t9"])

    def test_duplicate_row_ids_rejected_at_open(self, tmp_path):
        path = write_tables_file(tmp_path, lazy_fixture_tables(2))
        with pytest.raises(ValueError, match="duplicate table ids"):
            TableStore.open(path, ["t0", "t0"])

    def test_id_mismatch_surfaces_at_first_read(self, tmp_path):
        tables = lazy_fixture_tables(2)
        path = write_tables_file(tmp_path, tables)
        store = TableStore.open(path, ["t0", "WRONG"])
        assert store.get("t0").table_id == "t0"  # the honest row is fine
        with pytest.raises(ValueError, match=r":2: row holds table id 't1'"):
            store.get("WRONG")
        store.close()

    def test_mutation_surface(self, tmp_path):
        store, _ = self.open_lazy(tmp_path)
        with pytest.raises(ValueError, match="duplicate table id 't1'"):
            store.add(WebTable.from_rows([["x"]], table_id="t1"))

        extra = WebTable.from_rows([["e"]], table_id="e1")
        store.add(extra)
        assert "e1" in store and len(store) == 5
        assert store.ids() == ["t0", "t1", "t2", "t3", "e1"]

        # A file row is removed like an added one: gone from every read
        # and from the next save, the backing file itself untouched.
        assert store.remove("t1").table_id == "t1"
        assert "t1" not in store and len(store) == 4
        assert store.ids() == ["t0", "t2", "t3", "e1"]
        assert [t.table_id for t in store] == store.ids()
        with pytest.raises(KeyError):
            store.remove("t1")
        assert store.remove("e1") is extra
        out = tmp_path / "saved.jsonl"
        store.save(out)
        assert TableStore.load(out).ids() == ["t0", "t2", "t3"]
        store.close()

    def test_get_many_preserves_order_skips_unknown(self, tmp_path):
        store, _ = self.open_lazy(tmp_path)
        got = store.get_many(["t3", "t0", "zz"])
        assert [t.table_id for t in got] == ["t3", "t0"]
        store.close()

    def test_save_is_byte_identical_to_source(self, tmp_path):
        store, path = self.open_lazy(tmp_path)
        out = tmp_path / "copy.jsonl"
        store.save(out)
        assert out.read_bytes() == path.read_bytes()
        store.close()

    def test_save_over_own_backing_file_is_safe(self, tmp_path):
        store, path = self.open_lazy(tmp_path)
        store.add(WebTable.from_rows([["e"]], table_id="e1"))
        store.save(path)  # bytes gathered before the target opens
        store.close()
        reloaded = TableStore.load(path)
        assert reloaded.ids() == ["t0", "t1", "t2", "t3", "e1"]

    def test_close_is_idempotent_and_keeps_parsed_rows(self, tmp_path):
        store, _ = self.open_lazy(tmp_path)
        cached = store.get("t0")
        store.close()
        store.close()
        assert store.get("t0") is cached  # cache survives the mmap


class TestBuildCorpusIndex:
    def test_build_and_search(self):
        tables = [
            WebTable.from_rows(
                [["Denali", "6190"]], header=["Mountain", "Height"], table_id="m1"
            ),
            WebTable.from_rows(
                [["Alien", "1979"]], header=["Movie", "Year"], table_id="f1"
            ),
        ]
        corpus = build_corpus_index(tables)
        assert corpus.num_tables == 2
        hits = corpus.search(["mountain"])
        assert [h.doc_id for h in hits] == ["m1"]
        assert corpus.stats.num_docs == 2
        assert corpus.get_table("m1").column_values(0) == ["Denali"]
