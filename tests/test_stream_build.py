"""Contracts of the streaming corpus build (``build_corpus_stream``).

The stream build analyzes each table once, in pass 1, and indexes pass 2
from a per-shard token spill instead of re-parsing the rows it wrote.
These tests pin what that must not change: the directory's bytes (a
golden digest, and file-for-file equality with the in-memory save), the
``tables.jsonl:<line>`` duplicate-id error and the untouched corpus it
leaves, the equality of a table's analysis before and after its JSON row
round trip (what the dropped re-parse used to give implicitly), and that
no row is parsed back at all.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import iter_synthetic_tables
from repro.index import (
    TableStore,
    analyze_table,
    build_corpus_index,
    build_corpus_stream,
    load_corpus,
    shard_of,
)
from repro.index.store import (
    TABLES_OFFSETS_FILE,
    scan_line_offsets,
    write_offsets_sidecar,
)
from repro.tables.table import (
    Cell,
    ContextSnippet,
    WebTable,
    shared_cell_format,
)

#: sha256 of :func:`dir_digest` over ``iter_synthetic_tables(300, seed=5)``
#: streamed into 3 shards, recorded from the build that re-parsed every
#: row in pass 2 (the bytes must not move when the parse goes away).
GOLDEN_300_SHA256 = (
    "e4c3e49b4ece8bfdd95285271180ff51585ac6efca31ae37f28656bd043f9cd7"
)

QUERIES = [
    ["country", "currency"],
    ["dog", "breed"],
    ["height", "city"],
    ["president"],
    ["explorer", "discovery"],
]


def dir_files(path):
    """``{relative posix path: bytes}`` of every file under ``path``."""
    return {
        p.relative_to(path).as_posix(): p.read_bytes()
        for p in path.rglob("*") if p.is_file()
    }


def dir_digest(path):
    """sha256 over each file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    files = dir_files(path)
    for name in sorted(files):
        h.update(name.encode())
        h.update(b"\0")
        h.update(files[name])
    return h.hexdigest()


def rankings(corpus):
    return [
        [(h.doc_id, h.score) for h in corpus.search(q, limit=25)]
        for q in QUERIES
    ]


# -- hostile tables ---------------------------------------------------------------

#: Text a crawl can hand the extractor: control characters, the JSON-legal
#: line separators U+2028/U+2029 a naive line splitter breaks on, a BOM,
#: non-ASCII letters, and whitespace runs (whitespace-only cells are empty).
HOSTILE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(list(
            "aZ9 \t\r\n\x00\x1f\x7f\x85\u2028\u2029\ufeff\u00e9\u65e5s"
        )),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=10,
)

#: Context scores, NaN and infinities included.
SCORES = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def hostile_tables(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 3))
    grid = [
        [
            Cell(draw(HOSTILE_TEXT), shared_cell_format(
                is_th=draw(st.booleans()), css_class=draw(HOSTILE_TEXT),
            ))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    num_title = draw(st.integers(0, rows))
    num_header = draw(st.integers(0, rows - num_title))
    context = [
        ContextSnippet(draw(HOSTILE_TEXT), draw(SCORES))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return WebTable(
        grid, num_title_rows=num_title, num_header_rows=num_header,
        context=context, url=draw(HOSTILE_TEXT),
        table_id="h-" + draw(HOSTILE_TEXT), page_title=draw(HOSTILE_TEXT),
    )


def round_trip(table):
    """The table as a reader of its ``tables.jsonl`` row gets it back."""
    row = json.dumps(table.to_dict(), ensure_ascii=False).encode("utf-8")
    return WebTable.from_dict(json.loads(row.decode("utf-8")))


class TestAnalysisSurvivesTheRowRoundTrip:
    """Pass 1 analyzes the table in hand; readers analyze the parsed row."""

    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(hostile_tables())
    def test_hostile_tables(self, table):
        assert analyze_table(round_trip(table)) == analyze_table(table)

    def test_generated_tables(self):
        for table in iter_synthetic_tables(200, seed=17):
            assert analyze_table(round_trip(table)) == analyze_table(table)

    def test_nan_scores_and_line_separators_survive(self):
        table = WebTable(
            [[Cell("a\u2028b"), Cell("  \t ")], [Cell("x\x00y"), Cell("z")]],
            num_header_rows=1,
            context=[ContextSnippet("ctx\u2029text", math.nan)],
            table_id="nan-1",
        )
        parsed = round_trip(table)
        assert math.isnan(parsed.context[0].score)
        assert analyze_table(parsed) == analyze_table(table)


# -- the streamed directory -------------------------------------------------------


class TestStreamedDirectory:
    def test_golden_digest(self, tmp_path):
        out = build_corpus_stream(
            iter_synthetic_tables(300, seed=5), tmp_path / "c", num_shards=3
        )
        assert dir_digest(out) == GOLDEN_300_SHA256

    def test_equals_the_in_memory_save_but_for_stats_order(self, tmp_path):
        tables = list(iter_synthetic_tables(300, seed=5))
        streamed = build_corpus_stream(
            iter(tables), tmp_path / "s", num_shards=3
        )
        mem = build_corpus_index(tables, num_shards=3, save=tmp_path / "m")
        a, b = dir_files(streamed), dir_files(tmp_path / "m")
        assert sorted(a) == sorted(b)
        for name in a:
            if name != "stats.json":
                assert a[name] == b[name], name
        # Document frequencies fold in a different order; the counts agree.
        assert json.loads(a["stats.json"]) == json.loads(b["stats.json"])
        assert rankings(load_corpus(streamed)) == rankings(mem)

    def test_no_row_is_parsed_back(self, tmp_path, monkeypatch):
        def reparse(*args, **kwargs):
            raise AssertionError("the stream build re-parsed a row")

        monkeypatch.setattr(WebTable, "from_dict", reparse)
        monkeypatch.setattr(TableStore, "load", reparse)
        out = build_corpus_stream(
            iter_synthetic_tables(300, seed=5), tmp_path / "c", num_shards=3
        )
        monkeypatch.undo()
        assert dir_digest(out) == GOLDEN_300_SHA256

    def test_empty_shards_and_no_spill_left_behind(self, tmp_path):
        out = build_corpus_stream(
            iter_synthetic_tables(3, seed=1), tmp_path / "c", num_shards=8
        )
        names = dir_files(out)
        assert not [n for n in names if n.endswith(".spill")]
        assert load_corpus(out).num_tables == 3


class TestStreamedBuildFailures:
    def existing_corpus(self, tmp_path):
        save = tmp_path / "corpus"
        build_corpus_stream(iter_synthetic_tables(30, seed=2), save,
                            num_shards=2)
        return save, dir_files(save)

    def test_duplicate_id_names_its_line_and_keeps_the_old_corpus(
        self, tmp_path
    ):
        save, before = self.existing_corpus(tmp_path)
        tables = list(iter_synthetic_tables(10, seed=3))
        dup = tables[4]
        stream = tables + [dup]
        # Equal ids share a shard; the repeat is that shard's last row.
        shard = shard_of(dup.table_id, 3)
        line = sum(1 for t in stream if shard_of(t.table_id, 3) == shard)
        with pytest.raises(
            ValueError,
            match=rf"\.corpus\.saving/shard-{shard:04d}/tables\.jsonl:{line}: "
                  rf"duplicate table id '{dup.table_id}'",
        ):
            build_corpus_stream(iter(stream), save, num_shards=3)
        assert dir_files(save) == before
        assert not list(save.rglob("*.spill"))
        assert not list(save.rglob("*.saving"))

    def test_empty_table_id_is_refused(self, tmp_path):
        anonymous = WebTable.from_rows([["a"]], header=["h"])
        with pytest.raises(ValueError, match="must have a table_id"):
            build_corpus_stream([anonymous], tmp_path / "c")


class TestOffsetsFromTheWriter:
    """A writer's counted offsets make the same sidecar as a scan."""

    def test_non_ascii_and_line_separator_rows(self, tmp_path):
        tables = [
            WebTable.from_rows([["São Paulo", "日本"]],
                               header=["city", "country"], table_id="u1"),
            WebTable.from_rows([["a\u2028b", "c\u0085d"]],
                               header=["x\u2028y", "z\u2029"], table_id="u2"),
            WebTable.from_rows([["é"]], table_id="u3"),
        ]
        path = tmp_path / "tables.jsonl"
        offsets = TableStore(tables).save(path)
        assert offsets == scan_line_offsets(path)
        counted = write_offsets_sidecar(path, offsets, tmp_path / "counted")
        scanned = write_offsets_sidecar(
            path, scan_line_offsets(path), tmp_path / "scanned"
        )
        assert counted.read_bytes() == scanned.read_bytes()

    def test_streamed_shard_sidecars_match_a_scan(self, tmp_path):
        tables = [
            WebTable.from_rows([[f"r\u2028{i}", "ü"]], header=["k"],
                               table_id=f"s{i}")
            for i in range(12)
        ]
        # 16 shards for 12 tables: empty shards' sidecars are checked too.
        out = build_corpus_stream(tables, tmp_path / "c", num_shards=16)
        assert any(
            (d / "tables.jsonl").stat().st_size == 0
            for d in out.glob("shard-*")
        )
        for shard in sorted(out.glob("shard-*")):
            fresh = tmp_path / f"{shard.name}.offsets"
            rows = shard / "tables.jsonl"
            write_offsets_sidecar(rows, scan_line_offsets(rows), fresh)
            assert (shard / TABLES_OFFSETS_FILE).read_bytes() == (
                fresh.read_bytes()
            )

    def test_save_of_a_file_with_blank_lines(self, tmp_path):
        # Copied file rows keep the blank lines after them; the counted
        # offsets still land on the starts of the non-empty lines.
        tables = [WebTable.from_rows([[f"v{i}"]], table_id=f"b{i}")
                  for i in range(3)]
        src = tmp_path / "src.jsonl"
        TableStore(tables).save(src)
        first, *rest = src.read_bytes().splitlines(keepends=True)
        src.write_bytes(b"\n" + first + b"\n  \n" + b"".join(rest) + b" ")
        store = TableStore.open(src, [t.table_id for t in tables])
        store.add(WebTable.from_rows([["\u2028"]], table_id="added"))
        out = tmp_path / "out.jsonl"
        offsets = store.save(out)
        store.close()
        assert offsets == scan_line_offsets(out)
        assert TableStore.load(out).ids() == ["b0", "b1", "b2", "added"]
