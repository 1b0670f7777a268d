"""Tests for live corpus mutation and ``repro.index.journal``: journaled
adds and deletes, crash recovery, ranking equivalence against full
rebuilds, and the no-reindex guarantee.  ``tests/test_mutation_model.py``
checks generated mutation histories against a rebuild oracle."""

import json
import shutil
from pathlib import Path

import pytest

from repro.index import (
    InvertedIndex,
    build_corpus_index,
    build_sharded_corpus,
    load_corpus,
)
from repro.index.builder import JOURNAL_FILE, read_manifest
from repro.index.journal import append_records, read_journal
from repro.pipeline.probe import ProbeConfig, two_stage_probe
from repro.query.workload import WORKLOAD
from repro.service import WWTService
from repro.tables.table import WebTable


def make_tables(n=12, prefix="t", start=0):
    return [
        WebTable.from_rows(
            [[f"val{i}a", f"{i}"], [f"val{i}b", f"{i + 1}"]],
            header=["name", "rank"],
            table_id=f"{prefix}{i}",
        )
        for i in range(start, start + n)
    ]


@pytest.fixture(scope="module")
def corpus_tables(small_env):
    """The small shared environment's extracted tables, in index order."""
    return list(small_env.synthetic.corpus)


def built_dir(tmp_path, tables, num_shards=None, name="c"):
    """Build + persist, then reload the journal-aware way."""
    build_corpus_index(tables, num_shards=num_shards, save=tmp_path / name)
    return load_corpus(tmp_path / name)


def hits_of(corpus, terms, limit=60):
    return [(h.doc_id, round(h.score, 9)) for h in corpus.search(terms, limit=limit)]


class TestMutation:
    def test_added_tables_visible_immediately(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(8), num_shards=2)
        new = make_tables(2, prefix="new", start=0)
        assert corpus.add_tables(new) == 2
        assert corpus.num_tables == 10
        assert "new0" in corpus
        assert corpus.get_table("new1").table_id == "new1"
        assert {h.doc_id for h in corpus.search(["name"], limit=20)} >= {
            "new0", "new1"
        }
        assert "new0" in corpus.docs_containing_all(["name"], ["header"])

    def test_deleted_tables_invisible_immediately(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(8), num_shards=2)
        corpus.delete_tables(["t3"])
        assert corpus.num_tables == 7
        assert "t3" not in corpus
        assert "t3" not in {h.doc_id for h in corpus.search(["name"], limit=20)}
        assert "t3" not in corpus.docs_containing_all(["name"], ["header"])
        assert corpus.get_many(["t3", "t4"]) == [corpus.get_table("t4")]
        with pytest.raises(KeyError):
            corpus.get_table("t3")

    def test_duplicate_and_unknown_ids_rejected_atomically(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(4))
        with pytest.raises(ValueError, match="already in corpus"):
            corpus.add_tables(make_tables(1, prefix="t"))
        with pytest.raises(ValueError, match="in batch"):
            corpus.add_tables(
                make_tables(1, prefix="x") + make_tables(1, prefix="x")
            )
        with pytest.raises(KeyError):
            corpus.delete_tables(["t0", "nope"])
        # Failed batches must leave no partial state and no journal records.
        assert corpus.num_tables == 4
        assert "t0" in corpus
        assert corpus.journal_depth == 0

    def test_delete_then_readd_same_id(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(4), num_shards=2)
        replacement = WebTable.from_rows(
            [["fresh", "1"]], header=["name", "rank"], table_id="t2"
        )
        corpus.delete_tables(["t2"])
        corpus.add_tables([replacement])
        assert corpus.num_tables == 4
        assert corpus.get_table("t2").body_cell(0, 0).text == "fresh"
        reloaded = load_corpus(tmp_path / "c")
        assert reloaded.get_table("t2").body_cell(0, 0).text == "fresh"

    def test_ephemeral_journal_without_path(self, corpus_tables):
        """An in-memory corpus mutates in place and journals nothing."""
        corpus = build_sharded_corpus(corpus_tables[:-2], 2)
        corpus.add_tables(corpus_tables[-2:])
        assert corpus.num_tables == len(corpus_tables)
        assert corpus.journal_depth == 2
        assert corpus.compact() == 2
        assert corpus.journal_depth == 0
        assert sorted(corpus.ids()) == sorted(
            t.table_id for t in corpus_tables
        )


class TestExportAndConcurrency:
    def test_save_exports_live_state_without_touching_journal(
        self, tmp_path
    ):
        """`save` must never drop journaled mutations (it folds a copy)."""
        corpus = built_dir(tmp_path, make_tables(10), num_shards=2)
        corpus.add_tables(make_tables(3, prefix="new"))
        corpus.delete_tables(["t1"])
        exported = corpus.save(tmp_path / "export")
        copy = load_corpus(exported)
        assert sorted(copy.ids()) == sorted(corpus.ids())
        assert copy.journal_depth == 0  # folded: nothing left to replay
        assert hits_of(copy, ["name"]) == hits_of(corpus, ["name"])
        # The source instance is untouched: same journal, same live state.
        assert corpus.journal_depth == 4
        assert corpus.num_tables == 12
        assert load_corpus(tmp_path / "c").journal_depth == 4

    def test_failed_append_rolls_back_cleanly(self, tmp_path, monkeypatch):
        """A mid-batch WAL failure must leave memory AND disk unchanged."""
        from repro.index import sharded as journal_mod

        corpus = built_dir(tmp_path, make_tables(12), num_shards=4)
        state_before = sorted(corpus.ids())
        calls = {"n": 0}
        original = journal_mod.append_records

        def flaky(path, records):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("disk full")
            return original(path, records)

        monkeypatch.setattr(journal_mod, "append_records", flaky)
        batch = make_tables(8, prefix="new")  # spans several shards
        with pytest.raises(OSError):
            corpus.add_tables(batch)
        monkeypatch.setattr(journal_mod, "append_records", original)
        assert sorted(corpus.ids()) == state_before
        assert corpus.journal_depth == 0
        assert load_corpus(tmp_path / "c").num_tables == 12  # no resurrection
        # The journal stays usable after the rollback.
        corpus.add_tables(batch)
        assert load_corpus(tmp_path / "c").num_tables == 20

    def test_probes_concurrent_with_mutations(self, tmp_path):
        """Probes racing adds/deletes/compaction: no torn reads, no dups,
        and every probe sees one corpus state (its hits are as many as
        the tables holding the term, which every table does)."""
        import sys
        import threading

        corpus = built_dir(tmp_path, make_tables(30), num_shards=4)
        corpus.add_tables(make_tables(5, prefix="seed"))  # start dirty
        errors = []
        stop = threading.Event()

        def prober():
            try:
                while not stop.is_set():
                    hits = corpus.search(["name"], limit=1000)
                    ids = [h.doc_id for h in hits]
                    assert len(ids) == len(set(ids)), "duplicate hits"
                    assert len(ids) in counts, "a torn corpus state"
                    corpus.docs_containing_all(["name"], ["header"])
                    corpus.get_many(ids)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        counts = {corpus.num_tables}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=prober) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(12):
                counts.add(corpus.num_tables + 3)
                corpus.add_tables(make_tables(3, prefix=f"w{i}_"))
                if i % 4 == 3:
                    counts.add(corpus.num_tables - 1)
                    corpus.delete_tables([f"w{i}_0"])
                    corpus.compact()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:1]

    def test_export_keeps_index_and_store_row_order(self, tmp_path):
        """Regression: the export copied an add-only shard's index through
        a dict snapshot that renumbered documents in sorted-id order while
        the copied store kept insertion order, so the exported directory
        failed its lazy open as soon as a table was read."""
        unsorted = [make_tables(1, start=i)[0] for i in (3, 1, 2)]
        corpus = built_dir(tmp_path, unsorted, num_shards=1)
        corpus.add_tables(make_tables(1, prefix="a"))
        copy = load_corpus(corpus.save(tmp_path / "export"))
        assert copy.ids() == ["t3", "t1", "t2", "a0"]
        assert [t.table_id for t in copy.get_many(copy.ids())] == copy.ids()
        assert hits_of(copy, ["name"]) == hits_of(corpus, ["name"])
        # The export left the source directory's journal pending.
        assert load_corpus(tmp_path / "c").ids() == copy.ids()
        assert corpus.journal_depth == 1


class TestRankingEquivalence:
    """A journaled corpus must answer exactly like a full rebuild —
    acceptance regimes (a) non-empty journal and (b) post-compaction."""

    @pytest.fixture(scope="class")
    def split(self, corpus_tables):
        """(kept_base, added, deleted_ids, live_tables)."""
        base = corpus_tables[:-6]
        added = corpus_tables[-6:]
        deleted = [base[3].table_id, base[17].table_id]
        live = [t for t in base if t.table_id not in deleted] + added
        return base, added, deleted, live

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_journaled_matches_rebuild_full_workload(
        self, tmp_path, split, k
    ):
        base, added, deleted, live = split
        build_corpus_index(base, num_shards=k, save=tmp_path / f"c{k}")
        corpus = load_corpus(tmp_path / f"c{k}")
        corpus.add_tables(added)
        corpus.delete_tables(deleted)
        assert corpus.journal_depth == len(added) + len(deleted)
        rebuilt = build_sharded_corpus(live, k)
        for wq in WORKLOAD:
            tokens = wq.query.all_tokens()
            assert hits_of(corpus, tokens) == hits_of(rebuilt, tokens), (
                wq.query_id
            )
        assert corpus.stats.to_dict() == rebuilt.stats.to_dict()
        corpus.close()

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_compacted_matches_fresh_build_full_workload(
        self, tmp_path, split, k
    ):
        base, added, deleted, live = split
        build_corpus_index(base, num_shards=k, save=tmp_path / f"c{k}")
        corpus = load_corpus(tmp_path / f"c{k}")
        corpus.add_tables(added)
        corpus.delete_tables(deleted)
        assert corpus.compact() == len(added) + len(deleted)
        assert corpus.journal_depth == 0
        fresh = build_sharded_corpus(live, k)
        reloaded = load_corpus(tmp_path / f"c{k}")
        for wq in WORKLOAD:
            tokens = wq.query.all_tokens()
            expected = hits_of(fresh, tokens)
            assert hits_of(corpus, tokens) == expected, wq.query_id
            assert hits_of(reloaded, tokens) == expected, wq.query_id
        assert corpus.stats.to_dict() == fresh.stats.to_dict()
        corpus.close()
        reloaded.close()

    def test_two_stage_probe_matches_rebuild(self, tmp_path, split):
        base, added, deleted, live = split
        build_corpus_index(base, num_shards=2, save=tmp_path / "c")
        corpus = load_corpus(tmp_path / "c")
        corpus.add_tables(added)
        corpus.delete_tables(deleted)
        rebuilt = build_sharded_corpus(live, 2)
        config = ProbeConfig(seed=9)
        for wq in WORKLOAD[:8]:
            a = two_stage_probe(wq.query, corpus, config)
            b = two_stage_probe(wq.query, rebuilt, config)
            assert a.stage1_ids == b.stage1_ids, wq.query_id
            assert a.stage2_ids == b.stage2_ids, wq.query_id
            assert [t.table_id for t in a.tables] == [
                t.table_id for t in b.tables
            ]
        corpus.close()

    def test_untouched_corpus_stats_identity(self, tmp_path):
        """One statistics object per vintage: repeated reads return the
        same object, the first read after a mutation a new one."""
        corpus = built_dir(tmp_path, make_tables(6), num_shards=2)
        first = corpus.stats
        assert corpus.stats is first
        corpus.search(["name"])
        assert corpus.stats is first
        corpus.add_tables(make_tables(1, prefix="new"))
        second = corpus.stats
        assert second is not first and corpus.stats is second
        assert first.num_docs == 6 and second.num_docs == 7


class TestCrashRecovery:
    def test_torn_final_append_is_dropped(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(8), num_shards=1)
        corpus.add_tables(make_tables(2, prefix="new"))
        journal = tmp_path / "c" / "shard-0000" / JOURNAL_FILE
        lines = journal.read_text().splitlines()
        torn = "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
        journal.write_text(torn + "\n")  # no trailing newline mid-record
        recovered = load_corpus(tmp_path / "c")
        assert recovered.num_tables == 9  # the torn add never committed
        assert "new0" in recovered and "new1" not in recovered
        # The journal stays writable: the torn seq is reused by the next add.
        recovered.add_tables(make_tables(1, prefix="again"))
        assert load_corpus(tmp_path / "c").num_tables == 10

    def test_corrupt_middle_record_names_path_and_line(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(4), num_shards=1)
        corpus.add_tables(make_tables(2, prefix="new"))
        journal = tmp_path / "c" / "shard-0000" / JOURNAL_FILE
        lines = journal.read_text().splitlines()
        lines[0] = lines[0][:10]  # corrupt a NON-final record
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"journal\.jsonl:1"):
            load_corpus(tmp_path / "c")

    def test_backwards_sequence_rejected(self, tmp_path):
        built_dir(tmp_path, make_tables(2), num_shards=1)
        journal = tmp_path / "c" / "shard-0000" / JOURNAL_FILE
        append_records(journal, [
            {"seq": 5, "op": "delete", "table_id": "t0"},
            {"seq": 4, "op": "delete", "table_id": "t1"},
            {"seq": 9, "op": "delete", "table_id": "t1"},  # non-final
        ])
        with pytest.raises(ValueError, match="backwards"):
            load_corpus(tmp_path / "c")

    def test_already_folded_records_are_skipped(self, tmp_path):
        """Records with seq <= manifest journal_seq were compacted in."""
        corpus = built_dir(tmp_path, make_tables(6), num_shards=1)
        corpus.add_tables(make_tables(1, prefix="new"))
        corpus.compact()
        # Simulate a resurrected pre-compaction journal fragment.
        append_records(
            tmp_path / "c" / "shard-0000" / JOURNAL_FILE,
            [{"seq": 1, "op": "add",
              "table": make_tables(1, prefix="new")[0].to_dict()}],
        )
        recovered = load_corpus(tmp_path / "c")
        assert recovered.num_tables == 7  # not applied twice
        assert recovered.journal_depth == 0

    def test_orphaned_compaction_tmp_dir_is_harmless(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(6), num_shards=2)
        corpus.add_tables(make_tables(2, prefix="new"))
        orphan = tmp_path / ".c.saving"
        orphan.mkdir()
        (orphan / "garbage.json").write_text("{")
        recovered = load_corpus(tmp_path / "c")
        assert recovered.num_tables == 8
        recovered.compact()
        assert not orphan.exists()  # pruned by the atomic writer
        assert load_corpus(tmp_path / "c").num_tables == 8

    def test_crash_between_compaction_renames_heals_on_load(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(6), num_shards=2)
        corpus.add_tables(make_tables(2, prefix="new"))
        # Simulate dying after `path -> backup` but before `tmp -> path`.
        (tmp_path / "c").rename(tmp_path / ".c.replaced")
        recovered = load_corpus(tmp_path / "c")
        assert recovered.num_tables == 8
        assert recovered.journal_depth == 2  # journal survived the crash
        assert not (tmp_path / ".c.replaced").exists()

    def test_compaction_removes_journals_and_advances_seq(self, tmp_path):
        corpus = built_dir(tmp_path, make_tables(8), num_shards=2)
        corpus.add_tables(make_tables(3, prefix="new"))
        corpus.delete_tables(["t1"])
        corpus.compact()
        assert list((tmp_path / "c").rglob(JOURNAL_FILE)) == []
        manifest = read_manifest(tmp_path / "c")
        assert manifest["journal_seq"] == 4
        assert manifest["num_tables"] == 10

    def test_compaction_keeps_reused_stores(self, tmp_path):
        """Compaction writes the live shards out and swaps nothing in: the
        shards and their lazy stores (un-parsed rows included) keep
        serving."""
        tables = make_tables(8)
        build_corpus_index(tables, num_shards=2, save=tmp_path / "c")
        with load_corpus(tmp_path / "c") as corpus:
            corpus.add_tables(make_tables(3, prefix="new"))
            shards = list(corpus.shards)
            stores = [s.store for s in shards]
            corpus.compact()
            assert corpus.shards == shards
            assert [s.store for s in corpus.shards] == stores
            assert sorted(t.table_id for t in corpus) == sorted(
                t.table_id for t in tables + make_tables(3, prefix="new")
            )

    def test_read_journal_round_trip(self, tmp_path):
        journal = tmp_path / JOURNAL_FILE
        records = [
            {"seq": 1, "op": "add",
             "table": make_tables(1)[0].to_dict()},
            {"seq": 3, "op": "delete", "table_id": "t0"},
        ]
        append_records(journal, records)
        assert read_journal(journal) == records


class TestNoReindex:
    """A mutation indexes only the tables it adds; compaction none."""

    def counting(self, monkeypatch):
        calls = []
        original = InvertedIndex.add_document

        def counted(self, doc_id, fields):
            calls.append(doc_id)
            return original(self, doc_id, fields)

        monkeypatch.setattr(InvertedIndex, "add_document", counted)
        return calls

    def test_add_indexes_only_the_new_tables(self, tmp_path, monkeypatch):
        build_corpus_index(make_tables(40), num_shards=4, save=tmp_path / "c")
        corpus = load_corpus(tmp_path / "c")
        calls = self.counting(monkeypatch)
        corpus.add_tables(make_tables(1, prefix="new"))
        assert calls == ["new0"]  # the new table only; no re-indexing

    def test_addonly_compact_indexes_only_the_delta(
        self, tmp_path, monkeypatch
    ):
        build_corpus_index(make_tables(40), num_shards=4, save=tmp_path / "c")
        corpus = load_corpus(tmp_path / "c")
        corpus.add_tables(make_tables(2, prefix="new"))
        calls = self.counting(monkeypatch)
        corpus.compact()
        assert calls == []  # indexed when added, written as it is

    def test_delete_compact_reindexes_only_affected_shards(
        self, tmp_path, monkeypatch
    ):
        from repro.index import shard_of

        tables = make_tables(40)
        build_corpus_index(tables, num_shards=4, save=tmp_path / "c")
        corpus = load_corpus(tmp_path / "c")
        victim = tables[0].table_id
        shard = shard_of(victim, 4)
        shard_size = corpus.shard_sizes()[shard]
        calls = self.counting(monkeypatch)
        corpus.delete_tables([victim])
        corpus.compact()
        # The delete un-indexes in place; no shard is rebuilt.
        assert calls == []
        assert corpus.shard_sizes()[shard] == shard_size - 1


class TestServiceIntegration:
    def test_add_tables_passthrough_and_cache_invalidation(
        self, tmp_path, corpus_tables
    ):
        build_corpus_index(corpus_tables[:-4], num_shards=2,
                           save=tmp_path / "c")
        with WWTService(tmp_path / "c") as service:
            first = service.answer("country | currency")
            assert service.answer("country | currency").cache_hit
            assert service.add_tables(corpus_tables[-4:]) == 4
            after = service.answer("country | currency")
            assert not after.cache_hit  # caches dropped on mutation
            assert first.header == after.header
            assert service.corpus.journal_depth == 4
            assert service.compact() == 4
            assert service.corpus.journal_depth == 0

    def test_immutable_corpus_rejects_mutation(self, corpus_tables):
        """Only a ShardedCorpus mutates; another CorpusProtocol
        implementation served by the facade is refused."""

        class ReadOnly:
            def __init__(self, corpus):
                self._corpus = corpus

            def __getattr__(self, name):
                return getattr(self._corpus, name)

        service = WWTService(
            ReadOnly(build_sharded_corpus(corpus_tables[:10], 2))
        )
        with pytest.raises(ValueError, match="immutable"):
            service.add_tables(make_tables(1, prefix="new"))
        with pytest.raises(ValueError, match="immutable"):
            service.delete_tables(["x"])


FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestOlderJournal:
    """``tests/fixtures/journal_v3`` was written by repro 1.5.0, whose
    journaled corpus kept pending mutations in a delta index: five tables
    over two shards, then adds, deletes and a delete + re-add of one id,
    all unfolded.  ``journal_v3_expected.json`` pins what that version
    served from it."""

    def test_older_journal_replays_to_the_same_ids_and_rankings(
        self, tmp_path
    ):
        expected = json.loads(
            (FIXTURES / "journal_v3_expected.json").read_text()
        )
        workdir = tmp_path / "c"
        shutil.copytree(FIXTURES / "journal_v3", workdir)

        def check(corpus):
            assert sorted(corpus.ids()) == expected["ids"]
            for query, want in expected["rankings"].items():
                got = corpus.search(query.split(), limit=25)
                assert [[h.doc_id, h.score] for h in got] == want, query
            assert corpus.stats.to_dict() == expected["stats"]

        with load_corpus(workdir) as corpus:
            assert corpus.journal_depth == expected["journal_depth"]
            check(corpus)
            # Shard-major order: the order a fresh build gives.
            live = [corpus.get_table(i) for i in corpus.ids()]
            assert corpus.ids() == build_corpus_index(live, num_shards=2).ids()
            assert corpus.compact() == expected["journal_depth"]
        with load_corpus(workdir) as reopened:
            assert reopened.journal_depth == 0
            check(reopened)


class TestStreamingIngestion:
    def test_iter_tables_streams_the_extraction_pipeline(self):
        from repro.corpus.generator import CorpusConfig, iter_tables

        tables = list(iter_tables(CorpusConfig(seed=3, scale=0.02),
                                  id_prefix="live-"))
        assert tables
        assert all(t.table_id.startswith("live-") for t in tables)
        # Same config without the prefix: identical content, shifted ids.
        plain = list(iter_tables(CorpusConfig(seed=3, scale=0.02)))
        assert [t.table_id for t in tables] == [
            f"live-{t.table_id}" for t in plain
        ]

    def test_iter_tables_matches_generate_corpus(self):
        from repro.corpus.generator import (
            CorpusConfig, generate_corpus, iter_tables,
        )

        config = CorpusConfig(seed=5, scale=0.02)
        streamed = [t.table_id for t in iter_tables(config)]
        generated = generate_corpus(config).corpus.ids()
        assert streamed == generated
