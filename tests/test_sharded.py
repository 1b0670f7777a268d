"""Tests for ``repro.index.sharded``: partitioning, scatter-gather
equivalence, and directory persistence."""

import inspect
import json
import math
import random

import pytest

from repro.index import (
    CorpusProtocol,
    InvertedIndex,
    ShardedCorpus,
    analyze_table,
    build_corpus_index,
    build_sharded_corpus,
    load_corpus,
    shard_of,
)
from repro.exec import ExecutionContext, QueryState, build_query_plan
from repro.pipeline.probe import ProbeConfig
from repro.query.workload import WORKLOAD
from repro.service import EngineConfig, WWTService
from repro.tables.table import WebTable


def served_probes(corpus, config):
    """``query -> candidate set`` as the engine serves it under ``config``."""
    service = WWTService(corpus, EngineConfig(cache_size=0, probe=config))
    return lambda query: service.answer_full(query).probe


def make_tables(n=12, prefix="t"):
    return [
        WebTable.from_rows(
            [[f"val{i}a", f"{i}"], [f"val{i}b", f"{i + 1}"]],
            header=["name", "rank"],
            table_id=f"{prefix}{i}",
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def corpus_tables(small_env):
    """The small shared environment's extracted tables, in index order."""
    return list(small_env.synthetic.corpus)


@pytest.fixture(scope="module")
def sharded_by_k(corpus_tables):
    """ShardedCorpus per shard count, built once for the module."""
    return {k: build_sharded_corpus(corpus_tables, k) for k in (1, 2, 4)}


def bare_index(tables):
    """One bare index over ``tables``, scoring with its own index-local idf."""
    index = InvertedIndex()
    for table in tables:
        index.add_document(table.table_id, analyze_table(table))
    return index


@pytest.fixture(scope="module")
def oracle(corpus_tables):
    """The shard-invariance oracle: deliberately not a one-shard
    ShardedCorpus, which is the code under test."""
    return bare_index(corpus_tables)


class TestShardAssignment:
    def test_stable_and_in_range(self):
        for num_shards in (1, 2, 4, 7):
            for i in range(50):
                s = shard_of(f"table_{i}", num_shards)
                assert 0 <= s < num_shards
                assert s == shard_of(f"table_{i}", num_shards)

    def test_partition_covers_all_tables(self, corpus_tables, sharded_by_k):
        for k, sharded in sharded_by_k.items():
            assert sharded.num_shards == k
            assert sharded.num_tables == len(corpus_tables)
            assert sum(sharded.shard_sizes()) == len(corpus_tables)
            assert sorted(sharded.ids()) == sorted(
                t.table_id for t in corpus_tables
            )

    def test_spreads_across_shards(self, sharded_by_k):
        # Not a uniformity proof — just that CRC32 doesn't collapse the
        # corpus onto one shard.
        assert all(size > 0 for size in sharded_by_k[4].shard_sizes())


class TestProtocolConformance:
    def test_both_backends_satisfy_protocol(self, small_env, sharded_by_k):
        assert isinstance(small_env.synthetic.corpus, CorpusProtocol)
        assert isinstance(sharded_by_k[2], CorpusProtocol)

    def test_search_takes_exactly_the_protocols_parameters(self):
        """``isinstance`` against a runtime-checkable protocol compares
        member *names* only — which is how a flag once got threaded
        through four ``search`` signatures unnoticed.  Compare them."""

        def shape(fn):
            return [
                (p.name, p.kind, p.default)
                for p in inspect.signature(fn).parameters.values()
            ]

        declared = shape(CorpusProtocol.search)
        assert [name for name, _, _ in declared] == ["self", "terms", "limit"]
        assert shape(ShardedCorpus.search) == declared
        index_shape = shape(InvertedIndex.search)
        assert index_shape[:-1] == declared
        assert index_shape[-1][0] == "idf" and index_shape[-1][2] is None

    def test_iteration_yields_tables(self, corpus_tables, sharded_by_k):
        """Regression: ``__iter__`` was annotated ``Iterator[str]``."""
        import typing

        hints = typing.get_type_hints(ShardedCorpus.__iter__)
        assert hints["return"] == typing.Iterator[WebTable]
        assert isinstance(next(iter(sharded_by_k[2])), WebTable)
        assert list(sharded_by_k[1]) == corpus_tables

    def test_sharded_table_access(self, corpus_tables, sharded_by_k):
        sharded = sharded_by_k[4]
        ids = [t.table_id for t in corpus_tables[:5]]
        assert [t.table_id for t in sharded.get_many(ids)] == ids
        assert sharded.get_table(ids[0]).table_id == ids[0]
        assert ids[0] in sharded
        assert "no_such_table" not in sharded
        assert sharded.get_many(["no_such_table", ids[1]]) == [
            sharded.get_table(ids[1])
        ]
        with pytest.raises(KeyError):
            sharded.get_table("no_such_table")


class TestRankingEquivalence:
    """Any shard count must reproduce the ranking of one index over all
    tables, not approximate it."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_workload_search_identical(self, oracle, sharded_by_k, k):
        """Property over the full 59-query workload: same hits, same scores."""
        sharded = sharded_by_k[k]
        for wq in WORKLOAD:
            tokens = wq.query.all_tokens()
            expected = oracle.search(tokens, limit=60)
            got = sharded.search(tokens, limit=60)
            assert [(h.doc_id, h.score) for h in got] == [
                (h.doc_id, h.score) for h in expected
            ], wq.query_id

    def test_global_idf_matches_the_oracle(self, oracle, sharded_by_k):
        for sharded in sharded_by_k.values():
            for term in ("country", "currency", "dog", "zzz_unseen"):
                assert sharded.global_idf(term) == oracle.idf(term)

    def test_containment_probe_identical(self, oracle, sharded_by_k):
        for sharded in sharded_by_k.values():
            for terms in (
                ["country"], ["country", "currency"], ["zzz_unseen"]
            ):
                for fields in (("header", "context"), ("content",)):
                    assert sharded.docs_containing_all(
                        terms, fields
                    ) == oracle.docs_containing_all(terms, fields)

    @pytest.mark.parametrize("k", [2, 4])
    def test_served_probe_identical(self, sharded_by_k, k):
        # One shard's search is pinned to the bare-index oracle above;
        # this carries the whole probe across shard counts.
        config = ProbeConfig(seed=9)
        mono = served_probes(sharded_by_k[1], config)
        sharded = served_probes(sharded_by_k[k], config)
        for wq in WORKLOAD[:8]:
            a = mono(wq.query)
            b = sharded(wq.query)
            assert a.stage1_ids == b.stage1_ids, wq.query_id
            assert a.stage2_ids == b.stage2_ids, wq.query_id
            assert a.used_second_stage == b.used_second_stage
            assert [t.table_id for t in a.tables] == [
                t.table_id for t in b.tables
            ]


class TestPersistence:
    def test_sharded_round_trip(self, corpus_tables, sharded_by_k, tmp_path):
        sharded = sharded_by_k[4]
        path = sharded.save(tmp_path / "corpus")
        loaded = load_corpus(path)
        assert isinstance(loaded, ShardedCorpus)
        assert loaded.num_shards == 4
        assert loaded.num_tables == sharded.num_tables
        assert loaded.stats.num_docs == sharded.stats.num_docs
        config = ProbeConfig(seed=1)
        saved_probe = served_probes(sharded, config)
        loaded_probe = served_probes(loaded, config)
        for wq in WORKLOAD[:4]:
            a = saved_probe(wq.query)
            b = loaded_probe(wq.query)
            assert a.stage1_ids == b.stage1_ids
            assert a.stage2_ids == b.stage2_ids

    def test_one_shard_round_trip_opens_lazily(self, tmp_path):
        corpus = build_corpus_index(make_tables(8))
        assert isinstance(corpus, ShardedCorpus) and corpus.num_shards == 1
        corpus.save(tmp_path / "one")
        manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
        assert (manifest["version"], manifest["kind"]) == (3, "sharded")
        loaded = load_corpus(tmp_path / "one")
        assert isinstance(loaded, ShardedCorpus)
        # Open, counts, boosts and stats are manifest-level: nothing is
        # decoded until the first probe.
        assert loaded.num_tables == 8 and loaded.boosts == corpus.boosts
        assert loaded.stats.num_docs == corpus.stats.num_docs
        assert not any(s.materialized for s in loaded.shards)
        a = corpus.search(["name", "rank"], limit=10)
        b = loaded.search(["name", "rank"], limit=10)
        assert all(s.materialized for s in loaded.shards)
        assert [(h.doc_id, h.score) for h in a] == [
            (h.doc_id, h.score) for h in b
        ]
        assert loaded.ids() == corpus.ids()  # insertion order preserved

    def test_build_corpus_index_num_shards_and_save(self, tmp_path):
        tables = make_tables(10)
        corpus = build_corpus_index(
            tables, num_shards=3, save=tmp_path / "built"
        )
        assert isinstance(corpus, ShardedCorpus)
        manifest = json.loads(
            (tmp_path / "built" / "manifest.json").read_text()
        )
        assert manifest["kind"] == "sharded"
        assert manifest["num_shards"] == 3
        assert manifest["num_tables"] == 10
        reloaded = load_corpus(tmp_path / "built")
        assert sorted(reloaded.ids()) == sorted(t.table_id for t in tables)

    def test_resave_replaces_directory_without_stale_shards(self, tmp_path):
        tables = make_tables(12)
        build_sharded_corpus(tables, 4).save(tmp_path / "c")
        assert (tmp_path / "c" / "shard-0003").is_dir()
        build_sharded_corpus(tables, 2).save(tmp_path / "c")
        assert not (tmp_path / "c" / "shard-0002").exists()
        assert not (tmp_path / "c" / "shard-0003").exists()
        loaded = load_corpus(tmp_path / "c")
        assert loaded.num_shards == 2
        assert loaded.num_tables == 12
        # A one-shard re-save over a 2-shard dir replaces it wholesale.
        build_corpus_index(tables).save(tmp_path / "c")
        assert not (tmp_path / "c" / "shard-0001").exists()
        assert load_corpus(tmp_path / "c").num_shards == 1
        # The atomic-swap scaffolding must not leak siblings.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c"]

    def test_interrupted_save_backup_is_restored_not_deleted(self, tmp_path):
        # Simulate a crash between the two renames: the corpus survives
        # only as the backup sibling.  A retried save must restore it, and
        # must not destroy it while writing the new corpus.
        tables = make_tables(6)
        build_corpus_index(tables, save=tmp_path / "c")
        (tmp_path / "c").rename(tmp_path / ".c.replaced")
        assert not (tmp_path / "c").exists()
        build_corpus_index(tables, num_shards=2, save=tmp_path / "c")
        assert not (tmp_path / ".c.replaced").exists()
        assert load_corpus(tmp_path / "c").num_shards == 2

    def test_malformed_shard_entries_rejected(self, tmp_path):
        build_corpus_index(make_tables(2), save=tmp_path / "c")
        manifest_path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"] = [{"num_tables": 2}]  # missing "dir"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="malformed 'shards'"):
            load_corpus(tmp_path / "c")

    def test_corrupt_shard_snapshot_raises_valueerror(self, tmp_path):
        build_corpus_index(make_tables(3), save=tmp_path / "c")
        (tmp_path / "c" / "shard-0000" / "index.bin").write_bytes(b"junk")
        with pytest.raises(ValueError, match="index.bin"):
            load_corpus(tmp_path / "c").search(["country"])

    def test_corrupt_stats_raises_valueerror(self, tmp_path):
        build_corpus_index(make_tables(3), save=tmp_path / "c")
        (tmp_path / "c" / "stats.json").write_text("{}")
        with pytest.raises(ValueError, match="corrupt term statistics"):
            load_corpus(tmp_path / "c")

    def test_load_rejects_non_corpus_dir(self, tmp_path):
        with pytest.raises(ValueError, match="not a persisted corpus"):
            load_corpus(tmp_path)

    def test_load_rejects_bad_version(self, tmp_path):
        build_corpus_index(make_tables(2), save=tmp_path / "c")
        manifest_path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported version"):
            load_corpus(tmp_path / "c")

    def test_save_takes_no_format(self, tmp_path):
        corpus = build_corpus_index(make_tables(3))
        with pytest.raises(TypeError, match="index_format"):
            corpus.save(tmp_path / "c", index_format="json")
        with pytest.raises(TypeError, match="index_format"):
            build_corpus_index(
                make_tables(3), save=tmp_path / "c", index_format="bin"
            )
        assert not (tmp_path / "c").exists()


class TestShardedValidation:
    def test_empty_shard_list_rejected(self):
        from repro.text.tfidf import TermStatistics

        with pytest.raises(ValueError, match="at least one shard"):
            ShardedCorpus([], TermStatistics())

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            build_sharded_corpus(make_tables(2), 0)

    def test_empty_corpus_searches_empty(self):
        sharded = build_sharded_corpus([], 2)
        assert sharded.search(["anything"]) == []
        assert sharded.num_tables == 0

    def test_global_idf_expression(self, corpus_tables):
        sharded = build_sharded_corpus(corpus_tables, 3)
        df = sum(
            s.index.document_frequency("country") for s in sharded.shards
        )
        expected = 1.0 + math.log(len(corpus_tables) / (df + 1.0))
        assert sharded.global_idf("country") == pytest.approx(expected)

    def test_arbitrary_partition_rejected(self):
        # Gluing two independently built corpora together would break
        # shard_of() routing; the constructor must refuse it.
        from repro.index import build_corpus_index as build

        half_a = build(make_tables(4, prefix="a"))
        half_b = build(make_tables(4, prefix="b"))
        with pytest.raises(ValueError, match="hashes to shard"):
            ShardedCorpus(
                [half_a.shards[0], half_b.shards[0]], half_a.stats
            )

    def test_close_releases_lazy_table_maps(self, sharded_by_k, tmp_path):
        path = sharded_by_k[4].save(tmp_path / "corpus")
        with load_corpus(path) as corpus:
            before = corpus.search(["country"], limit=10)
            parsed = corpus.get_table(before[0].doc_id)
            stores = [shard.store for shard in corpus.shards]
            assert all(store._mm is not None for store in stores)
        assert all(store._mm is None for store in stores)
        corpus.close()  # idempotent
        # The indexes and every row parsed before close() keep answering...
        after = corpus.search(["country"], limit=10)
        assert [(h.doc_id, h.score) for h in after] == [
            (h.doc_id, h.score) for h in before
        ]
        assert corpus.get_table(before[0].doc_id) is parsed
        # ...an un-parsed row names the closed store instead of a KeyError
        # on a table id that is in fact present.
        unparsed = next(
            i for i in corpus.ids()
            if i not in corpus.shards[shard_of(i, 4)].store._parsed
        )
        with pytest.raises(ValueError, match=r"tables\.jsonl.*closed"):
            corpus.get_table(unparsed)
        with pytest.raises(ValueError, match="closed"):
            corpus.save(tmp_path / "resaved")

    def test_close_never_materializes_a_lazy_shard(self, sharded_by_k, tmp_path):
        path = sharded_by_k[2].save(tmp_path / "corpus")
        corpus = load_corpus(path)
        corpus.close()
        assert not any(shard.materialized for shard in corpus.shards)
        assert corpus.search(["country"], limit=3)  # opens on demand, as ever


class TestParallelModes:
    """There are none left: the scatter is one serial loop, and the options
    that chose a pool are rejected, not ignored (DESIGN.md, "Modes
    removed")."""

    def test_probe_workers_left_every_entry_point(self):
        from repro.corpus import generate_corpus

        for entry in (
            ShardedCorpus, ShardedCorpus.load, load_corpus,
            build_sharded_corpus, build_corpus_index, generate_corpus,
        ):
            assert "probe_workers" not in inspect.signature(entry).parameters
        with pytest.raises(TypeError, match="probe_workers"):
            build_sharded_corpus(make_tables(2), 2, probe_workers=2)

    @pytest.mark.parametrize("mode", ["gpu", "process", "thread"])
    def test_unknown_mode_rejected(self, sharded_by_k, tmp_path, mode):
        path = sharded_by_k[2].save(tmp_path / "corpus")
        with pytest.raises(ValueError, match=f"parallel_mode '{mode}'"):
            load_corpus(path, parallel_mode=mode)
        with load_corpus(path, parallel_mode="serial") as corpus:
            assert not hasattr(corpus, "parallel_mode")


class TestProbeDeterminism:
    """Satellite: stage-2 row sampling must be seed-reproducible."""

    def test_same_seed_same_result(self, small_env):
        corpus = small_env.synthetic.corpus
        wq = WORKLOAD[0]
        probe = served_probes(corpus, ProbeConfig(seed=123))
        a = probe(wq.query)
        b = probe(wq.query)
        assert a.stage1_ids == b.stage1_ids
        assert a.stage2_ids == b.stage2_ids
        assert a.seed_table_ids == b.seed_table_ids

    def test_explicit_rng_matches_config_seed(self, small_env):
        corpus = small_env.synthetic.corpus
        wq = WORKLOAD[0]
        config = ProbeConfig(seed=123)
        a = served_probes(corpus, config)(wq.query)
        # The plan run by hand, its row sample drawn from a caller's
        # generator rather than one the parse stage seeds.
        state = QueryState(
            query=wq.query, corpus=corpus, probe_config=config,
            params=EngineConfig().params, inference="table-centric",
            rng=random.Random(123),
        )
        build_query_plan().run(ExecutionContext(), state)
        assert a.stage2_ids == state.probe.stage2_ids

    def test_concurrent_probes_reproducible(self, sharded_by_k):
        """Sharded scatter-gather in flight must not perturb sampling."""
        from concurrent.futures import ThreadPoolExecutor

        corpus = sharded_by_k[4]
        probe = served_probes(corpus, ProbeConfig(seed=5))
        queries = [wq.query for wq in WORKLOAD[:6]]
        baseline = [probe(q) for q in queries]
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(probe, queries))
        for a, b in zip(baseline, concurrent):
            assert a.stage1_ids == b.stage1_ids
            assert a.stage2_ids == b.stage2_ids
