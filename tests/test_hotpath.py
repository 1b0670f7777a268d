"""Hot-path engine verification (compiled postings + feature memoization).

Four guarantees the DESIGN.md "Hot-path engine" section promises:

1. The compiled :meth:`InvertedIndex.search` matches the
   :class:`~tests.naive_scorer.NaiveScorer` oracle hit-for-hit — doc ids
   and scores (bit-exactly) — on random corpora and on the
   full 59-query workload, for one shard, four shards and a corpus
   mutated in place, including after add/delete/compact.
2. The incrementally maintained df counters always equal the brute-force
   set-union definition they replaced.
3. Feature memoization (:class:`FeatureCache`) and the promoted PMI²
   probe caches change *where time goes*, never what is computed:
   cached and cacheless pipelines return identical problems and answers.
4. A table is compiled once (:class:`CompiledTable`, kept on the
   :class:`WebTable`): a query re-weights its token counts and tokenizes no
   cell, with edges, features, labels and distributions bit-identical to
   freshly built tables — across stats regimes, live IDF changes and
   concurrent first use.
"""

import random
import sys
import threading
from collections import Counter

import pytest

from repro.core import DEFAULT_PARAMS, FeatureCache, build_problem
from repro.core.features import BoundedCache, query_feature_key
from repro.core.params import ModelParams
from repro.core.pmi import PmiScorer
from repro.index import (
    InvertedIndex,
    build_corpus_index,
    build_sharded_corpus,
    read_index_bin,
    write_index_bin,
)
from repro.exec import ExecutionContext, QueryState, build_query_plan
from repro.inference import REGISTRY, max_marginals
from repro.query.model import Query
from repro.service import EngineConfig, WWTService
from repro.tables.table import WebTable
from repro.text.tokenize import normalize_cell, tokenize

from .naive_scorer import NaiveScorer

KS = (1, 2, 4)
VOCAB = [f"w{i:02d}" for i in range(40)]


def random_fields(rng):
    """One random pre-tokenized document over the small shared vocabulary."""
    return {
        "header": [rng.choice(VOCAB) for _ in range(rng.randint(0, 4))],
        "context": [rng.choice(VOCAB) for _ in range(rng.randint(0, 6))],
        "content": [rng.choice(VOCAB) for _ in range(rng.randint(0, 30))],
    }


def assert_hits_match(got, want):
    """Hit-for-hit equality: ids in order, scores bit-exact."""
    assert [h.doc_id for h in got] == [h.doc_id for h in want]
    assert [h.score for h in got] == [h.score for h in want]


def brute_force_df(docs):
    """The definition the incremental df counters must match."""
    df = {}
    for fields in docs.values():
        for term in {t for tokens in fields.values() for t in tokens}:
            df[term] = df.get(term, 0) + 1
    return df


class TestCompiledMatchesNaive:
    """Property tests on random corpora (multiple seeds, with churn)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpus_hit_for_hit(self, seed):
        rng = random.Random(seed)
        index = InvertedIndex()
        docs = {}
        for i in range(rng.randint(5, 60)):
            fields = random_fields(rng)
            index.add_document(f"d{i:03d}", fields)
            docs[f"d{i:03d}"] = fields
        for doc_id in rng.sample(sorted(docs), k=len(docs) // 4):
            index.remove_document(doc_id, docs.pop(doc_id))

        naive = NaiveScorer(index)
        for _ in range(15):
            terms = [rng.choice(VOCAB) for _ in range(rng.randint(1, 5))]
            for k in KS + (100,):
                assert_hits_match(
                    index.search(terms, limit=k), naive.search(terms, limit=k)
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_df_counters_match_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        index = InvertedIndex()
        docs = {}
        for i in range(40):
            fields = random_fields(rng)
            index.add_document(f"d{i}", fields)
            docs[f"d{i}"] = fields
        for doc_id in rng.sample(sorted(docs), k=10):
            index.remove_document(doc_id, docs.pop(doc_id))

        expected = brute_force_df(docs)
        for term in VOCAB:
            assert index.document_frequency(term) == expected.get(term, 0)
        stats = index.term_statistics()
        assert stats.num_docs == len(docs)
        for term in VOCAB:
            assert stats.document_frequency(term) == expected.get(term, 0)

    def test_field_subset_df_still_supported(self):
        index = InvertedIndex()
        index.add_document("a", {"header": ["x"], "content": ["x", "y"]})
        index.add_document("b", {"content": ["x"]})
        assert index.document_frequency("x") == 2
        assert index.document_frequency("x", fields=["header"]) == 1
        assert index.document_frequency("y", fields=["header"]) == 0

    def test_snapshot_round_trip_preserves_compiled_search(self, tmp_path):
        from repro.index.binfmt import encode_index

        rng = random.Random(7)
        index = InvertedIndex()
        for i in range(25):
            index.add_document(f"d{i}", random_fields(rng))
        write_index_bin(tmp_path / "index.bin", index)
        reloaded = read_index_bin(tmp_path / "index.bin")
        assert encode_index(reloaded) == encode_index(index)
        for term in VOCAB:
            assert (
                reloaded.document_frequency(term)
                == index.document_frequency(term)
            )
        terms = [VOCAB[0], VOCAB[5], VOCAB[9]]
        assert_hits_match(
            reloaded.search(terms, limit=10), index.search(terms, limit=10)
        )


class TestWorkloadEquivalence:
    """The 59-query workload, hit-for-hit, whatever shape the corpus has."""

    @pytest.fixture(scope="class")
    def tables(self, small_env):
        """The shared synthetic corpus's tables."""
        return list(small_env.synthetic.corpus)

    def _check_workload(self, corpus, naive, queries):
        for wq in queries:
            tokens = wq.query.all_tokens()
            for k in KS:
                assert_hits_match(
                    corpus.search(tokens, limit=k),
                    naive.search(tokens, limit=k),
                )

    def test_one_shard(self, small_env):
        corpus = small_env.synthetic.corpus
        naive = NaiveScorer(corpus.shards[0].index)
        self._check_workload(corpus, naive, small_env.queries)

    def test_sharded(self, small_env, tables):
        naive = NaiveScorer(small_env.synthetic.corpus.shards[0].index)
        sharded = build_sharded_corpus(tables, num_shards=4)
        self._check_workload(sharded, naive, small_env.queries)

    def test_journaled_after_add_delete_compact(self, small_env, tables):
        split = int(len(tables) * 0.8)
        base_tables, extra = tables[:split], tables[split:]
        journaled = build_corpus_index(base_tables)
        journaled.add_tables(extra)
        doomed = [t.table_id for t in base_tables[::7]] + [
            t.table_id for t in extra[::5]
        ]
        journaled.delete_tables(doomed)

        live = [t for t in tables if t.table_id not in set(doomed)]
        naive = NaiveScorer(build_corpus_index(live).shards[0].index)
        queries = small_env.queries
        self._check_workload(journaled, naive, queries)

        journaled.compact()
        self._check_workload(journaled, naive, queries)


class TestFeatureCache:
    """Memoization must be invisible in the outputs."""

    @pytest.fixture(scope="class")
    def probe_setup(self, small_env):
        """One workload query with its candidate tables and corpus stats."""
        wq = small_env.queries[0]
        tables = small_env.candidates[wq.query_id].tables
        assert tables, "fixture query retrieved no candidates"
        return wq.query, tables, small_env.synthetic.corpus.stats

    def _assert_same_problem(self, a, b):
        assert a.node_potentials == b.node_potentials
        assert a.features == b.features
        assert a.table_relevance == b.table_relevance
        assert len(a.edges) == len(b.edges)

    def test_cached_problem_identical_to_cacheless(self, probe_setup):
        query, tables, stats = probe_setup
        cold = build_problem(query, tables, stats, DEFAULT_PARAMS)
        cache = FeatureCache()
        first = build_problem(
            query, tables, stats, DEFAULT_PARAMS, feature_cache=cache
        )
        assert cache.misses == len(tables) and cache.hits == 0
        second = build_problem(
            query, tables, stats, DEFAULT_PARAMS, feature_cache=cache
        )
        assert cache.hits == len(tables)
        self._assert_same_problem(first, cold)
        self._assert_same_problem(second, cold)

    def test_incremental_extension_computes_only_new_tables(self, probe_setup):
        query, tables, stats = probe_setup
        if len(tables) < 2:
            pytest.skip("needs at least two candidate tables")
        stage1, full = tables[: len(tables) // 2], tables
        cache = FeatureCache()
        build_problem(query, stage1, stats, DEFAULT_PARAMS, feature_cache=cache)
        misses_before = cache.misses
        extended = build_problem(
            query, full, stats, DEFAULT_PARAMS, feature_cache=cache
        )
        assert cache.misses - misses_before == len(full) - len(stage1)
        self._assert_same_problem(
            extended, build_problem(query, full, stats, DEFAULT_PARAMS)
        )

    def test_pin_auto_clears_on_stats_identity_change(self, probe_setup):
        query, tables, stats = probe_setup
        cache = FeatureCache()
        build_problem(query, tables, stats, DEFAULT_PARAMS, feature_cache=cache)
        assert len(cache) == len(tables)
        from repro.text.tfidf import TermStatistics

        other_stats = TermStatistics.from_dict(stats.to_dict())
        build_problem(
            query, tables, other_stats, DEFAULT_PARAMS, feature_cache=cache
        )
        # The regime flip dropped the old entries; only the re-computed
        # ones (under the new stats object) remain.
        assert len(cache) == len(tables)
        assert cache.hits == 0

    def test_stale_generation_put_is_dropped(self, probe_setup):
        """A writer that pinned before an invalidation cannot cache stale
        features into the freshly cleared cache (compute-vs-mutation race)."""
        query, tables, stats = probe_setup
        cache = FeatureCache()
        old_generation = cache.pin(stats, None, None)
        cache.clear()  # a mutation invalidated the cache mid-compute
        cache.put(("stale",), ("stale-value",), generation=old_generation)
        assert len(cache) == 0
        fresh_generation = cache.pin(stats, None, None)
        cache.put(("fresh",), ("fresh-value",), generation=fresh_generation)
        assert len(cache) == 1
        # The read side refuses cross-regime entries too: a reader still
        # pinned to the old regime must miss (and recompute), never
        # consume features cached under the new one.
        assert cache.get(("fresh",), generation=old_generation) is None
        assert cache.get(("fresh",), generation=fresh_generation) == (
            "fresh-value",
        )

    def test_query_feature_key_normalizes_surface_forms(self):
        assert query_feature_key(Query.parse("Country | Currency")) == (
            query_feature_key(Query.parse("country|currency"))
        )

    def test_capacity_zero_disables_without_changing_results(self, probe_setup):
        query, tables, stats = probe_setup
        cache = FeatureCache(capacity=0)
        problem = build_problem(
            query, tables, stats, DEFAULT_PARAMS, feature_cache=cache
        )
        assert len(cache) == 0
        self._assert_same_problem(
            problem, build_problem(query, tables, stats, DEFAULT_PARAMS)
        )


class TestMaxMarginalReuse:
    """Each table's Fig. 3 max-marginals are solved once per query, and the
    memo that makes it so is invisible in edges, labels and distributions."""

    QUERIES = 8
    #: The unpatched per-table solve (each ``_run`` patches the module).
    SOLVE_ROWS = staticmethod(max_marginals._solve_rows)

    def _run(self, env, cache, monkeypatch):
        """The engine's query plan per query (probe, problem, table-centric)
        under ``cache``; returns (repr, solves, tables)."""
        solves = []
        solve_rows = self.SOLVE_ROWS

        def counting_solve_rows(thetas, q):
            solves[-1] += 1
            return solve_rows(thetas, q)

        monkeypatch.setattr(max_marginals, "_solve_rows", counting_solve_rows)
        corpus = env.synthetic.corpus
        out, shapes = [], []
        for wq in env.queries[: self.QUERIES]:
            solves.append(0)
            if cache is not None:
                cache.clear()  # a query starts cold, like an uncached one
            state = QueryState(
                query=wq.query, corpus=corpus, params=DEFAULT_PARAMS,
                inference="table-centric", feature_cache=cache,
            )
            build_query_plan().run(ExecutionContext(), state)
            probe, problem, mapping = state.probe, state.problem, state.mapping
            out.append(repr((
                problem.edges,
                sorted(mapping.labels.items()),
                sorted(mapping.distributions.items()),
            )))
            distinct = {
                tuple(tuple(problem.node_potentials[tc])
                      for tc in problem.table_columns(ti))
                for ti in range(len(problem.tables))
            }
            shapes.append(
                (len(probe.stage1_ids), len(probe.tables), len(distinct))
            )
        return out, solves, shapes

    def test_outputs_identical_and_each_table_solved_once(
        self, small_env, monkeypatch
    ):
        shared, shared_solves, shapes = self._run(
            small_env, FeatureCache(), monkeypatch
        )
        plain, plain_solves, _ = self._run(small_env, None, monkeypatch)
        off, off_solves, _ = self._run(
            small_env, FeatureCache(capacity=0), monkeypatch
        )
        assert shared == plain == off
        assert sum(stage1 for stage1, _, _ in shapes) > 0
        # Without reuse the confidence pass and stage 1 of table-centric
        # both solve every stage-1 table; with it, one solve per distinct
        # table (tables with identical potential rows share one).
        assert plain_solves == off_solves == [
            stage1 + total for stage1, total, _ in shapes
        ]
        assert shared_solves == [distinct for _, _, distinct in shapes]
        assert all(distinct <= total for _, total, distinct in shapes)

    def test_memo_is_not_a_feature_hit_miss_or_entry(self, small_env):
        wq = small_env.queries[0]
        corpus = small_env.synthetic.corpus
        tables = small_env.candidates[wq.query_id].tables
        cache = FeatureCache()
        problem = build_problem(
            wq.query, tables, corpus.stats, DEFAULT_PARAMS, feature_cache=cache
        )
        before = cache.stats()
        first = max_marginals.all_max_marginals(problem)
        assert max_marginals.all_max_marginals(problem) == first
        assert cache.stats() == before and len(cache) == len(tables)
        # Values are handed out as fresh lists: a caller may edit its copy.
        untouched = repr(first)
        first[(0, 0)][0] = 12345.0
        assert repr(max_marginals.all_max_marginals(problem)) == untouched
        # clear() drops the memo with the features.
        assert len(cache._solved) > 0
        cache.clear()
        assert len(cache._solved) == 0

    def test_reweighted_problem_is_not_served_stale_values(self, small_env):
        """Content keys: new weights are new keys, whatever the table ids."""
        wq = small_env.queries[0]
        corpus = small_env.synthetic.corpus
        tables = small_env.candidates[wq.query_id].tables
        cache = FeatureCache()
        problem = build_problem(
            wq.query, tables, corpus.stats, DEFAULT_PARAMS, feature_cache=cache
        )
        max_marginals.all_max_marginals(problem)
        other = ModelParams(w1=DEFAULT_PARAMS.w1 * 2, w4=DEFAULT_PARAMS.w4 / 2)
        reweighted = problem.with_params(other)
        assert reweighted.feature_cache is cache
        assert max_marginals.all_max_marginals(reweighted) == (
            max_marginals.all_max_marginals(
                build_problem(wq.query, tables, corpus.stats, other)
            )
        )


    def test_concurrent_solves_and_clears_never_mix_values(self):
        """Concurrent queries share one cache across threads: whatever the
        interleaving of solves, evictions and clears, a key's value is
        the pure function of that key."""
        cache = FeatureCache(capacity=8)  # smaller than the key space
        wrong, stop = [], threading.Event()

        def worker(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                key = rng.randrange(32)
                if cache.solved(key, lambda key=key: (key, key * 0.5)) != (
                    key, key * 0.5
                ):
                    wrong.append(key)

        def clearer():
            while not stop.is_set():
                cache.clear()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        threads.append(threading.Thread(target=clearer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            stop.wait(0.3)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(cache._solved) <= 8 and len(cache) == 0


def fresh_copy(table):
    """The same table as a new object: nothing compiled yet."""
    copy = WebTable.from_dict(table.to_dict())
    assert copy._compiled is None
    return copy


def problem_fingerprint(problem):
    """Everything downstream reads, by ``repr`` (so float bits count)."""
    mapping = REGISTRY.get_algorithm("table-centric")(problem)
    return repr((
        problem.edges,
        sorted(problem.features.items()),
        sorted(mapping.labels.items()),
        sorted(mapping.distributions.items()),
    ))


class TestCompiledTable:
    """Compile once, re-weight per query: invisible in every output."""

    def test_compiled_form_matches_direct_tokenization(self, small_env):
        """The reference: what the two per-query builders used to compute
        from the cells, in the same first-occurrence order."""
        for table in small_env.synthetic.corpus:
            compiled = fresh_copy(table).compiled()
            headers = [
                [tokenize(cell.text) for cell in row]
                for row in table.header_rows()
            ]
            assert compiled.header_tokens == headers
            for r, row in enumerate(headers):
                for c, tokens in enumerate(row):
                    assert compiled.header_sets[r][c] == set(tokens)
                    assert compiled.other_rows[r][c] == {
                        tok for o, other in enumerate(headers) if o != r
                        for tok in other[c]
                    }
                    assert compiled.other_cols[r][c] == {
                        tok for o, cell in enumerate(row) if o != c
                        for tok in cell
                    }
            assert compiled.title_tokens == set(
                tokenize(table.title_text()) + tokenize(table.page_title)
            )
            assert compiled.context_tokens == set(table.context_tokens())
            frequent = set()
            for c, column in enumerate(compiled.columns):
                cells = table.column_values(c)
                counts = Counter(tok for v in cells for tok in tokenize(v))
                assert list(column.token_counts.items()) == list(counts.items())
                assert list(column.header_counts.items()) == list(
                    Counter(table.column_header_tokens(c)).items()
                )
                assert column.values == {normalize_cell(v) for v in cells} - {""}
                in_rows = Counter(
                    tok for v in cells for tok in set(tokenize(v))
                )
                frequent.update(
                    tok for tok, n in in_rows.items()
                    if n >= 2 and n >= 0.25 * max(table.num_body_rows, 1)
                )
            assert compiled.body_tokens == frequent

    def test_reused_tables_equal_fresh_copies_over_the_workload(self, small_env):
        corpus_stats = small_env.synthetic.corpus.stats
        compared = 0
        for wq in small_env.queries:
            tables = small_env.candidates[wq.query_id].tables
            for stats in (None, corpus_stats):
                # Compiled by whichever query (and regime) came first.
                reused = build_problem(wq.query, tables, stats, DEFAULT_PARAMS)
                assert all(t._compiled is not None for t in tables)
                fresh = build_problem(
                    wq.query, [fresh_copy(t) for t in tables], stats,
                    DEFAULT_PARAMS,
                )
                assert problem_fingerprint(reused) == problem_fingerprint(fresh)
                compared += len(reused.edges)
        assert compared > 0

    def test_second_build_tokenizes_query_text_only(self, small_env, monkeypatch):
        wq = small_env.queries[0]
        stats = small_env.synthetic.corpus.stats
        tables = [
            fresh_copy(t) for t in small_env.candidates[wq.query_id].tables
        ]
        seen = {"tokenize": [], "normalize_cell": []}
        for name, original in (
            ("tokenize", tokenize), ("normalize_cell", normalize_cell)
        ):
            def counting(text, name=name, original=original):
                seen[name].append(text)
                return original(text)

            # Every module that bound the function by name at import.
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro.")
                    and getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, counting)

        def build():
            for calls in seen.values():
                calls.clear()
            build_problem(
                wq.query, tables, stats, DEFAULT_PARAMS,
                feature_cache=FeatureCache(),
            )
            query_text = set(wq.query.columns)
            return (
                [t for t in seen["tokenize"] if t not in query_text],
                list(seen["normalize_cell"]),
            )

        header_cells = sum(t.num_header_rows * t.num_cols for t in tables)
        body_cells = sum(t.num_body_rows * t.num_cols for t in tables)
        filled = sum(
            len(t.column_values(c)) for t in tables for c in range(t.num_cols)
        )
        other_text = sum(2 + len(t.context) for t in tables)

        tokenized, normalized = build()
        # Each cell exactly once, where the two per-query builders
        # (ColumnProfile.build + TablePartIndex) tokenized headers twice
        # and body cells twice.
        assert len(tokenized) == header_cells + filled + other_text
        assert len(tokenized) < 2 * header_cells + filled + body_cells + other_text
        assert len(normalized) == filled
        assert build() == ([], [])

    def test_live_idf_reweights_compiled_tables(self, small_env):
        """Compiled under one stats object, queried under the next: equal
        to a corpus built from scratch over the same tables."""
        tables = list(small_env.synthetic.corpus)
        split = int(len(tables) * 0.8)
        journaled = build_corpus_index(tables[:split])
        wq = small_env.queries[0]

        def served_probe(corpus):
            service = WWTService(corpus, EngineConfig(cache_size=0))
            return service.answer_full(wq.query).probe

        before = served_probe(journaled)
        old_stats = journaled.stats
        build_problem(wq.query, before.tables, old_stats, DEFAULT_PARAMS)
        journaled.add_tables(tables[split:])
        assert journaled.stats is not old_stats

        live = served_probe(journaled)
        assert any(t._compiled is not None for t in live.tables)
        rebuilt_corpus = build_corpus_index([fresh_copy(t) for t in tables])
        rebuilt = served_probe(rebuilt_corpus)
        assert [t.table_id for t in live.tables] == [
            t.table_id for t in rebuilt.tables
        ]
        assert problem_fingerprint(build_problem(
            wq.query, live.tables, journaled.stats, DEFAULT_PARAMS
        )) == problem_fingerprint(build_problem(
            wq.query, rebuilt.tables, rebuilt_corpus.stats, DEFAULT_PARAMS
        ))

    def test_readded_id_gets_the_new_tables_compiled_form(self, small_env):
        tables = list(small_env.synthetic.corpus)
        journaled = build_corpus_index(tables)
        wq = small_env.queries[0]
        old, donor = small_env.candidates[wq.query_id].tables[:2]
        served = journaled.get_table(old.table_id)
        build_problem(wq.query, [served], journaled.stats, DEFAULT_PARAMS)
        assert served._compiled is not None

        replacement = donor.to_dict()
        replacement["table_id"] = old.table_id
        journaled.delete_tables([old.table_id])
        journaled.add_tables([WebTable.from_dict(replacement)])
        served = journaled.get_table(old.table_id)
        stats = journaled.stats
        got = build_problem(wq.query, [served], stats, DEFAULT_PARAMS)
        want = build_problem(
            wq.query, [WebTable.from_dict(replacement)], stats, DEFAULT_PARAMS
        )
        assert got.features == want.features
        assert [c.values for c in served.compiled().columns] == [
            c.values for c in donor.compiled().columns
        ]
        assert [c.values for c in served.compiled().columns] != [
            c.values for c in old.compiled().columns
        ]

    def test_answer_batch_over_cold_tables_equals_serial(self, small_env):
        """Threads racing to compile the same cold tables (two may both
        compile one, to equal values) answer exactly as one thread does."""
        tables = list(small_env.synthetic.corpus)
        queries = [wq.query for wq in small_env.queries[:12]]
        uncached = EngineConfig(cache_size=0)
        serial_service = WWTService(
            build_corpus_index([fresh_copy(t) for t in tables]), uncached
        )
        serial = [serial_service.answer(q) for q in queries]

        cold = [fresh_copy(t) for t in tables]
        threaded_service = WWTService(build_corpus_index(cold), uncached)
        width = 6
        barrier = threading.Barrier(width)
        threaded = [None] * len(queries)

        def answer_slice(k):
            barrier.wait()
            for i in range(k, len(queries), width):
                threaded[i] = threaded_service.answer(queries[i])

        threads = [
            threading.Thread(target=answer_slice, args=(k,))
            for k in range(width)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert [(r.header, r.rows) for r in threaded] == [
            (r.header, r.rows) for r in serial
        ]
        assert any(t._compiled is not None for t in cold)


class TestServiceHotPath:
    """End-to-end: the serving facade with and without memoization."""

    def test_answers_identical_with_and_without_feature_cache(self, small_env):
        corpus = small_env.synthetic.corpus
        queries = [wq.query for wq in small_env.queries[:6]]
        memoized = WWTService(corpus, EngineConfig())
        plain = WWTService(
            corpus, EngineConfig(feature_cache_size=0, cache_size=0)
        )
        for query in queries:
            a = memoized.answer_full(query)
            b = plain.answer_full(query)
            assert a.answer.rows == b.answer.rows
            assert a.mapping.labels == b.mapping.labels
        stats = memoized.stats()
        assert stats.feature_cache.hits > 0
        assert "feature_cache" in stats.to_dict()

    def test_clear_caches_drops_feature_entries(self, small_env):
        service = WWTService(small_env.synthetic.corpus, EngineConfig())
        service.answer_full(small_env.queries[0].query)
        assert len(service._feature_cache) > 0
        service.clear_caches()
        assert len(service._feature_cache) == 0

    def test_pmi_configured_service_builds_shared_scorer(self, small_env):
        config = EngineConfig(params=ModelParams(w3=0.05))
        service = WWTService(small_env.synthetic.corpus, config)
        assert service._pmi_scorer is not None
        response = service.answer(small_env.queries[0].query)
        assert response.total_rows >= 0
        # The corpus-level caches saw traffic from the containment probes.
        h_stats = service._pmi_scorer._h_cache.stats()
        b_stats = service._pmi_scorer._b_cache.stats()
        assert h_stats["misses"] + b_stats["misses"] > 0
        service.clear_caches()
        assert len(service._pmi_scorer._h_cache) == 0


class TestPmiPromotedCaches:
    """Shared bounded H/B caches reuse probes across scorers."""

    @staticmethod
    def make_index():
        index = InvertedIndex()
        index.add_text_document(
            "t1",
            {"header": "explorer nationality", "context": "famous explorers",
             "content": "magellan portugal"},
        )
        index.add_text_document(
            "t2",
            {"header": "explorer ship", "context": "",
             "content": "magellan victoria"},
        )
        return index

    def test_shared_caches_hit_across_scorers(self):
        table = WebTable.from_rows(
            [["magellan"], ["cook"]], header=["explorer"], table_id="w1"
        )
        index = self.make_index()
        h_cache, b_cache = BoundedCache(64), BoundedCache(1024)
        first = PmiScorer(index, h_cache=h_cache, b_cache=b_cache)
        score = first.score("explorer", table, 0)
        hits_before = h_cache.hits + b_cache.hits
        second = PmiScorer(index, h_cache=h_cache, b_cache=b_cache)
        assert second.score("explorer", table, 0) == score
        assert h_cache.hits + b_cache.hits > hits_before

    def test_bounded_cache_eviction_only_recomputes(self):
        table = WebTable.from_rows(
            [["magellan"], ["cook"]], header=["explorer"], table_id="w1"
        )
        index = self.make_index()
        unbounded = PmiScorer(index)
        tiny = PmiScorer(index, h_cache=BoundedCache(1), b_cache=BoundedCache(1))
        for col_query in ("explorer", "ship", "explorer"):
            assert tiny.score(col_query, table, 0) == unbounded.score(
                col_query, table, 0
            )

    def test_bounded_cache_contract(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b" (LRU)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        with pytest.raises(ValueError):
            BoundedCache(-1)
