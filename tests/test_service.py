"""Tests for the serving layer: EngineConfig, registry, caches, WWTService."""

import threading
import time

import pytest

from repro.core.features import BoundedCache, query_feature_key
from repro.inference import (
    REGISTRY,
    UnknownAlgorithmError,
    independent_inference,
)
from repro.pipeline.wwt import WWTAnswer
from repro.query.model import Query
from repro.service import (
    CacheStats,
    EngineConfig,
    QueryRequest,
    WWTService,
    normalized_query_key,
)


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.inference == "table-centric"
        assert config.caching_enabled

    def test_round_trip(self):
        config = EngineConfig(inference="bp", cache_size=7, feature_cache_size=10)
        data = config.to_dict()
        assert data["inference"] == "bp"
        assert EngineConfig.from_dict(data) == config

    def test_round_trip_preserves_nested_tunables(self):
        config = EngineConfig().replace(
            params=EngineConfig().params.with_values(w1=2.0),
        )
        restored = EngineConfig.from_dict(config.to_dict())
        assert restored.params.w1 == 2.0
        assert restored == config

    def test_from_dict_partial(self):
        config = EngineConfig.from_dict({"inference": "none"})
        assert config.inference == "none"
        assert config.cache_size == EngineConfig().cache_size

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown EngineConfig keys"):
            EngineConfig.from_dict({"inferenec": "bp"})
        with pytest.raises(ValueError, match="unknown probe keys"):
            EngineConfig.from_dict({"probe": {"stage1_limt": 5}})
        # A removed knob is a typo like any other, not accepted-and-ignored.
        with pytest.raises(ValueError, match=r"keys: \['index_format'\]"):
            EngineConfig.from_dict({"index_format": "bin"})
        assert "index_format" not in EngineConfig().to_dict()

    def test_unknown_inference_rejected(self):
        with pytest.raises(ValueError, match="unknown inference"):
            EngineConfig(inference="nope")

    def _assert_mode_rejected(self, mode):
        with pytest.raises(ValueError, match=f"parallel_mode '{mode}'") as err:
            EngineConfig(parallel_mode=mode)
        assert '"serial" is the only accepted value' in str(err.value)
        with pytest.raises(ValueError, match=f"parallel_mode '{mode}'"):
            EngineConfig.from_dict({"parallel_mode": mode})

    def test_removed_process_scatter_mode_rejected(self):
        self._assert_mode_rejected("process")

    def test_removed_thread_scatter_mode_rejected(self):
        """``parallel_mode`` is a checked constant: anything but "serial"
        is refused with a message naming the value, never ignored."""
        self._assert_mode_rejected("thread")
        assert EngineConfig(parallel_mode="serial") == EngineConfig()

    def test_removed_probe_workers_is_an_unknown_key(self):
        with pytest.raises(ValueError, match=r"keys: \['probe_workers'\]"):
            EngineConfig.from_dict({"probe_workers": 2})
        with pytest.raises(TypeError, match="probe_workers"):
            EngineConfig(probe_workers=2)
        assert "probe_workers" not in EngineConfig().to_dict()

    def test_removed_probe_cache_size_rejected(self):
        """``probe_cache_size`` is a checked constant: there is no probe
        cache, so anything but 0 is refused with a message naming it."""
        for size in (1, 128):
            with pytest.raises(ValueError, match=f"probe_cache_size {size}") as err:
                EngineConfig(probe_cache_size=size)
            assert "there is no probe cache" in str(err.value)
        with pytest.raises(ValueError, match="probe_cache_size 1 was removed"):
            EngineConfig.from_dict({"probe_cache_size": 1})
        assert EngineConfig(probe_cache_size=0) == EngineConfig()

    def test_removed_max_workers_is_an_unknown_key(self):
        with pytest.raises(ValueError, match=r"keys: \['max_workers'\]"):
            EngineConfig.from_dict({"max_workers": 4})
        with pytest.raises(TypeError, match="max_workers"):
            EngineConfig(max_workers=4)
        assert "max_workers" not in EngineConfig().to_dict()

    def test_serving_knobs_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(cache_size=-1)
        with pytest.raises(ValueError):
            EngineConfig(feature_cache_size=-1)

    @pytest.mark.parametrize(
        "key, value",
        [("auto_compact_threshold", 3), ("page_size", 10), ("num_shards", 2)],
    )
    def test_removed_settings_are_unknown_keys(self, key, value):
        """Settings nothing set to a second value are constants now: a
        config naming one fails loudly instead of being ignored."""
        with pytest.raises(ValueError, match=rf"keys: \['{key}'\]"):
            EngineConfig.from_dict({key: value})
        with pytest.raises(TypeError, match=key):
            EngineConfig(**{key: value})
        assert key not in EngineConfig().to_dict()

    def test_deadline_knobs_round_trip_and_validate(self):
        config = EngineConfig(deadline_ms=75.5)
        restored = EngineConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.deadline_ms == 75.5
        assert EngineConfig().deadline_ms is None  # unbounded by default
        with pytest.raises(ValueError, match="deadline_ms"):
            EngineConfig(deadline_ms=0)
        for non_finite in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deadline_ms"):
                EngineConfig(deadline_ms=non_finite)
        with pytest.raises(ValueError, match="deadline_ms"):
            EngineConfig(deadline_ms=-1.0)

    def test_removed_strict_deadline_mode_is_an_unknown_key(self):
        """A spent budget always degrades: there is no raising mode."""
        with pytest.raises(TypeError, match="degraded_ok"):
            EngineConfig(degraded_ok=False)
        with pytest.raises(ValueError, match=r"keys: \['degraded_ok'\]"):
            EngineConfig.from_dict({"degraded_ok": False})
        assert "degraded_ok" not in EngineConfig().to_dict()


class TestRegistry:
    def test_unknown_algorithm_error(self):
        with pytest.raises(UnknownAlgorithmError) as exc:
            REGISTRY.get_algorithm("missing")
        assert "missing" in str(exc.value)
        assert "table-centric" in str(exc.value)  # lists the options
        # Callers catching KeyError still work, and so does ``in``.
        assert isinstance(exc.value, KeyError)
        assert "missing" not in REGISTRY

    def test_default_registry_holds_table2_algorithms(self):
        assert set(REGISTRY.names()) == {
            "none", "alpha-expansion", "bp", "trws", "table-centric",
        }
        # The registry reads like the name -> algorithm dict it replaced.
        assert dict(REGISTRY.items())["table-centric"] is (
            REGISTRY.get_algorithm("table-centric")
        )
        assert REGISTRY["none"] is independent_inference
        assert len(REGISTRY) == 5 and sorted(REGISTRY) == REGISTRY.names()


class TestLRUCache:
    """The service's result and probe caches: typed ``BoundedCache``s read
    through ``lookup()`` and reported through ``CacheStats.of``."""

    def test_hit_miss_counters(self):
        cache = BoundedCache(capacity=2)
        assert cache.lookup("a") == (False, None)
        cache.put("a", 1)
        assert cache.lookup("a") == (True, 1)
        stats = CacheStats.of(cache)
        assert stats == CacheStats(hits=1, misses=1, size=1, capacity=2)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = BoundedCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.lookup("a")  # refresh a: b is now least-recent
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.lookup("a") == (True, 1)
        assert cache.lookup("c") == (True, 3)

    def test_zero_capacity_disables(self):
        cache = BoundedCache(capacity=0)
        cache.put("a", 1)
        assert cache.lookup("a") == (False, None)
        assert len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = BoundedCache(capacity=4)
        cache.put("a", 1)
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert CacheStats.of(cache).hits == 1


class TestRequestTypes:
    def test_normalized_key_collapses_surface_forms(self):
        a = normalized_query_key(Query.parse("Country |  CURRENCY"))
        b = normalized_query_key(Query.parse("country | currency"))
        assert a == b
        # One implementation: result, probe and feature caches share it.
        assert normalized_query_key is query_feature_key

    def test_request_validation(self):
        with pytest.raises(ValueError):
            QueryRequest.parse("a | b", page=0)
        with pytest.raises(ValueError):
            QueryRequest.parse("a | b", page_size=0)
        for deadline_ms in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deadline_ms"):
                QueryRequest.parse("a | b", deadline_ms=deadline_ms)

    def test_request_coercion(self):
        request = QueryRequest.of("a | b")
        assert request.query.columns == ("a", "b")
        assert QueryRequest.of(request) is request
        assert QueryRequest.of(Query.parse("a")).query.q == 1

    def test_num_pages_defensive_against_bad_page_size(self):
        """Direct construction with page_size <= 0 must not divide by
        zero — one page, no next page (requests validate their own)."""
        from repro.pipeline.wwt import QueryTiming
        from repro.service import QueryResponse

        def response(page_size):
            return QueryResponse(
                query=Query.parse("a | b"), header=["a", "b"], rows=[],
                page=1, page_size=page_size, total_rows=42,
                timing=QueryTiming(), algorithm="none",
            )

        assert response(0).num_pages == 1
        assert response(-3).num_pages == 1
        assert not response(0).has_next_page
        assert response(10).num_pages == 5
        assert response(0).to_dict()["num_pages"] == 1  # no crash


@pytest.fixture(scope="module")
def service(small_env):
    return WWTService(
        small_env.synthetic.corpus,
        EngineConfig(cache_size=64),
    )


class TestWWTService:
    def test_answer_shape(self, service):
        response = service.answer("country | currency")
        assert response.header == ["country", "currency"]
        assert response.total_rows > 0
        assert len(response.rows) <= response.page_size
        assert response.algorithm == "table-centric"
        assert response.timing.total >= response.timing.column_map

    def test_cache_hit_on_normalized_repeat(self, small_env):
        service = WWTService(small_env.synthetic.corpus)
        cold = service.answer("country | gdp")
        warm = service.answer("Country |  GDP")  # same normalized key
        assert not cold.cache_hit
        assert warm.cache_hit
        assert [r.cells for r in warm.rows] == [r.cells for r in cold.rows]
        stats = service.stats()
        assert stats.result_cache.hits == 1
        assert stats.result_cache.misses == 1

    def test_cache_bypass(self, small_env):
        service = WWTService(small_env.synthetic.corpus)
        service.answer("dog breed")
        bypass = service.answer(QueryRequest.parse("dog breed", use_cache=False))
        assert not bypass.cache_hit

    def test_inference_override_is_cached_separately(self, service):
        a = service.answer(QueryRequest.parse("us states | capitals"))
        b = service.answer(
            QueryRequest.parse("us states | capitals", inference="none")
        )
        assert not b.cache_hit
        assert b.algorithm == "none"
        assert a.algorithm == "table-centric"

    def test_pagination(self, service):
        full = service.answer(QueryRequest.parse("country | currency",
                                                 page_size=1000))
        total = full.total_rows
        page_size = max(1, total // 3)
        seen = []
        page = 1
        while True:
            response = service.answer(
                QueryRequest.parse("country | currency",
                                   page=page, page_size=page_size)
            )
            assert response.num_pages == -(-total // page_size)
            seen.extend(tuple(r.cells) for r in response.rows)
            if not response.has_next_page:
                break
            page += 1
        assert seen == [tuple(r.cells) for r in full.rows]

    def test_explain_payload(self, service):
        response = service.answer(
            QueryRequest.parse("country | currency", explain=True)
        )
        explain = response.explain
        assert explain is not None
        assert explain["algorithm"] == "table-centric"
        assert explain["num_candidates"] >= len(explain["relevant_tables"])
        for entry in explain["relevant_tables"]:
            assert set(entry) == {"table_id", "relevance", "column_mapping"}

    def test_answer_full_exposes_pipeline_artifact(self, service):
        full = service.answer_full("country | currency")
        assert isinstance(full, WWTAnswer)
        assert full.problem is not None
        assert full.probe.num_candidates >= 0

    def test_batch_preserves_input_order(self, small_env):
        service = WWTService(small_env.synthetic.corpus)
        texts = ["country | currency", "dog breed", "country | gdp",
                 "dog breed", "country | currency"]
        responses = service.answer_batch(texts)
        assert [str(r.query) for r in responses] == texts
        assert service.stats().batches == 1

    def test_batch_empty(self, service):
        assert service.answer_batch([]) == []

    def test_batch_caching_speeds_up_repeats(self, small_env):
        """Acceptance: >=20 workload queries, repeats measurably faster."""
        service = WWTService(
            small_env.synthetic.corpus,
            EngineConfig(cache_size=128),
        )
        queries = [wq.query for wq in small_env.queries[:20]]
        assert len(queries) >= 20

        start = time.perf_counter()
        cold = service.answer_batch(queries)
        cold_time = time.perf_counter() - start

        start = time.perf_counter()
        warm = service.answer_batch(queries)
        warm_time = time.perf_counter() - start

        assert all(not r.cache_hit for r in cold)
        assert all(r.cache_hit for r in warm)
        stats = service.stats()
        assert stats.result_cache.hits >= len(queries)
        assert warm_time < cold_time
        # Warm rows are byte-identical to cold rows, in order.
        for c, w in zip(cold, warm):
            assert [r.cells for r in c.rows] == [r.cells for r in w.rows]

    def test_single_flight_collapses_concurrent_duplicates(self, small_env):
        service = WWTService(small_env.synthetic.corpus)
        computations = []
        original = service._compute

        def counting_compute(query, name, deadline_ms=None):
            computations.append(str(query))
            return original(query, name, deadline_ms)

        service._compute = counting_compute
        barrier = threading.Barrier(4)
        responses = []

        def ask():
            barrier.wait()
            responses.append(service.answer("country | currency"))

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(responses) == 4
        assert len(computations) == 1
        assert sum(1 for r in responses if not r.cache_hit) == 1
        assert sum(1 for r in responses if r.cache_hit) == 3

    def test_probe_cache_stats_stay_zero_after_traffic(self, small_env):
        service = WWTService(small_env.synthetic.corpus)
        service.answer("country | currency")
        service.answer(QueryRequest.parse("country | currency", inference="none"))
        service.answer_full("country | currency", use_cache=False)
        assert service.stats().probe_cache == CacheStats(0, 0, 0, 0)

    def test_stats_to_dict(self, service):
        data = service.stats().to_dict()
        assert {"queries", "batches", "total_time",
                "result_cache", "probe_cache",
                "stages", "deadline_hits", "degraded_answers"} <= set(data)
        for aggregate in data["stages"].values():
            assert {"count", "total", "mean", "p50", "p95"} == set(aggregate)

    def test_clear_caches(self, small_env):
        service = WWTService(small_env.synthetic.corpus)
        service.answer("dog breed")
        service.clear_caches()
        response = service.answer("dog breed")
        assert not response.cache_hit


class TestShardedServing:
    """EngineConfig index knobs + WWTService corpus loading."""

    def test_new_knobs_round_trip(self):
        config = EngineConfig(index_path="/tmp/corpus")
        restored = EngineConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.index_path == "/tmp/corpus"

    def test_index_path_coerced_to_str(self, tmp_path):
        config = EngineConfig(index_path=tmp_path / "corpus")
        assert isinstance(config.index_path, str)
        assert config.to_dict()["index_path"] == str(tmp_path / "corpus")

    def test_no_corpus_no_path_rejected(self):
        with pytest.raises(ValueError, match="index_path"):
            WWTService()

    def test_service_from_persisted_corpus(self, small_env, tmp_path):
        from repro.index import build_sharded_corpus

        tables = list(small_env.synthetic.corpus)
        build_sharded_corpus(tables, 2).save(tmp_path / "corpus")

        by_path = WWTService(tmp_path / "corpus")
        by_config = WWTService(
            config=EngineConfig(index_path=str(tmp_path / "corpus"))
        )
        in_memory = WWTService(small_env.synthetic.corpus)

        expected = in_memory.answer("country | currency")
        for service in (by_path, by_config):
            assert service.corpus.num_shards == 2
            response = service.answer("country | currency")
            assert response.header == expected.header
            assert [r.cells for r in response.rows] == (
                [r.cells for r in expected.rows]
            )

    @staticmethod
    def _table_maps(corpus):
        """The mmap handle of every materialized shard's lazy table store."""
        return [
            shard.store._mm for shard in corpus.shards if shard.materialized
        ]

    def test_service_close_owns_loaded_corpus(self, small_env, tmp_path):
        from repro.index import build_sharded_corpus

        tables = list(small_env.synthetic.corpus)
        build_sharded_corpus(tables, 2).save(tmp_path / "corpus")
        with WWTService(tmp_path / "corpus") as service:
            assert service._owns_corpus
            service.answer("country | currency")
            maps = self._table_maps(service.corpus)
            assert len(maps) == 2 and None not in maps
        assert self._table_maps(service.corpus) == [None, None]

    def test_service_close_leaves_caller_corpus_alone(
        self, small_env, tmp_path
    ):
        from repro.index import build_sharded_corpus, load_corpus

        tables = list(small_env.synthetic.corpus)
        build_sharded_corpus(tables, 2).save(tmp_path / "corpus")
        with load_corpus(tmp_path / "corpus") as corpus:
            service = WWTService(corpus)
            service.answer("country | currency")
            service.close()
            maps = self._table_maps(corpus)  # caller owns them
            assert len(maps) == 2 and None not in maps
