"""Tests for the HTTP serving layer: protocol, admission, overload."""

import io
import json
import threading
import time

import pytest

from repro.consolidate.merge import AnswerRow
from repro.cli import main
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.faults import POINT_SERVE_WORKER, FaultRule, Once, injected
from repro.index import build_corpus_index
from repro.pipeline.wwt import QueryTiming
from repro.query.model import Query
from repro.serve import (
    ERROR_BAD_JSON,
    ERROR_BODY_TOO_LARGE,
    ERROR_INTERNAL,
    ERROR_INVALID_VALUE,
    ERROR_METHOD_NOT_ALLOWED,
    ERROR_MISSING_FIELD,
    ERROR_NOT_FOUND,
    ERROR_QUEUE_FULL,
    ERROR_RATE_LIMITED,
    ERROR_SHUTTING_DOWN,
    ERROR_UNKNOWN_FIELD,
    RateLimiter,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    TokenBucket,
    answer_payload,
    parse_query_payload,
    response_envelope,
)
from repro.service import QueryRequest, QueryResponse, WWTService


# ---------------------------------------------------------------------------
# Stubs


class _StubEngineStats:
    def to_dict(self):
        return {"queries": 0}


def make_response(query, degraded=False, stages=("parse", "rank")):
    return QueryResponse(
        query=query,
        header=["a", "b"],
        rows=[AnswerRow(cells=["x", "y"], support=2, relevance=0.5)],
        page=1,
        page_size=10,
        total_rows=1,
        timing=QueryTiming(),
        algorithm="stub",
        stages_ran=list(stages),
        degraded=degraded,
    )


class StubService:
    """Configurable engine stand-in for deterministic admission tests."""

    def __init__(self, block=False, degraded=False, raise_exc=None):
        self.block = block
        self.degraded = degraded
        self.raise_exc = raise_exc
        #: Set when a worker enters answer(); lets tests wait until the
        #: single worker is provably busy.
        self.started = threading.Event()
        #: Workers block on this until the test releases them.
        self.release = threading.Event()
        self.requests = []
        self._lock = threading.Lock()

    def answer(self, request):
        with self._lock:
            self.requests.append(request)
        self.started.set()
        if self.block:
            assert self.release.wait(timeout=30), "test never released stub"
        if self.raise_exc is not None:
            raise self.raise_exc
        return make_response(request.query, degraded=self.degraded)

    def stats(self):
        return _StubEngineStats()


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


QUERY_BODY = {"query": "country | currency"}


# ---------------------------------------------------------------------------
# ServeConfig


class TestServeConfig:
    def test_defaults_valid_and_round_trip(self):
        config = ServeConfig()
        assert config.host == "127.0.0.1"
        assert config.rate_limit is None
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_partial_from_dict(self):
        config = ServeConfig.from_dict({"workers": 2, "rate_limit": 5.0})
        assert config.workers == 2
        assert config.rate_limit == 5.0
        assert config.queue_depth == ServeConfig().queue_depth

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ServeConfig keys"):
            ServeConfig.from_dict({"worker": 2})

    def test_removed_execution_mode_is_an_unknown_key(self):
        with pytest.raises(ValueError, match="unknown ServeConfig keys") as err:
            ServeConfig.from_dict({"execution_mode": "async"})
        assert "'workers'" in str(err.value)  # the known-key list
        with pytest.raises(TypeError):
            ServeConfig(execution_mode="async")

    @pytest.mark.parametrize("bad", [
        {"host": ""},
        {"port": -1},
        {"port": 70000},
        {"workers": 0},
        {"queue_depth": 0},
        {"rate_limit": 0.0},
        {"rate_burst": 0},
        {"rate_clients": 0},
        {"default_deadline_ms": 0},
        {"max_body_bytes": 0},
        {"retry_after_s": 0},
        {"client_header": ""},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(**bad)


# ---------------------------------------------------------------------------
# Protocol: request parsing


def parse(payload):
    return parse_query_payload(json.dumps(payload).encode("utf-8"))


class TestParseQueryPayload:
    def test_minimal_and_full(self):
        request = parse({"query": "country | currency"})
        assert request.query == Query.parse("country | currency")
        assert request.page == 1 and request.page_size is None
        assert request.use_cache is True and request.deadline_ms is None
        request = parse({
            "query": "dog breed", "page": 2, "page_size": 5,
            "explain": True, "use_cache": False, "inference": "bp",
            "deadline_ms": 150,
        })
        assert request.page == 2 and request.page_size == 5
        assert request.explain and not request.use_cache
        assert request.inference == "bp"
        assert request.deadline_ms == 150.0

    def test_limit_is_page_size_alias(self):
        assert parse({"query": "a", "limit": 7}).page_size == 7

    def test_limit_and_page_size_together_refused(self):
        with pytest.raises(ServeError) as exc:
            parse({"query": "a", "limit": 7, "page_size": 7})
        assert exc.value.code == ERROR_INVALID_VALUE

    def test_undecodable_body(self):
        with pytest.raises(ServeError) as exc:
            parse_query_payload(b"{not json")
        assert exc.value.code == ERROR_BAD_JSON
        with pytest.raises(ServeError) as exc:
            parse_query_payload(b"\xff\xfe")
        assert exc.value.code == ERROR_BAD_JSON

    def test_non_object_body(self):
        with pytest.raises(ServeError) as exc:
            parse_query_payload(b'["query"]')
        assert exc.value.code == ERROR_INVALID_VALUE

    def test_unknown_field_lists_known_ones(self):
        with pytest.raises(ServeError) as exc:
            parse({"query": "a", "pageSize": 5})
        assert exc.value.code == ERROR_UNKNOWN_FIELD
        assert "pageSize" in exc.value.message
        assert "page_size" in exc.value.message

    def test_missing_query(self):
        with pytest.raises(ServeError) as exc:
            parse({"page": 1})
        assert exc.value.code == ERROR_MISSING_FIELD

    @pytest.mark.parametrize("payload", [
        {"query": 7},
        {"query": "a", "page": "2"},
        {"query": "a", "page": True},
        {"query": "a", "page_size": 2.5},
        {"query": "a", "explain": "yes"},
        {"query": "a", "use_cache": 1},
        {"query": "a", "deadline_ms": "fast"},
        {"query": "a", "deadline_ms": True},
        {"query": "a", "inference": 3},
    ])
    def test_wrong_types_refused(self, payload):
        with pytest.raises(ServeError) as exc:
            parse(payload)
        assert exc.value.code == ERROR_INVALID_VALUE
        assert exc.value.status == 400

    @pytest.mark.parametrize("payload", [
        {"query": "a", "page": 0},
        {"query": "a", "page_size": 0},
        {"query": "a", "limit": -3},
        {"query": "a", "deadline_ms": 0},
        {"query": "a", "deadline_ms": -1.5},
        {"query": "  |  "},
    ])
    def test_out_of_range_values_refused(self, payload):
        with pytest.raises(ServeError) as exc:
            parse(payload)
        assert exc.value.code == ERROR_INVALID_VALUE

    def test_unknown_inference_names_options(self):
        with pytest.raises(ServeError) as exc:
            parse({"query": "a", "inference": "oracle"})
        assert exc.value.code == ERROR_INVALID_VALUE
        assert "table-centric" in exc.value.message


class TestEnvelopes:
    def test_error_envelope_shape(self):
        exc = ServeError(ERROR_QUEUE_FULL, "full", status=429, retry_after_s=2)
        assert exc.envelope() == {
            "error": {"code": "queue_full", "message": "full"}
        }

    def test_response_envelope_splits_answer_from_serving(self):
        response = make_response(Query.parse("a | b"), degraded=True)
        response.served_in = 0.5
        envelope = response_envelope(response, queue_ms=12.0)
        assert envelope["answer"] == answer_payload(response)
        assert "degraded" not in envelope["answer"]
        assert envelope["serving"]["degraded"] is True
        assert envelope["serving"]["stages_ran"] == ["parse", "rank"]
        assert envelope["serving"]["queue_ms"] == 12.0
        assert envelope["serving"]["served_in_ms"] == 500.0

    def test_answer_payload_is_json_serializable_and_stable(self):
        response = make_response(Query.parse("a | b"))
        first = json.dumps(answer_payload(response), sort_keys=True)
        second = json.dumps(answer_payload(response), sort_keys=True)
        assert first == second
        assert "support" in first


# ---------------------------------------------------------------------------
# Admission primitives on a fake clock


class TestTokenBucket:
    def test_burst_then_refusal_with_exact_retry_after(self):
        bucket = TokenBucket(rate=2.0, burst=2, now=100.0)
        assert bucket.try_take(100.0) == (True, 0.0)
        assert bucket.try_take(100.0) == (True, 0.0)
        granted, retry_after = bucket.try_take(100.0)
        assert not granted
        assert retry_after == pytest.approx(0.5)  # 1 token at 2 tokens/s

    def test_continuous_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=1.0, burst=3, now=0.0)
        for _ in range(3):
            assert bucket.try_take(0.0)[0]
        assert not bucket.try_take(0.5)[0]  # only half a token back
        assert bucket.try_take(1.6)[0]      # refilled past 1
        # A long idle period refills to burst, not beyond.
        for _ in range(3):
            assert bucket.try_take(1000.0)[0]
        assert not bucket.try_take(1000.0)[0]

    def test_clock_going_backwards_is_clamped(self):
        bucket = TokenBucket(rate=1.0, burst=1, now=10.0)
        assert bucket.try_take(10.0)[0]
        granted, retry_after = bucket.try_take(5.0)
        assert not granted and retry_after > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1, now=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0, now=0.0)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestRateLimiter:
    def test_clients_are_isolated(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.try_acquire("a")[0]
        assert not limiter.try_acquire("a")[0]
        assert limiter.try_acquire("b")[0]  # b has its own bucket

    def test_refill_on_fake_clock(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=10.0, burst=1, clock=clock)
        assert limiter.try_acquire("a")[0]
        granted, retry_after = limiter.try_acquire("a")
        assert not granted and retry_after == pytest.approx(0.1)
        clock.now += 0.1
        assert limiter.try_acquire("a")[0]

    def test_lru_eviction_bounds_tracked_clients(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, max_clients=2, clock=clock)
        assert limiter.try_acquire("a")[0]
        assert limiter.try_acquire("b")[0]
        assert limiter.try_acquire("a")[0] is False  # refreshes a's recency
        assert limiter.try_acquire("c")[0]  # evicts b (least recent)
        assert len(limiter) == 2
        assert limiter.bucket_tokens("b") is None
        # The evicted client restarts with a full (fresh) bucket.
        assert limiter.try_acquire("b")[0]


# ---------------------------------------------------------------------------
# The server over real sockets (stub engine)


def start_stub(service, **overrides):
    defaults = dict(port=0, workers=1, queue_depth=4)
    defaults.update(overrides)
    return ReproServer(service, ServeConfig(**defaults)).start()


class TestServerCounters:
    def test_reject_reasons(self):
        server = ReproServer(StubService(), ServeConfig(port=0))
        for code in (
            ERROR_QUEUE_FULL, ERROR_RATE_LIMITED, ERROR_BAD_JSON,
            ERROR_SHUTTING_DOWN, ERROR_BODY_TOO_LARGE,
        ):
            server.count_refusal(ServeError(code, "refused"))
        stats = server.stats().to_dict()
        assert stats["rejected"] == {  # every other code is a bad request
            "queue_full": 1, "rate_limited": 1, "invalid": 2, "shutdown": 1,
        }
        assert stats["accepted"] == 0

    def test_execution_lifecycle(self):
        stub = StubService(block=True, degraded=True)
        server = start_stub(stub)
        statuses = []

        def post():
            with ServeClient(server.host, server.port) as client:
                statuses.append(client.query(QUERY_BODY)[0])

        try:
            poster = threading.Thread(target=post)
            poster.start()
            assert stub.started.wait(timeout=10)
            mid = server.stats()
            assert (mid.accepted, mid.in_flight, mid.completed) == (1, 1, 0)
            assert mid.queue_wait.count == 1 and mid.handle.count == 0
            stub.release.set()
            poster.join(timeout=30)
            done = server.stats()
            assert done.in_flight == 0
            assert done.completed == 1 and done.shed_degraded == 1
            assert done.queue_wait.count == 1 and done.handle.count == 1
            stub.raise_exc = RuntimeError("boom")
            post()
            failed = server.stats()
            assert (failed.accepted, failed.completed) == (2, 1)
            assert failed.errors_internal == 1 and failed.shed_degraded == 1
            assert statuses == [200, 500]
        finally:
            stub.release.set()
            server.shutdown()

    def test_snapshots_never_show_more_finished_than_admitted(self):
        """Clients hammer a small server (some refused 429) while this
        thread polls: no snapshot may count more jobs as finished or
        running than were admitted."""
        server = start_stub(StubService(), workers=2, queue_depth=2)
        statuses = []

        def client_loop(i):
            with ServeClient(server.host, server.port, client_id=f"c{i}") as c:
                for _ in range(15):
                    statuses.append(c.query(QUERY_BODY)[0])

        clients = [
            threading.Thread(target=client_loop, args=(i,)) for i in range(6)
        ]
        try:
            for thread in clients:
                thread.start()
            torn = []
            while any(thread.is_alive() for thread in clients):
                s = server.stats()
                if s.completed + s.errors_internal + s.in_flight > s.accepted:
                    torn.append(s)
            for thread in clients:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in clients)
            assert torn == []
            final = server.stats()
            assert len(statuses) == 90 and set(statuses) <= {200, 429}
            assert final.accepted == final.completed == statuses.count(200)
            assert final.rejected_queue_full == statuses.count(429)
        finally:
            server.shutdown()


class TestServerAdmission:
    def test_queue_full_rejects_with_retry_after(self):
        stub = StubService(block=True)
        server = start_stub(stub, workers=1, queue_depth=1, retry_after_s=3)
        results = []

        def post():
            with ServeClient(server.host, server.port) as client:
                results.append(client.query(QUERY_BODY))

        try:
            first = threading.Thread(target=post)
            first.start()
            assert stub.started.wait(timeout=10)  # worker is busy
            second = threading.Thread(target=post)
            second.start()
            wait_until(lambda: server.queue_depth == 1)  # queue is full
            with ServeClient(server.host, server.port) as client:
                status, headers, body = client.query(QUERY_BODY)
            assert status == 429
            assert body["error"]["code"] == ERROR_QUEUE_FULL
            assert headers["retry-after"] == "3"
            stub.release.set()
            first.join(timeout=30)
            second.join(timeout=30)
            assert [status for status, _, _ in results] == [200, 200]
            stats = server.stats()
            assert stats.accepted == 2 and stats.completed == 2
            assert stats.rejected_queue_full == 1
        finally:
            stub.release.set()
            server.shutdown()

    def test_rate_limit_rejects_per_client(self):
        # One token, glacial refill: the second request from the same
        # client must be refused; an unrelated client is untouched.
        server = start_stub(
            StubService(), rate_limit=0.001, rate_burst=1, workers=2,
        )
        try:
            with ServeClient(server.host, server.port, client_id="a") as a:
                assert a.query(QUERY_BODY)[0] == 200
                status, headers, body = a.query(QUERY_BODY)
                assert status == 429
                assert body["error"]["code"] == ERROR_RATE_LIMITED
                assert int(headers["retry-after"]) >= 1
            with ServeClient(server.host, server.port, client_id="b") as b:
                assert b.query(QUERY_BODY)[0] == 200
            assert server.stats().rejected_rate_limited == 1
        finally:
            server.shutdown()

    def test_stats_and_healthz_respond_while_workers_are_saturated(self):
        stub = StubService(block=True)
        server = start_stub(stub, workers=1)
        try:
            poster = threading.Thread(
                target=lambda: ServeClient(
                    server.host, server.port
                ).query(QUERY_BODY),
            )
            poster.start()
            assert stub.started.wait(timeout=10)
            with ServeClient(server.host, server.port) as client:
                status, _, health = client.healthz()
                assert status == 200 and health["status"] == "ok"
                status, _, stats = client.stats()
                assert status == 200
                assert stats["server"]["in_flight"] == 1
                assert stats["server"]["accepted"] == 1
                assert stats["server"]["completed"] == 0
                assert stats["service"] == {"queries": 0}
            stub.release.set()
            poster.join(timeout=30)
        finally:
            stub.release.set()
            server.shutdown()

    def test_default_deadline_and_per_request_override_reach_engine(self):
        stub = StubService()
        server = start_stub(stub, default_deadline_ms=500.0)
        try:
            with ServeClient(server.host, server.port) as client:
                assert client.query(QUERY_BODY)[0] == 200
                assert client.query(
                    dict(QUERY_BODY, deadline_ms=50_000.0)
                )[0] == 200
            seen = [request.deadline_ms for request in stub.requests]
            # Queue wait is deducted from the budget, so the engine sees
            # slightly less than the nominal deadline — never more.
            assert 0 < seen[0] <= 500.0
            assert 500.0 < seen[1] <= 50_000.0
        finally:
            server.shutdown()

    def test_degraded_answers_are_counted_and_flagged(self):
        server = start_stub(StubService(degraded=True))
        try:
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.query(QUERY_BODY)
            assert status == 200
            assert body["serving"]["degraded"] is True
            assert server.stats().shed_degraded == 1
        finally:
            server.shutdown()

    def test_engine_crash_is_a_500_envelope(self):
        server = start_stub(StubService(raise_exc=RuntimeError("boom")))
        try:
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.query(QUERY_BODY)
            assert status == 500
            assert body["error"]["code"] == ERROR_INTERNAL
            assert "boom" in body["error"]["message"]
            assert server.stats().errors_internal == 1
        finally:
            server.shutdown()

    def test_admission_is_counted_before_its_job_can_finish(self):
        """Regression: ``admit`` enqueued the job and counted it only
        afterwards, so a worker could finish it in between and ``/stats``
        read ``accepted 0, completed 1``."""
        server = start_stub(StubService(), workers=1)
        enqueue = server._queue.put_nowait
        seen = []

        def enqueue_then_let_it_finish(job):
            enqueue(job)
            job.future.result(timeout=10)
            wait_until(lambda: server.stats().in_flight == 0)
            seen.append(server.stats())

        server._queue.put_nowait = enqueue_then_let_it_finish
        try:
            with ServeClient(server.host, server.port) as client:
                assert client.query(QUERY_BODY)[0] == 200
            [mid] = seen
            assert (mid.accepted, mid.completed, mid.in_flight) == (1, 1, 0)
            assert server.stats().accepted == 1
        finally:
            server.shutdown()

    def test_routing_envelopes(self):
        server = start_stub(StubService())
        try:
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.request("GET", "/nope")
                assert status == 404
                assert body["error"]["code"] == ERROR_NOT_FOUND
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.request("GET", "/query")
                assert status == 405
                assert body["error"]["code"] == ERROR_METHOD_NOT_ALLOWED
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.request("POST", "/healthz", b"{}")
                assert status == 404
        finally:
            server.shutdown()

    def test_malformed_bodies_over_the_wire(self):
        server = start_stub(StubService(), max_body_bytes=64)
        try:
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.request("POST", "/query", b"{nope")
                assert status == 400
                assert body["error"]["code"] == ERROR_BAD_JSON
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.request("POST", "/query", b"")
                assert status == 400
                assert body["error"]["code"] == ERROR_BAD_JSON
            with ServeClient(server.host, server.port) as client:
                big = json.dumps(
                    {"query": "a", "inference": "x" * 100}
                ).encode()
                status, _, body = client.request("POST", "/query", big)
                assert status == 413
                assert body["error"]["code"] == ERROR_BODY_TOO_LARGE
            assert server.stats().rejected_invalid == 3
        finally:
            server.shutdown()

    def test_graceful_shutdown_drains_in_flight_work(self):
        stub = StubService(block=True)
        server = start_stub(stub, workers=1)
        results = []

        def post():
            with ServeClient(server.host, server.port) as client:
                results.append(client.query(QUERY_BODY))

        poster = threading.Thread(target=post)
        poster.start()
        assert stub.started.wait(timeout=10)
        stopper = threading.Thread(target=server.shutdown)
        stopper.start()
        wait_until(lambda: server.is_draining)
        # New work is refused while the admitted job drains.
        with ServeClient(server.host, server.port) as client:
            status, _, body = client.query(QUERY_BODY)
        assert status == 503
        assert body["error"]["code"] == ERROR_SHUTTING_DOWN
        stub.release.set()
        poster.join(timeout=30)
        stopper.join(timeout=30)
        # The in-flight request got its real answer, not a refusal.
        assert [status for status, _, _ in results] == [200]
        assert server.stats().rejected_shutdown == 1
        # shutdown() is idempotent.
        server.shutdown()

    def test_start_twice_refused(self):
        server = start_stub(StubService())
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.shutdown()

    def test_context_manager_starts_and_stops(self):
        with ReproServer(StubService(), ServeConfig(port=0)) as server:
            with ServeClient(server.host, server.port) as client:
                assert client.healthz()[0] == 200
        assert server.is_draining


# ---------------------------------------------------------------------------
# Served answers vs the in-process engine (the real service)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(seed=42, scale=0.05)).corpus


@pytest.fixture()
def service(corpus):
    return WWTService(corpus)


def type_tree(data):
    """``data`` with every leaf replaced by its type's name."""
    if isinstance(data, dict):
        return {key: type_tree(value) for key, value in data.items()}
    return type(data).__name__


_LATENCY = {
    "count": "int", "total": "float", "mean": "float",
    "p50": "float", "p95": "float",
}
_CACHE = {
    "hits": "int", "misses": "int", "size": "int", "capacity": "int",
    "hit_rate": "float",
}
#: ``service.stats().to_dict()`` after ``TestStatsShape``'s request
#: sequence, as the three separate accumulators reported it before one
#: ``Stats`` replaced them.
SERVICE_TREE = {
    "queries": "int",
    "batches": "int",
    "total_time": "float",
    "result_cache": _CACHE,
    "probe_cache": _CACHE,
    "feature_cache": _CACHE,
    "stages": {
        name: _LATENCY for name in (
            "column_map", "column_map:degraded", "consolidate", "parse",
            "probe.confidence", "probe.index1", "probe.index2",
            "probe.read1", "probe.read2", "rank",
        )
    },
    "deadline_hits": "int",
    "degraded_answers": "int",
    "degraded_reasons": {"deadline": "int"},
}
#: The ``server`` half of ``/stats`` (any request sequence).
SERVER_TREE = {
    "accepted": "int",
    "completed": "int",
    "rejected": {
        "queue_full": "int", "rate_limited": "int", "invalid": "int",
        "shutdown": "int",
    },
    "shed_degraded": "int",
    "errors_internal": "int",
    "queue_depth": "int",
    "in_flight": "int",
    "uptime_s": "float",
    "queue_wait": _LATENCY,
    "handle": _LATENCY,
}


class TestStatsShape:
    """``/stats`` and ``service.stats().to_dict()`` keep their key tree and
    value types — benchmarks and dashboards read them by path."""

    def test_fresh_service_and_server(self, service):
        idle = dict(SERVICE_TREE, stages={}, degraded_reasons={})
        assert type_tree(service.stats().to_dict()) == idle
        server = ReproServer(service, ServeConfig(port=0))
        assert type_tree(server.stats_payload()) == {
            "server": SERVER_TREE, "service": idle,
        }

    def test_after_a_request_sequence(self, service):
        service.answer("country | currency")
        service.answer("country | currency")
        service.answer(QueryRequest.parse("dog breed", deadline_ms=0.001))
        service.answer_batch(["country | gdp"])
        assert type_tree(service.stats().to_dict()) == SERVICE_TREE
        with ReproServer(service, ServeConfig(port=0)) as server:
            with ServeClient(server.host, server.port) as client:
                client.query(QUERY_BODY)
                client.query({"query": "dog breed", "deadline_ms": 0.001,
                              "use_cache": False})
                client.request("POST", "/query", b"{nope")
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.stats()
        assert status == 200
        assert type_tree(body) == {
            "server": SERVER_TREE, "service": SERVICE_TREE,
        }
        assert body["server"]["completed"] == 2
        assert body["server"]["rejected"]["invalid"] == 1


class TestServedIdentity:
    def test_served_answer_is_byte_identical_to_direct(self, service):
        with ReproServer(service, ServeConfig(port=0, workers=2)) as server:
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.query(
                    {"query": "country | currency", "page_size": 5}
                )
                assert status == 200
                direct = answer_payload(service.answer(
                    QueryRequest.parse("country | currency", page_size=5)
                ))
                assert (
                    json.dumps(body["answer"], sort_keys=True)
                    == json.dumps(direct, sort_keys=True)
                )

    def test_pagination_over_the_wire(self, service):
        with ReproServer(service, ServeConfig(port=0)) as server:
            with ServeClient(server.host, server.port) as client:
                status, _, page1 = client.query(
                    {"query": "country | currency", "limit": 2}
                )
                assert status == 200
                answer = page1["answer"]
                assert answer["page"] == 1 and answer["page_size"] == 2
                assert len(answer["rows"]) <= 2
                if answer["num_pages"] > 1:
                    status, _, page2 = client.query({
                        "query": "country | currency", "limit": 2, "page": 2,
                    })
                    assert page2["answer"]["page"] == 2
                    assert page2["answer"]["rows"] != answer["rows"]

    def test_cache_hit_flagged_in_serving_section(self, service):
        with ReproServer(service, ServeConfig(port=0)) as server:
            with ServeClient(server.host, server.port) as client:
                _, _, cold = client.query(QUERY_BODY)
                _, _, warm = client.query(QUERY_BODY)
                assert cold["serving"]["cache_hit"] is False
                assert warm["serving"]["cache_hit"] is True
                assert (
                    json.dumps(cold["answer"], sort_keys=True)
                    == json.dumps(warm["answer"], sort_keys=True)
                )

    def test_tight_deadline_sheds_to_degraded_answer(self, service):
        with ReproServer(service, ServeConfig(port=0)) as server:
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.query({
                    "query": "country | currency",
                    "deadline_ms": 0.02, "use_cache": False,
                })
            assert status == 200  # shed, not timed out
            assert body["serving"]["degraded"] is True
            ran = body["serving"]["stages_ran"]
            assert "parse" in ran
            assert len(ran) < 9  # some stages were skipped
            assert server.stats().shed_degraded == 1

    def test_overload_sheds_or_refuses_but_never_fails(self, service):
        """A small server under eight closed-loop clients: every reply is
        a (possibly degraded) 200 or a 429 — no 5xx, no socket error."""
        config = ServeConfig(
            port=0, workers=2, queue_depth=4, default_deadline_ms=2.0
        )
        queries = ["country | currency", "dog breed", "country | gdp"]
        statuses = []

        def client_loop(worker_id):
            with ServeClient(
                server.host, server.port, client_id=f"load-{worker_id}"
            ) as client:
                for i in range(6):
                    status, _, _ = client.query({
                        "query": queries[(worker_id + i) % len(queries)],
                        "use_cache": False,
                    })
                    statuses.append(status)

        with ReproServer(service, config) as server:
            clients = [
                threading.Thread(target=client_loop, args=(worker_id,))
                for worker_id in range(8)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
        assert len(statuses) == 48  # a socket error would end a loop early
        assert set(statuses) <= {200, 429} and 200 in statuses



class TestShardFailureOverHTTP:
    """The failure contract end to end: an engine error fails its request
    with a 500 naming it, counted in ``errors_internal``; the server stays
    live and the next request is served normally."""

    def test_torn_shard_fails_the_query_until_repaired(self, corpus, tmp_path):
        tables = list(corpus)
        torn_dir, pristine_dir = tmp_path / "torn", tmp_path / "pristine"
        build_corpus_index(tables, num_shards=3, save=torn_dir)
        build_corpus_index(tables, num_shards=3, save=pristine_dir)
        victim = torn_dir / "shard-0001" / "index.bin"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        with WWTService(torn_dir) as torn:
            with ReproServer(torn, ServeConfig(port=0)) as server:
                with ServeClient(server.host, server.port) as client:
                    status, _, body = client.query({"query": "country | gdp"})
                assert status == 500
                assert body["error"]["code"] == ERROR_INTERNAL
                assert "shard-0001/index.bin" in body["error"]["message"]
                with ServeClient(server.host, server.port) as client:
                    _, _, stats = client.stats()
                    health_status, _, health = client.healthz()
                assert stats["server"]["errors_internal"] == 1
                assert stats["server"]["completed"] == 0
                assert health_status == 200
                assert health == {
                    "status": "ok", "uptime_s": health["uptime_s"],
                    "queue_depth": 0, "workers": server.config.workers,
                }

        assert main(["index", "repair", str(torn_dir)], out=io.StringIO()) == 0
        request = QueryRequest.parse("country | gdp")
        with WWTService(torn_dir) as repaired, \
                WWTService(pristine_dir) as pristine:
            got, want = repaired.answer(request), pristine.answer(request)
        assert want.rows
        assert [(r.cells, r.support, r.relevance) for r in got.rows] == [
            (r.cells, r.support, r.relevance) for r in want.rows
        ]

    def test_serve_worker_fault_fails_one_request(self, service):
        with ReproServer(service, ServeConfig(port=0)) as server:
            with injected(FaultRule(POINT_SERVE_WORKER, Once())) as injector:
                with ServeClient(server.host, server.port) as client:
                    status, _, body = client.query(QUERY_BODY)
                assert status == 500
                assert body["error"]["code"] == ERROR_INTERNAL
                assert "InjectedFault" in body["error"]["message"]
                assert server.stats().errors_internal == 1
                with ServeClient(server.host, server.port) as client:
                    status, _, body = client.query(QUERY_BODY)
                assert status == 200
                assert injector.fires() == 1
            stats = server.stats()
            assert (stats.errors_internal, stats.completed) == (1, 1)
