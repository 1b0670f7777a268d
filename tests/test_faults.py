"""Tests for the fault-injection helper (``tests/faults.py``) and the
strict failure contract at each fault point (a shard error raises out of
the corpus call that hit it, before and after live mutations, and nothing
is latched), close() beside live probes, the serve client's narrow retry,
and a failed query at the service facade."""

import http.client
import socket
import sys
import threading

import pytest

from repro.index import (
    TableStore,
    build_sharded_corpus,
    load_corpus,
    shard_of,
)
from repro.serve import ServeClient
from repro.service import QueryRequest, WWTService
from repro.tables.table import WebTable

from .faults import (
    POINT_SHARD_MATERIALIZE,
    POINT_SHARD_SEARCH,
    POINT_STORE_GET,
    EveryNth,
    FaultRule,
    InjectedFault,
    Once,
    WithProbability,
    injected,
)


def make_tables(n=24, prefix="t"):
    return [
        WebTable.from_rows(
            [[f"val{i}a", f"{i}"], [f"val{i}b", f"{i + 1}"]],
            header=["name", "rank"],
            table_id=f"{prefix}{i}",
        )
        for i in range(n)
    ]


def ranking(hits):
    """Value view of a hit list (SearchHit compares by identity)."""
    return [(h.doc_id, h.score) for h in hits]


def raise_oserror(*_args, **_kwargs):
    """Stand-in for an index method whose backing storage went away."""
    raise OSError("shard storage went away")


# ---------------------------------------------------------------------------
# Trigger policies


class TestTriggerPolicies:
    def test_every_nth_fires_on_multiples(self):
        policy = EveryNth(3)
        assert [policy(i) for i in range(1, 10)] == [False, False, True] * 3

    def test_every_nth_one_is_always(self):
        assert all(EveryNth(1)(i) for i in range(1, 5))

    def test_once_fires_exactly_at(self):
        policy = Once(at=4)
        assert [policy(i) for i in range(1, 7)] == [
            False, False, False, True, False, False,
        ]

    def test_with_probability_is_seed_deterministic(self):
        policy = WithProbability(p=0.3, seed=7)
        first = [policy(i) for i in range(1, 101)]
        # A reused policy replays its draws; a fresh one draws the same.
        assert [policy(i) for i in range(1, 101)] == first
        fresh = WithProbability(p=0.3, seed=7)
        assert [fresh(i) for i in range(1, 101)] == first
        assert any(first) and not all(first)

    def test_with_probability_extremes(self):
        assert WithProbability(p=1.0, seed=1)(1)
        assert not WithProbability(p=0.0, seed=1)(1)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: EveryNth(0),
            lambda: Once(at=0),
            lambda: WithProbability(p=1.5, seed=0),
            lambda: WithProbability(p=-0.1, seed=0),
        ],
    )
    def test_invalid_policies_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


# ---------------------------------------------------------------------------
# The injector and its patches


class TestInjectorSeam:
    def test_injected_arms_and_disarms(self):
        corpus = build_sharded_corpus(make_tables(), 3)
        original = TableStore.get
        with injected(FaultRule(POINT_STORE_GET, EveryNth(1))):
            assert TableStore.get is not original
            with pytest.raises(InjectedFault):
                corpus.get_table("t1")
        assert TableStore.get is original
        assert corpus.get_table("t1").table_id == "t1"  # disarmed again

    def test_injected_disarms_on_exception(self):
        original = TableStore.get
        with pytest.raises(RuntimeError, match="boom"):
            with injected(FaultRule(POINT_STORE_GET, EveryNth(1))):
                raise RuntimeError("boom")
        assert TableStore.get is original

    def test_shard_search_trips_only_inside_the_scatter(self):
        corpus = build_sharded_corpus(make_tables(), 3)
        with injected(FaultRule(POINT_SHARD_SEARCH, EveryNth(1))) as injector:
            corpus.add_tables(make_tables(1, prefix="new"))  # reads .index
            assert injector.fires() == 0
            with pytest.raises(InjectedFault) as excinfo:
                corpus.search(["name"])
        assert excinfo.value.key == "0"

    def test_keyed_rule_matches_only_its_key(self):
        rule = FaultRule(POINT_SHARD_SEARCH, EveryNth(1), key="1")
        with injected(rule) as injector:
            injector.check(POINT_SHARD_SEARCH, key="0")  # other shard
            injector.check(POINT_SHARD_SEARCH)  # keyless call: no match
            with pytest.raises(InjectedFault) as excinfo:
                injector.check(POINT_SHARD_SEARCH, key="1")
            assert excinfo.value.point == POINT_SHARD_SEARCH
            assert excinfo.value.key == "1"
            (snap,) = injector.snapshot()
            assert snap["evaluations"] == 1 and snap["fires"] == 1

    def test_unkeyed_rule_counts_every_call_at_its_point(self):
        rule = FaultRule(POINT_SHARD_SEARCH, EveryNth(3))
        with injected(rule) as injector:
            outcomes = []
            for i in range(6):
                try:
                    injector.check(POINT_SHARD_SEARCH, key=str(i))
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("fault")
            assert outcomes == ["ok", "ok", "fault"] * 2
            assert injector.fires() == 2
            assert injector.fires(POINT_SHARD_SEARCH) == 2
            assert injector.fires(POINT_STORE_GET) == 0

    def test_same_rules_same_calls_same_fires(self):
        def run():
            fired = []
            with injected(
                FaultRule(POINT_SHARD_SEARCH, WithProbability(0.4, seed=13))
            ) as injector:
                for i in range(50):
                    try:
                        injector.check(POINT_SHARD_SEARCH, key=str(i % 4))
                    except InjectedFault:
                        fired.append(i)
            return fired

        assert run() == run()

    def test_concurrent_checks_lose_no_count(self):
        """Served requests check concurrently: no evaluation or fire is lost."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with injected(FaultRule(POINT_STORE_GET, EveryNth(7))) as injector:
                def worker():
                    for _ in range(700):
                        try:
                            injector.check(POINT_STORE_GET, key="t1")
                        except InjectedFault:
                            pass

                threads = [threading.Thread(target=worker) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                (snap,) = injector.snapshot()
        finally:
            sys.setswitchinterval(switch)
        assert (snap["evaluations"], snap["fires"]) == (8 * 700, 8 * 100)


# ---------------------------------------------------------------------------
# ShardedCorpus under the strict contract: every fault point raises


class TestShardedFailureDomains:
    """A shard is the unit that fails.  Its error raises out of the corpus
    call that hit it, whichever fault point it came from, and nothing is
    latched: the next call tries every shard again."""

    def test_strict_corpus_raises_through(self):
        corpus = build_sharded_corpus(make_tables(), 3)
        with injected(FaultRule(POINT_SHARD_SEARCH, EveryNth(1), key="0")):
            with pytest.raises(InjectedFault):
                corpus.search(["val1a"])

    def test_materialize_fault_on_lazy_shard(self, tmp_path):
        build_sharded_corpus(make_tables(), 2).save(tmp_path / "corpus")
        corpus = load_corpus(tmp_path / "corpus")
        baseline = load_corpus(tmp_path / "corpus").search(
            ["name"], limit=50
        )
        rule = FaultRule(
            POINT_SHARD_MATERIALIZE, Once(), key="shard-0001"
        )
        with injected(rule) as injector:
            with pytest.raises(InjectedFault) as excinfo:
                corpus.search(["name"], limit=50)
            assert excinfo.value.key == "shard-0001"
            assert not corpus.shards[1].materialized
            # The failed decode is not latched: the next probe
            # materializes the shard and answers in full.
            assert ranking(corpus.search(["name"], limit=50)) == ranking(
                baseline
            )
            assert injector.fires() == 1
        assert corpus.shards[1].materialized

    def test_journaled_probe_is_fault_gated_like_a_clean_one(self, tmp_path):
        """Regression: with a pending mutation a journaled corpus once
        scattered past the ``shard.search`` fault point, so the fault
        below was silently ignored."""
        build_sharded_corpus(make_tables(32), 4).save(tmp_path / "corpus")
        corpus = load_corpus(tmp_path / "corpus")
        corpus.add_tables(make_tables(1, prefix="new"))
        before = ranking(corpus.search(["name"], limit=50))
        assert "new0" in {doc_id for doc_id, _ in before}
        with injected(
            FaultRule(POINT_SHARD_SEARCH, EveryNth(1), key="1")
        ) as injector:
            with pytest.raises(InjectedFault):
                corpus.search(["name"], limit=50)
            with pytest.raises(InjectedFault):
                corpus.docs_containing_all(["name"], ["header"])
            assert injector.fires() == 2
        assert ranking(corpus.search(["name"], limit=50)) == before

        # A real failure (not an injected one) raises the same way.
        corpus.shards[2].index.search = raise_oserror
        with pytest.raises(OSError, match="went away"):
            corpus.search(["name"], limit=50)

    def test_journaled_table_reads_fail_like_a_clean_corpus(self, tmp_path):
        """Regression: a journaled corpus once read tables through
        ``get_table``, past the table-read fault point."""
        tables = make_tables(12)
        build_sharded_corpus(tables, 3).save(tmp_path / "corpus")
        ids = [t.table_id for t in tables]
        for mutated in (False, True):
            corpus = load_corpus(tmp_path / "corpus")
            if mutated:
                corpus.delete_tables(["t5"])
                corpus.add_tables([tables[5]])
            with injected(FaultRule(POINT_STORE_GET, EveryNth(1))):
                with pytest.raises(InjectedFault):
                    corpus.get_many(ids)
            assert [t.table_id for t in corpus.get_many(ids)] == ids

        # With pending mutations: order, deletes and adds hold, and one
        # failing read fails the whole call, naming its table.
        corpus = load_corpus(tmp_path / "corpus")
        corpus.add_tables(make_tables(2, prefix="new"))
        corpus.delete_tables(["t3"])
        wanted = ["new1", "t1", "t0", "t3", "new0", "t2", "zz", "t0"]
        live = ["new1", "t1", "t0", "new0", "t2", "t0"]
        assert [t.table_id for t in corpus.get_many(wanted)] == live
        with injected(FaultRule(POINT_STORE_GET, EveryNth(1), key="t1")):
            with pytest.raises(InjectedFault) as excinfo:
                corpus.get_many(wanted)
        assert excinfo.value.key == "t1"
        assert [t.table_id for t in corpus.get_many(wanted)] == live

    def test_broken_shard_is_not_blamed_on_a_healthy_peer(self):
        """Regression: the corpus-global df used to be summed over *all*
        shards from inside whichever shard's score loop first asked for a
        term, so one broken shard broke its peers' scoring too.  The df
        now comes from the corpus statistics and never reads a shard."""
        corpus = build_sharded_corpus(make_tables(32), 4)
        terms = ["name", "rank"]
        baseline = ranking(corpus.search(terms, limit=50))
        broken = corpus.shards[1].index
        broken.search = broken.document_frequency = raise_oserror
        with pytest.raises(OSError, match="went away"):
            corpus.search(terms, limit=50)
        # Every healthy shard still scores its documents exactly as the
        # fault-free probe did.
        for si in (0, 2, 3):
            hits = corpus.shards[si].index.search(
                terms, limit=50, idf=corpus.global_idf
            )
            assert ranking(hits) == [
                hit for hit in baseline if shard_of(hit[0], 4) == si
            ]
        del broken.search, broken.document_frequency
        assert ranking(corpus.search(terms, limit=50)) == baseline


# ---------------------------------------------------------------------------
# close() beside live probes


class TestCloseScatterRace:
    def test_concurrent_close_never_breaks_a_probe(self, tmp_path):
        build_sharded_corpus(make_tables(32), 4).save(tmp_path / "corpus")
        corpus = load_corpus(tmp_path / "corpus")
        baseline = corpus.search(["name"], limit=50)
        errors = []
        results = []
        started = threading.Event()

        def prober():
            started.set()
            try:
                for _ in range(50):
                    results.append(ranking(corpus.search(["name"], limit=50)))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        thread = threading.Thread(target=prober)
        thread.start()
        started.wait(timeout=10)
        corpus.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert errors == []
        assert all(result == ranking(baseline) for result in results)


# ---------------------------------------------------------------------------
# ServeClient narrow retry (satellite: flaky fake server)


class FlakyHTTPServer:
    """Raw-socket HTTP server that kills its first ``drop`` exchanges.

    A dropped exchange reads the full request, then closes the socket
    without replying — the client sees ``RemoteDisconnected`` *after* its
    bytes provably reached the server, the exact case the narrow retry
    must distinguish from a failure before the send.
    """

    def __init__(self, drop=0):
        self.drop = drop
        self.requests = []  # request lines actually received
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.host, self.port = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _read_request(self, conn):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        headers = head.decode("latin-1").split("\r\n")
        length = 0
        for line in headers[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(body) < length:
            chunk = conn.recv(4096)
            if not chunk:
                return None
            body += chunk
        return headers[0]

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed: server shut down
            with conn:
                request_line = self._read_request(conn)
                if request_line is None:
                    continue
                self.requests.append(request_line)
                if self.drop > 0:
                    self.drop -= 1
                    continue  # close without replying
                body = b'{"ok": true}'
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n"
                    b"Connection: close\r\n\r\n%s" % (len(body), body)
                )

    def close(self):
        try:
            # shutdown() (not just close()) wakes the blocked accept().
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(timeout=10)


class TestServeClientRetry:
    def test_get_retries_after_midstream_disconnect(self):
        server = FlakyHTTPServer(drop=1)
        try:
            with ServeClient(server.host, server.port, timeout_s=10) as c:
                status, _, body = c.request("GET", "/healthz")
            assert status == 200 and body == {"ok": True}
            # Dropped once, retried once: the server saw both attempts.
            assert server.requests == ["GET /healthz HTTP/1.1"] * 2
        finally:
            server.close()

    def test_post_is_not_resent_after_its_bytes_left(self):
        server = FlakyHTTPServer(drop=1)
        try:
            with ServeClient(server.host, server.port, timeout_s=10) as c:
                with pytest.raises(
                    (http.client.HTTPException, ConnectionError)
                ):
                    c.post_json("/query", {"query": "a | b"})
            # Exactly one attempt: a sent POST must never be replayed.
            assert server.requests == ["POST /query HTTP/1.1"]
        finally:
            server.close()

    def test_post_retried_when_failure_precedes_the_send(self):
        server = FlakyHTTPServer(drop=0)
        try:
            client = ServeClient(server.host, server.port, timeout_s=10)
            real_connection = client._connection
            dials = {"n": 0}

            def flaky_dial():
                dials["n"] += 1
                if dials["n"] == 1:
                    raise ConnectionRefusedError("first dial refused")
                return real_connection()

            client._connection = flaky_dial
            status, _, _ = client.post_json("/query", {"query": "a | b"})
            client.close()
            # The failure preceded the send, so even a POST retries —
            # and the server only ever saw one copy.
            assert status == 200
            assert server.requests == ["POST /query HTTP/1.1"]
        finally:
            server.close()


# ---------------------------------------------------------------------------
# A failed query at the service facade


def row_values(response):
    return [(r.cells, r.support, r.relevance) for r in response.rows]


class TestServiceFailure:
    def test_failed_query_raises_caches_nothing_and_is_retried(self):
        service = WWTService(build_sharded_corpus(make_tables(48), 3))
        pristine = WWTService(build_sharded_corpus(make_tables(48), 3))
        request = QueryRequest.parse("name | rank")
        expected = pristine.answer(request)
        assert expected.rows  # the query has an answer to get wrong
        with injected(FaultRule(POINT_SHARD_SEARCH, Once(), key="1")):
            with pytest.raises(InjectedFault):
                service.answer(request)
            # The next request tries every shard again and is computed,
            # not served from anything the failed one left behind.
            retried = service.answer(request)
        assert not retried.cache_hit and not retried.degraded
        assert row_values(retried) == row_values(expected)
        assert service.answer(request).cache_hit
        stats = service.stats()
        assert stats.degraded_answers == 0
        assert stats.degraded_reasons == {}
