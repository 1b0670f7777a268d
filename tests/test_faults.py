"""Tests for ``repro.faults``: deterministic injection, the per-shard
health lifecycle on a fake clock, partial scatter-gather with coverage
(one path before and after live mutations), close() beside live
probes, the serve client's narrow retry, and the service-level
degradation counters."""

import http.client
import socket
import threading

import pytest

from repro.faults import (
    DOMAIN_HEALTHY,
    DOMAIN_QUARANTINED,
    DOMAIN_RETRYING,
    Coverage,
    EveryNth,
    FaultInjector,
    FaultRule,
    HealthPolicy,
    HealthTracker,
    InjectedFault,
    Once,
    WithProbability,
    activate,
    active_injector,
    deactivate,
    injected,
    trip,
)
from repro.faults.injection import (
    KNOWN_POINTS,
    POINT_SHARD_MATERIALIZE,
    POINT_SHARD_SEARCH,
    POINT_STORE_GET,
    rules_from_spec,
)
from repro.index import (
    ShardedCorpus,
    build_sharded_corpus,
    load_corpus,
    shard_of,
)
from repro.serve import ServeClient
from repro.service import QueryRequest, WWTService
from repro.tables.table import WebTable


def make_tables(n=24, prefix="t"):
    return [
        WebTable.from_rows(
            [[f"val{i}a", f"{i}"], [f"val{i}b", f"{i + 1}"]],
            header=["name", "rank"],
            table_id=f"{prefix}{i}",
        )
        for i in range(n)
    ]


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def ranking(hits):
    """Value view of a hit list (SearchHit compares by identity)."""
    return [(h.doc_id, h.score) for h in hits]


def sharded_with_health(tables, num_shards, policy, clock):
    """A health-enabled corpus over the standard CRC32 partition."""
    built = build_sharded_corpus(tables, num_shards)
    return ShardedCorpus(
        built.shards, built.stats, validate=False, health=policy, clock=clock,
    )


def raise_oserror(*_args, **_kwargs):
    """Stand-in for an index method whose backing storage went away."""
    raise OSError("shard storage went away")


# ---------------------------------------------------------------------------
# Trigger policies


class TestTriggerPolicies:
    def test_every_nth_fires_on_multiples(self):
        policy = EveryNth(3)
        fired = [policy.should_fire(i, None) for i in range(1, 10)]
        assert fired == [False, False, True] * 3

    def test_every_nth_one_is_always(self):
        assert all(EveryNth(1).should_fire(i, None) for i in range(1, 5))

    def test_once_fires_exactly_at(self):
        policy = Once(at=4)
        assert [policy.should_fire(i, None) for i in range(1, 7)] == [
            False, False, False, True, False, False,
        ]

    def test_with_probability_is_seed_deterministic(self):
        policy = WithProbability(p=0.3, seed=7)
        first = [
            policy.should_fire(i, rng)
            for rng in [policy.make_rng()]
            for i in range(1, 101)
        ]
        second = [
            policy.should_fire(i, rng)
            for rng in [policy.make_rng()]
            for i in range(1, 101)
        ]
        assert first == second
        assert any(first) and not all(first)

    def test_with_probability_extremes(self):
        always = WithProbability(p=1.0, seed=1)
        never = WithProbability(p=0.0, seed=1)
        assert always.should_fire(1, always.make_rng())
        assert not never.should_fire(1, never.make_rng())

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

    def test_unknown_point_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultRule("shard.serach", EveryNth(1))

    def test_rules_from_spec_builds_unkeyed_rules(self):
        rules = rules_from_spec([(POINT_SHARD_SEARCH, EveryNth(2))])
        assert [(r.point, r.key) for r in rules] == [
            (POINT_SHARD_SEARCH, None)
        ]

    def test_known_points_catalog_is_closed(self):
        assert POINT_SHARD_SEARCH in KNOWN_POINTS
        assert len(KNOWN_POINTS) == 5


# ---------------------------------------------------------------------------
# The injector seam


class TestInjectorSeam:
    def test_trip_is_a_noop_when_disabled(self):
        assert active_injector() is None
        trip(POINT_SHARD_SEARCH)  # must not raise
        trip(POINT_STORE_GET, key="t1")

    def test_injected_arms_and_disarms(self):
        with injected(FaultRule(POINT_STORE_GET, EveryNth(1))) as injector:
            assert active_injector() is injector
            with pytest.raises(InjectedFault):
                trip(POINT_STORE_GET, key="t1")
        assert active_injector() is None
        trip(POINT_STORE_GET, key="t1")  # disarmed again

    def test_injected_disarms_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with injected(FaultRule(POINT_STORE_GET, EveryNth(1))):
                raise RuntimeError("boom")
        assert active_injector() is None

    def test_overlapping_scopes_refused(self):
        with injected():
            with pytest.raises(RuntimeError, match="already active"):
                activate(FaultInjector([]))
        deactivate()  # idempotent
        deactivate()

    def test_keyed_rule_matches_only_its_key(self):
        rule = FaultRule(POINT_SHARD_SEARCH, EveryNth(1), key="1")
        with injected(rule) as injector:
            trip(POINT_SHARD_SEARCH, key="0")  # other shard: no match
            trip(POINT_SHARD_SEARCH)  # keyless call: no match
            with pytest.raises(InjectedFault) as excinfo:
                trip(POINT_SHARD_SEARCH, key="1")
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
                    trip(POINT_SHARD_SEARCH, key=str(i))
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
            ):
                for i in range(50):
                    try:
                        trip(POINT_SHARD_SEARCH, key=str(i % 4))
                    except InjectedFault:
                        fired.append(i)
            return fired

        assert run() == run()


# ---------------------------------------------------------------------------
# HealthTracker lifecycle (fake clock, exact assertions)


class TestHealthTracker:
    def policy(self, **overrides):
        defaults = dict(
            max_retries=2, backoff_s=0.5, backoff_factor=2.0,
            max_backoff_s=4.0, reopen_after_s=10.0,
        )
        defaults.update(overrides)
        return HealthPolicy(**defaults)

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = self.policy()
        assert [policy.backoff_for(n) for n in range(5)] == [
            0.0, 0.5, 1.0, 2.0, 4.0,  # capped at max_backoff_s
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            HealthPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            HealthPolicy(backoff_s=2.0, max_backoff_s=1.0)

    def test_failure_backs_off_then_retries(self):
        clock = FakeClock()
        tracker = HealthTracker(2, self.policy(), clock=clock)
        assert tracker.available(0)
        tracker.record_failure(0, RuntimeError("probe died"))
        assert tracker.state(0) == DOMAIN_RETRYING
        assert not tracker.available(0)  # inside the 0.5s window
        clock.advance(0.5)
        assert tracker.available(0)  # this probe IS the retry
        tracker.record_success(0)
        assert tracker.state(0) == DOMAIN_HEALTHY
        assert tracker.states() == [DOMAIN_HEALTHY, DOMAIN_HEALTHY]

    def test_quarantine_after_max_retries_then_reopen_heals(self):
        clock = FakeClock()
        tracker = HealthTracker(3, self.policy(), clock=clock)
        # Three consecutive failures: retrying, retrying, quarantined.
        tracker.record_failure(1)
        assert tracker.state(1) == DOMAIN_RETRYING
        clock.advance(0.5)
        tracker.record_failure(1)
        assert tracker.state(1) == DOMAIN_RETRYING
        clock.advance(1.0)
        tracker.record_failure(1)
        assert tracker.state(1) == DOMAIN_QUARANTINED
        assert tracker.quarantined() == 1
        assert not tracker.available(1)
        clock.advance(9.999)
        assert not tracker.available(1)  # reopen window not yet elapsed
        clock.advance(0.001)
        assert tracker.available(1)  # half-open probation
        tracker.record_success(1)
        assert tracker.state(1) == DOMAIN_HEALTHY
        assert tracker.quarantined() == 0

    def test_failed_reopen_requarantines(self):
        clock = FakeClock()
        tracker = HealthTracker(1, self.policy(max_retries=0), clock=clock)
        tracker.record_failure(0)
        assert tracker.state(0) == DOMAIN_QUARANTINED
        clock.advance(10.0)
        assert tracker.available(0)
        tracker.record_failure(0)  # probation probe failed
        assert tracker.state(0) == DOMAIN_QUARANTINED
        assert not tracker.available(0)

    def test_coverage_counts_only_healthy_domains(self):
        clock = FakeClock()
        tracker = HealthTracker(3, self.policy(), clock=clock)
        tracker.record_failure(2)
        coverage = tracker.coverage([10, 20, 30])
        assert coverage == Coverage(
            shards_total=3, shards_reachable=2,
            tables_total=60, tables_reachable=30,
        )
        assert coverage.fraction == 0.5
        assert not coverage.complete
        with pytest.raises(ValueError, match="weights"):
            tracker.coverage([10, 20])

    def test_coverage_full_and_empty_records(self):
        assert Coverage.full(4, 100).complete
        assert Coverage.full(4, 100).fraction == 1.0
        empty = Coverage(1, 1, 0, 0)
        assert empty.fraction == 1.0  # empty corpus: vacuously covered
        d = Coverage(2, 1, 10, 4).to_dict()
        assert d["fraction"] == 0.4 and d["complete"] is False

    def test_snapshot_carries_counters_and_last_error(self):
        tracker = HealthTracker(2, self.policy(), clock=FakeClock())
        tracker.record_failure(0, ValueError("bad shard"))
        tracker.record_success(1)
        snap = tracker.snapshot()
        assert snap[0]["failures"] == 1
        assert snap[0]["last_error"] == "ValueError: bad shard"
        assert snap[1]["successes"] == 1
        assert tracker.num_domains == 2
        with pytest.raises(ValueError):
            HealthTracker(0)


# ---------------------------------------------------------------------------
# ShardedCorpus failure domains: partial scatter, coverage, healing


class TestShardedFailureDomains:
    POLICY = HealthPolicy(
        max_retries=0, backoff_s=0.1, reopen_after_s=5.0,
    )

    def test_strict_corpus_raises_through(self):
        corpus = build_sharded_corpus(make_tables(), 3)
        with injected(FaultRule(POINT_SHARD_SEARCH, EveryNth(1), key="0")):
            with pytest.raises(InjectedFault):
                corpus.search(["val1a"])

    def test_partial_search_covers_reachable_shards_then_heals(self):
        tables = make_tables()
        clock = FakeClock()
        corpus = sharded_with_health(tables, 3, self.POLICY, clock)
        baseline = build_sharded_corpus(tables, 3).search(["name"], limit=50)
        assert baseline  # the probe matches something to lose

        with injected(FaultRule(POINT_SHARD_SEARCH, Once(), key="1")):
            partial = corpus.search(["name"], limit=50)
        lost = {h.doc_id for h in baseline} - {h.doc_id for h in partial}
        shard1_ids = set(corpus.shards[1].store.ids())
        assert lost  # shard 1 contributed to the baseline
        assert lost <= shard1_ids
        coverage = corpus.coverage()
        assert not coverage.complete
        assert coverage.shards_reachable == 2
        assert coverage.tables_reachable == corpus.num_tables - len(
            shard1_ids
        )

        # Inside the quarantine window the shard sits out silently: no
        # shard-1 document can appear, and coverage stays partial.
        inside = corpus.search(["name"], limit=50)
        assert shard1_ids.isdisjoint({h.doc_id for h in inside})
        assert not corpus.coverage().complete
        # After the reopen window the probation probe succeeds and heals —
        # and the healed ranking is bit-identical to the fault-free one.
        clock.advance(5.0)
        healed = corpus.search(["name"], limit=50)
        assert ranking(healed) == ranking(baseline)
        assert corpus.coverage().complete

    def test_partial_conjunctive_probe_and_get_many(self):
        tables = make_tables()
        clock = FakeClock()
        corpus = sharded_with_health(tables, 3, self.POLICY, clock)
        strict = build_sharded_corpus(tables, 3)
        all_docs = strict.docs_containing_all(["name"], ["header"])
        all_ids = [t.table_id for t in tables]
        shard1_ids = set(corpus.shards[1].store.ids())

        with injected(FaultRule(POINT_SHARD_SEARCH, Once(), key="1")):
            partial = corpus.docs_containing_all(["name"], ["header"])
        assert partial == all_docs - shard1_ids
        # get_many skips the quarantined shard instead of raising.
        fetched = corpus.get_many(all_ids)
        assert [t.table_id for t in fetched] == [
            i for i in all_ids if i not in shard1_ids
        ]
        clock.advance(5.0)
        assert corpus.docs_containing_all(["name"], ["header"]) == all_docs
        assert len(corpus.get_many(all_ids)) == len(all_ids)

    def test_health_snapshot_surface(self):
        corpus = sharded_with_health(
            make_tables(), 2, self.POLICY, FakeClock()
        )
        snap = corpus.health_snapshot()
        assert [d["state"] for d in snap] == [DOMAIN_HEALTHY] * 2
        assert build_sharded_corpus(make_tables(), 2).health_snapshot() is None

    def test_materialize_fault_on_lazy_shard(self, tmp_path):
        tables = make_tables()
        build_sharded_corpus(tables, 2).save(tmp_path / "corpus")
        clock = FakeClock()
        corpus = load_corpus(
            tmp_path / "corpus", health=self.POLICY, clock=clock,
        )
        baseline = load_corpus(tmp_path / "corpus").search(
            ["name"], limit=50
        )
        rule = FaultRule(
            POINT_SHARD_MATERIALIZE, Once(), key="shard-0001"
        )
        with injected(rule) as injector:
            partial = corpus.search(["name"], limit=50)
            assert injector.fires() == 1
        assert len(partial) < len(baseline)
        assert not corpus.coverage().complete
        clock.advance(5.0)  # reopen: materialization retries and succeeds
        assert ranking(corpus.search(["name"], limit=50)) == ranking(baseline)
        assert corpus.coverage().complete

    def test_journaled_probe_is_fault_gated_like_a_clean_one(self, tmp_path):
        """Regression: with a pending mutation a journaled corpus once
        scattered past the ``shard.search`` fault point and the health
        tracker, so the fault below was silently ignored and a real shard
        error raised through a corpus that had failure domains on."""
        build_sharded_corpus(make_tables(32), 4).save(tmp_path / "corpus")
        corpus = load_corpus(
            tmp_path / "corpus", health=HealthPolicy(), clock=FakeClock()
        )
        corpus.add_tables(make_tables(1, prefix="new"))
        with injected(
            FaultRule(POINT_SHARD_SEARCH, EveryNth(1), key="1")
        ) as injector:
            hits = corpus.search(["name"], limit=50)
            assert injector.fires() == 1
        shard1_ids = set(corpus.shards[1].store.ids())
        assert hits and shard1_ids.isdisjoint(h.doc_id for h in hits)
        # The add lives in its own (reachable) shard.
        assert shard_of("new0", 4) != 1
        assert "new0" in {h.doc_id for h in hits}
        coverage = corpus.coverage()
        assert (coverage.shards_reachable, coverage.shards_total) == (3, 4)

        # A real failure (not an injected one) degrades the same way.
        corpus.shards[2].index.search = raise_oserror
        hits = corpus.search(["name"], limit=50)
        assert hits
        assert corpus.coverage().shards_reachable == 2
        assert "OSError" in corpus.health_snapshot()[2]["last_error"]

    def test_journaled_table_reads_degrade_like_a_clean_corpus(
        self, tmp_path
    ):
        """Regression: a journaled corpus once read tables through
        ``get_table``, past the health tracker, so the table-read fault
        below raised ``InjectedFault`` where the bare snapshot degraded."""
        tables = make_tables(12)
        build_sharded_corpus(tables, 3).save(tmp_path / "corpus")
        ids = [t.table_id for t in tables]
        for mutated in (False, True):
            corpus = load_corpus(
                tmp_path / "corpus", health=HealthPolicy(), clock=FakeClock(),
            )
            if mutated:
                corpus.delete_tables(["t5"])
                corpus.add_tables([tables[5]])
            with injected(FaultRule(POINT_STORE_GET, EveryNth(1))):
                assert corpus.get_many(ids) == []
            coverage = corpus.coverage()
            assert (coverage.shards_reachable, coverage.shards_total) == (0, 3)

        # With pending mutations: order, deletes and adds hold, and a
        # failing shard drops only its own tables.
        corpus = load_corpus(
            tmp_path / "corpus", health=HealthPolicy(), clock=FakeClock()
        )
        corpus.add_tables(make_tables(2, prefix="new"))
        corpus.delete_tables(["t3"])
        wanted = ["new1", "t1", "t0", "t3", "new0", "t2", "zz", "t0"]
        live = ["new1", "t1", "t0", "new0", "t2", "t0"]
        assert [t.table_id for t in corpus.get_many(wanted)] == live
        with injected(FaultRule(POINT_STORE_GET, EveryNth(1), key="t1")):
            got = [t.table_id for t in corpus.get_many(wanted)]
        dead = shard_of("t1", 3)
        assert got == [i for i in live if shard_of(i, 3) != dead]
        assert corpus.coverage().shards_reachable == 2

    def test_broken_shard_is_not_blamed_on_a_healthy_peer(self):
        """Regression: the corpus-global df used to be summed over *all*
        shards from inside whichever shard's score loop first asked for a
        term, so one broken shard marked two unreachable.  The df now
        comes from the corpus statistics and never reads a shard."""
        corpus = sharded_with_health(
            make_tables(32), 4, HealthPolicy(), FakeClock()
        )
        broken = corpus.shards[1].index
        broken.search = broken.document_frequency = raise_oserror
        first = corpus.search(["name", "rank"], limit=50)
        states = [d["state"] for d in corpus.health_snapshot()]
        assert states == [
            DOMAIN_HEALTHY, DOMAIN_RETRYING, DOMAIN_HEALTHY, DOMAIN_HEALTHY
        ]
        assert corpus.coverage().shards_reachable == 3
        # An identical probe scores the same.
        assert first and ranking(corpus.search(["name", "rank"], limit=50)) == (
            ranking(first)
        )

    def test_partial_probe_is_the_fault_free_ranking_of_reachable_shards(
        self, small_env
    ):
        """Every shard is scored under one IDF, fault or not: a probe that
        misses a shard returns the fault-free ranking restricted to the
        shards it reached, scores included."""
        source = small_env.synthetic.corpus
        tables = source.get_many(source.ids()[:60])
        terms, limit = ["name", "rank", "country"], 1000
        fault_free = build_sharded_corpus(tables, 3).search(terms, limit)
        corpus = sharded_with_health(tables, 3, self.POLICY, FakeClock())
        lost = set(corpus.shards[1].store.ids())
        with injected(FaultRule(POINT_SHARD_SEARCH, Once(), key="1")):
            partial = corpus.search(terms, limit)
        expected = [h for h in fault_free if h.doc_id not in lost]
        assert len(expected) < len(fault_free)  # shard 1 had hits to lose
        assert {shard_of(h.doc_id, 3) for h in expected} == {0, 2}
        assert ranking(partial) == ranking(expected)


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
# Service-level degradation accounting (quarantine lifecycle end-to-end)


class TestServiceDegradation:
    POLICY = HealthPolicy(max_retries=0, backoff_s=0.1, reopen_after_s=5.0)

    def service(self, clock):
        corpus = sharded_with_health(
            make_tables(48), 3, self.POLICY, clock
        )
        return WWTService(corpus)

    def test_partial_answer_is_flagged_counted_and_not_cached(self):
        clock = FakeClock()
        service = self.service(clock)
        request = QueryRequest.parse("name | rank")
        with injected(FaultRule(POINT_SHARD_SEARCH, Once(), key="1")):
            response = service.answer(request)
        assert response.degraded
        assert response.degraded_reasons == ["shard_failure"]
        assert response.coverage is not None
        assert not response.coverage.complete
        assert 0.0 < response.coverage.fraction < 1.0
        assert not response.cache_hit

        stats = service.stats()
        assert stats.degraded_answers >= 1
        assert stats.degraded_reasons.get("shard_failure", 0) >= 1
        assert stats.partial_answers >= 1
        assert service.coverage() is not None

        # A partial answer must not have been cached: the same query
        # after healing recomputes at full coverage.
        clock.advance(5.0)
        healed = service.answer(request)
        assert not healed.cache_hit
        assert not healed.degraded
        assert healed.coverage is None  # every shard answered
        # The healed answer now caches normally.
        assert service.answer(request).cache_hit

    def test_healed_answer_matches_never_faulted_service(self):
        clock = FakeClock()
        service = self.service(clock)
        request = QueryRequest.parse("name | rank")
        with injected(FaultRule(POINT_SHARD_SEARCH, Once(), key="0")):
            service.answer(request)
        clock.advance(5.0)
        healed = service.answer(request)
        pristine = self.service(FakeClock()).answer(request)
        assert [r.cells for r in healed.rows] == [
            r.cells for r in pristine.rows
        ]
        assert [r.support for r in healed.rows] == [
            r.support for r in pristine.rows
        ]

    def test_quarantine_lifecycle_counters(self):
        clock = FakeClock()
        corpus = sharded_with_health(make_tables(48), 3, self.POLICY, clock)
        service = WWTService(corpus)
        request = QueryRequest.parse("name | rank")
        with injected(FaultRule(POINT_SHARD_SEARCH, Once(), key="2")):
            service.answer(request)
        snap = corpus.health_snapshot()
        assert snap[2]["state"] == DOMAIN_QUARANTINED
        assert snap[2]["failures"] == 1
        assert "InjectedFault" in snap[2]["last_error"]
        clock.advance(5.0)
        service.answer(request)
        snap = corpus.health_snapshot()
        assert snap[2]["state"] == DOMAIN_HEALTHY
        assert snap[2]["successes"] >= 1
        stats = service.stats()
        assert stats.degraded_reasons == {"shard_failure": 1}
        assert stats.partial_answers == 1
        assert "degraded_reasons" in stats.to_dict()
        assert stats.to_dict()["partial_answers"] == 1
