"""Generated mutation histories against one oracle: a fresh build.

A hypothesis state machine drives a persisted corpus of 1, 2 or 4 shards
through adds, deletes, queries, compactions, exports, reopens and
crashes at ``journal.append``.  The model is the list of live tables in
insertion order.  After every step the corpus must equal
``build_corpus_index`` of that list: the same ids in the same order, the
same hits with the same float scores for fixed probes, the same
``global_idf`` and the same statistics.  Re-adding a deleted id may bring
back the old table or another table under that id.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.corpus.generator import iter_synthetic_tables
from repro.index import analyze_table, build_corpus_index, load_corpus
from repro.tables.table import WebTable

from .faults import (
    POINT_JOURNAL_APPEND,
    FaultRule,
    InjectedFault,
    Once,
    injected,
)

BASE = list(iter_synthetic_tables(24, seed=5, id_prefix="m-", max_rows=8))
#: Other tables' content under the ids of the first four.
ALIASES = [
    WebTable.from_dict({**BASE[12 + i].to_dict(), "table_id": t.table_id})
    for i, t in enumerate(BASE[:4])
]
POOL = BASE + ALIASES
VOCAB = sorted({
    term for t in BASE for term in analyze_table(t)["header"]
})
#: Fixed probes: header words of a few tables, a pair, an absent word.
PROBES = [analyze_table(t)["header"][:2] for t in BASE[::5]] + [
    ["winner", "date"], ["absent-term"],
]
TERMS = sorted({term for probe in PROBES for term in probe})


def hits(corpus, terms, limit):
    return [(h.doc_id, h.score) for h in corpus.search(terms, limit=limit)]


def snapshot(corpus):
    """Everything the oracle comparison looks at."""
    return {
        "ids": corpus.ids(),
        "shard_sizes": corpus.shard_sizes(),
        "num_tables": corpus.num_tables,
        "hits": [hits(corpus, probe, 10) for probe in PROBES],
        "idf": (
            [corpus.global_idf(term) for term in TERMS]
            if corpus.num_tables else None
        ),
        "stats": corpus.stats.to_dict(),
    }


class CorpusHistory(RuleBasedStateMachine):
    """One persisted corpus, its model, and the oracle after every step."""

    @initialize(k=st.sampled_from([1, 2, 4]), n=st.integers(0, 12))
    def build(self, k, n):
        self.k = k
        self.model = list(BASE[:n])
        self.depth = 0  # journal records since the last compaction
        self.dir = Path(tempfile.mkdtemp(prefix="corpus-history-"))
        self.path = self.dir / "c"
        build_corpus_index(self.model, num_shards=k, save=self.path)
        self.corpus = load_corpus(self.path)

    def teardown(self):
        if hasattr(self, "corpus"):
            self.corpus.close()
            shutil.rmtree(self.dir, ignore_errors=True)

    def live_ids(self):
        return [t.table_id for t in self.model]

    def absent(self):
        live = set(self.live_ids())
        return [t for t in POOL if t.table_id not in live]

    def draw_adds(self, data):
        return data.draw(st.lists(
            st.sampled_from(self.absent()), min_size=1, max_size=3,
            unique_by=lambda t: t.table_id,
        ))

    def draw_deletes(self, data):
        return data.draw(st.lists(
            st.sampled_from(self.live_ids()), min_size=1, max_size=3,
            unique=True,
        ))

    def apply(self, op, batch):
        if op == "add":
            assert self.corpus.add_tables(batch) == len(batch)
            self.model.extend(batch)
        else:
            assert self.corpus.delete_tables(batch) == len(batch)
            self.model = [t for t in self.model if t.table_id not in batch]
        self.depth += len(batch)

    @precondition(lambda self: self.absent())
    @rule(data=st.data())
    def add(self, data):
        self.apply("add", self.draw_adds(data))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        self.apply("delete", self.draw_deletes(data))

    @rule(
        terms=st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3),
        limit=st.sampled_from([1, 5, 40]),
    )
    def query(self, terms, limit):
        oracle = build_corpus_index(self.model, num_shards=self.k)
        assert hits(self.corpus, terms, limit) == hits(oracle, terms, limit)

    @rule()
    def compact(self):
        assert self.corpus.compact() == self.depth
        self.depth = 0

    @rule()
    def save(self):
        with load_corpus(self.corpus.save(self.dir / "export")) as copy:
            assert copy.journal_depth == 0
            assert snapshot(copy) == snapshot(self.corpus)

    @rule()
    def reopen(self):
        self.corpus.close()
        self.corpus = load_corpus(self.path)

    @precondition(lambda self: self.absent() and self.model)
    @rule(data=st.data(), op=st.sampled_from(["add", "delete"]))
    def crash(self, data, op):
        """The ``at``-th append of the batch fails: the batch must leave
        no trace in memory or on disk, and a restart must agree."""
        batch = (
            self.draw_adds(data) if op == "add" else self.draw_deletes(data)
        )
        at = data.draw(st.integers(1, self.k))
        with injected(FaultRule(POINT_JOURNAL_APPEND, Once(at))) as faults:
            try:
                self.apply(op, batch)
            except InjectedFault:
                pass
            crashed = faults.fires() == 1
        if crashed:
            self.corpus.close()
            self.corpus = load_corpus(self.path)

    @precondition(lambda self: hasattr(self, "corpus"))
    @invariant()
    def equals_fresh_build(self):
        assert self.corpus.journal_depth == self.depth
        oracle = build_corpus_index(self.model, num_shards=self.k)
        assert snapshot(self.corpus) == snapshot(oracle)


CorpusHistory.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCorpusHistory = CorpusHistory.TestCase
