"""Committed answer digests: the served engine's output, bit for bit.

:func:`answer_digest` hashes, per query, the edges of the labeling problem,
the sorted labels, the sorted per-column distributions and the ranked
answer rows with their support and sources.  ``answer_digests.json`` pins
it for the full-scale environment of ``test_reproduction.py`` (seed 42,
default inference) and for ``small_env`` under every ``REGISTRY`` solver;
``small_env``'s corpus rebuilt over 2 and 4 shards, and saved and
reopened, must give its 1-shard pin.
A change that claims bit-identity must leave every value as it is; a
change that moves answers on purpose re-records them with::

    PYTHONPATH=src python -m tests.test_answer_digests --record

and says in CHANGES.md why they moved.  The pins were recorded under
CPython 3.11 on x86-64 Linux.  CPython 3.12 made ``sum()`` of floats
compensated, which can move last bits of the similarities, so an
interpreter from 3.12 on may need pins of its own.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.evaluation.harness import build_environment
from repro.index import build_corpus_index, load_corpus
from repro.inference import REGISTRY
from repro.service import EngineConfig, WWTService

PINS = Path(__file__).with_name("answer_digests.json")


def answer_digest(corpus, queries, inference="table-centric"):
    """sha256 over every query's edges, labels, distributions and rows."""
    service = WWTService(corpus, EngineConfig(cache_size=0, inference=inference))
    h = hashlib.sha256()
    for query in queries:
        full = service.answer_full(query, use_cache=False)
        parts = (
            [(e.a, e.b, e.sim, e.nsim_ab, e.nsim_ba) for e in full.problem.edges],
            sorted(full.mapping.labels.items()),
            sorted(full.mapping.distributions.items()),
            [
                (r.cells, r.support, r.source_tables, r.relevance)
                for r in full.answer.rows
            ],
        )
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\n")
    return h.hexdigest()


def full_scale_digest():
    """Seed 42, scale 1.0 (``test_reproduction.py``'s environment)."""
    env = build_environment(scale=1.0, seed=42)
    return answer_digest(env.synthetic.corpus, [wq.query for wq in env.queries])


def small_env_digest(env, inference):
    return answer_digest(
        env.synthetic.corpus, [wq.query for wq in env.queries], inference
    )


def pinned():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_full_scale_digest():
    assert full_scale_digest() == pinned()["full_scale_seed42"]


@pytest.mark.parametrize("inference", REGISTRY.names())
def test_small_env_digest(small_env, inference):
    assert small_env_digest(small_env, inference) == pinned()["small_env"][inference]


def test_small_env_digest_over_shards_and_disk(small_env, tmp_path):
    """The corpus's partitioning and its round trip through disk do not
    move answers: 2 shards, 4 shards and a saved, reopened corpus all give
    the 1-shard pin."""
    queries = [wq.query for wq in small_env.queries]
    pin = pinned()["small_env"]["table-centric"]
    tables = list(small_env.synthetic.corpus)
    assert small_env.synthetic.corpus.num_shards == 1
    for num_shards in (2, 4):
        corpus = build_corpus_index(tables, num_shards=num_shards)
        assert corpus.num_shards == num_shards
        assert answer_digest(corpus, queries) == pin, f"{num_shards} shards"
    small_env.synthetic.corpus.save(tmp_path / "saved")
    with load_corpus(tmp_path / "saved") as reopened:
        assert answer_digest(reopened, queries) == pin, "saved and reopened"


def record():
    small = build_environment(scale=0.25, seed=11)
    pins = {
        "full_scale_seed42": full_scale_digest(),
        "small_env": {
            name: small_env_digest(small, name) for name in REGISTRY.names()
        },
    }
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_answer_digests --record")
    record()
