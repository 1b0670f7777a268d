# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""Child process of ``bigcorpus``: open a corpus directory cold, answer once.

Run as a script (``python coldstart.py SRC CORPUS QUERY TRACE``) so that
nothing of the parent's warmed state is shared.  Timing starts after the
imports: interpreter start-up is not the index layer's cost.  Prints one
JSON object on its last line.
"""

from __future__ import annotations

import json
import sys
import time


def main(src: str, corpus_path: str, text: str, trace: str) -> int:
    sys.path.insert(0, src)
    from repro.index import load_corpus
    from repro.query import Query
    from repro.service import EngineConfig, WWTService

    config = EngineConfig(
        cache_size=0, probe_cache_size=0, parallel_mode="serial"
    )
    out = {}
    if trace == "1":
        # Layer by layer: the open, the first probe (which materialises
        # every shard it scatters to) against a repeated one, and the
        # first read (lazy row parse).
        tokens = Query.parse(text).all_tokens()
        limit = config.probe.stage1_limit
        t0 = time.perf_counter()
        corpus = load_corpus(corpus_path, parallel_mode="serial")
        t1 = time.perf_counter()
        hits = corpus.search(tokens, limit=limit)
        t2 = time.perf_counter()
        corpus.search(tokens, limit=limit)
        t3 = time.perf_counter()
        corpus.get_many([h.doc_id for h in hits])
        t4 = time.perf_counter()
        out["index.open_ms"] = (t1 - t0) * 1e3
        out["index.materialize_ms"] = ((t2 - t1) - (t3 - t2)) * 1e3
        out["index.first_read_ms"] = (t4 - t3) * 1e3
        service = WWTService(corpus, config)
    else:
        t0 = time.perf_counter()
        service = WWTService(corpus_path, config)
        t1 = time.perf_counter()
        out["index.open_ms"] = (t1 - t0) * 1e3
    response = service.answer(text)
    if trace != "1":
        out["first_query_ms"] = (time.perf_counter() - t0) * 1e3
    out["rows"] = response.total_rows
    service.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:5]))
