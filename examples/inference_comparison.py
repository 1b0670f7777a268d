"""Compare the five inference algorithms of Table 2 on one query.

Runs table-independent inference ("none"), the table-centric collective
algorithm, constrained alpha-expansion, loopy BP, and TRW-S on the column
mapping problem the served engine built for the query, reporting objective
score (Eq. 9), number of relevant tables, accuracy against ground truth,
and wall-clock time.

Run:  python examples/inference_comparison.py
"""

import time

from repro import CorpusConfig, EngineConfig, WWTService, generate_corpus
from repro.core.labels import LabelSpace
from repro.corpus import GroundTruth
from repro.evaluation.metrics import f1_error, gold_assignment
from repro.inference import REGISTRY
from repro.query import query_by_id


def main() -> None:
    synthetic = generate_corpus(CorpusConfig(seed=42, scale=1.0))
    wq = query_by_id("black metal bands | country")
    bindings = {wq.query_id: (wq.domain_key, wq.attr_keys)}
    truth = GroundTruth.from_provenance(synthetic.provenance, bindings)

    service = WWTService(synthetic.corpus, EngineConfig(cache_size=0))
    full = service.answer_full(wq.query)
    probe, problem = full.probe, full.problem
    space = LabelSpace(wq.query.q)
    gold = gold_assignment(truth, wq.query_id, probe.tables, space)

    print(f"Query: {wq.query}")
    print(f"Candidates: {len(probe.tables)} tables, "
          f"{problem.num_columns} column variables, "
          f"{len(problem.edges)} content-overlap edges\n")
    print(f"{'algorithm':<18} {'score':>9} {'relevant':>9} "
          f"{'F1 error':>9} {'time':>9}")
    print("-" * 60)
    for name in REGISTRY.names():
        start = time.perf_counter()
        result = REGISTRY[name](problem)
        elapsed = time.perf_counter() - start
        error = f1_error(result.labels, gold, space)
        print(f"{name:<18} {result.score():>9.2f} "
              f"{len(result.relevant_tables()):>9} "
              f"{error:>8.1f}% {elapsed * 1000:>7.0f}ms")
    print("\n(\"none\" solves every table alone: no cross-table signals)")


if __name__ == "__main__":
    main()
